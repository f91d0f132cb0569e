// Regenerates Table 3: the top-5 salient LDA topics with their
// representative semantic types (top-5 types by average topic probability)
// and the topic's top words as interpretation hints.
//
// Expected shape (paper): salient topics align with coherent themes --
// e.g. one topic gathers person-related types (origin, nationality,
// country, sex), another business-related types (code, company, symbol).

#include <cstdio>

#include "bench/bench_common.h"
#include "topic/analysis.h"

int main() {
  using namespace sato::bench;
  BenchEnv env = BuildEnv();

  sato::topic::TopicAnalysis analysis(&env.context.lda());
  // Fit on the evaluation corpus D, as §5.5 averages theta over the tables
  // containing each type.
  analysis.Fit(env.tables_d);
  auto salient = analysis.SalientTopics(5, 5);

  std::printf("=== Table 3: top-5 salient topics and representative types ===\n\n");
  std::printf("  %-7s %-10s %-52s %s\n", "Topic", "Saliency",
              "Top-5 semantic types", "Top words (interpretation hints)");
  PrintRule(110);
  for (const auto& st : salient) {
    std::string types;
    for (size_t i = 0; i < st.top_types.size(); ++i) {
      if (i > 0) types += ", ";
      types += sato::TypeName(st.top_types[i].first);
    }
    std::string words;
    for (size_t i = 0; i < st.top_words.size(); ++i) {
      if (i > 0) words += ", ";
      words += st.top_words[i];
    }
    std::printf("  #%-6d %-10.4f %-52s %s\n", st.topic, st.saliency,
                types.c_str(), words.c_str());
  }
  PrintRule(110);
  std::printf("\n(The paper's example: topic #192 -> origin, nationality, "
              "country, continent, sex; topic #264 -> code, description, "
              "creator, company, symbol.)\n");
  return 0;
}
