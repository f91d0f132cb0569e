#ifndef SATO_TOPIC_ANALYSIS_H_
#define SATO_TOPIC_ANALYSIS_H_

#include <string>
#include <vector>

#include "table/table.h"
#include "topic/lda.h"

namespace sato::topic {

/// One salient topic with its representative semantic types (a row of the
/// paper's Table 3).
struct SalientTopic {
  int topic = 0;
  double saliency = 0.0;
  /// Top semantic types by average topic probability, best first.
  std::vector<std::pair<TypeId, double>> top_types;
  /// Top words of the topic (for manual interpretation).
  std::vector<std::string> top_words;
};

/// Reproduces the paper's §5.5 topic interpretation analysis:
///   1. per-type average topic distributions (mean theta over tables
///      containing the type),
///   2. per-topic representative types (top-k types by that average),
///   3. saliency = mean probability of the top-k types,
///   4. topics sorted by saliency.
class TopicAnalysis {
 public:
  TopicAnalysis(const LdaModel* lda) : lda_(lda) {}

  /// Computes the [num_types x num_topics] matrix of average topic
  /// distributions per semantic type over the labeled tables.
  void Fit(const std::vector<Table>& tables);

  /// Top `num_topics` salient topics, each with `k` representative types.
  std::vector<SalientTopic> SalientTopics(size_t num_topics, size_t k) const;

  /// Average topic distribution for one type (row of the fitted matrix).
  const std::vector<double>& TypeTopicDistribution(TypeId type) const {
    return type_topic_[static_cast<size_t>(type)];
  }

 private:
  const LdaModel* lda_;  // not owned
  std::vector<std::vector<double>> type_topic_;
};

}  // namespace sato::topic

#endif  // SATO_TOPIC_ANALYSIS_H_
