#include "topic/analysis.h"

#include <algorithm>

#include "topic/table_document.h"

namespace sato::topic {

void TopicAnalysis::Fit(const std::vector<Table>& tables) {
  const int k = lda_->num_topics();
  type_topic_.assign(kNumSemanticTypes,
                     std::vector<double>(static_cast<size_t>(k), 0.0));
  std::vector<double> type_count(kNumSemanticTypes, 0.0);

  for (const Table& table : tables) {
    std::vector<double> theta = lda_->InferTopics(TableToDocument(table));
    // Accumulate this table's mixture into every type present in it (the
    // paper's "average topic distribution based on the topic distributions
    // theta_i of the i-th table that contains the semantic type").
    std::vector<bool> seen(kNumSemanticTypes, false);
    for (const Column& column : table.columns()) {
      if (!column.type.has_value() || seen[static_cast<size_t>(*column.type)]) {
        continue;
      }
      seen[static_cast<size_t>(*column.type)] = true;
      size_t t = static_cast<size_t>(*column.type);
      for (int j = 0; j < k; ++j) {
        type_topic_[t][static_cast<size_t>(j)] += theta[static_cast<size_t>(j)];
      }
      type_count[t] += 1.0;
    }
  }
  for (size_t t = 0; t < type_topic_.size(); ++t) {
    if (type_count[t] > 0.0) {
      for (double& v : type_topic_[t]) v /= type_count[t];
    }
  }
}

std::vector<SalientTopic> TopicAnalysis::SalientTopics(size_t num_topics,
                                                       size_t k) const {
  const int kt = lda_->num_topics();
  std::vector<SalientTopic> topics;
  topics.reserve(static_cast<size_t>(kt));
  for (int topic = 0; topic < kt; ++topic) {
    SalientTopic st;
    st.topic = topic;
    // Rank types by their average probability of this topic.
    std::vector<std::pair<TypeId, double>> scored;
    scored.reserve(kNumSemanticTypes);
    for (TypeId t = 0; t < kNumSemanticTypes; ++t) {
      scored.emplace_back(t, type_topic_[static_cast<size_t>(t)]
                                        [static_cast<size_t>(topic)]);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    scored.resize(std::min(k, scored.size()));
    st.top_types = scored;
    double sum = 0.0;
    for (const auto& [t, p] : scored) sum += p;
    st.saliency = scored.empty() ? 0.0 : sum / static_cast<double>(scored.size());
    for (const auto& [word, p] : lda_->TopWords(topic, 5)) {
      st.top_words.push_back(word);
    }
    topics.push_back(std::move(st));
  }
  std::sort(topics.begin(), topics.end(), [](const auto& a, const auto& b) {
    return a.saliency > b.saliency;
  });
  topics.resize(std::min(num_topics, topics.size()));
  return topics;
}

}  // namespace sato::topic
