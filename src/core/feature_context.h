#ifndef SATO_CORE_FEATURE_CONTEXT_H_
#define SATO_CORE_FEATURE_CONTEXT_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/config.h"
#include "embedding/sgns.h"
#include "embedding/tfidf.h"
#include "embedding/word_embeddings.h"
#include "features/pipeline.h"
#include "table/table.h"
#include "topic/lda.h"
#include "util/rng.h"

namespace sato {

/// The shared, pre-trained machinery every Sato model needs before
/// supervised training starts:
///
///  * word embeddings (SGNS; GloVe substitute) and TF-IDF statistics for
///    the Word/Para feature groups,
///  * the pre-trained LDA table-intent estimator (§3.2, trained on a
///    *separate* unlabeled table set, like the paper's 10K-table corpus),
///  * the feature pipeline wired to them.
///
/// Build it once from an unlabeled reference corpus; it is immutable
/// afterwards and safely shared by every model variant and CV fold.
class FeatureContext {
 public:
  /// Trains embeddings + LDA on the reference corpus (headers are never
  /// used). `config` supplies num_topics.
  static FeatureContext Build(const std::vector<Table>& reference_tables,
                              const SatoConfig& config, util::Rng* rng);

  const features::FeaturePipeline& pipeline() const { return *pipeline_; }
  const embedding::WordEmbeddings& embeddings() const { return *embeddings_; }
  const embedding::TfIdf& tfidf() const { return *tfidf_; }
  const topic::LdaModel& lda() const { return *lda_; }

  /// The table topic vector (§3.2): LDA mixture over the table's values.
  /// Shared by every column of the table. The fold-in is deterministic, so
  /// `rng` is unused; it stays in the signature until the prediction seed
  /// is removed from the serving API.
  std::vector<double> TopicVector(const Table& table, util::Rng* rng) const;

  /// Tokenize-once fast path for one table: builds the TokenCache in
  /// `scratch`, runs the four id-based extractor kernels per column into
  /// `*features`, then folds the cached LDA ids into `*topic` (the same
  /// mixture as TopicVector up to rounding; `rng` is unused, as there). A
  /// warm scratch makes the whole call allocation-free;
  /// scratch->growth_events counts the calls that were not.
  void FeaturizeTable(const Table& table, util::Rng* rng,
                      features::FeatureScratch* scratch,
                      std::vector<features::ColumnFeatures>* features,
                      std::vector<double>* topic) const;

  size_t topic_dim() const { return static_cast<size_t>(lda_->num_topics()); }

  /// Persists the pre-trained machinery (embeddings, TF-IDF, LDA).
  void Save(std::ostream* out) const;

  /// Restores a context saved with Save; the feature pipeline is rewired
  /// to the loaded components.
  static FeatureContext Load(std::istream* in);

 private:
  FeatureContext() = default;

  std::unique_ptr<embedding::WordEmbeddings> embeddings_;
  std::unique_ptr<embedding::TfIdf> tfidf_;
  std::unique_ptr<topic::LdaModel> lda_;
  std::unique_ptr<features::FeaturePipeline> pipeline_;
};

}  // namespace sato

#endif  // SATO_CORE_FEATURE_CONTEXT_H_
