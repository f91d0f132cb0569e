#ifndef SATO_CORE_DATASET_H_
#define SATO_CORE_DATASET_H_

#include <string>
#include <vector>

#include "core/feature_context.h"
#include "features/pipeline.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato {

/// One featurised table: the unit of multi-column prediction (§2).
struct TableExample {
  std::string id;
  std::vector<int> labels;                          ///< gold TypeIds
  std::vector<features::ColumnFeatures> features;   ///< per column
  std::vector<double> topic;                        ///< shared table topic
};

/// A featurised dataset plus bookkeeping.
struct Dataset {
  std::vector<TableExample> tables;

  /// Total number of columns.
  size_t NumColumns() const;

  /// Gold label sequences (for co-occurrence statistics).
  std::vector<std::vector<int>> LabelSequences() const;
};

/// Extracts features and topic vectors for labeled tables.
class DatasetBuilder {
 public:
  explicit DatasetBuilder(const FeatureContext* context) : context_(context) {}

  /// Featurises every fully-labeled table (partial tables are skipped).
  ///
  /// With `threads > 1` tables are featurised in parallel; results are
  /// identical to the single-threaded run because featurisation, the
  /// topic-vector fold-in included, is deterministic. Every table still
  /// draws its own sub-seed from `rng` up front, so the stream `rng` is
  /// left at does not depend on the thread count either.
  Dataset Build(const std::vector<Table>& tables, util::Rng* rng,
                int threads = 1) const;

 private:
  TableExample BuildExample(const Table& table, uint64_t seed,
                            features::FeatureScratch* scratch) const;

  const FeatureContext* context_;  // not owned
};

/// Fits a feature scaler on the training split and standardises both splits
/// in place (test statistics never leak into the scaler). Returns the
/// fitted scaler so prediction-time tables can be standardised identically
/// (see SatoPredictor).
features::FeatureScaler StandardizeSplits(Dataset* train, Dataset* test);

/// Standardises one dataset in place with an already-fitted scaler.
void ApplyScaler(const features::FeatureScaler& scaler, Dataset* data);

}  // namespace sato

#endif  // SATO_CORE_DATASET_H_
