#ifndef SATO_SERVE_BATCH_PREDICTOR_H_
#define SATO_SERVE_BATCH_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "nn/workspace.h"
#include "serve/model_registry.h"
#include "serve/thread_pool.h"
#include "table/table.h"

namespace sato::serve {

struct BatchPredictorOptions {
  /// Worker threads. Clamped to >= 1.
  size_t num_threads = 1;

  /// Base seed of the per-table Rng streams. Every table derives its own
  /// stream from (seed, table index), so predictions depend only on the
  /// seed and the table's position in the batch -- never on thread count
  /// or scheduling order.
  uint64_t seed = 1;
};

/// Parallel batch prediction over many tables, all workers sharing ONE
/// immutable model version.
///
/// The predictor PINS one `shared_ptr<const ModelBundle>` for its whole
/// lifetime: the model, feature context and scaler it serves are fixed at
/// construction and stay alive while the predictor exists, even if the
/// registry they came from publishes newer versions meanwhile. (Offline
/// batches want a consistent version end to end; the online
/// PredictionService is the surface that re-pins per micro-batch.)
///
/// The network's inference pass (SatoModel::Predict via Layer::Apply) is
/// const and re-entrant: it writes nothing to the model and draws every
/// intermediate from a caller-owned nn::Workspace. The BatchPredictor
/// therefore keeps one Workspace + FeatureScratch per worker thread --
/// model memory is O(1) in the thread count and construction copies no
/// parameters.
///
/// Determinism: table i is decoded with an Rng seeded TableSeed(seed, i),
/// and results land at index i of the output, so a batch produces
/// byte-identical output for 1, 2, or N worker threads -- identical to
/// running SatoPredictor sequentially with the same per-table seeds.
/// (Workspace scratch is zero-filled on acquisition, so results never
/// depend on what a worker computed previously.)
class BatchPredictor {
 public:
  /// Pins `bundle` (must be non-null) for the predictor's lifetime.
  BatchPredictor(std::shared_ptr<const ModelBundle> bundle,
                 const BatchPredictorOptions& options);

  /// Predicted semantic type ids for every table, in input order.
  std::vector<std::vector<TypeId>> PredictTables(
      const std::vector<Table>& tables);

  /// Predicted canonical type names for every table, in input order.
  std::vector<std::vector<std::string>> PredictTypeNames(
      const std::vector<Table>& tables);

  /// The deterministic per-table seed stream (splitmix64 over the base
  /// seed and table index). Exposed so sequential reference runs can
  /// reproduce the batch output exactly.
  static uint64_t TableSeed(uint64_t base_seed, size_t table_index);

  size_t num_threads() const { return pool_.num_threads(); }

  /// The pinned model version every worker reads. The snapshot is safe to
  /// hold past the predictor's destruction (it is a pin of its own) --
  /// unlike the `const SatoModel&` accessor this replaces, which dangled
  /// once hot-swappable ownership arrived.
  const std::shared_ptr<const ModelBundle>& bundle() const { return bundle_; }

  /// Version id of the pinned bundle.
  uint64_t model_version() const { return bundle_->version(); }

  /// Bytes of scratch currently pooled across all worker workspaces and
  /// featurization scratches (the steady-state serving overhead that
  /// replaced per-worker replicas).
  size_t WorkspaceBytes() const;

  /// Featurization-scratch growth events summed over all workers. Constant
  /// once the batch mix is warm: steady-state featurization allocates
  /// nothing (asserted by tests/serve_test.cc).
  size_t FeaturizeGrowthEvents() const;

 private:
  BatchPredictorOptions options_;
  std::shared_ptr<const ModelBundle> bundle_;  // pinned for our lifetime
  std::vector<nn::Workspace> workspaces_; // one per worker thread
  std::vector<SatoPredictor::Scratch> scratches_;  // one per worker thread
  ThreadPool pool_;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_BATCH_PREDICTOR_H_
