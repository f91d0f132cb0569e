#ifndef SATO_EVAL_MODEL_EVAL_H_
#define SATO_EVAL_MODEL_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/sato_model.h"
#include "eval/metrics.h"
#include "serve/model_registry.h"

namespace sato::eval {

/// Runs a model over every table of a dataset; appends flattened gold and
/// predicted labels (column order preserved within each table). Uses the
/// const inference path with one reused workspace across tables.
void PredictDataset(const SatoModel* model, const Dataset& data,
                    std::vector<int>* gold, std::vector<int>* predicted);

/// Convenience: predict + evaluate in one call.
EvaluationResult EvaluateModel(const SatoModel* model, const Dataset& data);

/// Runs a pinned bundle over raw tables with the serving tier's seed
/// discipline (table i decodes with the Rng stream TableSeed(seed, i)), so
/// the flattened predictions are byte-comparable with any online run
/// pinned to the same version. Gold labels come from each table's
/// TypeSequence(); predictions are counted against the bundle's version.
void PredictTablesWithBundle(const serve::ModelBundle& bundle,
                             const std::vector<Table>& tables, uint64_t seed,
                             std::vector<int>* gold,
                             std::vector<int>* predicted);

/// Convenience: predict + evaluate a pinned bundle snapshot in one call.
/// Throws std::invalid_argument on a null bundle.
EvaluationResult EvaluateBundleOnTables(
    const std::shared_ptr<const serve::ModelBundle>& bundle,
    const std::vector<Table>& tables, uint64_t seed);

}  // namespace sato::eval

#endif  // SATO_EVAL_MODEL_EVAL_H_
