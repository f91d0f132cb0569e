#ifndef SATO_CORE_PREDICTOR_H_
#define SATO_CORE_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/sato_model.h"
#include "features/pipeline.h"

namespace sato {

/// End-to-end prediction facade for *raw tables*: featurise through the
/// shared context, standardise with the scaler that was fitted on the
/// training split, and decode with the model. This is the API an
/// application uses after training -- without it, callers would feed
/// unstandardised features into a network trained on standardised ones.
///
/// The predictor only ever drives the model's const, re-entrant Apply
/// path, so one SatoPredictor (and the one model behind it) may be shared
/// by any number of threads -- each caller passes its own Workspace, or
/// nullptr to use a transient one. Featurization likewise: each caller may
/// pass its own Scratch (the serving layer keeps one per worker) so the
/// tokenize-once fast path recycles every buffer, or nullptr for a
/// transient one.
class SatoPredictor {
 public:
  /// Per-worker featurization scratch: the tokenize-once FeatureScratch
  /// plus a reusable TableExample whose per-column vectors are recycled
  /// between tables. Warm steady state: Featurize allocates nothing
  /// (growth_events() stays constant; asserted in tests/core_test.cc).
  struct Scratch {
    features::FeatureScratch features;
    TableExample example;

    size_t growth_events() const { return features.TotalGrowthEvents(); }
    size_t CapacityBytes() const { return features.CapacityBytes(); }
  };

  /// All pointers are borrowed and must outlive the predictor (the
  /// serving tier's serve::ModelBundle owns them for its predictor).
  SatoPredictor(const SatoModel* model, const FeatureContext* context,
                features::FeatureScaler scaler)
      : model_(model), context_(context), scaler_(std::move(scaler)) {}

  /// Featurises one raw table (no headers consulted).
  TableExample Featurize(const Table& table, util::Rng* rng) const;

  /// Featurises into `scratch->example` through the tokenize-once fast
  /// path, recycling the scratch's buffers. Returns the example (owned by
  /// the scratch, valid until its next FeaturizeInto).
  const TableExample& FeaturizeInto(const Table& table, util::Rng* rng,
                                    Scratch* scratch) const;

  /// Predicted semantic type ids, one per column.
  std::vector<TypeId> PredictTable(const Table& table, util::Rng* rng,
                                   nn::Workspace* ws = nullptr,
                                   Scratch* scratch = nullptr) const;

  /// Predicted canonical type names, one per column.
  std::vector<std::string> PredictTypeNames(const Table& table,
                                            util::Rng* rng,
                                            nn::Workspace* ws = nullptr,
                                            Scratch* scratch = nullptr) const;

  /// Column-wise probabilities [num_columns x num_classes], where
  /// num_classes is the size of the model's type ontology (pre-CRF scores).
  nn::Matrix PredictProbs(const Table& table, util::Rng* rng,
                          nn::Workspace* ws = nullptr,
                          Scratch* scratch = nullptr) const;

  const SatoModel& model() const { return *model_; }

 private:
  const SatoModel* model_;         // borrowed
  const FeatureContext* context_;  // borrowed
  features::FeatureScaler scaler_;
};

}  // namespace sato

#endif  // SATO_CORE_PREDICTOR_H_
