#ifndef SATO_SERVE_MODEL_REGISTRY_H_
#define SATO_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "features/pipeline.h"
#include "table/semantic_type.h"

namespace sato::serve {

class CorrectionWal;

namespace internal {
/// Per-version counters that outlive the bundle itself: the registry and
/// the bundle share one record, so served counts survive retirement.
struct VersionCounters {
  std::atomic<uint64_t> served{0};
};
}  // namespace internal

/// One deployable model version: the Sato model, the feature context it
/// was trained against, the fitted scaler, and a predictor wired to all
/// three -- plus a registry-assigned version id and a human-readable tag.
///
/// A bundle is IMMUTABLE after construction and always handled through
/// `std::shared_ptr<const ModelBundle>`: whoever holds the pointer holds a
/// *pin* -- the bundle (and the model/context behind it) stays alive
/// exactly until the last pin drops. That is the entire hot-swap
/// story: publishing a new version never invalidates anything an in-flight
/// batch is reading.
///
/// Bundles are built by ModelRegistry::Publish, which assigns versions
/// starting at 1.
class ModelBundle {
 public:
  /// Owning construction: the bundle keeps the model and context alive.
  /// `context` may not be null; `model` may not be null.
  ModelBundle(std::shared_ptr<const SatoModel> model,
              std::shared_ptr<const FeatureContext> context,
              features::FeatureScaler scaler, std::string tag,
              uint64_t version);

  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

  uint64_t version() const { return version_; }
  const std::string& tag() const { return tag_; }

  const SatoModel& model() const { return *model_; }
  const FeatureContext* context() const { return context_.get(); }
  const features::FeatureScaler& scaler() const { return scaler_; }

  /// Shared ownership of the context -- serving workers hold this per
  /// worker so that "same context pointer" can never be an ABA illusion
  /// (a freed context reallocated at the same address); see
  /// PredictionService's scratch re-binding.
  const std::shared_ptr<const FeatureContext>& context_ptr() const {
    return context_;
  }
  const std::shared_ptr<const SatoModel>& model_ptr() const { return model_; }

  /// Predictor wired to this bundle's model/context/scaler. Const and
  /// re-entrant (the Apply path): share it across any number of threads.
  const SatoPredictor& predictor() const { return predictor_; }

  /// Counts one served prediction against this version (lock-free).
  void RecordServed(uint64_t n = 1) const {
    counters_->served.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t served() const {
    return counters_->served.load(std::memory_order_relaxed);
  }

 private:
  friend class ModelRegistry;

  const uint64_t version_;
  const std::string tag_;
  std::shared_ptr<const SatoModel> model_;
  std::shared_ptr<const FeatureContext> context_;
  const features::FeatureScaler scaler_;
  SatoPredictor predictor_;  // borrows from the members above
  std::shared_ptr<internal::VersionCounters> counters_;
};

/// One user correction (the AdaTyper adaptation hook, arXiv:2311.13806):
/// "this column is actually type T". Recorded in the CorrectionWal, not yet
/// learned from.
struct Correction {
  std::string column_name;  ///< header or caller-side identifier
  TypeId corrected_type = 0;
  uint64_t model_version = 0;  ///< version whose prediction was corrected
};

/// Snapshot of one version's lifecycle in RegistryStats.
struct VersionInfo {
  uint64_t version = 0;
  std::string tag;
  uint64_t served = 0;  ///< predictions recorded against this version
  bool retired = false; ///< superseded AND the last pin has dropped
};

struct RegistryStats {
  uint64_t published = 0;        ///< total Publish calls
  uint64_t current_version = 0;  ///< 0 when nothing is published yet
  std::vector<VersionInfo> versions;  ///< ascending by version
  uint64_t corrections_submitted = 0;
  /// Corrections refused because the attached WAL could not durably
  /// record them -- each one was answered with a typed failure, never a
  /// false ack.
  uint64_t corrections_wal_failed = 0;
};

/// Versioned model registry with RCU-style hot swap.
///
/// `Publish` wraps components into an immutable ModelBundle, assigns the
/// next monotonically-increasing version id, and atomically replaces the
/// current pointer. `Current` is the read side: a shared_ptr copy that
/// pins the bundle for as long as the caller keeps the pointer. Readers
/// and publishers exclude each other only for that pointer copy, never
/// for a model's use or destruction (classic read-copy-update with
/// shared_ptr as the grace period: the old version is destroyed when its
/// last pin drops, not at publish time).
///
/// The registry itself only keeps a *weak* reference to superseded
/// versions, so it never extends an old model's lifetime: a version is
/// retired (Stats().versions[i].retired) once its last pin drops.
///
/// Thread-safe throughout. Publishing is rare and cheap (a pointer swap +
/// history bookkeeping under a mutex); pinning is one shared_ptr copy
/// under a mutex held for nothing else.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publishes a new version owning its components. Returns the published
  /// bundle (already current). Throws std::invalid_argument on null
  /// model/context.
  std::shared_ptr<const ModelBundle> Publish(
      std::shared_ptr<const SatoModel> model,
      std::shared_ptr<const FeatureContext> context,
      features::FeatureScaler scaler, std::string tag = std::string());

  /// The current version, pinned. Null until the first Publish.
  std::shared_ptr<const ModelBundle> Current() const {
    std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  /// Version id of the current bundle; 0 before the first Publish.
  uint64_t current_version() const;

  /// Consistent snapshot: per-version served counts and retirement state,
  /// plus correction counters.
  RegistryStats Stats() const;

  // ---- AdaTyper adaptation hook (corrections recorded; no learning yet) --

  /// Attaches the durable write-ahead log (serve/correction_wal.h), the
  /// one store for corrections: every subsequent SubmitCorrection appends
  /// to it before returning, so a correction the caller acknowledges is
  /// always replayable after a crash. Borrowed; pass nullptr to detach,
  /// and detach (or destroy the registry) before destroying the WAL.
  void AttachCorrectionWal(CorrectionWal* wal);

  /// Records one user correction: appends it to the attached WAL and
  /// counts it. Returns true when the correction was accepted; false ONLY
  /// when the attached WAL could not record it, in which case the caller
  /// must not acknowledge it. With no WAL attached the correction is
  /// counted and accepted, but not stored.
  bool SubmitCorrection(const Correction& correction);

 private:
  struct VersionRecord {
    uint64_t version;
    std::string tag;
    std::weak_ptr<const ModelBundle> bundle;  // never extends a lifetime
    std::shared_ptr<internal::VersionCounters> counters;
  };

  // The RCU pointer: readers pin by copying it under current_mutex_,
  // which guards nothing else. Publishers replace it while also holding
  // mutex_, so versions install monotonically. Not a
  // std::atomic<std::shared_ptr>: libstdc++ 12's load() drops its internal
  // lock bit with a relaxed store, so a load and a concurrent store race
  // (ThreadSanitizer reports it under hot swap).
  mutable std::mutex current_mutex_;
  std::shared_ptr<const ModelBundle> current_;

  mutable std::mutex mutex_;  // history + correction counters
  uint64_t next_version_ = 1;
  std::vector<VersionRecord> history_;
  uint64_t corrections_submitted_ = 0;
  uint64_t corrections_wal_failed_ = 0;
  CorrectionWal* wal_ = nullptr;  // borrowed durable log; null = count only
};

}  // namespace sato::serve

#endif  // SATO_SERVE_MODEL_REGISTRY_H_
