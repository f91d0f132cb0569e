#include "serve/model_registry.h"

#include <stdexcept>
#include <utility>

#include "serve/correction_wal.h"

namespace sato::serve {

ModelBundle::ModelBundle(std::shared_ptr<const SatoModel> model,
                         std::shared_ptr<const FeatureContext> context,
                         features::FeatureScaler scaler, std::string tag,
                         uint64_t version)
    : version_(version),
      tag_(std::move(tag)),
      model_(std::move(model)),
      context_(std::move(context)),
      scaler_(std::move(scaler)),
      predictor_(model_.get(), context_.get(), scaler_),
      counters_(std::make_shared<internal::VersionCounters>()) {
  if (model_ == nullptr || context_ == nullptr) {
    throw std::invalid_argument("ModelBundle: model and context required");
  }
}

std::shared_ptr<const ModelBundle> ModelRegistry::Publish(
    std::shared_ptr<const SatoModel> model,
    std::shared_ptr<const FeatureContext> context,
    features::FeatureScaler scaler, std::string tag) {
  if (model == nullptr || context == nullptr) {
    throw std::invalid_argument("ModelRegistry::Publish: null model/context");
  }
  std::shared_ptr<const ModelBundle> bundle;
  std::shared_ptr<const ModelBundle> previous;  // unpinned after unlocking
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t version = next_version_++;
    if (tag.empty()) tag = "v" + std::to_string(version);
    bundle = std::make_shared<const ModelBundle>(
        std::move(model), std::move(context), std::move(scaler), tag,
        version);
    history_.push_back(
        VersionRecord{version, std::move(tag), bundle, bundle->counters_});
    // The swap itself. Readers that already pinned the old version keep
    // it alive; new Current() calls see this bundle. Swapped under mutex_
    // so concurrent publishes install in version order -- readers never
    // take mutex_.
    std::lock_guard<std::mutex> current_lock(current_mutex_);
    previous = std::exchange(current_, bundle);
  }
  return bundle;
}

uint64_t ModelRegistry::current_version() const {
  auto bundle = Current();
  return bundle != nullptr ? bundle->version() : 0;
}

RegistryStats ModelRegistry::Stats() const {
  RegistryStats stats;
  std::lock_guard<std::mutex> lock(mutex_);
  // current_ is stored under mutex_ in Publish, so loading it inside the
  // critical section yields a snapshot consistent with published/versions.
  auto current = Current();
  stats.current_version = current != nullptr ? current->version() : 0;
  stats.published = next_version_ - 1;
  stats.versions.reserve(history_.size());
  for (const VersionRecord& record : history_) {
    VersionInfo info;
    info.version = record.version;
    info.tag = record.tag;
    info.served = record.counters->served.load(std::memory_order_relaxed);
    info.retired = record.bundle.expired();
    stats.versions.push_back(std::move(info));
  }
  stats.corrections_submitted = corrections_submitted_;
  stats.corrections_wal_failed = corrections_wal_failed_;
  return stats;
}

void ModelRegistry::AttachCorrectionWal(CorrectionWal* wal) {
  std::lock_guard<std::mutex> lock(mutex_);
  wal_ = wal;
}

bool ModelRegistry::SubmitCorrection(const Correction& correction) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++corrections_submitted_;
  // Durability gates the ack: "accepted" always means "replayable", so a
  // failed append is reported and the caller withholds the ack.
  if (wal_ != nullptr && !wal_->Append(correction)) {
    ++corrections_wal_failed_;
    return false;
  }
  return true;
}

}  // namespace sato::serve
