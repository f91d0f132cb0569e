#include "serve/batch_predictor.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "table/semantic_type.h"
#include "util/rng.h"

namespace sato::serve {

BatchPredictor::BatchPredictor(std::shared_ptr<const ModelBundle> bundle,
                               const BatchPredictorOptions& options)
    : options_(options),
      bundle_(std::move(bundle)),
      pool_(options.num_threads) {
  if (bundle_ == nullptr) {
    throw std::invalid_argument("BatchPredictor: null bundle");
  }
  // One scratch workspace and one featurization scratch per worker; the
  // model itself is shared and never copied (the inference path is const
  // and re-entrant).
  workspaces_.resize(pool_.num_threads());
  scratches_.resize(pool_.num_threads());
}

uint64_t BatchPredictor::TableSeed(uint64_t base_seed, size_t table_index) {
  // splitmix64 over (base_seed, index): cheap, stateless, and well mixed,
  // so neighbouring tables get uncorrelated streams.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (table_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::vector<TypeId>> BatchPredictor::PredictTables(
    const std::vector<Table>& tables) {
  std::vector<std::vector<TypeId>> results(tables.size());
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<uint64_t> served{0};
  const SatoPredictor& predictor = bundle_->predictor();
  for (size_t i = 0; i < tables.size(); ++i) {
    pool_.Submit([this, &predictor, &tables, &results, &first_error,
                  &error_mutex, &served, i](size_t worker) {
      try {
        if (tables[i].num_columns() == 0) return;  // empty prediction
        util::Rng rng(TableSeed(options_.seed, i));
        results[i] = predictor.PredictTable(tables[i], &rng,
                                            &workspaces_[worker],
                                            &scratches_[worker]);
        served.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool_.Wait();
  // Count only predictions that actually completed: empty tables and
  // failed workers don't inflate the per-version served stat.
  if (served > 0) bundle_->RecordServed(served.load(std::memory_order_relaxed));
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<std::vector<std::string>> BatchPredictor::PredictTypeNames(
    const std::vector<Table>& tables) {
  std::vector<std::vector<std::string>> names(tables.size());
  auto ids = PredictTables(tables);
  for (size_t i = 0; i < ids.size(); ++i) {
    names[i].reserve(ids[i].size());
    for (TypeId id : ids[i]) names[i].push_back(TypeName(id));
  }
  return names;
}

size_t BatchPredictor::WorkspaceBytes() const {
  size_t bytes = 0;
  for (const nn::Workspace& ws : workspaces_) bytes += ws.PooledBytes();
  for (const SatoPredictor::Scratch& s : scratches_) bytes += s.CapacityBytes();
  return bytes;
}

size_t BatchPredictor::FeaturizeGrowthEvents() const {
  size_t events = 0;
  for (const SatoPredictor::Scratch& s : scratches_) {
    events += s.growth_events();
  }
  return events;
}

}  // namespace sato::serve
