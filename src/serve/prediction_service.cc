#include "serve/prediction_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace sato::serve {

namespace internal {

/// Shared state behind one PredictionHandle: the request while pending,
/// the result once resolved. The table and seed are immutable after
/// Submit; `done`/`result` are guarded by `mutex`.
struct RequestState {
  Table table;
  uint64_t seed = 0;
  uint64_t submit_nanos = 0;
  uint64_t deadline_nanos = 0;
  /// Absolute caller deadline on the service clock (0 = none): past this
  /// instant the batcher/worker sheds the request instead of serving it.
  uint64_t client_deadline_nanos = 0;
  // Result-cache plumbing: the key computed (and missed) at Submit time,
  // reused for the completion-side Insert when the serving version still
  // matches (the common case; a straddled swap recomputes).
  bool cache_eligible = false;
  CacheKey cache_key;
  uint64_t cache_key_version = 0;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  PredictionResult result;
};

}  // namespace internal

namespace {

void Resolve(const std::shared_ptr<internal::RequestState>& state,
             PredictionResult result) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->result = std::move(result);
    state->done = true;
  }
  state->cv.notify_all();
}

/// Nearest-rank percentile over an ascending-sorted sample vector.
uint64_t Percentile(const std::vector<uint64_t>& sorted, uint64_t q) {
  if (sorted.empty()) return 0;
  size_t rank = (q * sorted.size() + 99) / 100;  // ceil(q/100 * n)
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// a + b, clamped at UINT64_MAX: a budget meaning "no practical limit"
/// must not wrap around into a deadline in the past.
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return b > UINT64_MAX - a ? UINT64_MAX : a + b;
}

PredictionServiceOptions Sanitize(PredictionServiceOptions options) {
  options.num_threads = std::max<size_t>(1, options.num_threads);
  options.max_batch_size = std::max<size_t>(1, options.max_batch_size);
  options.queue_capacity = std::max<size_t>(1, options.queue_capacity);
  return options;
}

ModelRegistry* ValidateRegistry(ModelRegistry* registry) {
  if (registry == nullptr) {
    throw std::invalid_argument("PredictionService: null registry");
  }
  if (registry->Current() == nullptr) {
    throw std::invalid_argument(
        "PredictionService: registry has no published version");
  }
  return registry;
}

}  // namespace

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kShutdown: return "shutdown";
    case RequestStatus::kFailed: return "failed";
    case RequestStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

// ------------------------------------------------------- PredictionHandle ----

const PredictionResult& PredictionHandle::Get() const {
  if (state_ == nullptr) {
    throw std::logic_error("PredictionHandle::Get on an empty handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

bool PredictionHandle::Done() const {
  if (state_ == nullptr) {
    throw std::logic_error("PredictionHandle::Done on an empty handle");
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

// ------------------------------------------------------ PredictionService ----

PredictionService::PredictionService(ModelRegistry* registry,
                                     const PredictionServiceOptions& options)
    : options_(Sanitize(options)),
      own_clock_(options.clock != nullptr ? nullptr : new SteadyClock),
      clock_(options.clock != nullptr ? options.clock : own_clock_.get()),
      registry_(ValidateRegistry(registry)),
      workspaces_(options_.num_threads),
      scratches_(options_.num_threads),
      worker_context_(options_.num_threads),
      last_pinned_version_(registry->current_version()),
      batch_size_histogram_(options_.max_batch_size + 1, 0),
      pool_(options_.num_threads),
      batcher_([this] { BatcherLoop(); }) {
  // Reserved up front so recording a latency sample never allocates --
  // the completion path must not be able to throw between a prediction
  // and resolving its handle.
  latencies_.reserve(kLatencyWindow);
}

PredictionService::~PredictionService() { Shutdown(); }

PredictionHandle PredictionService::Submit(const Table& table,
                                           uint64_t seed) {
  return Submit(table, seed, /*deadline_budget_nanos=*/0);
}

PredictionHandle PredictionService::Submit(const Table& table, uint64_t seed,
                                           uint64_t deadline_budget_nanos) {
  // Content-addressed fast path: a hit resolves right here -- no admission
  // slot, no batch seat, no worker. The key pins the version current at
  // lookup time; a concurrent Publish makes a hit at worst equivalent to a
  // request whose micro-batch pinned just before the swap (the same
  // straddle window the uncached path already has), and post-swap lookups
  // hash to new keys, so a stale version can never be served.
  bool cache_eligible =
      options_.result_cache != nullptr && table.num_columns() > 0;
  CacheKey cache_key;
  uint64_t cache_key_version = 0;
  if (cache_eligible) {
    const uint64_t lookup_start = clock_->NowNanos();
    cache_key_version = registry_->current_version();
    cache_key = ComputeCacheKey(table, seed, cache_key_version);
    std::vector<TypeId> cached;
    if (options_.result_cache->Lookup(cache_key, &cached)) {
      bool serve_hit = false;
      const uint64_t latency = clock_->NowNanos() - lookup_start;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
        if (stop_) {
          // Shutdown still wins: admission (cached or not) is closed.
          ++rejected_shutdown_;
        } else {
          serve_hit = true;
          ++cache_hits_;
          ++completed_;
          if (latencies_.size() < kLatencyWindow) {
            latencies_.push_back(latency);
          } else {
            latencies_[latency_next_] = latency;
            latency_next_ = (latency_next_ + 1) % kLatencyWindow;
          }
        }
      }
      auto state = std::make_shared<internal::RequestState>();
      PredictionResult result;
      if (serve_hit) {
        result.status = RequestStatus::kOk;
        result.type_ids = std::move(cached);
        result.model_version = cache_key_version;
        result.cache_hit = true;
        result.latency_nanos = latency;
      } else {
        result.status = RequestStatus::kShutdown;
      }
      Resolve(state, std::move(result));
      return PredictionHandle(std::move(state));
    }
  }

  // Admission decision first, table copy second: a rejected request must
  // not pay O(table) work -- overload is exactly when that matters.
  RequestStatus admission = RequestStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
    if (cache_eligible) ++cache_misses_;
    if (stop_) {
      admission = RequestStatus::kShutdown;
      ++rejected_shutdown_;
    } else if (MaybeInject(options_.fault_injector,
                           FaultPoint::kAdmissionReject)) {
      // Injected overload: indistinguishable from a genuinely full queue,
      // which is the point -- clients must treat both as retryable kBusy.
      admission = RequestStatus::kRejected;
      ++rejected_;
    } else if (outstanding_ >= options_.queue_capacity) {
      admission = RequestStatus::kRejected;
      ++rejected_;
    } else {
      ++outstanding_;  // reserve the admission slot before unlocking
    }
  }
  if (admission != RequestStatus::kOk) {
    auto state = std::make_shared<internal::RequestState>();
    PredictionResult result;
    result.status = admission;
    Resolve(state, std::move(result));
    return PredictionHandle(std::move(state));
  }

  std::shared_ptr<internal::RequestState> state;
  try {
    state = std::make_shared<internal::RequestState>();
    state->table = table;  // the only O(table) cost, outside the lock
  } catch (...) {
    // The copy failed (e.g. bad_alloc): give the reserved slot back so
    // capacity is not leaked, then let the caller see the error.
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
    --submitted_;  // this request never happened, keep accepted==completed
    throw;
  }
  state->seed = seed;
  state->cache_eligible = cache_eligible;
  state->cache_key = cache_key;
  state->cache_key_version = cache_key_version;
  bool enqueued = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // Shutdown won the race while we copied: the batcher may already
      // have drained and exited, so enqueueing now would strand the
      // request. Give the slot back and resolve kShutdown.
      --outstanding_;
      ++rejected_shutdown_;
      enqueued = false;
    } else {
      state->submit_nanos = clock_->NowNanos();
      state->deadline_nanos =
          SaturatingAdd(state->submit_nanos, options_.max_queue_delay_nanos);
      // The wire carries a RELATIVE budget (client and service clocks share
      // no epoch); it becomes absolute exactly here, on the service clock.
      state->client_deadline_nanos =
          deadline_budget_nanos == 0
              ? 0
              : SaturatingAdd(state->submit_nanos, deadline_budget_nanos);
      pending_.push_back(state);
    }
  }
  if (!enqueued) {
    PredictionResult result;
    result.status = RequestStatus::kShutdown;
    Resolve(state, std::move(result));
    return PredictionHandle(std::move(state));
  }
  queue_cv_.notify_one();  // the batcher is the only waiter
  return PredictionHandle(std::move(state));
}

void PredictionService::BatcherLoop() {
  // Reused across flushes (cleared, capacity kept), so that a dispatch
  // allocates only the pool closures.
  std::vector<std::shared_ptr<internal::RequestState>> batch;
  std::vector<std::shared_ptr<internal::RequestState>> shed;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;  // drained; Shutdown joins us next
      continue;
    }
    // Work-conserving coalescing: flush at once while a worker is idle --
    // the members of a batch run as separate pool tasks, so holding a
    // request beside an idle worker only adds latency. While every worker
    // is busy, flush when the batch fills, when the oldest pending
    // request's deadline arrives or when a worker frees, whichever comes
    // first; shutdown flushes too. The wait goes through the clock even
    // when the predicate already holds: an injected clock thereby sees the
    // batcher thread before it reads the time below (tests/gate_clock.h
    // relies on this to tell the batcher from the workers).
    const uint64_t deadline = pending_.front()->deadline_nanos;
    clock_->WaitUntil(queue_cv_, lock, deadline, [this] {
      return stop_ || pending_.size() >= options_.max_batch_size ||
             in_flight_ < options_.num_threads;
    });

    // Shed-then-fill: pull pending requests until the batch fills,
    // shedding any whose caller deadline already expired -- inference on
    // an answer nobody is waiting for would only add queueing delay for
    // the requests behind it. Shed requests release their admission slot
    // and count as completed (deadline_exceeded in Stats), but take no
    // latency sample: they measure the caller's impatience, not ours.
    const uint64_t now_nanos = clock_->NowNanos();
    while (!pending_.empty() && batch.size() < options_.max_batch_size) {
      std::shared_ptr<internal::RequestState> request =
          std::move(pending_.front());
      pending_.pop_front();
      if (request->client_deadline_nanos != 0 &&
          now_nanos >= request->client_deadline_nanos) {
        --outstanding_;
        ++completed_;
        ++deadline_exceeded_;
        shed.push_back(std::move(request));
      } else {
        batch.push_back(std::move(request));
      }
    }

    // Pin the model version for this whole micro-batch: one atomic
    // shared_ptr load. Requests in this batch all serve on `bundle` even
    // if a Publish lands mid-execution; the next batch re-pins. An
    // all-shed sweep pins nothing and counts no batch.
    std::shared_ptr<const ModelBundle> bundle;
    bool swapped = false;
    if (!batch.empty()) {
      in_flight_ += batch.size();
      ++batches_;
      ++batch_size_histogram_[batch.size()];
      bundle = registry_->Current();
      swapped = bundle->version() != last_pinned_version_;
      if (swapped) {
        ++model_swaps_;
        last_pinned_version_ = bundle->version();
      }
    }

    lock.unlock();
    for (auto& request : shed) {
      PredictionResult result;
      result.status = RequestStatus::kDeadlineExceeded;
      Resolve(request, std::move(result));
    }
    shed.clear();
    if (bundle != nullptr) {
      if (swapped && options_.result_cache != nullptr) {
        // Space reclamation, not correctness: superseded entries are
        // already unreachable (their keys embed the old version), so drop
        // them now instead of letting LRU pressure age them out.
        options_.result_cache->PurgeVersionsOtherThan(bundle->version());
      }
      for (auto& request : batch) {
        pool_.Submit(
            [this, state = std::move(request), bundle](size_t worker) mutable {
              ExecuteRequest(state, bundle, worker);
              // Drop the pin before the task returns, not when the pool
              // eventually destroys the closure: once the pool's Wait()
              // barrier passes (Shutdown), no task still pins a retired
              // bundle, so "old version freed after its last in-flight
              // batch" is a guarantee rather than an eventually.
              bundle.reset();
              state.reset();
            });
      }
      batch.clear();
      bundle.reset();  // the tasks' copies are the remaining pins
    }
    lock.lock();
  }
}

void PredictionService::ExecuteRequest(
    const std::shared_ptr<internal::RequestState>& state,
    const std::shared_ptr<const ModelBundle>& bundle, size_t worker) {
  // Scratch re-binding: this worker's token dictionary is keyed to the
  // context it last featurized against. A different context pointer means
  // a hot swap replaced the featurization state; the next
  // TokenCache::Build detects the changed component pointers and
  // re-resolves the dictionary. Holding the shared_ptr per worker is the
  // ABA guard -- while we pin the old context, a new one can never be
  // allocated at the same address. Worker slot w is only ever touched by
  // pool thread w, so this needs no lock and cannot race an executing
  // batch.
  if (worker_context_[worker] != bundle->context_ptr()) {
    worker_context_[worker] = bundle->context_ptr();
  }

  // Last-chance shed: the deadline may have expired between batch
  // formation and this worker picking the task up (queue depth, a stalled
  // sibling). Once past this check the request runs to completion.
  if (state->client_deadline_nanos != 0) {
    bool expired = false;
    try {
      expired = clock_->NowNanos() >= state->client_deadline_nanos;
    } catch (...) {
      // An injected clock threw: serve rather than shed.
    }
    if (expired) {
      bool wake_batcher = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
        --outstanding_;
        ++completed_;
        ++deadline_exceeded_;
        wake_batcher = !pending_.empty();
      }
      if (wake_batcher) queue_cv_.notify_one();  // this worker is free
      PredictionResult result;
      result.status = RequestStatus::kDeadlineExceeded;
      Resolve(state, std::move(result));
      return;
    }
  }

  PredictionResult result;
  result.status = RequestStatus::kOk;
  result.model_version = bundle->version();
  try {
    if (MaybeInject(options_.fault_injector, FaultPoint::kDispatchThrow)) {
      // Deliberately thrown INSIDE the normal try so it exercises exactly
      // the escape path a real predictor exception would take.
      throw std::runtime_error("injected dispatch fault");
    }
    if (state->table.num_columns() > 0) {
      // Prediction is a pure function of the table and the pinned
      // version, never of batching/workers: the caller-supplied seed is
      // passed along, but nothing on the path draws from it.
      util::Rng rng(state->seed);
      result.type_ids = bundle->predictor().PredictTable(
          state->table, &rng, &workspaces_[worker], &scratches_[worker]);
      if (state->cache_eligible) {
        // Insert under the version that actually served: when a publish
        // landed between Submit and dispatch, the lookup-time key would
        // file the result under the wrong version.
        const CacheKey key =
            bundle->version() == state->cache_key_version
                ? state->cache_key
                : ComputeCacheKey(state->table, state->seed,
                                  bundle->version());
        options_.result_cache->Insert(key, bundle->version(),
                                      result.type_ids);
      }
    }
    bundle->RecordServed();
  } catch (...) {
    result.status = RequestStatus::kFailed;
    result.error = std::current_exception();
    result.type_ids.clear();
  }
  try {
    result.latency_nanos = clock_->NowNanos() - state->submit_nanos;
  } catch (...) {
    // An injected clock threw: the sample is lost, the request is not --
    // nothing below this line may prevent Resolve from running (an escape
    // here would strand Get() callers forever and detonate the pool's
    // Wait() rethrow inside our destructor).
    result.latency_nanos = 0;
  }
  bool wake_batcher = false;
  {
    // Completion frees an admission slot *before* the handle resolves, so
    // a caller woken by Get() observes the slot available.
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    --outstanding_;
    ++completed_;
    // Sliding window: bounded memory and a bounded Stats() sort, however
    // long the service runs.
    if (latencies_.size() < kLatencyWindow) {
      latencies_.push_back(result.latency_nanos);
    } else {
      latencies_[latency_next_] = result.latency_nanos;
      latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    }
    wake_batcher = !pending_.empty();
  }
  // A worker just freed: pending requests need not wait for their timer.
  if (wake_batcher) queue_cv_.notify_one();
  Resolve(state, std::move(result));
}

void PredictionService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  // The batcher flushed every admitted request before exiting; the pool
  // barrier makes their completion visible to us.
  pool_.Wait();
}

ServiceStats PredictionService::Stats() const {
  ServiceStats stats;
  std::vector<uint64_t> latencies;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.submitted = submitted_;
    stats.rejected = rejected_;
    stats.rejected_shutdown = rejected_shutdown_;
    stats.deadline_exceeded = deadline_exceeded_;
    stats.accepted = submitted_ - rejected_ - rejected_shutdown_;
    stats.completed = completed_;
    stats.outstanding = outstanding_;
    stats.batches = batches_;
    stats.model_swaps = model_swaps_;
    stats.cache_hits = cache_hits_;
    stats.cache_misses = cache_misses_;
    stats.batch_size_histogram = batch_size_histogram_;
    latencies = latencies_;
  }
  std::sort(latencies.begin(), latencies.end());
  stats.latency_p50_nanos = Percentile(latencies, 50);
  stats.latency_p95_nanos = Percentile(latencies, 95);
  stats.latency_p99_nanos = Percentile(latencies, 99);
  return stats;
}

}  // namespace sato::serve
