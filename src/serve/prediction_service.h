#ifndef SATO_SERVE_PREDICTION_SERVICE_H_
#define SATO_SERVE_PREDICTION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "nn/workspace.h"
#include "serve/clock.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"
#include "serve/thread_pool.h"
#include "table/table.h"

namespace sato::serve {

/// Terminal state of one submitted request.
enum class RequestStatus : uint8_t {
  kOk = 0,        ///< prediction completed; PredictionResult::type_ids valid
  kRejected = 1,  ///< bounded admission queue was full at Submit time
  kShutdown = 2,  ///< submitted after Shutdown() began
  kFailed = 3,    ///< prediction threw; PredictionResult::error holds it
  /// The caller-supplied deadline expired before the request reached a
  /// worker: the batcher (or the worker, for requests already dispatched)
  /// shed it instead of spending inference on an answer nobody is waiting
  /// for. Only possible when Submit was given a nonzero deadline budget.
  kDeadlineExceeded = 4,
};

/// Stable human-readable name ("ok", "rejected", ...).
const char* RequestStatusName(RequestStatus status);

struct PredictionResult {
  RequestStatus status = RequestStatus::kShutdown;
  /// Predicted semantic type ids, one per column (empty unless kOk).
  std::vector<TypeId> type_ids;
  /// Registry version of the model bundle that produced this prediction
  /// (0 for rejected/shutdown requests, which never reached a model).
  /// With hot swap live, this is what keeps the determinism contract
  /// auditable: the response is byte-identical to a sequential
  /// SatoPredictor run on exactly this version.
  uint64_t model_version = 0;
  /// Submit -> completion on the service clock (0 for rejected requests).
  uint64_t latency_nanos = 0;
  /// True when the response was served from the content-addressed result
  /// cache (byte-identical to the cold prediction on model_version by the
  /// determinism guarantee -- the cache key covers table content, seed and
  /// model version, nothing else).
  bool cache_hit = false;
  /// The escaped exception when status == kFailed, else null.
  std::exception_ptr error;
};

namespace internal {
struct RequestState;
}  // namespace internal

/// Future-like handle returned by PredictionService::Submit. Copyable and
/// cheap (a shared pointer); valid even after the service shuts down or is
/// destroyed, because the result lives in shared state.
class PredictionHandle {
 public:
  /// Empty handle; Get()/Done() throw std::logic_error until assigned.
  PredictionHandle() = default;

  /// Blocks until the request reaches a terminal state.
  const PredictionResult& Get() const;

  /// Non-blocking: true once the request reached a terminal state.
  bool Done() const;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class PredictionService;
  explicit PredictionHandle(std::shared_ptr<internal::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::RequestState> state_;
};

struct PredictionServiceOptions {
  /// Prediction worker threads (the ThreadPool). Clamped to >= 1.
  size_t num_threads = 1;

  /// A micro-batch flushes immediately once this many requests are
  /// pending -- a full batch never waits on the deadline. Also the most
  /// requests one flush takes. Clamped to >= 1.
  size_t max_batch_size = 32;

  /// Bounds coalescing under saturation only: while every worker is busy,
  /// the oldest pending request waits at most this long before its
  /// (possibly partial) micro-batch flushes -- exactly when its submit
  /// time plus this delay is reached on the service clock. A request that
  /// arrives while a worker is idle is dispatched at once, never held.
  uint64_t max_queue_delay_nanos = 1'000'000;  // 1 ms

  /// Bounded admission: Submit rejects (status kRejected) while this many
  /// admitted requests have not yet completed. Clamped to >= 1.
  size_t queue_capacity = 1024;

  /// Time source for deadlines and latency stats. Borrowed; must outlive
  /// the service. nullptr -> the service owns a SteadyClock (real time).
  Clock* clock = nullptr;

  /// Optional content-addressed result cache in front of inference.
  /// Borrowed; must outlive the service. A hit resolves the handle at
  /// Submit time without consuming an admission slot, a batch seat or a
  /// worker; a miss falls through to the normal path and the completed
  /// prediction is inserted under the version that actually served it.
  /// nullptr (default) disables caching entirely.
  ResultCache* result_cache = nullptr;

  /// Deterministic fault injection (kAdmissionReject at Submit,
  /// kDispatchThrow inside the worker). Borrowed; must outlive the
  /// service. nullptr (default) disables.
  FaultInjector* fault_injector = nullptr;
};

/// Snapshot of per-service counters (see PredictionService::Stats).
/// Latency percentiles use the nearest-rank definition over a sliding
/// window of the most recent PredictionService::kLatencyWindow completed
/// requests (so a long-running service reports recent behaviour in O(1)
/// memory); 0 when nothing completed yet.
struct ServiceStats {
  uint64_t submitted = 0;          ///< every Submit call
  uint64_t accepted = 0;           ///< admitted into the queue
  uint64_t completed = 0;          ///< reached kOk or kFailed
  uint64_t rejected = 0;           ///< kRejected (admission queue full)
  uint64_t rejected_shutdown = 0;  ///< kShutdown (submitted after Shutdown)
  /// kDeadlineExceeded: admitted but shed because the caller's deadline
  /// expired before (or while) the request reached a worker. Counted in
  /// completed as well -- shed requests still release their admission slot.
  uint64_t deadline_exceeded = 0;
  uint64_t outstanding = 0;        ///< admitted, not yet completed
  uint64_t batches = 0;            ///< micro-batches dispatched
  /// Micro-batches whose pinned model version differed from the previous
  /// batch's -- the number of hot swaps the dispatch path actually
  /// crossed (0 while one version serves the whole stream).
  uint64_t model_swaps = 0;
  /// Result-cache outcomes (both 0 when no cache is configured). Hits
  /// count as submitted+completed but never as batched/outstanding.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// batch_size_histogram[s] = number of dispatched micro-batches of size
  /// s, for s in [0, max_batch_size] (index 0 is always 0).
  std::vector<uint64_t> batch_size_histogram;
  uint64_t latency_p50_nanos = 0;
  uint64_t latency_p95_nanos = 0;
  uint64_t latency_p99_nanos = 0;
};

/// Online serving frontend: callers Submit() single tables from any thread
/// and get a future-like handle; a batcher thread dispatches pending
/// requests as micro-batches onto the shared ThreadPool + per-worker
/// Workspace/FeatureScratch machinery. Steady-state serving therefore
/// allocates nothing inside featurization or the network and shares ONE
/// immutable model *version* per micro-batch.
///
/// Work-conserving dispatch: a micro-batch is not a batched computation
/// (each member is its own pool task running one PredictTable), so
/// holding a request back helps only when no worker could take it. The
/// batcher therefore flushes the pending requests as soon as a worker is
/// idle (fewer than num_threads requests dispatched and unfinished).
/// Only while every worker is busy does it coalesce: then the pending
/// requests flush when max_batch_size of them are waiting, when the
/// oldest one's max_queue_delay_nanos deadline arrives, or when a worker
/// frees -- whichever comes first.
///
/// Zero-downtime hot swap: the service serves whatever its ModelRegistry
/// currently publishes. The batcher pins Current() ONCE per micro-batch
/// (one shared_ptr copy), so a Publish during live traffic is
/// race-free by construction -- in-flight batches finish on the version
/// they pinned, batches dispatched after the publish pick up the new one,
/// no request is dropped or delayed, and the old bundle is destroyed when
/// the last in-flight batch drops its pin (RCU grace period ==
/// shared_ptr refcount). Every PredictionResult carries the
/// model_version that produced it.
///
/// Determinism under batching AND swapping: each request decodes with an
/// Rng seeded by its caller-supplied seed and nothing else, so the
/// prediction is a pure function of (table, seed, model version) --
/// byte-identical to a sequential SatoPredictor::PredictTable on the
/// version in the response, regardless of how requests coalesce into
/// batches, which worker runs them, or the worker count (asserted by
/// tests/service_test.cc, including mid-stream publishes). Callers who
/// need distinct per-request streams from one base seed should derive
/// them with BatchPredictor::TableSeed(base, i).
///
/// Scratch re-binding across swaps: per-worker FeatureScratch token
/// dictionaries are keyed to one FeatureContext. Each worker holds a
/// shared_ptr to the context it last featurized against; when a pinned
/// bundle carries a different context, the worker re-binds before
/// touching the scratch (the TokenCache resets itself on the changed
/// component pointers). Holding the old context per worker makes the
/// pointer comparison exact -- a freed context recycled at the same
/// address (ABA) cannot masquerade as "unchanged". Re-binding happens on
/// the worker thread between requests, so it never races an executing
/// batch; a model-only swap that reuses the same context keeps every
/// worker dictionary warm.
///
/// Backpressure: admission is bounded by queue_capacity outstanding
/// requests; overflow Submits resolve immediately with kRejected (never a
/// hang), and admission resumes as outstanding requests complete.
///
/// Shutdown() stops admission (further Submits resolve kShutdown),
/// flushes and drains every admitted request, then joins the batcher and
/// waits for the pool. The destructor calls it.
class PredictionService {
 public:
  /// Serves the registry's current (and future) versions. `registry` is
  /// borrowed and must outlive the service; it must already have a
  /// published version (throws std::invalid_argument otherwise -- a
  /// service with nothing to serve is a configuration error, not a
  /// runtime state).
  PredictionService(ModelRegistry* registry,
                    const PredictionServiceOptions& options);

  /// Shuts down (drains admitted requests) if Shutdown was not called.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueues one table for prediction. Never blocks: returns an already
  /// resolved handle (kRejected / kShutdown) when admission fails. An
  /// empty table resolves kOk with no type ids.
  ///
  /// The table is copied only after admission succeeds (and outside the
  /// service lock), so an overloaded service sheds rejected requests in
  /// O(1) -- backpressure caps submitter-side work too.
  PredictionHandle Submit(const Table& table, uint64_t seed);

  /// Deadline-aware Submit: `deadline_budget_nanos` is the remaining time
  /// the caller is willing to wait, measured on the SERVICE clock from the
  /// moment of this call (relative, so client and server clocks need no
  /// common epoch -- this is what the wire header's deadline_micros feeds).
  /// 0 means no deadline (identical to the 2-argument overload). A request
  /// whose deadline expires before it reaches a worker resolves
  /// kDeadlineExceeded without running inference; a request that starts
  /// executing always runs to completion.
  PredictionHandle Submit(const Table& table, uint64_t seed,
                          uint64_t deadline_budget_nanos);

  /// Graceful drain; idempotent and safe to call concurrently. After it
  /// returns, every previously admitted request is resolved and further
  /// Submits resolve kShutdown.
  void Shutdown();

  /// Consistent snapshot of the counters and latency percentiles.
  ServiceStats Stats() const;

  size_t num_threads() const { return pool_.num_threads(); }
  const PredictionServiceOptions& options() const { return options_; }

  /// Latency samples kept for the percentile window: once more requests
  /// than this have completed, the oldest samples are overwritten.
  static constexpr size_t kLatencyWindow = 1 << 16;

  /// Pinned snapshot of the version the NEXT micro-batch will serve.
  /// Safe to hold indefinitely (it is a pin of its own). This replaces
  /// the old `const SatoModel& model()` accessor, which would have
  /// dangled the moment a publish retired the model it pointed into.
  std::shared_ptr<const ModelBundle> bundle() const {
    return registry_->Current();
  }

  /// Version id the next micro-batch will serve.
  uint64_t model_version() const { return registry_->current_version(); }

  /// The registry this service serves from (never null).
  ModelRegistry* registry() const { return registry_; }

 private:
  void BatcherLoop();
  void ExecuteRequest(const std::shared_ptr<internal::RequestState>& state,
                      const std::shared_ptr<const ModelBundle>& bundle,
                      size_t worker);

  PredictionServiceOptions options_;      // sanitized copy
  std::unique_ptr<SteadyClock> own_clock_;  // set when options.clock == null
  Clock* clock_;                          // the clock actually used
  ModelRegistry* registry_;               // borrowed; the registry served
  std::vector<nn::Workspace> workspaces_;            // one per worker
  std::vector<SatoPredictor::Scratch> scratches_;    // one per worker
  // Per-worker context binding: worker w touches entry w exclusively (the
  // pool gives each thread a fixed index), so no lock is needed. Holding
  // the shared_ptr keeps the last-bound context alive, which is what
  // makes the swap-detection pointer comparison ABA-proof.
  std::vector<std::shared_ptr<const FeatureContext>> worker_context_;

  mutable std::mutex mutex_;
  // The batcher is the only thread that parks here; Submit, Shutdown and
  // a finishing request (when requests are pending) wake it.
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<internal::RequestState>> pending_;
  bool stop_ = false;
  // Requests handed to the pool and not yet finished (completed or shed
  // by the worker). Fewer than num_threads means a worker is idle, which
  // is what lets the batcher flush without waiting.
  size_t in_flight_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t rejected_shutdown_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t batches_ = 0;
  uint64_t model_swaps_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t last_pinned_version_ = 0;  // batcher-only, guarded by mutex_
  std::vector<uint64_t> batch_size_histogram_;
  std::vector<uint64_t> latencies_;  // ring of the last kLatencyWindow samples
  size_t latency_next_ = 0;          // ring cursor once the window is full

  std::mutex shutdown_mutex_;  // serialises concurrent Shutdown calls

  // Declared last so the pool drains and the batcher joins before any
  // state above is destroyed (the destructor shuts down first anyway).
  ThreadPool pool_;
  std::thread batcher_;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_PREDICTION_SERVICE_H_
