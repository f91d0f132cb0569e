#ifndef SATO_PERFBENCH_WORKLOAD_H_
#define SATO_PERFBENCH_WORKLOAD_H_

// Pieces the workloads and the daemon replay share: run arguments, the
// failure tally, the serving stack built at set-up, the open-loop
// correction/publish writer, the sequential oracle and the per-layer
// replays.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/batch_predictor.h"
#include "serve/correction_wal.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "table/table.h"

namespace sato::perfbench {

// sato_serverd's shipped settings (examples/sato_serverd.cpp defaults)
// plus the WAL it runs with when --wal is given (fsync on).
constexpr size_t kDaemonWorkers = 2;
constexpr size_t kDaemonMaxBatch = 16;
constexpr uint64_t kDaemonQueueDelayNs = 1'000'000;
constexpr size_t kCacheEntries = 4096;
constexpr size_t kCacheShards = 8;

// The end-to-end metrics BENCHMARK.json bounds; every other value a
// workload measures goes to the details line.
// Tail percentiles (latency p90/p99, correction ack p50/p99) are reported
// there too: on a shared virtual host their run-to-run spread exceeds any
// usable bound, so the tail is bounded through slo_ok_frac instead.
inline constexpr const char* kEndToEnd[] = {
    "setup_s", "peak_rss_mb", "tables_per_s", "latency_p50_ms", "slo_ok_frac"};

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 31;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bundle;     ///< bundle written by `prepare`
  std::string work_dir;   ///< scratch files (WAL) of this run
  std::string trace_out;  ///< span file written by traced runs
  double rate = 0.0;      ///< online_open_writes arrivals per second
  double slo_ms = 0.0;    ///< latency limit behind slo_ok_frac
};

/// Operations attempted and failed, by kind.
struct Tally {
  uint64_t attempted = 0;
  std::map<std::string, uint64_t> failed;
  void Fail(const std::string& kind, uint64_t n = 1) {
    if (n > 0) failed[kind] += n;
  }
  uint64_t total_failed() const {
    uint64_t n = 0;
    for (const auto& [kind, count] : failed) n += count;
    return n;
  }
};

struct RunOutput {
  Tally tally;
  bool correct = true;
  MetricMap metrics;  ///< end-to-end (untraced) or per-layer (traced)
  Json details;
};

enum class StackKind { kLake, kDaemon, kOnline };

/// Everything set-up builds, torn down in dependency order.
struct Stack {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::CorrectionWal> wal;
  std::unique_ptr<serve::ResultCache> cache;
  std::unique_ptr<serve::PredictionService> service;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::BatchPredictor> batch;
  std::shared_ptr<const serve::ModelBundle> bundle;  ///< first version
  std::string wal_path;

  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

/// Result of the repeated set-up: the stack of the last repetition and the
/// median set-up seconds (untraced, and traced when tracing is on).
struct SetupResult {
  std::unique_ptr<Stack> stack;
  double setup_s = 0.0;
  double traced_setup_s = 0.0;
};

/// One set-up: LoadSatoBundle from args.bundle, Publish, then the
/// BatchPredictor (kLake), or WAL replay + open at `wal_path`, the cache
/// and the service (plus the loopback Server for kDaemon).
std::unique_ptr<Stack> BuildStack(StackKind kind, const Args& args,
                                  const std::string& wal_path);

/// Times kSetupReps set-ups as BuildStack makes them. When args.trace,
/// repeats them with spans on.
SetupResult RunSetup(StackKind kind, const Args& args);

/// One correction or publish made by the Writer.
struct WriterOp {
  uint64_t due_ns = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool publish = false;
  bool ok = false;
  uint64_t version = 0;  ///< corrected version, or the version published
  std::string column;
  TypeId type = 0;
};

/// Open-loop writer thread: Poisson corrections at `corrections_per_s`
/// through ModelRegistry::SubmitCorrection (WAL attached) and, when
/// `publish_interval_s` > 0, a Publish of the next bundle in `publishes`
/// (round robin) at that fixed interval. Due times start at `start_ns`.
class Writer {
 public:
  Writer(serve::ModelRegistry* registry, uint64_t seed,
         double corrections_per_s, double publish_interval_s,
         std::vector<BundleParts> publishes, uint64_t start_ns);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Stops issuing operations and joins the thread. Idempotent.
  void Stop();

  /// Valid after Stop.
  const std::vector<WriterOp>& ops() const { return ops_; }
  /// True when the writer thread stopped on an exception.
  bool failed() const { return failed_.load(); }
  /// Every bundle the writer published, by version (for the oracle).
  const std::map<uint64_t, std::shared_ptr<const serve::ModelBundle>>&
  published() const {
    return published_;
  }

 private:
  void Loop();

  serve::ModelRegistry* registry_;
  uint64_t seed_;
  double corrections_per_s_;
  double publish_interval_s_;
  std::vector<BundleParts> publishes_;
  uint64_t start_ns_;
  std::vector<WriterOp> ops_;
  std::map<uint64_t, std::shared_ptr<const serve::ModelBundle>> published_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::atomic<bool> failed_{false};
  std::thread thread_;  // last: started after every member it reads
};

/// One prediction to check against the sequential oracle.
struct Checked {
  const Table* table = nullptr;
  uint64_t seed = 0;
  uint64_t version = 0;
  const std::vector<TypeId>* ids = nullptr;
};

/// Recomputes each distinct (table, seed, version) with a plain
/// SatoPredictor::PredictTable on that version's bundle (fresh scratch,
/// no workspace reuse) and returns how many predictions differ. Bundles
/// missing from `bundles` count as mismatches.
uint64_t OracleMismatches(
    const std::vector<Checked>& checked,
    const std::map<uint64_t, std::shared_ptr<const serve::ModelBundle>>&
        bundles);

/// Acknowledged corrections that CorrectionWal::Replay does not return.
uint64_t LostCorrections(const std::string& wal_path,
                         const std::vector<WriterOp>& acked);

/// Per-table layer costs from sequential replays of the library calls on
/// the workload's own tables (traced runs only), in microseconds.
struct LayerReplay {
  std::vector<double> core_us, featurize_us, topic_us, nn_us, crf_us;
  std::vector<double> encode_us, decode_us, bytes;
  std::vector<double> lookup_us, insert_us;
  double featurize_ns_per_cell = 0.0;
  double nn_gflop_per_s = 0.0;
};

/// Replays PredictTable, FeaturizeTable, TopicVector, PredictProbs,
/// Predict, the four wire payload codecs and ResultCache lookups/inserts
/// on `tables` (seed of table i is seeds[i]), each call wrapped in a span.
LayerReplay ReplayLayers(const serve::ModelBundle& bundle,
                         const std::vector<const Table*>& tables,
                         const std::vector<uint64_t>& seeds,
                         double flops_per_column);

/// Sleeps until the steady_clock reaches `ns`.
void SleepUntilNs(uint64_t ns);

/// Busy-waits (yielding) until the steady_clock reaches `ns`. The open-loop
/// generator uses it because waking a sleeping thread on a virtual CPU can
/// take milliseconds at the tail, which would make the schedule late.
void SpinUntilNs(uint64_t ns);

/// Adds every per-layer metric name with value 0, so a traced run lists
/// the full set even for layers its workload does not exercise; the
/// workload then overwrites the ones it measures.
MetricMap ZeroLayerMetrics();
void SetMetric(MetricMap* metrics, const std::string& name, double value);

/// Adds "trace_overhead.<name>" = traced - untraced for each kEndToEnd
/// metric.
void AddTraceOverhead(const MetricMap& untraced, const MetricMap& traced,
                      MetricMap* layer);

/// Span self-time totals of [from, to) as a JSON object.
std::string SpanTotalsJson(uint64_t from_ns, uint64_t to_ns,
                           const std::string& trace_out);

/// Coverage of a workload's load time: the named layer shares plus the
/// explicit unattributed remainder.
std::string CoverageJson(double load_ms,
                         const std::vector<std::pair<std::string, double>>&
                             attributed_ms,
                         double* coverage_frac);

/// Copies the replay medians into the per-layer metrics.
void FillReplayMetrics(const LayerReplay& replay, MetricMap* metrics);

/// {"name": value, ...} of a metric map.
std::string MetricsJson(const MetricMap& metrics);

/// [v0, v1, ...]
std::string NumberList(const std::vector<double>& values);

RunOutput RunOfflineLake(const Args& args);
RunOutput RunOnlineOpenWrites(const Args& args);

/// The loopback daemon replay of traced online_open_writes runs (see
/// daemon_replay.cc): `seconds` of closed-loop Zipf traffic after its
/// warm-up. Its metrics are per-layer values for the server and cache.
RunOutput RunDaemonReplay(const Args& args, double seconds);

}  // namespace sato::perfbench

#endif  // SATO_PERFBENCH_WORKLOAD_H_
