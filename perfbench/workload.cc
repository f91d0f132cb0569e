#include "workload.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>

#include "trace.h"
#include "util/rng.h"

namespace sato::perfbench {

Stack::~Stack() {
  server.reset();
  service.reset();
  batch.reset();
  if (registry != nullptr) registry->AttachCorrectionWal(nullptr);
  cache.reset();
  wal.reset();
}

namespace {

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

double TimeSetups(StackKind kind, const Args& args, int reps,
                  std::unique_ptr<Stack>* keep) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    keep->reset();  // tear the previous stack down outside the clock
    const std::string wal_path = args.work_dir + "/corrections.wal";
    ::unlink(wal_path.c_str());
    const uint64_t t0 = NowNs();
    *keep = BuildStack(kind, args, wal_path);
    seconds.push_back((NowNs() - t0) / 1e9);
  }
  return Median(seconds);
}

}  // namespace

std::unique_ptr<Stack> BuildStack(StackKind kind, const Args& args,
                                  const std::string& wal_path) {
  auto stack = std::make_unique<Stack>();
  ScopedSpan setup("setup", 0, 0);
  LoadedSato loaded;
  {
    ScopedSpan span("setup.LoadSatoBundle", setup.id(), 0);
    loaded = LoadBundle(args.bundle);
  }
  stack->registry = std::make_unique<serve::ModelRegistry>();
  {
    ScopedSpan span("setup.Publish", setup.id(), 0);
    BundleParts parts = ToParts(std::move(loaded));
    stack->bundle = stack->registry->Publish(
        std::move(parts.model), std::move(parts.context),
        std::move(parts.scaler), parts.tag);
  }
  if (kind != StackKind::kLake) {
    // sato_serverd --wal: replay first (truncating a torn tail), then
    // open the appender and attach it.
    ScopedSpan span("setup.CorrectionWal", setup.id(), 0);
    serve::CorrectionWal::Replay(wal_path);
    serve::CorrectionWalOptions wal_options;
    wal_options.fsync = serve::WalFsync::kAlways;
    stack->wal = std::make_unique<serve::CorrectionWal>(wal_path, wal_options);
    stack->registry->AttachCorrectionWal(stack->wal.get());
    stack->wal_path = wal_path;
  }
  ScopedSpan span("setup.construct", setup.id(), 0);
  if (kind == StackKind::kLake) {
    serve::BatchPredictorOptions options;
    options.num_threads = Nproc();  // sato_cli predict --jobs $(nproc)
    options.seed = SubSeed(args.seed, 11);
    stack->batch = std::make_unique<serve::BatchPredictor>(stack->bundle,
                                                           options);
    return stack;
  }
  serve::ResultCacheOptions cache_options;
  cache_options.capacity_entries = kCacheEntries;
  cache_options.num_shards = kCacheShards;
  stack->cache = std::make_unique<serve::ResultCache>(cache_options);
  serve::PredictionServiceOptions service_options;
  service_options.num_threads = kDaemonWorkers;
  service_options.max_batch_size = kDaemonMaxBatch;
  service_options.max_queue_delay_nanos = kDaemonQueueDelayNs;
  service_options.result_cache = stack->cache.get();
  stack->service = std::make_unique<serve::PredictionService>(
      stack->registry.get(), service_options);
  if (kind == StackKind::kDaemon) {
    serve::ServerOptions server_options;
    server_options.port = 0;  // ephemeral loopback port
    stack->server = std::make_unique<serve::Server>(stack->service.get(),
                                                    server_options);
  }
  return stack;
}

SetupResult RunSetup(StackKind kind, const Args& args) {
  SetupResult result;
  result.setup_s =
      TimeSetups(kind, args, kSetupReps, &result.stack);
  if (args.trace) {
    GlobalTracer().Enable(true);
    result.traced_setup_s =
        TimeSetups(kind, args, kSetupReps, &result.stack);
    GlobalTracer().Enable(false);
  }
  return result;
}

void SleepUntilNs(uint64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

void SpinUntilNs(uint64_t ns) {
  while (NowNs() < ns) std::this_thread::yield();
}

// ---- writer --------------------------------------------------------------

Writer::Writer(serve::ModelRegistry* registry, uint64_t seed,
               double corrections_per_s, double publish_interval_s,
               std::vector<BundleParts> publishes, uint64_t start_ns)
    : registry_(registry),
      seed_(seed),
      corrections_per_s_(corrections_per_s),
      publish_interval_s_(publish_interval_s),
      publishes_(std::move(publishes)),
      start_ns_(start_ns) {
  ops_.reserve(1 << 14);
  thread_ = std::thread([this] {
    try {
      Loop();
    } catch (...) {
      failed_.store(true);
    }
  });
}

Writer::~Writer() { Stop(); }

void Writer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Writer::Loop() {
  util::Rng rng(seed_);
  auto gap_ns = [&]() {
    return static_cast<uint64_t>(-std::log(1.0 - rng.Uniform()) /
                                 corrections_per_s_ * 1e9);
  };
  const bool publishing = publish_interval_s_ > 0.0 && !publishes_.empty();
  const uint64_t publish_gap = static_cast<uint64_t>(publish_interval_s_ * 1e9);
  uint64_t next_correction = start_ns_ + gap_ns();
  uint64_t next_publish =
      publishing ? start_ns_ + publish_gap : UINT64_MAX;
  uint64_t sequence = 0;
  size_t publish_index = 0;
  Tracer& tracer = GlobalTracer();
  for (;;) {
    const bool publish = next_publish <= next_correction;
    const uint64_t due = publish ? next_publish : next_correction;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_until(lock,
                     std::chrono::steady_clock::time_point(
                         std::chrono::nanoseconds(due)),
                     [&] { return stop_; });
      if (stop_) return;
    }
    WriterOp op;
    op.due_ns = due;
    op.publish = publish;
    const uint64_t root = tracer.NewId();
    if (publish) {
      const BundleParts& parts =
          publishes_[publish_index++ % publishes_.size()];
      op.start_ns = NowNs();
      auto bundle = registry_->Publish(parts.model, parts.context,
                                       parts.scaler, parts.tag);
      op.end_ns = NowNs();
      op.ok = bundle != nullptr;
      op.version = bundle->version();
      published_[op.version] = std::move(bundle);
      tracer.Record("model_registry.Publish", op.start_ns, op.end_ns, root,
                    op.version);
      tracer.RecordWithId(root, "writer.publish", due, op.end_ns, 0,
                          op.version);
      next_publish += publish_gap;
    } else {
      op.column = "w" + std::to_string(seed_ % 100000) + "-" +
                  std::to_string(sequence++);
      op.type = static_cast<TypeId>(rng.UniformInt(0, kNumSemanticTypes - 1));
      op.version = registry_->current_version();
      op.start_ns = NowNs();
      op.ok = registry_->SubmitCorrection(
          serve::Correction{op.column, op.type, op.version});
      op.end_ns = NowNs();
      tracer.Record("model_registry.SubmitCorrection", op.start_ns, op.end_ns,
                    root, sequence);
      tracer.RecordWithId(root, "writer.correction", due, op.end_ns, 0,
                          sequence);
      next_correction += gap_ns();
    }
    ops_.push_back(std::move(op));
  }
}

// ---- oracle --------------------------------------------------------------

uint64_t OracleMismatches(
    const std::vector<Checked>& checked,
    const std::map<uint64_t, std::shared_ptr<const serve::ModelBundle>>&
        bundles) {
  // One reference per distinct (table, seed, version).
  using Key = std::tuple<const Table*, uint64_t, uint64_t>;
  std::map<Key, size_t> slot;
  std::vector<Key> keys;
  for (const Checked& c : checked) {
    Key key{c.table, c.seed, c.version};
    if (slot.emplace(key, keys.size()).second) keys.push_back(key);
  }
  std::vector<std::vector<TypeId>> reference(keys.size());
  std::vector<char> known(keys.size(), 0);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < keys.size();
         i = next.fetch_add(1)) {
      const auto& [table, seed, version] = keys[i];
      auto it = bundles.find(version);
      if (it == bundles.end()) continue;
      util::Rng rng(seed);
      try {
        reference[i] = it->second->predictor().PredictTable(*table, &rng);
        known[i] = 1;
      } catch (...) {
        // A reference that cannot be computed counts as a mismatch.
      }
    }
  };
  // Distinct keys are independent; each reference is still one plain
  // sequential PredictTable call.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < Nproc(); ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();

  uint64_t mismatches = 0;
  for (const Checked& c : checked) {
    const size_t i = slot.at(Key{c.table, c.seed, c.version});
    if (!known[i] || reference[i] != *c.ids) ++mismatches;
  }
  return mismatches;
}

uint64_t LostCorrections(const std::string& wal_path,
                         const std::vector<WriterOp>& acked) {
  serve::WalReplayResult replay = serve::CorrectionWal::Replay(wal_path);
  std::multiset<std::tuple<std::string, TypeId, uint64_t>> logged;
  for (const serve::Correction& c : replay.corrections) {
    logged.emplace(c.column_name, c.corrected_type, c.model_version);
  }
  uint64_t lost = 0;
  for (const WriterOp& op : acked) {
    if (op.publish || !op.ok) continue;
    auto it = logged.find({op.column, op.type, op.version});
    if (it == logged.end()) {
      ++lost;
    } else {
      logged.erase(it);
    }
  }
  return lost;
}

}  // namespace sato::perfbench
