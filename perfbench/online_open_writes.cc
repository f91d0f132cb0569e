// online_open_writes: open-loop arrivals into an in-process
// PredictionService with the daemon's settings. One generator thread
// submits at Poisson due times; no (table, seed) pair repeats, so the
// result cache only misses, inserts and evicts. One collector thread
// resolves the handles. One writer thread acks corrections through the
// fsync'd WAL at a fixed share of the arrival rate and publishes a new
// model version at a fixed interval, alternating two loaded copies of the
// bundle so every publish also re-binds the workers' feature scratch.

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "trace.h"
#include "workload.h"

namespace sato::perfbench {

namespace {

constexpr size_t kOnlineTables = 2048;
constexpr double kCorrectionShare = 0.05;
constexpr double kPublishIntervalS = 1.0;
constexpr double kWindowS = 0.5;
constexpr size_t kSteadyWindows = 4;
constexpr double kSteadyTolerance = 0.125;  // half the latency_p50_ms bound
/// A run whose latency has not held steady after this long of warm-up is
/// reported invalid instead of measured.
constexpr double kMaxWarmupS = 30.0;
constexpr uint64_t kRateWindowNs = 1'000'000'000;
/// A run whose generator submitted half its requests later than this fell
/// behind its schedule and is reported invalid instead of measured. A
/// virtual CPU descheduled by the host delays a burst of submissions by a
/// few milliseconds (counted in their latency from due time); a backlog
/// delays most of them.
constexpr double kMaxLatenessP50Ms = 1.0;
/// Seconds of the loopback daemon replay that closes a traced run.
constexpr double kDaemonReplayS = 3.0;

struct Request {
  uint64_t index = 0;
  uint64_t due_ns = 0;
  uint64_t submit_ns = 0;
  uint64_t done_ns = 0;  ///< submit + the service's own latency_nanos
  uint64_t root_span = 0;
  serve::PredictionHandle handle;
  serve::RequestStatus status = serve::RequestStatus::kShutdown;
  uint64_t version = 0;
  uint64_t service_ns = 0;
  std::vector<TypeId> ids;
};

bool Ok(const Request& r) { return r.status == serve::RequestStatus::kOk; }

// Latency is measured from each request's due time. p50, p99 and the SLO
// share are per one-second window of due times; throughput is kOk
// completions per one-second window of completion times, so it equals the
// arrival rate while the service keeps up and falls once it lags the
// schedule. The correction ack p99 pools the whole range.
MetricMap EndToEnd(const std::deque<Request>& requests,
                   const std::vector<WriterOp>& writes, uint64_t from_ns,
                   uint64_t to_ns, double slo_ms, double setup_s,
                   double rss_mb, Json* series) {
  std::vector<double> acks_ms;
  for (const WriterOp& w : writes) {
    if (!w.publish && w.ok && w.due_ns >= from_ns && w.due_ns < to_ns) {
      acks_ms.push_back((w.end_ns - w.start_ns) / 1e6);
    }
  }
  auto per_window = [&](auto&& stat) {
    return WindowValues(from_ns, to_ns, kRateWindowNs,
                        [&](uint64_t lo, uint64_t hi) {
      std::vector<double> ms;
      uint64_t sent = 0;
      for (const Request& r : requests) {
        if (r.due_ns < lo || r.due_ns >= hi) continue;
        ++sent;
        if (Ok(r)) ms.push_back((r.done_ns - r.due_ns) / 1e6);
      }
      return sent == 0 ? -1.0 : stat(ms, sent);
    });
  };
  const std::vector<double> rate_w = WindowValues(
      from_ns, to_ns, kRateWindowNs, [&](uint64_t lo, uint64_t hi) {
        double done = 0.0;
        for (const Request& r : requests) {
          if (Ok(r) && r.done_ns >= lo && r.done_ns < hi) done += 1.0;
        }
        return done / ((hi - lo) / 1e9);
      });
  const std::vector<double> p50_w = per_window(
      [](const std::vector<double>& ms, uint64_t) {
        return Percentile(ms, 50);
      });
  const std::vector<double> p90_w = per_window(
      [](const std::vector<double>& ms, uint64_t) {
        return Percentile(ms, 90);
      });
  const std::vector<double> p99_w = per_window(
      [](const std::vector<double>& ms, uint64_t) {
        return Percentile(ms, 99);
      });
  double samples = 0.0;
  for (const Request& r : requests) {
    if (Ok(r) && r.due_ns >= from_ns && r.due_ns < to_ns) samples += 1.0;
  }
  const std::vector<double> slo_w = per_window(
      [&](const std::vector<double>& ms, uint64_t sent) {
        double within = 0.0;
        for (double v : ms) within += v <= slo_ms ? 1.0 : 0.0;
        return within / static_cast<double>(sent);
      });
  if (series != nullptr) {
    series->Raw("window_tables_per_s", NumberList(rate_w))
        .Raw("window_latency_p50_ms", NumberList(p50_w));
  }
  const double rate = BestQuartile(rate_w, true);
  const double p50 = BestQuartile(p50_w, false);
  const double slo = BestQuartile(slo_w, true);
  const double p90 = Median(p90_w), p99 = Median(p99_w);
  MetricMap m;
  m.emplace_back("setup_s", Metric{setup_s, "s"});
  m.emplace_back("peak_rss_mb", Metric{rss_mb, "MB"});
  m.emplace_back("tables_per_s", Metric{rate, "1/s"});
  m.emplace_back("latency_p50_ms", Metric{p50, "ms"});
  m.emplace_back("latency_p99_ms", Metric{p99, "ms"});
  m.emplace_back("slo_ok_frac", Metric{slo, "frac"});
  m.emplace_back("correction_ack_p99_ms",
                 Metric{Percentile(acks_ms, 99), "ms"});
  m.emplace_back("correction_ack_p50_ms",
                 Metric{Percentile(acks_ms, 50), "ms"});
  m.emplace_back("correction_acks",
                 Metric{static_cast<double>(acks_ms.size()), "count"});
  m.emplace_back("latency_p90_ms", Metric{p90, "ms"});
  m.emplace_back("latency_samples", Metric{samples, "count"});
  return m;
}

}  // namespace

RunOutput RunOnlineOpenWrites(const Args& args) {
  if (args.rate <= 0.0) throw std::invalid_argument("--rate must be > 0");
  RunOutput out;
  const std::vector<Table> catalog =
      MakeWebCatalog(SubSeed(args.seed, 4), kOnlineTables);
  const uint64_t request_seed = SubSeed(args.seed, 13);
  // Two more copies of the bundle for the writer's publishes (input
  // preparation: loaded before set-up, outside every clock).
  std::vector<BundleParts> publishes;
  publishes.push_back(ToParts(LoadBundle(args.bundle)));
  publishes.push_back(ToParts(LoadBundle(args.bundle)));
  SetupResult setup = RunSetup(StackKind::kOnline, args);
  Stack& stack = *setup.stack;
  serve::PredictionService& service = *stack.service;

  // Requests live in a deque so the collector's pointers stay valid while
  // the generator appends.
  std::deque<Request> requests;
  std::mutex mutex;
  std::condition_variable cv;
  size_t submitted = 0;        // guarded by mutex
  bool generator_done = false;  // guarded by mutex
  std::vector<double> window_ms;  // completed latencies, guarded by mutex
  std::atomic<uint64_t> stop_due{UINT64_MAX};
  std::atomic<uint64_t> thread_exceptions{0};

  const uint64_t load_start = NowNs() + 1'000'000;
  Writer writer(stack.registry.get(), SubSeed(args.seed, 6),
                args.rate * kCorrectionShare, kPublishIntervalS,
                std::move(publishes), load_start);
  std::thread generator([&] {
    util::Rng rng(SubSeed(args.seed, 400));
    Tracer& tracer = GlobalTracer();
    double offset_s = 0.0;
    try {
      for (uint64_t i = 0;; ++i) {
        offset_s += -std::log(1.0 - rng.Uniform()) / args.rate;
        const uint64_t due = load_start + static_cast<uint64_t>(offset_s * 1e9);
        if (due >= stop_due.load()) break;
        SpinUntilNs(due);
        Request r;
        r.index = i;
        r.due_ns = due;
        r.root_span = tracer.NewId();
        r.submit_ns = NowNs();
        r.handle = service.Submit(
            catalog[i % catalog.size()],
            serve::BatchPredictor::TableSeed(request_seed, i));
        tracer.Record("prediction_service.Submit", r.submit_ns, NowNs(),
                      r.root_span, i);
        std::lock_guard<std::mutex> lock(mutex);
        requests.push_back(std::move(r));
        ++submitted;
        cv.notify_one();
      }
    } catch (...) {
      thread_exceptions.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mutex);
    generator_done = true;
    cv.notify_one();
  });
  std::thread collector([&] {
    Tracer& tracer = GlobalTracer();
    for (size_t next = 0;; ++next) {
      Request* r = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return next < submitted || generator_done; });
        if (next >= submitted) return;
        r = &requests[next];
      }
      const uint64_t get_start = NowNs();
      try {
        const serve::PredictionResult& result = r->handle.Get();
        r->status = result.status;
        r->version = result.model_version;
        r->service_ns = result.latency_nanos;
        r->done_ns = r->submit_ns + result.latency_nanos;
        r->ids = result.type_ids;
      } catch (...) {
        thread_exceptions.fetch_add(1);  // r->status stays kShutdown
      }
      const uint64_t get_end = NowNs();
      r->handle = serve::PredictionHandle();
      tracer.Record("prediction_service.Get", get_start, get_end, r->root_span,
                    r->index);
      tracer.RecordWithId(r->root_span, "online.request", r->due_ns,
                          std::max(r->done_ns, get_end), 0, r->index);
      std::lock_guard<std::mutex> lock(mutex);
      window_ms.push_back((r->done_ns - r->due_ns) / 1e6);
    }
  });

  // Warm-up: half-second windows until the median latency from due time
  // holds steady (throughput is fixed by the schedule).
  const uint64_t window_ns = static_cast<uint64_t>(kWindowS * 1e9);
  SteadyGate gate(kSteadyWindows, kSteadyTolerance);
  bool steady = false;
  uint64_t tick = load_start;
  while (!steady && (tick - load_start) / 1e9 < kMaxWarmupS) {
    tick += window_ns;
    SleepUntilNs(tick);
    std::vector<double> latest;
    {
      std::lock_guard<std::mutex> lock(mutex);
      latest.swap(window_ms);
    }
    steady = gate.Add(Median(latest));
  }
  if (!steady) {
    stop_due.store(0);
    generator.join();
    collector.join();
    throw std::runtime_error(
        "invalid run: latency did not hold steady within " +
        std::to_string(kMaxWarmupS) + " s of warm-up");
  }

  auto snap = [&] {
    return std::make_pair(service.Stats(), stack.cache->Stats());
  };
  const uint64_t window_start = NowNs();
  const uint64_t window_end =
      window_start + static_cast<uint64_t>(args.seconds * 1e9);
  auto traced_from = snap();
  uint64_t traced_start = window_end;
  double rss_untraced = 0.0;
  if (args.trace) {
    traced_start = window_start + static_cast<uint64_t>(args.seconds / 2 * 1e9);
    SleepUntilNs(traced_start);
    rss_untraced = PeakRssMb();
    traced_from = snap();
    GlobalTracer().Enable(true);
  }
  stop_due.store(window_end);
  generator.join();
  collector.join();
  const auto traced_to = snap();
  const double rss_mb = PeakRssMb();
  writer.Stop();
  GlobalTracer().Enable(false);

  // ---- validity and correctness ------------------------------------------
  std::vector<double> lateness_ms;
  for (const Request& r : requests) {
    if (r.due_ns >= window_start) {
      lateness_ms.push_back((r.submit_ns - r.due_ns) / 1e6);
    }
  }
  const double lateness_p50 = Percentile(lateness_ms, 50);
  const double lateness_p99 = Percentile(lateness_ms, 99);
  if (lateness_p50 > kMaxLatenessP50Ms) {
    throw std::runtime_error(
        "invalid run: the generator fell behind its schedule (lateness p50 " +
        std::to_string(lateness_p50) + " ms)");
  }
  std::map<uint64_t, std::shared_ptr<const serve::ModelBundle>> bundles =
      writer.published();
  bundles[stack.bundle->version()] = stack.bundle;
  std::vector<Checked> checked;
  for (const Request& r : requests) {
    ++out.tally.attempted;
    if (!Ok(r)) {
      out.tally.Fail(serve::RequestStatusName(r.status));
      continue;
    }
    checked.push_back(Checked{&catalog[r.index % catalog.size()],
                              serve::BatchPredictor::TableSeed(request_seed,
                                                               r.index),
                              r.version, &r.ids});
  }
  const uint64_t mismatches = OracleMismatches(checked, bundles);
  out.tally.Fail("oracle_mismatch", mismatches);
  uint64_t nacks = 0;
  for (const WriterOp& w : writer.ops()) {
    ++out.tally.attempted;
    if (!w.ok) ++nacks;
  }
  out.tally.Fail("writer_failed", nacks);
  if (writer.failed()) out.tally.Fail("writer_exception");
  out.tally.Fail("thread_exception", thread_exceptions.load());
  const uint64_t lost = LostCorrections(stack.wal_path, writer.ops());
  out.tally.Fail("lost_correction", lost);
  out.correct = mismatches == 0 && lost == 0;

  // ---- metrics ------------------------------------------------------------
  Json series;
  MetricMap untraced = EndToEnd(requests, writer.ops(), window_start,
                                traced_start, args.slo_ms, setup.setup_s,
                                args.trace ? rss_untraced : rss_mb, &series);
  size_t publishes_done = 0;
  for (const WriterOp& w : writer.ops()) publishes_done += w.publish ? 1 : 0;
  out.details.Num("warmup_s", (window_start - load_start) / 1e9)
      .Raw("warmup_window_p50_ms", NumberList(gate.values()))
      .Num("window_s", (window_end - window_start) / 1e9)
      .Num("lateness_p50_ms", lateness_p50)
      .Num("lateness_p99_ms", lateness_p99)
      .Int("requests", requests.size())
      .Int("corrections", writer.ops().size() - publishes_done)
      .Int("publishes", publishes_done)
      .Int("versions_served", bundles.size())
      .Raw("untraced_windows", series.Dump());
  if (!args.trace) {
    out.metrics = std::move(untraced);
    return out;
  }

  MetricMap traced = EndToEnd(requests, writer.ops(), traced_start, window_end,
                              args.slo_ms, setup.traced_setup_s, rss_mb,
                              nullptr);
  // Replay every catalog table once (its first request's seed): the
  // per-table core cost that the queue wait below subtracts.
  std::vector<const Table*> sample;
  std::vector<uint64_t> sample_seeds;
  for (size_t i = 0; i < catalog.size(); ++i) {
    sample.push_back(&catalog[i]);
    sample_seeds.push_back(serve::BatchPredictor::TableSeed(request_seed, i));
  }
  LoadedSato flops_model = LoadBundle(args.bundle);
  GlobalTracer().Enable(true);
  const uint64_t replay_start = NowNs();
  LayerReplay r = ReplayLayers(*stack.bundle, sample, sample_seeds,
                               ForwardFlopsPerColumn(flops_model.model.get()));
  GlobalTracer().Enable(false);
  std::vector<double> core_by_table(catalog.size(), 0.0);
  for (size_t i = 0, k = 0; i < catalog.size(); ++i) {
    if (catalog[i].num_columns() > 0) core_by_table[i] = r.core_us[k++];
  }

  MetricMap& m = out.metrics;
  m = ZeroLayerMetrics();
  FillReplayMetrics(r, &m);
  std::vector<double> publish_us, append_us;
  for (const WriterOp& w : writer.ops()) {
    if (w.due_ns < traced_start || w.due_ns >= window_end) continue;
    (w.publish ? publish_us : append_us)
        .push_back((w.end_ns - w.start_ns) / 1e3);
  }
  SetMetric(&m, "model_registry.publish_us", Median(publish_us));
  SetMetric(&m, "correction_wal.append_us_p50", Percentile(append_us, 50));
  SetMetric(&m, "correction_wal.append_us_p99", Percentile(append_us, 99));

  std::vector<double> queue_wait_us;
  double load_ms = 0.0, lateness = 0.0, core = 0.0, ok = 0.0;
  for (const Request& q : requests) {
    if (q.due_ns < traced_start || !Ok(q)) continue;
    const double core_us = core_by_table[q.index % catalog.size()];
    queue_wait_us.push_back(q.service_ns / 1e3 - core_us);
    load_ms += (q.done_ns - q.due_ns) / 1e6;
    lateness += (q.submit_ns - q.due_ns) / 1e6;
    core += core_us / 1e3;
    ok += 1.0;
  }
  SetMetric(&m, "prediction_service.queue_wait_us_p50",
            Percentile(queue_wait_us, 50));
  SetMetric(&m, "prediction_service.queue_wait_us_p99",
            Percentile(queue_wait_us, 99));
  const serve::ServiceStats& s0 = traced_from.first;
  const serve::ServiceStats& s1 = traced_to.first;
  double batched = 0.0, batches = 0.0;
  for (size_t size = 1; size < s1.batch_size_histogram.size(); ++size) {
    const double n = static_cast<double>(
        s1.batch_size_histogram[size] -
        (size < s0.batch_size_histogram.size() ? s0.batch_size_histogram[size]
                                               : 0));
    batched += n * size;
    batches += n;
  }
  SetMetric(&m, "prediction_service.batch_size_mean",
            batches > 0 ? batched / batches : 0.0);
  SetMetric(&m, "prediction_service.rejected", s1.rejected - s0.rejected);
  SetMetric(&m, "prediction_service.deadline_shed",
            s1.deadline_exceeded - s0.deadline_exceeded);
  SetMetric(&m, "prediction_service.model_swaps",
            s1.model_swaps - s0.model_swaps);
  const serve::ResultCacheStats& c0 = traced_from.second;
  const serve::ResultCacheStats& c1 = traced_to.second;
  const double lookups = static_cast<double>(c1.lookups - c0.lookups);
  const double hits = static_cast<double>(c1.hits - c0.hits);
  SetMetric(&m, "result_cache.hits", hits);
  SetMetric(&m, "result_cache.misses", c1.misses - c0.misses);
  SetMetric(&m, "result_cache.hit_rate", lookups > 0 ? hits / lookups : 0.0);
  SetMetric(&m, "result_cache.evictions", c1.evictions - c0.evictions);

  // Coverage of the requests' time from due to completion: generator
  // lateness and single-thread compute are measured; the rest (batcher
  // queue delay, hand-offs) is what queue_wait_us estimates and stays
  // unattributed here.
  const double feat = Mean(r.featurize_us) / 1e3, nn = Mean(r.nn_us) / 1e3,
               crf = Mean(r.crf_us) / 1e3;
  const double core_mean = ok > 0 ? core / ok : 0.0;
  double coverage = 0.0;
  out.details.Raw(
      "coverage",
      CoverageJson(load_ms,
                   {{"generator_lateness", lateness},
                    {"result_cache", ok * (Mean(r.lookup_us) +
                                           Mean(r.insert_us)) / 1e3},
                    {"features", ok * feat},
                    {"nn", ok * nn},
                    {"crf", ok * crf},
                    {"core_other",
                     ok * std::max(0.0, core_mean - feat - nn - crf)}},
                   &coverage));
  SetMetric(&m, "trace.coverage_frac", coverage);
  SetMetric(&m, "trace.unattributed_frac", 1.0 - coverage);
  AddTraceOverhead(untraced, traced, &m);

  // Wire, server and cache-hit layers: the loopback daemon replay.
  GlobalTracer().Enable(true);
  const uint64_t daemon_start = NowNs();
  RunOutput daemon = RunDaemonReplay(args, kDaemonReplayS);
  GlobalTracer().Enable(false);
  for (const auto& [name, metric] : daemon.metrics) {
    SetMetric(&m, name, metric.value);
  }
  out.tally.attempted += daemon.tally.attempted;
  for (const auto& [kind, count] : daemon.tally.failed) {
    out.tally.Fail("daemon_replay." + kind, count);
  }
  out.correct = out.correct && daemon.correct;
  out.details.Raw("daemon_replay", daemon.details.Dump())
      .Raw("daemon_replay_span_self_time",
           SpanTotalsJson(daemon_start, UINT64_MAX, ""));
  out.details.Raw("traced_end_to_end", MetricsJson(traced))
      .Raw("untraced_end_to_end", MetricsJson(untraced))
      .Raw("span_self_time",
           SpanTotalsJson(traced_start, window_end, args.trace_out))
      .Raw("replay_span_self_time",
           SpanTotalsJson(replay_start, daemon_start, ""))
      .Str("nn_flops_source", "counted from weight shapes")
      .Int("replay_tables", sample.size());
  return out;
}

}  // namespace sato::perfbench
