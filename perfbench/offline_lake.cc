// offline_lake: closed-batch bulk annotation. BatchPredictor::PredictTables
// at nproc workers (as `sato_cli predict --jobs $(nproc)`) annotates a
// catalog of tall tables in calls of kChunkTables tables, pass after pass.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "trace.h"
#include "workload.h"

namespace sato::perfbench {

namespace {

constexpr size_t kLakeTables = 2048;
constexpr size_t kChunkTables = 128;
constexpr size_t kSteadyWindows = 4;
constexpr double kSteadyTolerance = 0.125;  // half the tables_per_s bound
/// A run whose throughput has not held steady after this long of warm-up,
/// or in which more than kMaxStrayShare of the one-second windows stray
/// further than kMaxWindowDev from their median, is reported invalid
/// instead of measured. The reported throughput is the windows' best
/// quartile, so a few windows slowed by other tenants of a shared host do
/// not move it; more than a quarter of them would.
constexpr double kMaxWarmupS = 30.0;
constexpr double kMaxWindowDev = 0.25;  // the tables_per_s bound
constexpr double kMaxStrayShare = 0.25;
constexpr uint64_t kRateWindowNs = 1'000'000'000;

/// One PredictTables call over one chunk.
struct Call {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  size_t tables = 0;
};

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return (to_ns - from_ns) / 1e9;
}

/// Throughput of each one-second window of [from, to): tables over busy
/// time of the calls starting in it.
std::vector<double> WindowRates(const std::vector<Call>& calls,
                                uint64_t from_ns, uint64_t to_ns) {
  return WindowValues(
      from_ns, to_ns, kRateWindowNs, [&](uint64_t lo, uint64_t hi) {
        double tables = 0.0, busy = 0.0;
        for (const Call& c : calls) {
          if (c.start_ns < lo || c.start_ns >= hi) continue;
          tables += c.tables;
          busy += Seconds(c.start_ns, c.end_ns);
        }
        return busy > 0 ? tables / busy : -1.0;
      });
}

MetricMap EndToEnd(const std::vector<Call>& calls, uint64_t from_ns,
                   uint64_t to_ns, double slo_ms, double setup_s,
                   double rss_mb, Json* series) {
  std::vector<double> walls_ms;
  for (const Call& c : calls) {
    if (c.start_ns < from_ns || c.start_ns >= to_ns) continue;
    walls_ms.push_back((c.end_ns - c.start_ns) / 1e6);
  }
  const std::vector<double> rates = WindowRates(calls, from_ns, to_ns);
  auto walls_in = [&](uint64_t lo, uint64_t hi) {
    std::vector<double> ms;
    for (const Call& c : calls) {
      if (c.start_ns >= lo && c.start_ns < hi) {
        ms.push_back((c.end_ns - c.start_ns) / 1e6);
      }
    }
    return ms;
  };
  const std::vector<double> p50s = WindowValues(
      from_ns, to_ns, kRateWindowNs, [&](uint64_t lo, uint64_t hi) {
        const std::vector<double> ms = walls_in(lo, hi);
        return ms.empty() ? -1.0 : Percentile(ms, 50);
      });
  const std::vector<double> slos = WindowValues(
      from_ns, to_ns, kRateWindowNs, [&](uint64_t lo, uint64_t hi) {
        const std::vector<double> ms = walls_in(lo, hi);
        double within = 0.0;
        for (double v : ms) within += v <= slo_ms ? 1.0 : 0.0;
        return ms.empty() ? -1.0 : within / static_cast<double>(ms.size());
      });
  if (series != nullptr) {
    series->Raw("window_latency_p50_ms", NumberList(p50s));
  }
  MetricMap m;
  m.emplace_back("setup_s", Metric{setup_s, "s"});
  m.emplace_back("peak_rss_mb", Metric{rss_mb, "MB"});
  m.emplace_back("tables_per_s", Metric{BestQuartile(rates, true), "1/s"});
  m.emplace_back("latency_p50_ms", Metric{BestQuartile(p50s, false), "ms"});
  m.emplace_back("latency_p99_ms", Metric{Percentile(walls_ms, 99), "ms"});
  m.emplace_back("slo_ok_frac", Metric{BestQuartile(slos, true), "frac"});
  m.emplace_back("latency_p90_ms", Metric{Percentile(walls_ms, 90), "ms"});
  m.emplace_back("latency_samples",
                 Metric{static_cast<double>(walls_ms.size()), "count"});
  return m;
}

}  // namespace

RunOutput RunOfflineLake(const Args& args) {
  RunOutput out;
  std::vector<std::vector<Table>> chunks;
  {
    std::vector<Table> catalog =
        MakeLakeCatalog(SubSeed(args.seed, 1), kLakeTables);
    for (size_t i = 0; i < catalog.size(); ++i) {
      if (i % kChunkTables == 0) chunks.emplace_back();
      chunks.back().push_back(std::move(catalog[i]));
    }
  }
  SetupResult setup = RunSetup(StackKind::kLake, args);
  Stack& stack = *setup.stack;
  serve::BatchPredictor& batch = *stack.batch;
  const uint64_t batch_seed = SubSeed(args.seed, 11);  // as in RunSetup

  const uint64_t load_start = NowNs();
  // Every call must equal the first call on the same chunk, which the
  // oracle then checks, so only first results are kept (memory stays flat
  // in the run length).
  std::vector<Call> calls;
  calls.reserve(1 << 14);
  std::vector<std::vector<std::vector<TypeId>>> first_results(chunks.size());
  uint64_t differing = 0;
  auto run_pass = [&] {
    double tables = 0.0, busy = 0.0;
    for (size_t k = 0; k < chunks.size(); ++k) {
      Call c;
      std::vector<std::vector<TypeId>> results;
      {
        ScopedSpan span("batch_predictor.PredictTables", 0, calls.size());
        c.start_ns = NowNs();
        results = batch.PredictTables(chunks[k]);
        c.end_ns = NowNs();
      }
      c.tables = chunks[k].size();
      calls.push_back(c);
      tables += c.tables;
      busy += Seconds(c.start_ns, c.end_ns);
      if (first_results[k].empty()) {
        first_results[k] = std::move(results);
      } else {
        for (size_t i = 0; i < results.size(); ++i) {
          if (results[i] != first_results[k][i]) ++differing;
        }
      }
    }
    return tables / busy;
  };

  // Warm-up: catalog passes until per-pass throughput holds steady.
  SteadyGate gate(kSteadyWindows, kSteadyTolerance);
  bool steady = false;
  while (!steady && Seconds(load_start, NowNs()) < kMaxWarmupS) {
    steady = gate.Add(run_pass());
  }
  if (!steady) {
    throw std::runtime_error(
        "invalid run: throughput did not hold steady within " +
        std::to_string(kMaxWarmupS) + " s of warm-up");
  }
  const size_t warmup_calls = calls.size();

  // Timed window; a traced run times its second half with spans on.
  const uint64_t window_start = NowNs();
  uint64_t traced_start = UINT64_MAX;
  double rss_untraced = 0.0;
  while (Seconds(window_start, NowNs()) < args.seconds) {
    if (args.trace && traced_start == UINT64_MAX &&
        Seconds(window_start, NowNs()) >= args.seconds / 2) {
      rss_untraced = PeakRssMb();
      traced_start = NowNs();
      GlobalTracer().Enable(true);
    }
    run_pass();
  }
  const uint64_t window_end = NowNs();
  const double rss_mb = PeakRssMb();
  GlobalTracer().Enable(false);

  // ---- validity: windows hold their throughput within the bound --------
  const std::vector<double> window_rates =
      WindowRates(calls, window_start, window_end);
  const double median_rate = Median(window_rates);
  double max_dev = 0.0, strays = 0.0;
  for (double r : window_rates) {
    const double dev = std::fabs(r / median_rate - 1.0);
    max_dev = std::max(max_dev, dev);
    strays += dev > kMaxWindowDev ? 1.0 : 0.0;
  }
  const double stray_frac = strays / window_rates.size();
  if (stray_frac > kMaxStrayShare) {
    throw std::runtime_error(
        "invalid run: " + std::to_string(stray_frac) +
        " of the one-second windows strayed beyond the bound from their "
        "median throughput " + NumberList(window_rates));
  }

  // ---- correctness (after the window, so the oracle is never timed) ----
  std::vector<Checked> checked;
  for (const Call& c : calls) out.tally.attempted += c.tables;
  for (size_t k = 0; k < chunks.size(); ++k) {
    for (size_t i = 0; i < chunks[k].size(); ++i) {
      if (chunks[k][i].num_columns() == 0) continue;
      checked.push_back(Checked{&chunks[k][i],
                                serve::BatchPredictor::TableSeed(batch_seed, i),
                                stack.bundle->version(), &first_results[k][i]});
    }
  }
  const uint64_t mismatches =
      differing +
      OracleMismatches(checked, {{stack.bundle->version(), stack.bundle}});
  out.tally.Fail("oracle_mismatch", mismatches);
  out.correct = mismatches == 0;

  // ---- metrics ------------------------------------------------------------
  const uint64_t untraced_end = args.trace ? traced_start : window_end;
  Json series;
  MetricMap untraced = EndToEnd(calls, window_start, untraced_end,
                                args.slo_ms, setup.setup_s,
                                args.trace ? rss_untraced : rss_mb, &series);
  out.details.Num("warmup_s", Seconds(load_start, window_start))
      .Raw("warmup_pass_tables_per_s", NumberList(gate.values()))
      .Num("window_tput_max_dev", max_dev)
      .Num("window_stray_frac", stray_frac)
      .Raw("window_tables_per_s", NumberList(window_rates))
      .Int("timed_calls", calls.size() - warmup_calls)
      .Int("tables_per_call", kChunkTables)
      .Int("tables_per_pass", kLakeTables)
      .Num("window_s", Seconds(window_start, window_end))
      .Raw("untraced_windows", series.Dump());

  if (!args.trace) {
    out.metrics = std::move(untraced);
    return out;
  }

  MetricMap traced = EndToEnd(calls, traced_start, window_end, args.slo_ms,
                              setup.traced_setup_s, rss_mb, nullptr);
  std::vector<const Table*> sample;
  std::vector<uint64_t> sample_seeds;
  for (const std::vector<Table>& chunk : chunks) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      sample.push_back(&chunk[i]);
      sample_seeds.push_back(serve::BatchPredictor::TableSeed(batch_seed, i));
    }
  }
  LoadedSato flops_model = LoadBundle(args.bundle);
  GlobalTracer().Enable(true);
  const uint64_t replay_start = NowNs();
  LayerReplay r = ReplayLayers(*stack.bundle, sample, sample_seeds,
                               ForwardFlopsPerColumn(flops_model.model.get()));
  GlobalTracer().Enable(false);

  MetricMap& m = out.metrics;
  m = ZeroLayerMetrics();
  FillReplayMetrics(r, &m);
  double load_ms = 0.0, n = 0.0;
  const double workers = static_cast<double>(batch.num_threads());
  for (const Call& c : calls) {
    if (c.start_ns >= traced_start) {
      load_ms += workers * (c.end_ns - c.start_ns) / 1e6;
      n += c.tables;
    }
  }
  // Worker time of the traced calls against the single-thread layer
  // costs of the tables they annotated.
  const double core_ms = Mean(r.core_us) / 1e3;
  SetMetric(&m, "batch_predictor.parallel_efficiency",
            load_ms > 0 ? n * core_ms / load_ms : 0.0);
  const double feat = Mean(r.featurize_us) / 1e3, nn = Mean(r.nn_us) / 1e3,
               crf = Mean(r.crf_us) / 1e3;
  double coverage = 0.0;
  out.details.Raw(
      "coverage",
      CoverageJson(load_ms,
                   {{"features", n * feat},
                    {"nn", n * nn},
                    {"crf", n * crf},
                    {"core_other",
                     n * std::max(0.0, core_ms - feat - nn - crf)}},
                   &coverage));
  SetMetric(&m, "trace.coverage_frac", coverage);
  SetMetric(&m, "trace.unattributed_frac", 1.0 - coverage);
  AddTraceOverhead(untraced, traced, &m);
  out.details.Raw("traced_end_to_end", MetricsJson(traced))
      .Raw("untraced_end_to_end", MetricsJson(untraced))
      .Raw("span_self_time", SpanTotalsJson(traced_start, window_end,
                                            args.trace_out))
      .Raw("replay_span_self_time",
           SpanTotalsJson(replay_start, UINT64_MAX, ""))
      .Str("nn_flops_source", "counted from weight shapes")
      .Int("replay_tables", sample.size());
  return out;
}

}  // namespace sato::perfbench
