// Loopback daemon replay, run at the end of traced online_open_writes runs:
// the daemon as sato_serverd ships it (Server over a PredictionService with
// 2 workers, max batch 16, 1 ms queue delay, a 4096-entry/8-shard
// ResultCache, fsync'd WAL), driven closed-loop by two wire::Client
// connections, one thread each, replaying a Zipf(1.0) trace over a catalog
// four times the cache's capacity. Every 20th request of a client is a
// correction. It measures the wire, server and cache-hit layers; its
// round-trip figures are wake-up bound on a shared virtual host and too
// unsteady to bound as a workload of their own.

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/wire.h"
#include "trace.h"
#include "workload.h"

namespace sato::perfbench {

namespace {

constexpr size_t kZipfTables = 4 * kCacheEntries;
constexpr double kZipfS = 1.0;
constexpr size_t kClients = 2;
constexpr uint64_t kCorrectEvery = 20;
constexpr double kWindowS = 0.5;
constexpr size_t kSteadyWindows = 4;
constexpr double kSteadyTolerance = 0.125;
/// A replay whose throughput has not held steady after this long of
/// warm-up makes the run invalid.
constexpr double kMaxWarmupS = 30.0;

struct ClientOp {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t sequence = 0;  ///< names a correction's column
  uint64_t version = 0;
  uint32_t table = 0;
  TypeId type = 0;  ///< corrected type
  bool correction = false;
  bool transport_ok = false;
  serve::wire::WireStatus status = serve::wire::WireStatus::kFailed;
};

bool Ok(const ClientOp& op) {
  return op.transport_ok && op.status == serve::wire::WireStatus::kOk;
}

std::string ColumnName(size_t client, uint64_t sequence) {
  return "d" + std::to_string(client) + "-" + std::to_string(sequence);
}

/// The first kOk answer a client got for each (table, version); later
/// answers are compared with it as they arrive and the oracle checks the
/// first ones after the replay, so memory is bounded by the catalog.
struct SeenAnswers {
  std::vector<std::vector<std::pair<uint64_t, std::vector<TypeId>>>> by_table;
  uint64_t differing = 0;

  void Check(uint32_t table, uint64_t version, std::vector<TypeId> ids) {
    for (const auto& [seen_version, seen_ids] : by_table[table]) {
      if (seen_version == version) {
        if (seen_ids != ids) ++differing;
        return;
      }
    }
    by_table[table].emplace_back(version, std::move(ids));
  }
};

}  // namespace

RunOutput RunDaemonReplay(const Args& args, double seconds) {
  RunOutput out;
  const std::vector<Table> catalog =
      MakeWebCatalog(SubSeed(args.seed, 2), kZipfTables);
  const ZipfSampler zipf(catalog.size(), kZipfS, SubSeed(args.seed, 3));
  const uint64_t request_seed = SubSeed(args.seed, 12);
  auto table_seed = [&](size_t table) {
    return serve::BatchPredictor::TableSeed(request_seed, table);
  };
  std::unique_ptr<Stack> stack = BuildStack(
      StackKind::kDaemon, args, args.work_dir + "/daemon-replay.wal");
  const uint16_t port = stack->server->port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_predictions{0};
  std::atomic<uint64_t> client_failures{0};  // connect failed or threw
  std::vector<std::vector<ClientOp>> ops(kClients);
  std::vector<SeenAnswers> seen(kClients);
  for (SeenAnswers& s : seen) s.by_table.resize(catalog.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<ClientOp>& mine = ops[c];
      mine.reserve(1 << 16);
      util::Rng rng(SubSeed(args.seed, 300 + c));
      serve::wire::Client client;
      if (!client.Connect("127.0.0.1", port)) {
        client_failures.fetch_add(1);
        return;
      }
      try {
        uint64_t version = stack->bundle->version();
        uint32_t last_table = 0;
        for (uint64_t n = 1; !stop.load(std::memory_order_relaxed); ++n) {
          ClientOp op;
          serve::wire::ClientResponse response;
          if (n % kCorrectEvery == 0) {
            op.correction = true;
            op.table = last_table;
            op.sequence = n;
            op.type = static_cast<TypeId>(
                rng.UniformInt(0, kNumSemanticTypes - 1));
            op.version = version;
            ScopedSpan span("wire.Client.Correct", 0, n);
            op.start_ns = NowNs();
            response = client.Correct(ColumnName(c, n), op.type, op.version);
            op.end_ns = NowNs();
          } else {
            op.table = static_cast<uint32_t>(zipf.Next(&rng));
            ScopedSpan span("wire.Client.Predict", 0, n);
            op.start_ns = NowNs();
            response = client.Predict(catalog[op.table], table_seed(op.table));
            op.end_ns = NowNs();
            last_table = op.table;
          }
          op.transport_ok = response.transport_ok;
          op.status = response.body.status;
          if (!op.correction) {
            op.version = response.body.model_version;
            if (Ok(op)) {
              version = op.version;
              ok_predictions.fetch_add(1, std::memory_order_relaxed);
              seen[c].Check(op.table, op.version,
                            std::move(response.body.type_ids));
            }
          }
          mine.push_back(op);
        }
      } catch (...) {
        client_failures.fetch_add(1);
      }
    });
  }

  // Warm-up: half-second windows until throughput holds steady (the cache
  // fills and its hit rate settles first).
  const uint64_t load_start = NowNs();
  const uint64_t window_ns = static_cast<uint64_t>(kWindowS * 1e9);
  SteadyGate gate(kSteadyWindows, kSteadyTolerance);
  bool steady = false;
  uint64_t tick = load_start;
  uint64_t last_ok = 0;
  while (!steady && (tick - load_start) / 1e9 < kMaxWarmupS &&
         client_failures.load() == 0) {
    tick += window_ns;
    SleepUntilNs(tick);
    const uint64_t now_ok = ok_predictions.load();
    steady = gate.Add((now_ok - last_ok) / kWindowS);
    last_ok = now_ok;
  }
  if (!steady && client_failures.load() == 0) {
    stop.store(true);
    for (std::thread& t : clients) t.join();
    throw std::runtime_error(
        "invalid run: the daemon replay's throughput did not hold steady "
        "within " + std::to_string(kMaxWarmupS) + " s of warm-up");
  }

  const uint64_t window_start = NowNs();
  const serve::ResultCacheStats c0 = stack->cache->Stats();
  const serve::ServerStats v0 = stack->server->Stats();
  SleepUntilNs(window_start + static_cast<uint64_t>(seconds * 1e9));
  const uint64_t window_end = NowNs();
  const serve::ResultCacheStats c1 = stack->cache->Stats();
  const serve::ServerStats v1 = stack->server->Stats();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  out.tally.Fail("client_failed", client_failures.load());

  // ---- correctness --------------------------------------------------------
  std::vector<Checked> checked;
  std::vector<WriterOp> acked;
  for (size_t c = 0; c < kClients; ++c) {
    for (const ClientOp& op : ops[c]) {
      ++out.tally.attempted;
      if (!op.transport_ok) {
        out.tally.Fail("transport");
      } else if (op.status != serve::wire::WireStatus::kOk) {
        out.tally.Fail(serve::wire::WireStatusName(op.status));
      } else if (op.correction) {
        WriterOp w;
        w.ok = true;
        w.column = ColumnName(c, op.sequence);
        w.type = op.type;
        w.version = op.version;
        acked.push_back(std::move(w));
      }
    }
  }
  uint64_t differing = 0;
  for (const SeenAnswers& answers : seen) {
    differing += answers.differing;
    for (size_t t = 0; t < answers.by_table.size(); ++t) {
      for (const auto& [version, ids] : answers.by_table[t]) {
        checked.push_back(Checked{&catalog[t], table_seed(t), version, &ids});
      }
    }
  }
  const uint64_t mismatches =
      differing +
      OracleMismatches(checked, {{stack->bundle->version(), stack->bundle}});
  out.tally.Fail("oracle_mismatch", mismatches);
  const uint64_t lost = LostCorrections(stack->wal_path, acked);
  out.tally.Fail("lost_correction", lost);
  out.correct = mismatches == 0 && lost == 0;

  // ---- per-layer metrics ---------------------------------------------------
  // Server-side time per request against the client round trip.
  const double server_ms =
      (v1.request_nanos_total - v0.request_nanos_total) / 1e6;
  const double served =
      static_cast<double>(v1.requests_measured - v0.requests_measured);
  double rtt_ms = 0.0, requests = 0.0;
  std::vector<double> predict_rtt_ms;
  for (const auto& client : ops) {
    for (const ClientOp& op : client) {
      if (op.start_ns < window_start || op.end_ns > window_end) continue;
      const double ms = (op.end_ns - op.start_ns) / 1e6;
      rtt_ms += ms;
      requests += 1.0;
      if (!op.correction && Ok(op)) predict_rtt_ms.push_back(ms);
    }
  }
  const double server_us = served > 0 ? server_ms * 1e3 / served : 0.0;
  const double lookups = static_cast<double>(c1.lookups - c0.lookups);
  MetricMap& m = out.metrics;
  m.emplace_back("server.request_us", Metric{server_us, "us"});
  m.emplace_back("server.transport_us",
                 Metric{requests > 0 ? rtt_ms * 1e3 / requests - server_us
                                     : 0.0,
                        "us"});
  m.emplace_back("result_cache.replay_hit_rate",
                 Metric{lookups > 0 ? (c1.hits - c0.hits) / lookups : 0.0,
                        "frac"});
  m.emplace_back("result_cache.replay_evictions",
                 Metric{static_cast<double>(c1.evictions - c0.evictions),
                        "count"});
  out.details.Num("warmup_s", (window_start - load_start) / 1e9)
      .Raw("warmup_window_tables_per_s", NumberList(gate.values()))
      .Num("window_s", (window_end - window_start) / 1e9)
      .Num("tables_per_s", predict_rtt_ms.size() /
                               ((window_end - window_start) / 1e9))
      .Num("rtt_p50_ms", Percentile(predict_rtt_ms, 50))
      .Num("rtt_p99_ms", Percentile(predict_rtt_ms, 99))
      .Int("rtt_samples", predict_rtt_ms.size())
      .Int("requests", out.tally.attempted)
      .Int("corrections", acked.size())
      .Int("answers_checked_by_oracle", checked.size())
      .Int("distinct_tables", catalog.size());
  return out;
}

}  // namespace sato::perfbench
