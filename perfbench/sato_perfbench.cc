// Serving benchmark program. Two modes:
//
//   sato_perfbench prepare --seed N --bundle PATH
//       trains the run's bundle (input preparation, outside every clock)
//   sato_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --bundle PATH --work-dir DIR [--trace-out FILE]
//                      [--rate R] [--slo-ms L]
//       runs one workload and prints a details line, then the result line
//       {"correct", "attempted", "failed", "metrics"} as the last line.
//
// perfbench/run.py builds this program and calls both modes; see
// perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workload.h"

namespace sato::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sato_perfbench prepare --seed N --bundle PATH\n"
               "       sato_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --bundle PATH --work-dir DIR [--trace-out F] "
               "[--rate R] [--slo-ms L]\n");
  return 2;
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--bundle") {
      args->bundle = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--rate") {
      args->rate = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--slo-ms") {
      args->slo_ms = std::strtod(value.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return !args->bundle.empty();
}

int Run(const Args& args) {
  RunOutput out;
  if (args.workload == "offline_lake") {
    out = RunOfflineLake(args);
  } else if (args.workload == "online_open_writes") {
    out = RunOnlineOpenWrites(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  Json failed_by_kind;
  for (const auto& [kind, count] : out.tally.failed) {
    failed_by_kind.Int(kind, count);
  }
  Json stamp = Stamp(args.seed);
  stamp.Str("workload", args.workload)
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Int("setup_reps", kSetupReps);
  if (args.workload == "offline_lake") {
    stamp.Str("batch_workers", "nproc");
  } else {
    stamp.Int("service_workers", kDaemonWorkers)
        .Int("service_max_batch", kDaemonMaxBatch)
        .Num("service_queue_delay_ms", kDaemonQueueDelayNs / 1e6)
        .Int("cache_entries", kCacheEntries)
        .Int("cache_shards", kCacheShards)
        .Str("wal_fsync", "always");
  }
  if (args.rate > 0) stamp.Num("rate_per_s", args.rate);
  stamp.Num("slo_ms", args.slo_ms);
  MetricMap reported;
  if (args.trace) {
    reported = out.metrics;
  } else {
    for (const char* name : kEndToEnd) {
      for (const auto& [key, metric] : out.metrics) {
        if (key == name) reported.emplace_back(key, metric);
      }
    }
  }
  Json details;
  details.Raw("stamp", stamp.Dump())
      .Raw("measured", MetricsJson(out.metrics))
      .Raw("failed_by_kind", failed_by_kind.Dump())
      .Raw("run", out.details.Dump());
  std::printf("%s\n", Json().Raw("details", details.Dump()).Dump().c_str());

  Json metrics;
  for (const auto& [name, metric] : reported) {
    Json value;
    value.Num("value", metric.value).Str("unit", metric.unit);
    metrics.Raw(name, value.Dump());
  }
  const bool correct = out.correct && out.tally.total_failed() == 0;
  Json result;
  result.Bool("correct", correct)
      .Int("attempted", out.tally.attempted)
      .Int("failed", out.tally.total_failed())
      .Raw("metrics", metrics.Dump());
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sato::perfbench

int main(int argc, char** argv) {
  using namespace sato::perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Args args;
  if (!Parse(argc, argv, &args)) return Usage();
  try {
    if (mode == "prepare") {
      PrepareBundle(args.seed, args.bundle);
      return 0;
    }
    if (mode == "run") return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return Usage();
}
