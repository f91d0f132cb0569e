// sato_cli: command-line interface over the library, covering the full
// train -> persist -> annotate lifecycle a practitioner needs.
//
//   sato_cli train <bundle>                 train on the synthetic corpus and
//                                           save a deployable bundle
//   sato_cli predict <bundle> <csv>...      annotate CSV tables (headers are
//                                           ignored for prediction)
//   sato_cli eval <bundle>                  evaluate the bundle on a freshly
//                                           generated held-out corpus
//   sato_cli serve-sim <bundle>             drive the online PredictionService
//                                           with closed-loop simulated clients
//   sato_cli types                          list the supported types
//
// Options for `train`: --tables N, --topics K, --epochs E, --variant
// base|notopic|nostruct|full, --seed S.
//
// `predict` and `eval` accept --jobs N to decode tables on N worker
// threads through the BatchPredictor; output is identical for any N.
//
// `serve-sim` accepts --jobs N (prediction workers), --clients C
// (concurrent closed-loop clients), --batch B (max micro-batch size),
// --delay-us D (micro-batch flush deadline), --capacity Q (admission
// bound) and --swap-every N (publish a new model version to the registry
// every N submissions, exercising the RCU hot-swap path under live
// traffic). It reports latency percentiles, the achieved batch-size
// histogram and the per-version served counts, then audits every response
// against a sequential SatoPredictor run on its reported model version --
// the online determinism contract, per version.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "core/trainer.h"
#include "corpus/generator.h"
#include "eval/model_eval.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "util/timer.h"

using namespace sato;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sato_cli train <bundle> [--tables N] [--topics K] [--epochs E]\n"
               "                 [--variant base|notopic|nostruct|full] [--seed S]\n"
               "  sato_cli predict <bundle> [--jobs N] <table.csv>...\n"
               "  sato_cli eval <bundle> [--tables N] [--seed S] [--jobs N]\n"
               "  sato_cli serve-sim <bundle> [--tables N] [--seed S] [--jobs N]\n"
               "                 [--clients C] [--batch B] [--delay-us D]\n"
               "                 [--capacity Q] [--swap-every N]\n"
               "  sato_cli types\n");
  return 2;
}

struct Flags {
  size_t tables = 1200;
  int topics = 32;
  int epochs = 25;
  uint64_t seed = 7;
  int jobs = 1;
  int clients = 4;        // serve-sim: concurrent closed-loop clients
  int batch = 8;          // serve-sim: max micro-batch size
  int delay_us = 500;     // serve-sim: micro-batch flush deadline
  int capacity = 1024;    // serve-sim: bounded admission queue
  int swap_every = 0;     // serve-sim: publish a new version every N submits
  SatoVariant variant = SatoVariant::kFull;
};

// Parses --flag arguments starting at argv[start]. When `positional` is
// non-null, non-flag arguments are collected there (e.g. the CSV paths of
// `predict`); otherwise they are rejected.
bool ParseFlags(int argc, char** argv, int start, Flags* flags,
                std::vector<std::string>* positional = nullptr) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tables") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->tables = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--topics") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->topics = std::atoi(v);
    } else if (arg == "--epochs") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->epochs = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->jobs = std::atoi(v);
      if (flags->jobs < 1) return false;
    } else if (arg == "--clients") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->clients = std::atoi(v);
      if (flags->clients < 1) return false;
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->batch = std::atoi(v);
      if (flags->batch < 1) return false;
    } else if (arg == "--delay-us") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->delay_us = std::atoi(v);
      if (flags->delay_us < 0) return false;
    } else if (arg == "--capacity") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->capacity = std::atoi(v);
      if (flags->capacity < 1) return false;
    } else if (arg == "--swap-every") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->swap_every = std::atoi(v);
      if (flags->swap_every < 0) return false;
    } else if (arg == "--variant") {
      const char* v = next();
      if (v == nullptr) return false;
      std::string name = v;
      if (name == "base") flags->variant = SatoVariant::kBase;
      else if (name == "notopic") flags->variant = SatoVariant::kNoTopic;
      else if (name == "nostruct") flags->variant = SatoVariant::kNoStruct;
      else if (name == "full") flags->variant = SatoVariant::kFull;
      else return false;
    } else if (positional != nullptr && arg.rfind("--", 0) != 0) {
      positional->push_back(std::move(arg));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int CmdTypes() {
  const auto& registry = SemanticTypeRegistry::Instance();
  for (TypeId id = 0; id < registry.size(); ++id) {
    std::printf("%2d  %s\n", id, registry.Name(id).c_str());
  }
  return 0;
}

int CmdTrain(const std::string& bundle_path, const Flags& flags) {
  util::Timer timer;
  corpus::CorpusOptions copts;
  copts.num_tables = flags.tables;
  copts.seed = flags.seed;
  corpus::CorpusGenerator generator(copts);
  auto corpus_tables = generator.Generate();
  auto reference =
      generator.GenerateWith(std::max<size_t>(flags.tables / 3, 200),
                             flags.seed + 1000003);
  std::fprintf(stderr, "[%.1fs] corpus: %zu tables\n", timer.ElapsedSeconds(),
               corpus_tables.size());

  SatoConfig config;
  config.num_topics = flags.topics;
  config.epochs = flags.epochs;
  config.seed = flags.seed;
  util::Rng rng(flags.seed);
  FeatureContext context = FeatureContext::Build(reference, config, &rng);
  std::fprintf(stderr, "[%.1fs] context built (vocab=%zu, topics=%zu)\n",
               timer.ElapsedSeconds(), context.embeddings().vocab_size(),
               context.topic_dim());

  DatasetBuilder builder(&context);
  Dataset train = builder.Build(corpus_tables, &rng);
  features::FeatureScaler scaler = StandardizeSplits(&train, nullptr);
  std::fprintf(stderr, "[%.1fs] featurised %zu columns\n",
               timer.ElapsedSeconds(), train.NumColumns());

  ColumnwiseModel::Dims dims;
  dims.char_dim = context.pipeline().char_dim();
  dims.word_dim = context.pipeline().word_dim();
  dims.para_dim = context.pipeline().para_dim();
  dims.stat_dim = context.pipeline().stat_dim();
  SatoModel model(flags.variant, dims, context.topic_dim(), config, &rng);
  Trainer trainer(config);
  auto stats = trainer.Train(&model, train, &rng);
  std::fprintf(stderr, "[%.1fs] trained %s (loss %.3f, crf %.1fs)\n",
               timer.ElapsedSeconds(), VariantName(flags.variant).c_str(),
               stats.final_loss, stats.crf_seconds);

  std::ofstream out(bundle_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", bundle_path.c_str());
    return 1;
  }
  const std::string tag =
      VariantName(flags.variant) + "-seed" + std::to_string(flags.seed);
  SaveSatoBundle(model, context, scaler, &out, tag);
  std::fprintf(stderr, "[%.1fs] bundle saved to %s (tag %s)\n",
               timer.ElapsedSeconds(), bundle_path.c_str(), tag.c_str());
  return 0;
}

LoadedSato LoadBundleOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open bundle %s\n", path.c_str());
    std::exit(1);
  }
  return LoadSatoBundle(&in);
}

// Moves a loaded bundle's components into the registry as version 1. The
// CLI serves pinned snapshots of this registry from here on -- the same
// ownership discipline as a long-running deployment, where the loaded
// model's lifetime is governed by pins rather than by scope.
std::shared_ptr<const serve::ModelBundle> PublishLoaded(
    serve::ModelRegistry* registry, LoadedSato* sato) {
  std::shared_ptr<const SatoModel> model = std::move(sato->model);
  std::shared_ptr<const FeatureContext> context = std::move(sato->context);
  return registry->Publish(std::move(model), std::move(context), sato->scaler,
                           sato->manifest.tag);
}

int CmdPredict(const std::string& bundle_path,
               const std::vector<std::string>& csv_paths, const Flags& flags) {
  const int jobs = flags.jobs;
  LoadedSato sato = LoadBundleOrDie(bundle_path);

  bool any_failed = false;
  std::vector<std::string> loaded_paths;
  std::vector<Table> tables;
  for (const std::string& path : csv_paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      any_failed = true;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Table table = Table::FromCsv(buffer.str(), path);
    if (table.num_columns() == 0) {
      std::fprintf(stderr, "%s: empty table\n", path.c_str());
      continue;
    }
    loaded_paths.push_back(path);
    tables.push_back(std::move(table));
  }

  // Table i decodes with the Rng stream TableSeed(1, i), so the output is
  // identical for any --jobs value. The loaded model is published into a
  // registry and served from a pinned bundle snapshot; with one job the
  // bundle's predictor serves directly, with more the BatchPredictor fans
  // out over worker scratches.
  constexpr uint64_t kPredictSeed = 1;
  serve::ModelRegistry registry;
  std::shared_ptr<const serve::ModelBundle> bundle =
      PublishLoaded(&registry, &sato);
  std::vector<std::vector<std::string>> names;
  if (jobs == 1) {
    names.reserve(tables.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      util::Rng rng(serve::BatchPredictor::TableSeed(kPredictSeed, i));
      names.push_back(bundle->predictor().PredictTypeNames(tables[i], &rng));
    }
  } else {
    serve::BatchPredictorOptions options;
    options.num_threads = static_cast<size_t>(jobs);
    options.seed = kPredictSeed;
    serve::BatchPredictor batch(bundle, options);
    names = batch.PredictTypeNames(tables);
  }

  for (size_t i = 0; i < tables.size(); ++i) {
    const Table& table = tables[i];
    std::printf("%s:\n", loaded_paths[i].c_str());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const char* sample =
          table.column(c).values.empty() ? "" : table.column(c).values[0].c_str();
      std::printf("  %-20s -> %-16s (e.g. \"%s\")\n",
                  table.column(c).header.c_str(), names[i][c].c_str(), sample);
    }
  }
  return any_failed ? 1 : 0;
}

int CmdEval(const std::string& bundle_path, const Flags& flags) {
  LoadedSato sato = LoadBundleOrDie(bundle_path);
  corpus::CorpusOptions copts;
  copts.num_tables = std::max<size_t>(flags.tables / 4, 100);
  copts.seed = flags.seed + 424242;  // disjoint from any training seed
  corpus::CorpusGenerator generator(copts);
  auto tables = corpus::FilterMultiColumn(generator.Generate());

  // Same seed-stream discipline as CmdPredict: identical metrics for any
  // --jobs value. Both paths evaluate a pinned bundle snapshot.
  constexpr uint64_t kEvalSeed = 3;
  serve::ModelRegistry registry;
  std::shared_ptr<const serve::ModelBundle> bundle =
      PublishLoaded(&registry, &sato);
  eval::EvaluationResult result;
  size_t columns = 0;
  if (flags.jobs == 1) {
    result = eval::EvaluateBundleOnTables(bundle, tables, kEvalSeed);
    for (const Table& table : tables) columns += table.num_columns();
  } else {
    serve::BatchPredictorOptions options;
    options.num_threads = static_cast<size_t>(flags.jobs);
    options.seed = kEvalSeed;
    serve::BatchPredictor batch(bundle, options);
    std::vector<std::vector<TypeId>> predictions = batch.PredictTables(tables);
    std::vector<int> gold, predicted;
    for (size_t i = 0; i < tables.size(); ++i) {
      auto truth = tables[i].TypeSequence();
      gold.insert(gold.end(), truth.begin(), truth.end());
      predicted.insert(predicted.end(), predictions[i].begin(),
                       predictions[i].end());
    }
    result = eval::Evaluate(gold, predicted, kNumSemanticTypes);
    columns = gold.size();
  }
  std::printf("evaluated %zu tables (%zu columns)\n", tables.size(), columns);
  std::printf("macro F1:    %.3f\n", result.macro_f1);
  std::printf("weighted F1: %.3f\n", result.weighted_f1);
  std::printf("accuracy:    %.3f\n", result.accuracy);
  return 0;
}

// Closed-loop load simulation against the online serving frontend: each of
// --clients threads owns an interleaved slice of the corpus and submits its
// next table only after the previous response arrived, so the offered
// concurrency is exactly --clients. With --swap-every N, every Nth submit
// publishes a new registry version (same weights, new version id), so the
// hot-swap path runs under the live load. Afterwards every response is
// audited against a sequential SatoPredictor run with the same per-request
// seed on its reported model version -- the determinism-under-batching
// contract, per version, end to end on a real clock.
int CmdServeSim(const std::string& bundle_path, const Flags& flags) {
  LoadedSato sato = LoadBundleOrDie(bundle_path);
  corpus::CorpusOptions copts;
  copts.num_tables = std::max<size_t>(flags.tables / 4, 100);
  copts.seed = flags.seed + 515151;  // disjoint from any training seed
  corpus::CorpusGenerator generator(copts);
  auto tables = corpus::FilterMultiColumn(generator.Generate());

  serve::ModelRegistry registry;
  std::shared_ptr<const serve::ModelBundle> bundle =
      PublishLoaded(&registry, &sato);

  serve::PredictionServiceOptions options;
  options.num_threads = static_cast<size_t>(flags.jobs);
  options.max_batch_size = static_cast<size_t>(flags.batch);
  options.max_queue_delay_nanos =
      static_cast<uint64_t>(flags.delay_us) * 1000ULL;
  options.queue_capacity = static_cast<size_t>(flags.capacity);
  serve::PredictionService service(&registry, options);

  constexpr uint64_t kSimSeed = 1;
  const size_t num_clients = static_cast<size_t>(flags.clients);
  std::vector<serve::PredictionResult> responses(tables.size());
  std::atomic<uint64_t> submitted{0};
  util::Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < tables.size(); i += num_clients) {
        // Republish every Nth submission: in this simulation the "new"
        // version shares the weights (there is one trained model on disk),
        // so the audit below can use one oracle for every version while
        // still exercising publish/pin/attribution under live traffic.
        if (flags.swap_every > 0 &&
            ++submitted % static_cast<uint64_t>(flags.swap_every) == 0) {
          registry.Publish(bundle->model_ptr(), bundle->context_ptr(),
                           bundle->scaler());
        }
        serve::PredictionHandle handle = service.Submit(
            tables[i], serve::BatchPredictor::TableSeed(kSimSeed, i));
        responses[i] = handle.Get();
      }
    });
  }
  for (auto& client : clients) client.join();
  double seconds = timer.ElapsedSeconds();
  service.Shutdown();
  serve::ServiceStats stats = service.Stats();
  const uint64_t published = registry.current_version();

  // Per-version determinism audit: every kOk response must report a
  // version the registry actually published, and must be byte-identical
  // to the sequential predictor with the same seed on those weights.
  size_t mismatches = 0;
  size_t bad_versions = 0;
  size_t ok = 0;
  std::vector<size_t> per_version(published + 1, 0);
  for (size_t i = 0; i < tables.size(); ++i) {
    if (responses[i].status != serve::RequestStatus::kOk) continue;
    ++ok;
    if (responses[i].model_version == 0 ||
        responses[i].model_version > published) {
      ++bad_versions;
      continue;
    }
    ++per_version[responses[i].model_version];
    util::Rng rng(serve::BatchPredictor::TableSeed(kSimSeed, i));
    if (responses[i].type_ids !=
        bundle->predictor().PredictTable(tables[i], &rng)) {
      ++mismatches;
    }
  }

  std::printf("serve-sim: %zu tables, %zu clients, %d workers, batch<=%d, "
              "deadline %dus, capacity %d, swap-every %d\n",
              tables.size(), num_clients, flags.jobs, flags.batch,
              flags.delay_us, flags.capacity, flags.swap_every);
  std::printf("  completed %llu (ok %zu), rejected %llu, throughput %.1f "
              "tables/sec\n",
              static_cast<unsigned long long>(stats.completed), ok,
              static_cast<unsigned long long>(stats.rejected),
              static_cast<double>(stats.completed) / seconds);
  std::printf("  versions published %llu, swaps observed %llu, served by "
              "version:",
              static_cast<unsigned long long>(published),
              static_cast<unsigned long long>(stats.model_swaps));
  for (uint64_t v = 1; v <= published; ++v) {
    if (per_version[v] == 0) continue;
    std::printf(" v%llu=%zu", static_cast<unsigned long long>(v),
                per_version[v]);
  }
  std::printf("\n");
  std::printf("  latency p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
              static_cast<double>(stats.latency_p50_nanos) / 1e6,
              static_cast<double>(stats.latency_p95_nanos) / 1e6,
              static_cast<double>(stats.latency_p99_nanos) / 1e6);
  std::printf("  batch sizes:");
  for (size_t s = 1; s < stats.batch_size_histogram.size(); ++s) {
    if (stats.batch_size_histogram[s] == 0) continue;
    std::printf(" %zux%llu", s,
                static_cast<unsigned long long>(stats.batch_size_histogram[s]));
  }
  std::printf("  (%llu batches)\n",
              static_cast<unsigned long long>(stats.batches));
  if (mismatches != 0 || bad_versions != 0) {
    std::printf("  determinism check FAILED: %zu/%zu responses differ from "
                "the sequential predictor, %zu report unpublished versions\n",
                mismatches, ok, bad_versions);
    return 1;
  }
  std::printf("  determinism check OK: %zu/%zu responses byte-identical to "
              "the sequential predictor, all versions published\n",
              ok, ok);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "types") return CmdTypes();
  if (command == "train") {
    if (argc < 3) return Usage();
    Flags flags;
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return CmdTrain(argv[2], flags);
  }
  if (command == "predict") {
    if (argc < 4) return Usage();
    Flags flags;
    std::vector<std::string> paths;
    if (!ParseFlags(argc, argv, 3, &flags, &paths)) return Usage();
    if (paths.empty()) return Usage();
    return CmdPredict(argv[2], paths, flags);
  }
  if (command == "eval") {
    if (argc < 3) return Usage();
    Flags flags;
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return CmdEval(argv[2], flags);
  }
  if (command == "serve-sim") {
    if (argc < 3) return Usage();
    Flags flags;
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return CmdServeSim(argv[2], flags);
  }
  return Usage();
}
