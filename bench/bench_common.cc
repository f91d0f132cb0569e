#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/math_util.h"
#include "util/timer.h"

namespace sato::bench {

BenchScale GetScale() {
  const char* env = std::getenv("SATO_BENCH_SCALE");
  std::string name = env != nullptr ? env : "small";
  if (name == "large") {
    return BenchScale{"large", 8000, 3000, 128, 50, 15, 5, 5};
  }
  if (name == "medium") {
    return BenchScale{"medium", 3000, 1200, 64, 35, 15, 5, 5};
  }
  if (name == "tiny") {  // CI smoke runs: shape coverage, minimal cost
    return BenchScale{"tiny", 200, 120, 8, 2, 2, 2, 1};
  }
  return BenchScale{"small", 1200, 500, 32, 25, 10, 5, 3};
}

BenchEnv BuildEnv(uint64_t seed) {
  util::Timer timer;
  BenchScale scale = GetScale();
  std::fprintf(stderr, "[bench] scale=%s: %zu tables, %d topics, %d epochs\n",
               scale.name.c_str(), scale.corpus_tables, scale.num_topics,
               scale.epochs);

  SatoConfig config;
  config.num_topics = scale.num_topics;
  config.epochs = scale.epochs;
  config.crf_epochs = scale.crf_epochs;
  config.seed = seed;

  corpus::CorpusOptions copts;
  copts.num_tables = scale.corpus_tables;
  copts.seed = seed;
  corpus::CorpusGenerator gen(copts);

  std::vector<Table> tables_d = gen.Generate();
  std::vector<Table> tables_dmult = corpus::FilterMultiColumn(tables_d);
  std::vector<Table> reference =
      gen.GenerateWith(scale.reference_tables, seed + 1000003);
  std::fprintf(stderr, "[bench %.1fs] corpus: |D|=%zu |Dmult|=%zu\n",
               timer.ElapsedSeconds(), tables_d.size(), tables_dmult.size());

  util::Rng rng(seed + 17);
  FeatureContext context = FeatureContext::Build(reference, config, &rng);
  std::fprintf(stderr, "[bench %.1fs] context: vocab=%zu topics=%zu\n",
               timer.ElapsedSeconds(), context.embeddings().vocab_size(),
               context.topic_dim());

  DatasetBuilder builder(&context);
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  Dataset dataset_d = builder.Build(tables_d, &rng, std::max(1, threads));
  Dataset dataset_dmult;
  for (const auto& t : dataset_d.tables) {
    if (t.labels.size() > 1) dataset_dmult.tables.push_back(t);
  }
  std::fprintf(stderr, "[bench %.1fs] features: %zu columns featurised\n",
               timer.ElapsedSeconds(), dataset_d.NumColumns());

  ColumnwiseModel::Dims dims;
  dims.char_dim = context.pipeline().char_dim();
  dims.word_dim = context.pipeline().word_dim();
  dims.para_dim = context.pipeline().para_dim();
  dims.stat_dim = context.pipeline().stat_dim();

  return BenchEnv{scale,
                  config,
                  std::move(tables_d),
                  std::move(tables_dmult),
                  std::move(context),
                  std::move(dataset_d),
                  std::move(dataset_dmult),
                  dims};
}

Dataset Subset(const Dataset& data, const std::vector<size_t>& indices) {
  Dataset out;
  out.tables.reserve(indices.size());
  for (size_t i : indices) out.tables.push_back(data.tables[i]);
  return out;
}

Split MakeSplit(const Dataset& data, const eval::FoldIndices& fold) {
  Split split;
  split.train = Subset(data, fold.train);
  split.test = Subset(data, fold.test);
  StandardizeSplits(&split.train, &split.test);
  return split;
}

SatoModel TrainVariant(SatoVariant variant, const BenchEnv& env,
                       const Dataset& train, uint64_t seed,
                       Trainer::TrainStats* stats) {
  util::Rng rng(seed);
  SatoModel model(variant, env.dims, env.context.topic_dim(), env.config,
                  &rng);
  Trainer trainer(env.config);
  Trainer::TrainStats s = trainer.Train(&model, train, &rng);
  if (stats != nullptr) *stats = s;
  return model;
}

Spread SummarizeTrials(std::vector<double> values) {
  Spread s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  auto rank = [&](double q) {
    size_t r = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<size_t>(r, 1) - 1];
  };
  s.q1 = rank(0.25);
  s.median = rank(0.5);
  s.q3 = rank(0.75);
  return s;
}

std::string FormatWithCi(const std::vector<double>& values) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f +-%.3f", util::Mean(values),
                util::ConfidenceInterval95(values));
  return buf;
}

std::string FormatImprovement(double value, double baseline) {
  if (baseline <= 0.0) return "(n/a)";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "(%+.1f%%)",
                100.0 * (value - baseline) / baseline);
  return buf;
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace sato::bench
