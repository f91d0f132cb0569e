// Micro-benchmarks (google-benchmark) for the hot paths behind the
// experiment harness: feature extraction, LDA inference, CRF inference and
// decoding, the column-wise network forward pass, and the GEMM kernel that
// all dense layers funnel through. These quantify the per-table prediction
// cost that Table 2 reports end-to-end.
//
// After the google-benchmark pass, main() runs a fixed naive-vs-blocked
// GEMM comparison over the matrix shapes the model actually multiplies and
// writes it to BENCH_gemm.json (schema in docs/BENCHMARKS.md). Scale via
// SATO_BENCH_SCALE; run only the GEMM suite with
// --benchmark_filter=BM_Gemm (the CI Release smoke does exactly that).
// The JSON pass is skipped for --benchmark_list_tests and for filters
// that exclude the BM_Gemm* suite.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/columnwise_model.h"
#include "core/config.h"
#include "corpus/generator.h"
#include "crf/linear_chain_crf.h"
#include "embedding/sgns.h"
#include "embedding/tfidf.h"
#include "features/pipeline.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "topic/lda.h"
#include "topic/table_document.h"
#include "util/timer.h"

namespace {

using namespace sato;

// Shared fixtures, built once.
struct MicroEnv {
  std::vector<Table> tables;
  embedding::WordEmbeddings embeddings;
  embedding::TfIdf tfidf;
  topic::LdaModel lda;
  features::FeaturePipeline pipeline;

  static const MicroEnv& Get() {
    static MicroEnv* env = [] {
      corpus::CorpusOptions copts;
      copts.num_tables = 200;
      copts.singleton_prob = 0.0;
      corpus::CorpusGenerator gen(copts);
      auto tables = gen.Generate();

      util::Rng rng(1);
      std::vector<std::vector<std::string>> sentences;
      for (const auto& t : tables) {
        for (const auto& c : t.columns()) {
          std::vector<std::string> s;
          for (const auto& v : c.values) {
            auto toks = embedding::TokenizeCell(v);
            s.insert(s.end(), toks.begin(), toks.end());
          }
          if (!s.empty()) sentences.push_back(std::move(s));
        }
      }
      embedding::SgnsTrainer::Options sgns_opts;
      embedding::SgnsTrainer trainer(sgns_opts);
      auto embeddings = trainer.Train(sentences, &rng);

      auto docs = topic::TablesToDocuments(tables);
      embedding::TfIdf tfidf;
      tfidf.Fit(docs);
      topic::LdaOptions lda_opts;
      lda_opts.num_topics = 32;
      lda_opts.train_iterations = 40;
      auto lda = topic::LdaModel::Train(docs, lda_opts, &rng);

      return new MicroEnv{std::move(tables), std::move(embeddings),
                          std::move(tfidf), std::move(lda),
                          features::FeaturePipeline(nullptr, nullptr)};
    }();
    return *env;
  }

  MicroEnv(std::vector<Table> t, embedding::WordEmbeddings e,
           embedding::TfIdf f, topic::LdaModel l,
           features::FeaturePipeline /*unused*/)
      : tables(std::move(t)), embeddings(std::move(e)), tfidf(std::move(f)),
        lda(std::move(l)), pipeline(&embeddings, &tfidf) {}
};

void BM_FeatureExtractionPerColumn(benchmark::State& state) {
  const MicroEnv& env = MicroEnv::Get();
  size_t i = 0;
  for (auto _ : state) {
    const Table& t = env.tables[i % env.tables.size()];
    const Column& c = t.column(i % t.num_columns());
    benchmark::DoNotOptimize(env.pipeline.Extract(c));
    ++i;
  }
}
BENCHMARK(BM_FeatureExtractionPerColumn);

void BM_LdaInferencePerTable(benchmark::State& state) {
  const MicroEnv& env = MicroEnv::Get();
  size_t i = 0;
  for (auto _ : state) {
    const Table& t = env.tables[i % env.tables.size()];
    benchmark::DoNotOptimize(env.lda.InferTopics(topic::TableToDocument(t)));
    ++i;
  }
}
BENCHMARK(BM_LdaInferencePerTable);

void BM_CrfViterbi(benchmark::State& state) {
  int columns = static_cast<int>(state.range(0));
  util::Rng rng(3);
  crf::LinearChainCrf crf(kNumSemanticTypes);
  crf.pairwise().value =
      nn::Matrix::Gaussian(kNumSemanticTypes, kNumSemanticTypes, 0.3, &rng);
  nn::Matrix unary = nn::Matrix::Gaussian(
      static_cast<size_t>(columns), kNumSemanticTypes, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Viterbi(unary));
  }
}
BENCHMARK(BM_CrfViterbi)->Arg(2)->Arg(5)->Arg(10);

void BM_CrfLogPartition(benchmark::State& state) {
  int columns = static_cast<int>(state.range(0));
  util::Rng rng(4);
  crf::LinearChainCrf crf(kNumSemanticTypes);
  nn::Matrix unary = nn::Matrix::Gaussian(
      static_cast<size_t>(columns), kNumSemanticTypes, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.LogPartition(unary));
  }
}
BENCHMARK(BM_CrfLogPartition)->Arg(2)->Arg(10);

void BM_ColumnwiseForward(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  util::Rng rng(5);
  SatoConfig config;
  ColumnwiseModel::Dims dims;
  dims.char_dim = 212;
  dims.word_dim = 50;
  dims.para_dim = 25;
  dims.stat_dim = 27;
  dims.topic_dim = 32;
  ColumnwiseModel model(dims, config, &rng);

  FeatureBatch fb;
  fb.char_features = nn::Matrix::Gaussian(batch, dims.char_dim, 1.0, &rng);
  fb.word_features = nn::Matrix::Gaussian(batch, dims.word_dim, 1.0, &rng);
  fb.para_features = nn::Matrix::Gaussian(batch, dims.para_dim, 1.0, &rng);
  fb.stat_features = nn::Matrix::Gaussian(batch, dims.stat_dim, 1.0, &rng);
  fb.topic_features = nn::Matrix::Gaussian(batch, dims.topic_dim, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(fb, false));
  }
}
BENCHMARK(BM_ColumnwiseForward)->Arg(1)->Arg(16)->Arg(64);

// -- GEMM kernel suite ------------------------------------------------------
// One shape table drives both the google-benchmark suite and the
// BENCH_gemm.json writer, so the two measurements can never drift apart.
// Shapes are the multiplies SatoModel::Predict actually issues (batch of
// 64 columns, default SatoConfig widths, encoder at max_tokens+1 = 25),
// the same layers at M = 3 (one table of about three columns, which is what
// serving multiplies per request), plus the 256^3 acceptance shape whose
// speedup the JSON tracks.
struct GemmShape {
  const char* role;  ///< `role` field of the BENCH_gemm.json entry
  int64_t m, k, n;   ///< C = A[m x k] * B[k x n]
};

constexpr GemmShape kGemmShapes[] = {
    {"acceptance_256cubed", 256, 256, 256},
    {"char_subnet_in", 64, 212, 48},   // [batch x char_dim] x hidden
    {"primary_in", 64, 123, 96},       // [batch x concat]   x hidden
    {"attention_proj", 25, 32, 32},    // [seq x d_model]    x d_model
    {"output_logits", 64, 96, 78},     // [batch x hidden]   x types
    {"char_subnet_in_table", 3, 212, 48},
    {"primary_in_table", 3, 123, 96},
    {"output_logits_table", 3, 96, 78},
};

void GemmShapeArgs(benchmark::internal::Benchmark* b) {
  for (const GemmShape& s : kGemmShapes) b->Args({s.m, s.k, s.n});
}

nn::Matrix GemmArg(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return nn::Matrix::Gaussian(rows, cols, 1.0, &rng);
}

void BM_GemmBlocked(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t n = static_cast<size_t>(state.range(2));
  nn::Matrix a = GemmArg(m, k, 7), b = GemmArg(k, n, 8), c;
  for (auto _ : state) {
    nn::gemm::Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m * k * n) * 1e-9 *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBlocked)->Apply(GemmShapeArgs);

void BM_GemmReference(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t n = static_cast<size_t>(state.range(2));
  nn::Matrix a = GemmArg(m, k, 7), b = GemmArg(k, n, 8), c;
  for (auto _ : state) {
    nn::gemm::ReferenceGemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m * k * n) * 1e-9 *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmReference)->Apply(GemmShapeArgs);

void BM_GemmBlockedTransposeB(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t n = static_cast<size_t>(state.range(2));
  nn::Matrix a = GemmArg(m, k, 7), b = GemmArg(n, k, 8), c;
  for (auto _ : state) {
    nn::gemm::GemmTransposeB(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBlockedTransposeB)->Args({256, 256, 256});

void BM_GemmBlockedTransposeA(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t n = static_cast<size_t>(state.range(2));
  nn::Matrix a = GemmArg(k, m, 7), b = GemmArg(k, n, 8), c;
  for (auto _ : state) {
    nn::gemm::GemmTransposeA(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBlockedTransposeA)->Args({256, 256, 256});

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  util::Rng rng(6);
  nn::Matrix logits = nn::Matrix::Gaussian(64, kNumSemanticTypes, 1.0, &rng);
  std::vector<int> targets(64);
  for (auto& t : targets) t = static_cast<int>(rng.UniformInt(0, 77));
  nn::SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(loss.Forward(logits, targets));
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy);

// -- BENCH_gemm.json --------------------------------------------------------
// Machine-readable naive-vs-blocked comparison, the perf-trajectory file
// the CI Release job uploads as an artifact. Iteration counts
// target a fixed FLOP budget per trial so every shape gets a stable timing
// at every scale; each figure is the median of kGemmTrials trials, with
// its inter-quartile range, and the two kernels alternate trial by trial
// so host drift hits both alike.

constexpr int kGemmTrials = 9;

double TimeGemmSeconds(const nn::Matrix& a, const nn::Matrix& b,
                       nn::Matrix* c, const nn::gemm::Config& config,
                       bool reference, int iters) {
  util::Timer timer;
  for (int i = 0; i < iters; ++i) {
    if (reference) {
      nn::gemm::ReferenceGemm(a, b, c);
    } else {
      nn::gemm::Gemm(a, b, c, config);
    }
  }
  return timer.ElapsedSeconds() / iters;
}

void WriteGemmJson(const char* path) {
  const bench::BenchScale scale = bench::GetScale();
  // FLOPs spent per (shape, kernel, trial); keeps tiny CI smokes fast and
  // committed small/medium datapoints stable.
  double flop_budget = 2e6;
  if (scale.name == "small") flop_budget = 1e8;
  if (scale.name == "medium") flop_budget = 3e8;
  if (scale.name == "large") flop_budget = 1e9;

  const size_t threads = std::max(1u, std::thread::hardware_concurrency());

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return;
  }
  const nn::gemm::Config& cfg = nn::gemm::DefaultConfig();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"gemm\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.name.c_str());
  std::fprintf(f, "  \"kernel\": \"%s\",\n", nn::gemm::KernelName().c_str());
  std::fprintf(f, "  \"micro_tile\": {\"mr\": %zu, \"nr\": %zu},\n",
               nn::gemm::kMicroRows, nn::gemm::kMicroCols);
  std::fprintf(f, "  \"blocks\": {\"mc\": %zu, \"kc\": %zu, \"nc\": %zu},\n",
               cfg.mc, cfg.kc, cfg.nc);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"trials\": %d,\n", kGemmTrials);
  std::fprintf(f, "  \"results\": [\n");

  size_t count = sizeof(kGemmShapes) / sizeof(kGemmShapes[0]);
  for (size_t s = 0; s < count; ++s) {
    const GemmShape& shape = kGemmShapes[s];
    size_t m = static_cast<size_t>(shape.m);
    size_t k = static_cast<size_t>(shape.k);
    size_t n = static_cast<size_t>(shape.n);
    double flops = 2.0 * static_cast<double>(m * k * n);
    int iters = static_cast<int>(
        std::min(10000.0, std::max(1.0, flop_budget / flops)));
    nn::Matrix a = GemmArg(m, k, 7);
    nn::Matrix b = GemmArg(k, n, 8);
    nn::Matrix c;
    // Warm-up (page faults, packing buffers).
    TimeGemmSeconds(a, b, &c, cfg, /*reference=*/true, 1);
    TimeGemmSeconds(a, b, &c, cfg, /*reference=*/false, 1);
    std::vector<double> naive_trials, blocked_trials;
    for (int t = 0; t < kGemmTrials; ++t) {
      naive_trials.push_back(
          TimeGemmSeconds(a, b, &c, cfg, /*reference=*/true, iters));
      blocked_trials.push_back(
          TimeGemmSeconds(a, b, &c, cfg, /*reference=*/false, iters));
    }
    const bench::Spread naive = bench::SummarizeTrials(naive_trials);
    const bench::Spread blocked = bench::SummarizeTrials(blocked_trials);
    std::fprintf(
        f,
        "    {\"role\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, "
        "\"iters\": %d,\n"
        "     \"naive_sec\": %.6g, \"naive_iqr_sec\": %.3g, "
        "\"blocked_sec\": %.6g, \"blocked_iqr_sec\": %.3g,\n"
        "     \"speedup\": %.2f, "
        "\"naive_gflops\": %.2f, \"blocked_gflops\": %.2f}%s\n",
        shape.role, m, k, n, iters, naive.median, naive.iqr(),
        blocked.median, blocked.iqr(), naive.median / blocked.median,
        flops * 1e-9 / naive.median, flops * 1e-9 / blocked.median,
        s + 1 < count ? "," : "");
    std::fprintf(stderr,
                 "bench_micro gemm: %-20s %4zux%4zux%4zu  naive %9.2f us  "
                 "blocked %9.2f us (iqr %.2f)  speedup %.2fx\n",
                 shape.role, m, k, n, naive.median * 1e6,
                 blocked.median * 1e6, blocked.iqr() * 1e6,
                 naive.median / blocked.median);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_micro: wrote %s\n", path);
}

// The BENCH_gemm.json pass runs only when this invocation plausibly asked
// for GEMM numbers: a list-only run does no work at all, and a filter that
// excludes the BM_Gemm* suite skips the sweep (and never clobbers an
// existing datapoint file).
bool ShouldWriteGemmJson(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--benchmark_list_tests", 0) == 0) return false;
    const std::string filter_flag = "--benchmark_filter=";
    if (arg.rfind(filter_flag, 0) == 0) {
      std::string value = arg.substr(filter_flag.size());
      // A leading '-' is google-benchmark's negative filter: it EXCLUDES
      // matches, so mentioning Gemm there means the suite is skipped.
      bool negative = !value.empty() && value[0] == '-';
      bool mentions_gemm = value.find("Gemm") != std::string::npos;
      if (negative ? mentions_gemm : !mentions_gemm) return false;
    }
  }
  return true;
}

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): run the google-benchmark suite,
// then emit the BENCH_gemm.json perf datapoint.
int main(int argc, char** argv) {
  bool write_gemm_json = ShouldWriteGemmJson(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (write_gemm_json) WriteGemmJson("BENCH_gemm.json");
  return 0;
}
