// Featurization benchmark: the tokenize-once fast path (TokenCache +
// id-based extractor kernels + flat-phi LDA fold-in) against the preserved
// Reference* extractors, over the synthetic corpus at the configured
// SATO_BENCH_SCALE.
//
// Reports per-group extractor ns/column, LDA fold-in ns/table, and the
// end-to-end featurization cost (four groups + topic vector) both ways, each
// as the median of repeated whole-corpus passes with its inter-quartile
// range, then writes the whole table to BENCH_features.json (schema in
// docs/BENCHMARKS.md) -- the featurization counterpart of BENCH_gemm.json.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "embedding/token_cache.h"
#include "features/char_features.h"
#include "features/config.h"
#include "features/feature_scratch.h"
#include "features/para_features.h"
#include "features/pipeline.h"
#include "features/stat_features.h"
#include "features/word_features.h"
#include "topic/table_document.h"
#include "util/timer.h"

namespace sato::bench {
namespace {

// Each stage is timed over this many whole-corpus passes (at least); its
// figures are the median pass with the pass-to-pass inter-quartile range.
// On a shared host single passes move 20-40%, so one mean cannot tell a
// 20% change from noise.
constexpr int kMinTrials = 9;

struct StageResult {
  const char* stage;
  const char* unit;  // "column" or "table"
  bool has_ref;      // false: fast path only
  Spread ref_sec;    // whole-corpus seconds per pass, reference path
  Spread fast_sec;   // whole-corpus seconds per pass, fast path
};

double PerUnitNs(double sec, size_t units) {
  return units == 0 ? 0.0 : sec * 1e9 / static_cast<double>(units);
}

// Seconds of each of `trials` calls of `pass`, after one warm-up call.
template <typename Pass>
Spread TimePasses(int trials, Pass&& pass) {
  pass();
  std::vector<double> seconds;
  util::Timer timer;
  for (int r = 0; r < trials; ++r) {
    timer.Reset();
    pass();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return SummarizeTrials(std::move(seconds));
}

// Times a stage both ways: one warm-up pass of each path, then `trials`
// trials of one reference and one fast pass, the order swapped every trial
// (as bench_micro pairs its GEMM kernels). Host drift during the stage thus
// lands in both spreads alike instead of in the speedup.
template <typename RefPass, typename FastPass>
StageResult TimeStage(const char* stage, const char* unit, int trials,
                      RefPass&& ref_pass, FastPass&& fast_pass) {
  ref_pass();
  fast_pass();
  std::vector<double> ref_sec;
  std::vector<double> fast_sec;
  util::Timer timer;
  auto timed = [&](auto& pass, std::vector<double>* out) {
    timer.Reset();
    pass();
    out->push_back(timer.ElapsedSeconds());
  };
  for (int r = 0; r < trials; ++r) {
    if (r % 2 == 0) {
      timed(ref_pass, &ref_sec);
      timed(fast_pass, &fast_sec);
    } else {
      timed(fast_pass, &fast_sec);
      timed(ref_pass, &ref_sec);
    }
  }
  return {stage, unit, true, SummarizeTrials(std::move(ref_sec)),
          SummarizeTrials(std::move(fast_sec))};
}

void WriteJson(const char* path, const BenchEnv& env, size_t num_tables,
               size_t num_columns, int trials,
               const std::vector<StageResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_features: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"features\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", env.scale.name.c_str());
  std::fprintf(f, "  \"tables\": %zu,\n", num_tables);
  std::fprintf(f, "  \"columns\": %zu,\n", num_columns);
  std::fprintf(f, "  \"embedding_dim\": %zu,\n",
               env.context.embeddings().dim());
  std::fprintf(f, "  \"topics\": %zu,\n", env.context.topic_dim());
  // Which featurization kernel the runtime dispatch selected on this host
  // ("avx2" or "scalar") -- the fast-path numbers below depend on it.
  std::fprintf(f, "  \"featurize_kernel\": \"%s\",\n",
               features::KernelName().c_str());
  std::fprintf(f, "  \"trials\": %d,\n", trials);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const StageResult& r = results[i];
    size_t units = r.unit[0] == 'c' ? num_columns : num_tables;
    std::fprintf(f, "    {\"stage\": \"%s\", \"unit\": \"%s\", ", r.stage,
                 r.unit);
    if (r.has_ref) {
      std::fprintf(f, "\"reference_ns\": %.1f, \"reference_iqr_ns\": %.1f, ",
                   PerUnitNs(r.ref_sec.median, units),
                   PerUnitNs(r.ref_sec.iqr(), units));
    }
    std::fprintf(f, "\"fast_ns\": %.1f, \"fast_iqr_ns\": %.1f",
                 PerUnitNs(r.fast_sec.median, units),
                 PerUnitNs(r.fast_sec.iqr(), units));
    if (r.has_ref) {
      std::fprintf(f, ", \"speedup\": %.2f",
                   r.ref_sec.median / r.fast_sec.median);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_features: wrote %s\n", path);
}

int Run() {
  BenchEnv env = BuildEnv(/*seed=*/7);
  const std::vector<Table>& tables = env.tables_d;
  size_t num_columns = 0;
  for (const Table& t : tables) num_columns += t.num_columns();
  const int trials = std::max(kMinTrials, env.scale.trials);

  const embedding::WordEmbeddings& emb = env.context.embeddings();
  const embedding::TfIdf& tfidf = env.context.tfidf();
  const topic::LdaModel& lda = env.context.lda();
  const features::FeaturePipeline& pipeline = env.context.pipeline();

  features::CharFeatureExtractor char_ex;
  features::WordFeatureExtractor word_ex(&emb);
  features::ParagraphFeatureExtractor para_ex(&emb, &tfidf);
  features::StatFeatureExtractor stat_ex;

  std::printf("bench_features: %zu tables (%zu columns), dim=%zu, "
              "topics=%zu, %d trials, kernel=%s\n",
              tables.size(), num_columns, emb.dim(), env.context.topic_dim(),
              trials, features::KernelName().c_str());

  // Prebuilt caches, one per table, so per-group kernels can be timed
  // without re-tokenising (cache construction is its own row below).
  std::vector<embedding::TokenCache> caches(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    caches[i].Build(tables[i], &emb, &tfidf, &lda.vocab());
  }

  features::FeatureScratch scratch;
  std::vector<double> buf;
  std::vector<StageResult> results;

  // -- tokenize + cache build (fast path only; the reference tokenises
  // inside each extractor, so its share shows up in the group rows).
  {
    embedding::TokenCache cache;
    auto pass = [&] {
      for (const Table& t : tables) cache.Build(t, &emb, &tfidf, &lda.vocab());
    };
    results.push_back(
        {"tokenize_cache", "table", false, {}, TimePasses(trials, pass)});
  }

  // -- per-group kernels.
  auto group = [&](const char* stage, auto&& reference, auto&& fast) {
    auto fast_pass = [&] {
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t c = 0; c < caches[i].num_columns(); ++c) fast(i, c);
      }
    };
    auto ref_pass = [&] {
      for (const Table& t : tables) {
        for (const Column& c : t.columns()) reference(c);
      }
    };
    results.push_back(TimeStage(stage, "column", trials, ref_pass, fast_pass));
  };
  group(
      "char", [&](const Column& c) { buf = char_ex.ReferenceExtract(c); },
      [&](size_t i, size_t c) {
        char_ex.ExtractInto(caches[i], c, &scratch, &buf);
      });
  group(
      "word", [&](const Column& c) { buf = word_ex.ReferenceExtract(c); },
      [&](size_t i, size_t c) {
        word_ex.ExtractInto(caches[i], c, &scratch, &buf);
      });
  group(
      "para", [&](const Column& c) { buf = para_ex.ReferenceExtract(c); },
      [&](size_t i, size_t c) {
        para_ex.ExtractInto(caches[i], c, &scratch, &buf);
      });
  group(
      "stat", [&](const Column& c) { buf = stat_ex.ReferenceExtract(c); },
      [&](size_t i, size_t c) {
        stat_ex.ExtractInto(caches[i], c, &scratch, &buf);
      });

  // -- extractors end to end: raw table -> four feature groups, including
  // each path's own tokenization (the cache build on the fast side, the
  // per-extractor re-tokenisation on the reference side). This is the
  // headline "featurization speedup vs the reference extractors".
  {
    std::vector<features::ColumnFeatures> fast_features;
    auto fast_pass = [&] {
      for (const Table& t : tables) {
        scratch.cache.Build(t, &emb, &tfidf, &lda.vocab());
        pipeline.ExtractCached(&scratch, &fast_features);
      }
    };
    auto ref_pass = [&] {
      for (const Table& t : tables) {
        for (const Column& c : t.columns()) {
          features::ColumnFeatures f = pipeline.ExtractReference(c);
          (void)f;
        }
      }
    };
    results.push_back(
        TimeStage("extractors_total", "column", trials, ref_pass, fast_pass));
  }

  // -- LDA fold-in per table: raw table -> topic vector, both ways (the
  // reference re-tokenises via TableToDocument; the fast path reads the
  // prebuilt cache's ids).
  {
    std::vector<double> theta;
    auto fast_pass = [&] {
      for (size_t i = 0; i < tables.size(); ++i) {
        scratch.lda.ids.clear();
        caches[i].CollectLdaIds(lda.options().max_doc_tokens,
                                &scratch.lda.ids);
        lda.InferTopicsInto(&scratch.lda, &theta);
      }
    };
    auto ref_pass = [&] {
      for (const Table& t : tables) {
        theta = lda.ReferenceInferTopics(topic::TableToDocument(t));
      }
    };
    results.push_back(
        TimeStage("lda_fold_in", "table", trials, ref_pass, fast_pass));
  }

  // -- end-to-end featurization (four groups + topic vector per table).
  {
    util::Rng rng(5);
    std::vector<features::ColumnFeatures> fast_features;
    std::vector<double> topic;
    auto fast_pass = [&] {
      for (const Table& t : tables) {
        env.context.FeaturizeTable(t, &rng, &scratch, &fast_features, &topic);
      }
    };
    auto ref_pass = [&] {
      for (const Table& t : tables) {
        for (const Column& c : t.columns()) {
          features::ColumnFeatures f = pipeline.ExtractReference(c);
          (void)f;
        }
        topic = lda.ReferenceInferTopics(topic::TableToDocument(t));
      }
    };
    results.push_back(
        TimeStage("featurize_total", "column", trials, ref_pass, fast_pass));
  }

  std::printf("%16s  %6s  %20s  %20s  %8s\n", "stage", "unit",
              "reference ns (iqr)", "fast ns (iqr)", "speedup");
  PrintRule(80);
  for (const StageResult& r : results) {
    size_t units = r.unit[0] == 'c' ? num_columns : tables.size();
    char fast_cell[64];
    std::snprintf(fast_cell, sizeof(fast_cell), "%.0f (%.0f)",
                  PerUnitNs(r.fast_sec.median, units),
                  PerUnitNs(r.fast_sec.iqr(), units));
    if (r.has_ref) {
      char ref_cell[64];
      std::snprintf(ref_cell, sizeof(ref_cell), "%.0f (%.0f)",
                    PerUnitNs(r.ref_sec.median, units),
                    PerUnitNs(r.ref_sec.iqr(), units));
      std::printf("%16s  %6s  %20s  %20s  %7.2fx\n", r.stage, r.unit,
                  ref_cell, fast_cell, r.ref_sec.median / r.fast_sec.median);
    } else {
      std::printf("%16s  %6s  %20s  %20s  %8s\n", r.stage, r.unit, "-",
                  fast_cell, "-");
    }
  }

  WriteJson("BENCH_features.json", env, tables.size(), num_columns, trials,
            results);
  return 0;
}

}  // namespace
}  // namespace sato::bench

int main() { return sato::bench::Run(); }
