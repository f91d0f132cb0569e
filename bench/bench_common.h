#ifndef SATO_BENCH_BENCH_COMMON_H_
#define SATO_BENCH_BENCH_COMMON_H_

// Shared infrastructure for the table/figure regeneration harness.
//
// Every bench binary is self-contained: it synthesises the corpus with a
// fixed seed, trains whatever models it needs, and prints rows/series in
// the layout of the corresponding paper table/figure. The environment
// variable SATO_BENCH_SCALE (tiny | small | medium | large, default small)
// selects the corpus/model scale; result *shapes* are stable across scales
// (tiny exists for CI smoke runs).

#include <string>
#include <vector>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/sato_model.h"
#include "core/trainer.h"
#include "corpus/generator.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "util/rng.h"

namespace sato::bench {

/// Scale profile resolved from SATO_BENCH_SCALE.
struct BenchScale {
  std::string name;
  size_t corpus_tables;     ///< |D|
  size_t reference_tables;  ///< LDA/embedding pre-training corpus
  int num_topics;
  int epochs;
  int crf_epochs;
  size_t folds;             ///< cross-validation folds (Table 1)
  int trials;               ///< repeated-measurement trials (Table 2, Fig 9)
};

/// Reads SATO_BENCH_SCALE and returns the matching profile.
BenchScale GetScale();

/// Everything the experiments share: the corpus (D and D_mult), the
/// pre-trained feature context, and the featurised (unscaled) datasets.
struct BenchEnv {
  BenchScale scale;
  SatoConfig config;
  std::vector<Table> tables_d;
  std::vector<Table> tables_dmult;
  FeatureContext context;
  Dataset dataset_d;      ///< featurised D (unscaled)
  Dataset dataset_dmult;  ///< featurised D_mult (unscaled)
  ColumnwiseModel::Dims dims;
};

/// Builds the corpus, trains embeddings + LDA, featurises both datasets.
/// Prints progress to stderr.
BenchEnv BuildEnv(uint64_t seed = 7);

/// Splits a dataset by table indices.
Dataset Subset(const Dataset& data, const std::vector<size_t>& indices);

/// Trains one variant on an (already standardised) training split.
/// Returns the model and fills `stats` when non-null.
SatoModel TrainVariant(SatoVariant variant, const BenchEnv& env,
                       const Dataset& train, uint64_t seed,
                       Trainer::TrainStats* stats = nullptr);

/// One standardised train/test split of a dataset (copies, fits the scaler
/// on train, transforms both).
struct Split {
  Dataset train;
  Dataset test;
};
Split MakeSplit(const Dataset& data, const eval::FoldIndices& fold);

/// Median and quartiles of repeated timing trials (nearest rank). A
/// committed timing reports the median with q3 - q1 as its spread, so a
/// change inside that spread reads as noise.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double iqr() const { return q3 - q1; }
};
Spread SummarizeTrials(std::vector<double> values);

/// Formats "0.735 ±0.022" -- the Table 1 cell format.
std::string FormatWithCi(const std::vector<double>& values);

/// Formats the relative improvement over a baseline mean in the paper's
/// "(14.4%^)" style.
std::string FormatImprovement(double value, double baseline);

/// Prints a horizontal rule of the given width.
void PrintRule(int width);

}  // namespace sato::bench

#endif  // SATO_BENCH_BENCH_COMMON_H_
