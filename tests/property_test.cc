// Property-based test sweeps (TEST_P) over seeds and sizes: invariants
// that must hold for *every* random instance, complementing the
// example-based unit tests.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "crf/linear_chain_crf.h"
#include "crf/skip_chain_decoder.h"
#include "eval/metrics.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "table/canonicalize.h"
#include "topic/lda.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace sato {
namespace {

// ------------------------------------------------------ CRF invariants ----

class CrfInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(CrfInvariantTest, ViterbiScoreNeverExceedsLogPartition) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  int k = 2 + GetParam() % 7;
  size_t m = 1 + static_cast<size_t>(GetParam() % 6);
  crf::LinearChainCrf crf(k);
  crf.pairwise().value = nn::Matrix::Gaussian(
      static_cast<size_t>(k), static_cast<size_t>(k), 1.0, &rng);
  nn::Matrix unary =
      nn::Matrix::Gaussian(m, static_cast<size_t>(k), 1.5, &rng);

  auto path = crf.Viterbi(unary);
  // log P(viterbi path) <= 0, i.e. path score <= logZ.
  double ll = crf.LogLikelihood(unary, path);
  EXPECT_LE(ll, 1e-9);
  // And the Viterbi path has likelihood >= any single random path.
  std::vector<int> random_path(m);
  for (auto& t : random_path) t = static_cast<int>(rng.UniformInt(0, k - 1));
  EXPECT_GE(ll, crf.LogLikelihood(unary, random_path) - 1e-9);
}

TEST_P(CrfInvariantTest, MarginalsAreConsistentDistributions) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  int k = 2 + GetParam() % 5;
  size_t m = 2 + static_cast<size_t>(GetParam() % 5);
  crf::LinearChainCrf crf(k);
  crf.pairwise().value = nn::Matrix::Gaussian(
      static_cast<size_t>(k), static_cast<size_t>(k), 0.8, &rng);
  nn::Matrix unary = nn::Matrix::Gaussian(m, static_cast<size_t>(k), 1.0, &rng);
  nn::Matrix marginals = crf.Marginals(unary);
  for (size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (size_t s = 0; s < static_cast<size_t>(k); ++s) {
      EXPECT_GE(marginals(i, s), -1e-12);
      EXPECT_LE(marginals(i, s), 1.0 + 1e-12);
      sum += marginals(i, s);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(CrfInvariantTest, SkipDecodeAtLeastMatchesFirstOrderScore) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  int k = 2 + GetParam() % 4;
  size_t m = 3 + static_cast<size_t>(GetParam() % 4);
  crf::LinearChainCrf crf(k);
  crf.pairwise().value = nn::Matrix::Gaussian(
      static_cast<size_t>(k), static_cast<size_t>(k), 0.7, &rng);
  nn::Matrix skip = nn::Matrix::Gaussian(static_cast<size_t>(k),
                                         static_cast<size_t>(k), 0.7, &rng);
  crf::SkipChainDecoder decoder(&crf, skip);
  nn::Matrix unary = nn::Matrix::Gaussian(m, static_cast<size_t>(k), 1.0, &rng);

  auto second = decoder.Decode(unary);
  auto first = crf.Viterbi(unary);
  // Under the *second-order* objective, the skip decode must score at
  // least as high as the first-order path.
  auto score = [&](const std::vector<int>& seq) {
    double s = 0.0;
    for (size_t i = 0; i < seq.size(); ++i) {
      s += unary(i, static_cast<size_t>(seq[i]));
      if (i + 1 < seq.size()) {
        s += crf.pairwise().value(static_cast<size_t>(seq[i]),
                                  static_cast<size_t>(seq[i + 1]));
      }
      if (i + 2 < seq.size()) {
        s += skip(static_cast<size_t>(seq[i]), static_cast<size_t>(seq[i + 2]));
      }
    }
    return s;
  };
  EXPECT_GE(score(second), score(first) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrfInvariantTest, ::testing::Range(0, 12));

// -------------------------------------------------- math/nn invariants ----

class MathInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MathInvariantTest, LogSumExpBounds) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 300);
  size_t n = 1 + static_cast<size_t>(GetParam() % 10);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.Normal(0.0, 10.0);
  double mx = *std::max_element(xs.begin(), xs.end());
  double lse = util::LogSumExp(xs);
  // max <= LSE <= max + log(n)
  EXPECT_GE(lse, mx - 1e-12);
  EXPECT_LE(lse, mx + std::log(static_cast<double>(n)) + 1e-12);
}

TEST_P(MathInvariantTest, SoftmaxIsDistributionAndMonotone) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 400);
  std::vector<double> xs(5);
  for (double& x : xs) x = rng.Normal(0.0, 3.0);
  auto p = util::Softmax(xs);
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Order preservation.
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < xs.size(); ++j) {
      if (xs[i] < xs[j]) {
        EXPECT_LT(p[i], p[j]);
      }
    }
  }
}

TEST_P(MathInvariantTest, AdamReducesLossOnRandomRegression) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  nn::Sequential net;
  net.Emplace<nn::Linear>(6, 8, &rng);
  net.Emplace<nn::ReLU>();
  net.Emplace<nn::Linear>(8, 4, &rng);
  nn::Matrix x = nn::Matrix::Gaussian(20, 6, 1.0, &rng);
  std::vector<int> targets(20);
  for (auto& t : targets) t = static_cast<int>(rng.UniformInt(0, 3));

  nn::AdamOptimizer::Options opts;
  opts.learning_rate = 5e-3;
  nn::AdamOptimizer adam(net.Parameters(), opts);
  nn::SoftmaxCrossEntropy loss;
  double first = 0.0, last = 0.0;
  for (int epoch = 0; epoch < 120; ++epoch) {
    nn::Matrix logits = net.Forward(x, true);
    double l = loss.Forward(logits, targets);
    if (epoch == 0) first = l;
    last = l;
    adam.ZeroGrad();
    net.Backward(loss.Backward());
    adam.Step();
  }
  EXPECT_LT(last, first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MathInvariantTest, ::testing::Range(0, 8));

// ------------------------------------------------- metrics invariants ----

class MetricsInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricsInvariantTest, PermutationInvariantAndBounded) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 600);
  size_t n = 30;
  std::vector<int> gold(n), pred(n);
  for (size_t i = 0; i < n; ++i) {
    gold[i] = static_cast<int>(rng.UniformInt(0, 4));
    pred[i] = static_cast<int>(rng.UniformInt(0, 4));
  }
  auto r1 = eval::Evaluate(gold, pred, 5);
  // Shuffle both with the same permutation.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<int> gold2(n), pred2(n);
  for (size_t i = 0; i < n; ++i) {
    gold2[i] = gold[order[i]];
    pred2[i] = pred[order[i]];
  }
  auto r2 = eval::Evaluate(gold2, pred2, 5);
  EXPECT_DOUBLE_EQ(r1.macro_f1, r2.macro_f1);
  EXPECT_DOUBLE_EQ(r1.weighted_f1, r2.weighted_f1);
  EXPECT_DOUBLE_EQ(r1.accuracy, r2.accuracy);
  // All metrics live in [0, 1]; perfect prediction dominates.
  EXPECT_GE(r1.macro_f1, 0.0);
  EXPECT_LE(r1.macro_f1, 1.0);
  auto perfect = eval::Evaluate(gold, gold, 5);
  EXPECT_GE(perfect.weighted_f1, r1.weighted_f1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsInvariantTest, ::testing::Range(0, 8));

// --------------------------------------------- canonicalize invariants ----

class CanonicalizeInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalizeInvariantTest, IdempotentOnRandomHeaders) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 700);
  // Random headers assembled from words, separators and parens.
  static const char* kWords[] = {"birth", "place", "TEAM", "Name", "file",
                                 "SIZE", "x1", "42"};
  static const char* kSeps[] = {" ", "_", "-", "/", "  "};
  for (int trial = 0; trial < 25; ++trial) {
    std::string header;
    int words = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int w = 0; w < words; ++w) {
      if (w > 0) header += kSeps[rng.Index(std::size(kSeps))];
      header += kWords[rng.Index(std::size(kWords))];
    }
    if (rng.Bernoulli(0.3)) header += " (extra)";
    std::string once = CanonicalizeHeader(header);
    EXPECT_EQ(CanonicalizeHeader(once), once) << "header: " << header;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalizeInvariantTest,
                         ::testing::Range(0, 6));

// --------------------------------------------------- corpus invariants ----

class CorpusInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(CorpusInvariantTest, GeneratedTablesAreWellFormed) {
  corpus::CorpusOptions opts;
  opts.num_tables = 60;
  opts.seed = static_cast<uint64_t>(GetParam()) * 31 + 5;
  corpus::CorpusGenerator gen(opts);
  for (const Table& t : gen.Generate()) {
    EXPECT_GE(t.num_columns(), 1u);
    EXPECT_TRUE(t.FullyLabeled());
    // Column values are rectangular (all same length) by construction.
    size_t rows = t.column(0).values.size();
    for (const Column& c : t.columns()) {
      EXPECT_EQ(c.values.size(), rows);
      ASSERT_TRUE(c.type.has_value());
      EXPECT_GE(*c.type, 0);
      EXPECT_LT(*c.type, kNumSemanticTypes);
    }
    // Header noise must canonicalise back to ground truth.
    for (const Column& c : t.columns()) {
      EXPECT_EQ(CanonicalizeHeader(c.header), TypeName(*c.type))
          << c.header;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusInvariantTest, ::testing::Range(0, 6));

// ------------------------------------------------------ LDA invariants ----

class LdaInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(LdaInvariantTest, DistributionsNormalisedForAnySeed) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 800);
  std::vector<std::vector<std::string>> docs;
  for (int d = 0; d < 30; ++d) {
    std::vector<std::string> doc;
    for (int w = 0; w < 20; ++w) {
      doc.push_back("w" + std::to_string(rng.UniformInt(0, 15)));
    }
    docs.push_back(std::move(doc));
  }
  topic::LdaOptions opts;
  opts.num_topics = 2 + GetParam() % 5;
  opts.train_iterations = 20;
  opts.min_count = 1;
  topic::LdaModel lda = topic::LdaModel::Train(docs, opts, &rng);
  const size_t v = lda.vocab().size();
  for (int t = 0; t < lda.num_topics(); ++t) {
    const double* row = lda.PhiRow(t);
    double sum = 0.0;
    for (size_t w = 0; w < v; ++w) {
      EXPECT_GE(row[w], 0.0);
      sum += row[w];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  auto theta = lda.InferTopics(docs[0]);
  double sum = 0.0;
  for (double p : theta) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdaInvariantTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace sato
