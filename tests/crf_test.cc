// Tests for the linear-chain CRF: exact inference checked against brute
// force, gradient correctness, Viterbi optimality, and trainer behaviour.

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "crf/crf_trainer.h"
#include "crf/linear_chain_crf.h"
#include "crf/skip_chain_decoder.h"
#include "util/math_util.h"

namespace sato::crf {
namespace {

// Enumerates all label sequences and accumulates a callback.
void ForAllSequences(size_t length, int num_states,
                     const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> seq(length, 0);
  while (true) {
    fn(seq);
    size_t pos = 0;
    while (pos < length) {
      if (++seq[pos] < num_states) break;
      seq[pos] = 0;
      ++pos;
    }
    if (pos == length) break;
  }
}

double SequenceScore(const LinearChainCrf& crf, const nn::Matrix& unary,
                     const std::vector<int>& seq) {
  double score = 0.0;
  for (size_t i = 0; i < seq.size(); ++i) {
    score += unary(i, static_cast<size_t>(seq[i]));
    if (i + 1 < seq.size()) {
      score += crf.pairwise().value(static_cast<size_t>(seq[i]),
                                    static_cast<size_t>(seq[i + 1]));
    }
  }
  return score;
}

LinearChainCrf RandomCrf(int states, util::Rng* rng) {
  LinearChainCrf crf(states);
  crf.pairwise().value = nn::Matrix::Gaussian(
      static_cast<size_t>(states), static_cast<size_t>(states), 0.7, rng);
  return crf;
}

nn::Matrix RandomUnary(size_t m, int states, util::Rng* rng) {
  return nn::Matrix::Gaussian(m, static_cast<size_t>(states), 1.0, rng);
}

// ----------------------------------------------------- exact inference ----

TEST(CrfTest, LogPartitionMatchesBruteForce) {
  util::Rng rng(1);
  LinearChainCrf crf = RandomCrf(4, &rng);
  nn::Matrix unary = RandomUnary(5, 4, &rng);

  std::vector<double> scores;
  ForAllSequences(5, 4, [&](const std::vector<int>& seq) {
    scores.push_back(SequenceScore(crf, unary, seq));
  });
  EXPECT_NEAR(crf.LogPartition(unary), util::LogSumExp(scores), 1e-9);
}

TEST(CrfTest, LogPartitionSingleColumn) {
  util::Rng rng(2);
  LinearChainCrf crf = RandomCrf(6, &rng);
  nn::Matrix unary = RandomUnary(1, 6, &rng);
  EXPECT_NEAR(crf.LogPartition(unary),
              util::LogSumExp(unary.RowVector(0)), 1e-12);
}

TEST(CrfTest, LogLikelihoodIsNormalized) {
  util::Rng rng(3);
  LinearChainCrf crf = RandomCrf(3, &rng);
  nn::Matrix unary = RandomUnary(4, 3, &rng);
  double total = 0.0;
  ForAllSequences(4, 3, [&](const std::vector<int>& seq) {
    total += std::exp(crf.LogLikelihood(unary, seq));
  });
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CrfTest, ViterbiFindsArgmaxSequence) {
  util::Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    LinearChainCrf crf = RandomCrf(4, &rng);
    nn::Matrix unary = RandomUnary(5, 4, &rng);
    std::vector<int> best_seq;
    double best_score = -1e300;
    ForAllSequences(5, 4, [&](const std::vector<int>& seq) {
      double s = SequenceScore(crf, unary, seq);
      if (s > best_score) {
        best_score = s;
        best_seq = seq;
      }
    });
    EXPECT_EQ(crf.Viterbi(unary), best_seq) << "trial " << trial;
  }
}

TEST(CrfTest, ViterbiUniformPotentialsDecodeToStateZero) {
  // Every path ties: the first maximiser wins at each step and at the end.
  for (int states : {2, 5, 78}) {
    LinearChainCrf crf(states);
    for (size_t m : {1, 2, 3, 8}) {
      nn::Matrix unary(m, static_cast<size_t>(states), 0.0);
      EXPECT_EQ(crf.Viterbi(unary), std::vector<int>(m, 0))
          << states << " states, m=" << m;
    }
  }
}

TEST(CrfTest, ViterbiReachesBruteForceMaximumUnderTies) {
  // Potentials in {-1, 0, 1} make many paths tie; integer sums are exact,
  // so the decoded path must score exactly the brute-force maximum.
  util::Rng rng(41);
  const int states = 4;
  auto tie_heavy = [&](size_t rows, size_t cols) {
    nn::Matrix x(rows, cols);
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<double>(rng.UniformInt(-1, 1));
    }
    return x;
  };
  for (int trial = 0; trial < 50; ++trial) {
    LinearChainCrf crf(states);
    crf.pairwise().value = tie_heavy(states, states);
    const size_t m = 1 + static_cast<size_t>(trial % 5);
    nn::Matrix unary = tie_heavy(m, states);
    double best = -1e300;
    ForAllSequences(m, states, [&](const std::vector<int>& seq) {
      best = std::max(best, SequenceScore(crf, unary, seq));
    });
    EXPECT_EQ(SequenceScore(crf, unary, crf.Viterbi(unary)), best)
        << "trial " << trial;
  }
}

TEST(CrfTest, ViterbiSingleColumnIsArgmax) {
  util::Rng rng(5);
  LinearChainCrf crf = RandomCrf(6, &rng);
  nn::Matrix unary = RandomUnary(1, 6, &rng);
  auto path = crf.Viterbi(unary);
  ASSERT_EQ(path.size(), 1u);
  auto row = unary.RowVector(0);
  int argmax = static_cast<int>(std::max_element(row.begin(), row.end()) -
                                row.begin());
  EXPECT_EQ(path[0], argmax);
}

TEST(CrfTest, MarginalsMatchBruteForce) {
  util::Rng rng(6);
  LinearChainCrf crf = RandomCrf(3, &rng);
  nn::Matrix unary = RandomUnary(4, 3, &rng);
  nn::Matrix marginals = crf.Marginals(unary);

  nn::Matrix brute(4, 3);
  double z = 0.0;
  ForAllSequences(4, 3, [&](const std::vector<int>& seq) {
    double w = std::exp(SequenceScore(crf, unary, seq));
    z += w;
    for (size_t i = 0; i < seq.size(); ++i) {
      brute(i, static_cast<size_t>(seq[i])) += w;
    }
  });
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_NEAR(marginals.data()[i], brute.data()[i] / z, 1e-9);
  }
}

TEST(CrfTest, MarginalRowsSumToOne) {
  util::Rng rng(7);
  LinearChainCrf crf = RandomCrf(10, &rng);
  nn::Matrix unary = RandomUnary(8, 10, &rng);
  nn::Matrix marginals = crf.Marginals(unary);
  for (size_t i = 0; i < marginals.rows(); ++i) {
    double sum = 0.0;
    for (size_t s = 0; s < marginals.cols(); ++s) sum += marginals(i, s);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(CrfTest, ZeroPotentialsGiveUniformDistribution) {
  LinearChainCrf crf(4);
  nn::Matrix unary(3, 4, 0.0);
  EXPECT_NEAR(crf.LogPartition(unary), 3.0 * std::log(4.0), 1e-9);
  nn::Matrix marginals = crf.Marginals(unary);
  for (size_t i = 0; i < marginals.size(); ++i) {
    EXPECT_NEAR(marginals.data()[i], 0.25, 1e-12);
  }
}

// ------------------------------------------------------------ gradient ----

TEST(CrfTest, PairwiseGradientMatchesNumeric) {
  util::Rng rng(8);
  LinearChainCrf crf = RandomCrf(3, &rng);
  nn::Matrix unary = RandomUnary(4, 3, &rng);
  std::vector<int> labels = {2, 0, 1, 1};

  crf.pairwise().ZeroGrad();
  crf.AccumulateGradients(unary, labels);

  constexpr double kEps = 1e-6;
  for (size_t i = 0; i < crf.pairwise().value.size(); ++i) {
    double orig = crf.pairwise().value.data()[i];
    crf.pairwise().value.data()[i] = orig + kEps;
    double plus = -crf.LogLikelihood(unary, labels);
    crf.pairwise().value.data()[i] = orig - kEps;
    double minus = -crf.LogLikelihood(unary, labels);
    crf.pairwise().value.data()[i] = orig;
    double numeric = (plus - minus) / (2.0 * kEps);
    EXPECT_NEAR(crf.pairwise().grad.data()[i], numeric, 1e-6);
  }
}

TEST(CrfTest, UnaryGradientMatchesNumeric) {
  util::Rng rng(9);
  LinearChainCrf crf = RandomCrf(3, &rng);
  nn::Matrix unary = RandomUnary(3, 3, &rng);
  std::vector<int> labels = {0, 2, 1};

  crf.pairwise().ZeroGrad();
  nn::Matrix unary_grad;
  crf.AccumulateGradients(unary, labels, &unary_grad);

  constexpr double kEps = 1e-6;
  for (size_t i = 0; i < unary.size(); ++i) {
    double orig = unary.data()[i];
    unary.data()[i] = orig + kEps;
    double plus = -crf.LogLikelihood(unary, labels);
    unary.data()[i] = orig - kEps;
    double minus = -crf.LogLikelihood(unary, labels);
    unary.data()[i] = orig;
    double numeric = (plus - minus) / (2.0 * kEps);
    EXPECT_NEAR(unary_grad.data()[i], numeric, 1e-6);
  }
}

TEST(CrfTest, AccumulateReturnsNll) {
  util::Rng rng(10);
  LinearChainCrf crf = RandomCrf(4, &rng);
  nn::Matrix unary = RandomUnary(5, 4, &rng);
  std::vector<int> labels = {0, 1, 2, 3, 0};
  crf.pairwise().ZeroGrad();
  double nll = crf.AccumulateGradients(unary, labels);
  EXPECT_NEAR(nll, -crf.LogLikelihood(unary, labels), 1e-9);
  EXPECT_GE(nll, 0.0);
}

// ---------------------------------------------------------- init/train ----

TEST(CrfTest, InitFromCooccurrenceFavoursFrequentPairs) {
  LinearChainCrf crf(3);
  nn::Matrix counts(3, 3);
  counts(0, 1) = 100.0;  // frequent pair
  counts(2, 2) = 1.0;
  crf.InitFromCooccurrence(counts, 1.0);
  EXPECT_GT(crf.pairwise().value(0, 1), crf.pairwise().value(2, 2));
  EXPECT_GT(crf.pairwise().value(2, 2), crf.pairwise().value(1, 0));
}

TEST(CrfTest, AdjacentCooccurrenceCounts) {
  auto counts = AdjacentCooccurrence({{0, 1, 2}, {0, 1}}, 3);
  EXPECT_DOUBLE_EQ(counts(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(counts(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(counts(1, 0), 0.0);  // directional
}

TEST(CrfTest, TableCooccurrenceSymmetricWithDiagonal) {
  auto counts = TableCooccurrence({{0, 1, 0}}, 2);
  EXPECT_DOUBLE_EQ(counts(0, 1), 2.0);   // 0-1 and 1-0 pairs
  EXPECT_DOUBLE_EQ(counts(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(counts(0, 0), 1.0);   // repeated type in one table
}

TEST(CrfTrainerTest, TrainingReducesNll) {
  // Synthetic task: state 0 is always followed by state 1; unary is
  // uninformative, so only the pairwise weights can learn the pattern.
  util::Rng rng(11);
  std::vector<CrfExample> examples;
  for (int i = 0; i < 40; ++i) {
    CrfExample ex;
    ex.unary = nn::Matrix(4, 3, 0.0);
    ex.labels = {0, 1, 0, 1};
    examples.push_back(ex);
  }
  LinearChainCrf crf(3);
  double before = 0.0;
  for (const auto& ex : examples) before -= crf.LogLikelihood(ex.unary, ex.labels);

  CrfTrainer::Options opts;
  opts.epochs = 10;
  opts.learning_rate = 0.05;
  CrfTrainer trainer(opts);
  double after_mean = trainer.Train(&crf, examples, &rng);
  EXPECT_LT(after_mean, before / 40.0);
  // The learned potentials should now prefer the 0->1 transition.
  EXPECT_GT(crf.pairwise().value(0, 1), crf.pairwise().value(0, 2));
  auto decoded = crf.Viterbi(examples[0].unary);
  EXPECT_EQ(decoded, (std::vector<int>{0, 1, 0, 1}));
}

TEST(CrfTrainerTest, ViterbiUsesContextToFixAmbiguousColumn) {
  // Miniature Fig 1: state 0 = city, 1 = birthPlace, 2 = name.
  // Unary cannot distinguish city from birthPlace (equal scores) but a
  // name column precedes birthPlace in training tables.
  util::Rng rng(12);
  std::vector<CrfExample> examples;
  for (int i = 0; i < 60; ++i) {
    CrfExample ex;
    ex.unary = nn::Matrix(2, 3, 0.0);
    ex.unary(0, 2) = 3.0;   // first column clearly a name
    ex.unary(1, 0) = 1.0;   // second column ambiguous: city vs birthPlace
    ex.unary(1, 1) = 1.0;
    ex.labels = {2, 1};     // gold: name, birthPlace
    examples.push_back(ex);
  }
  LinearChainCrf crf(3);
  CrfTrainer trainer({});
  trainer.Train(&crf, examples, &rng);
  auto decoded = crf.Viterbi(examples[0].unary);
  EXPECT_EQ(decoded, (std::vector<int>{2, 1}));
}

// ------------------------------------------------------ skip-chain decode ----

double SkipSequenceScore(const LinearChainCrf& crf, const nn::Matrix& skip,
                         const nn::Matrix& unary,
                         const std::vector<int>& seq) {
  double score = SequenceScore(crf, unary, seq);
  for (size_t i = 0; i + 2 < seq.size(); ++i) {
    score += skip(static_cast<size_t>(seq[i]), static_cast<size_t>(seq[i + 2]));
  }
  return score;
}

TEST(SkipChainTest, DecodeMatchesBruteForce) {
  util::Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    LinearChainCrf crf = RandomCrf(3, &rng);
    nn::Matrix skip = nn::Matrix::Gaussian(3, 3, 0.6, &rng);
    SkipChainDecoder decoder(&crf, skip);
    nn::Matrix unary = RandomUnary(5, 3, &rng);

    std::vector<int> best_seq;
    double best_score = -1e300;
    ForAllSequences(5, 3, [&](const std::vector<int>& seq) {
      double s = SkipSequenceScore(crf, skip, unary, seq);
      if (s > best_score) {
        best_score = s;
        best_seq = seq;
      }
    });
    EXPECT_EQ(decoder.Decode(unary), best_seq) << "trial " << trial;
  }
}

TEST(SkipChainTest, ZeroSkipEqualsFirstOrderViterbi) {
  util::Rng rng(22);
  LinearChainCrf crf = RandomCrf(5, &rng);
  SkipChainDecoder decoder(&crf, nn::Matrix(5, 5, 0.0));
  for (size_t m : {1u, 2u, 3u, 6u}) {
    nn::Matrix unary = RandomUnary(m, 5, &rng);
    EXPECT_EQ(decoder.Decode(unary), crf.Viterbi(unary)) << "m=" << m;
  }
}

TEST(SkipChainTest, SkipPotentialChangesDecision) {
  // Unary and pairwise are flat; a strong skip potential (0 -> 1 at
  // distance 2) must steer the decode.
  LinearChainCrf crf(2);
  nn::Matrix skip(2, 2, 0.0);
  skip(0, 1) = 2.0;
  SkipChainDecoder decoder(&crf, skip);
  nn::Matrix unary(3, 2, 0.0);
  unary(0, 0) = 0.5;  // slight preference for state 0 at position 0
  auto path = decoder.Decode(unary);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[2], 1);  // pulled by the skip potential
}

TEST(SkipChainTest, SkipCooccurrenceInitCountsDistanceTwo) {
  nn::Matrix init = SkipChainDecoder::SkipCooccurrenceInit(
      {{0, 1, 2}, {0, 2, 2}}, 3, 1.0);
  // (0,2) occurred twice at distance 2; (0,1) never did.
  EXPECT_GT(init(0, 2), init(0, 1));
}

TEST(SkipChainTest, RejectsBadShapes) {
  LinearChainCrf crf(3);
  EXPECT_THROW(SkipChainDecoder(&crf, nn::Matrix(2, 2, 0.0)),
               std::invalid_argument);
  SkipChainDecoder decoder(&crf, nn::Matrix(3, 3, 0.0));
  EXPECT_THROW(decoder.Decode(nn::Matrix(2, 4, 0.0)), std::invalid_argument);
}

// ------------------------------------------------------------ serialize ----

TEST(CrfTest, SaveLoadRoundTrip) {
  util::Rng rng(13);
  LinearChainCrf crf = RandomCrf(5, &rng);
  std::stringstream ss;
  crf.Save(&ss);
  LinearChainCrf back = LinearChainCrf::Load(&ss);
  EXPECT_EQ(back.num_states(), 5);
  EXPECT_EQ(back.pairwise().value, crf.pairwise().value);
}

TEST(CrfTest, ShapeValidation) {
  LinearChainCrf crf(4);
  nn::Matrix wrong(3, 5);
  EXPECT_THROW(crf.LogPartition(wrong), std::invalid_argument);
  nn::Matrix empty(0, 4);
  EXPECT_THROW(crf.Viterbi(empty), std::invalid_argument);
  nn::Matrix ok(2, 4);
  EXPECT_THROW(crf.LogLikelihood(ok, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace sato::crf
