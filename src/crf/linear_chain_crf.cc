#include "crf/linear_chain_crf.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "nn/serialize.h"
#include "util/cpu.h"
#include "util/math_util.h"

namespace sato::crf {

namespace {

void CheckShapes(const nn::Matrix& unary, int num_states) {
  if (unary.rows() == 0 || unary.cols() != static_cast<size_t>(num_states)) {
    throw std::invalid_argument("LinearChainCrf: bad unary shape");
  }
}

// One Viterbi step: best[s] = max over prev of prev_delta[prev] +
// pairwise[prev][s], arg[s] = the first prev reaching it. best must hold
// -inf and arg 0 on entry. prev runs outer and s inner, so each step reads
// one contiguous pairwise row and updates every state with two selects, not
// a branch; the strict > over ascending prev keeps the first maximiser.
//
// The body is expanded twice, once per ISA level, like the GEMM
// micro-kernel: GCC turns the selects into vector blends only where the
// target has them (AVX2); at 78 states that copy decodes in about half the
// time of the portable one. The step only adds and compares, so both
// versions produce the same bits.
#define SATO_VITERBI_STEP_BODY                                  \
  for (size_t prev = 0; prev < k; ++prev) {                     \
    const double d = prev_delta[prev];                          \
    const double* row = pairwise + prev * k;                    \
    const int p = static_cast<int>(prev);                       \
    for (size_t s = 0; s < k; ++s) {                            \
      const double cand = d + row[s];                           \
      const bool better = cand > best[s];                       \
      best[s] = better ? cand : best[s];                        \
      arg[s] = better ? p : arg[s];                             \
    }                                                           \
  }

void ViterbiStepGeneric(const double* pairwise, const double* prev_delta,
                        size_t k, double* best, int* arg) {
  SATO_VITERBI_STEP_BODY
}

#if defined(__GNUC__) && defined(__x86_64__)
#define SATO_CRF_HAS_AVX2_STEP 1
__attribute__((target("avx2"))) void ViterbiStepAvx2(
    const double* pairwise, const double* prev_delta, size_t k, double* best,
    int* arg) {
  SATO_VITERBI_STEP_BODY
}
#endif

#undef SATO_VITERBI_STEP_BODY

using ViterbiStepFn = void (*)(const double*, const double*, size_t, double*,
                               int*);

// SATO_DISABLE_CPU_DISPATCH pins the portable step, as it does for every
// other kernel, so CI keeps it covered.
ViterbiStepFn PickViterbiStep() {
#if defined(SATO_CRF_HAS_AVX2_STEP)
  if (!util::CpuDispatchDisabledByEnv() && util::CpuHasAvx2()) {
    return ViterbiStepAvx2;
  }
#endif
  return ViterbiStepGeneric;
}

}  // namespace

LinearChainCrf::LinearChainCrf(int num_states)
    : num_states_(num_states),
      pairwise_("crf_pairwise",
                nn::Matrix(static_cast<size_t>(num_states),
                           static_cast<size_t>(num_states), 0.0)) {}

void LinearChainCrf::InitFromCooccurrence(const nn::Matrix& counts,
                                          double scale) {
  if (counts.rows() != pairwise_.value.rows() ||
      counts.cols() != pairwise_.value.cols()) {
    throw std::invalid_argument("InitFromCooccurrence: shape mismatch");
  }
  nn::Matrix& p = pairwise_.value;
  double mean = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    p.data()[i] = std::log1p(counts.data()[i]);
    mean += p.data()[i];
  }
  mean /= static_cast<double>(counts.size());
  for (size_t i = 0; i < p.size(); ++i) {
    p.data()[i] = scale * (p.data()[i] - mean);
  }
}

nn::Matrix LinearChainCrf::Forward(const nn::Matrix& unary) const {
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix alpha(m, k);
  for (size_t s = 0; s < k; ++s) alpha(0, s) = unary(0, s);
  std::vector<double> scratch(k);
  for (size_t i = 1; i < m; ++i) {
    for (size_t s = 0; s < k; ++s) {
      for (size_t prev = 0; prev < k; ++prev) {
        scratch[prev] = alpha(i - 1, prev) + pairwise_.value(prev, s);
      }
      alpha(i, s) = unary(i, s) + util::LogSumExp(scratch.data(), k);
    }
  }
  return alpha;
}

nn::Matrix LinearChainCrf::Backward(const nn::Matrix& unary) const {
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix beta(m, k);  // beta(m-1, *) = 0
  std::vector<double> scratch(k);
  for (size_t ii = m - 1; ii > 0; --ii) {
    size_t i = ii - 1;
    for (size_t s = 0; s < k; ++s) {
      for (size_t next = 0; next < k; ++next) {
        scratch[next] =
            pairwise_.value(s, next) + unary(i + 1, next) + beta(i + 1, next);
      }
      beta(i, s) = util::LogSumExp(scratch.data(), k);
    }
  }
  return beta;
}

double LinearChainCrf::LogPartition(const nn::Matrix& unary) const {
  CheckShapes(unary, num_states_);
  nn::Matrix alpha = Forward(unary);
  const size_t m = unary.rows();
  return util::LogSumExp(alpha.Row(m - 1), static_cast<size_t>(num_states_));
}

double LinearChainCrf::LogLikelihood(const nn::Matrix& unary,
                                     const std::vector<int>& labels) const {
  CheckShapes(unary, num_states_);
  if (labels.size() != unary.rows()) {
    throw std::invalid_argument("LogLikelihood: label count mismatch");
  }
  double score = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    score += unary(i, static_cast<size_t>(labels[i]));
    if (i + 1 < labels.size()) {
      score += pairwise_.value(static_cast<size_t>(labels[i]),
                               static_cast<size_t>(labels[i + 1]));
    }
  }
  return score - LogPartition(unary);
}

double LinearChainCrf::AccumulateGradients(const nn::Matrix& unary,
                                           const std::vector<int>& labels,
                                           nn::Matrix* unary_grad) {
  CheckShapes(unary, num_states_);
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix alpha = Forward(unary);
  nn::Matrix beta = Backward(unary);
  double log_z = util::LogSumExp(alpha.Row(m - 1), k);

  // Gradient of NLL w.r.t. pairwise potentials: expected adjacent-pair
  // marginals minus gold indicators.
  for (size_t i = 0; i + 1 < m; ++i) {
    for (size_t a = 0; a < k; ++a) {
      double base = alpha(i, a) - log_z;
      for (size_t b = 0; b < k; ++b) {
        double log_marginal =
            base + pairwise_.value(a, b) + unary(i + 1, b) + beta(i + 1, b);
        pairwise_.grad(a, b) += std::exp(log_marginal);
      }
    }
    pairwise_.grad(static_cast<size_t>(labels[i]),
                   static_cast<size_t>(labels[i + 1])) -= 1.0;
  }

  if (unary_grad != nullptr) {
    *unary_grad = nn::Matrix(m, k);
    for (size_t i = 0; i < m; ++i) {
      for (size_t s = 0; s < k; ++s) {
        (*unary_grad)(i, s) = std::exp(alpha(i, s) + beta(i, s) - log_z);
      }
      (*unary_grad)(i, static_cast<size_t>(labels[i])) -= 1.0;
    }
  }

  // NLL itself.
  double score = 0.0;
  for (size_t i = 0; i < m; ++i) {
    score += unary(i, static_cast<size_t>(labels[i]));
    if (i + 1 < m) {
      score += pairwise_.value(static_cast<size_t>(labels[i]),
                               static_cast<size_t>(labels[i + 1]));
    }
  }
  return log_z - score;
}

std::vector<int> LinearChainCrf::Viterbi(const nn::Matrix& unary) const {
  CheckShapes(unary, num_states_);
  static const ViterbiStepFn step = PickViterbiStep();
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  // delta[i * k + s]: best score of a path ending in state s at column i;
  // backptr[i * k + s]: its state at column i - 1 (zero-initialised, as
  // the step expects).
  std::vector<double> delta(m * k);
  std::vector<int> backptr(m * k, 0);
  std::copy(unary.Row(0), unary.Row(0) + k, delta.begin());
  for (size_t i = 1; i < m; ++i) {
    double* best = delta.data() + i * k;
    std::fill(best, best + k, -std::numeric_limits<double>::infinity());
    step(pairwise_.value.data(), delta.data() + (i - 1) * k, k, best,
         backptr.data() + i * k);
    const double* u = unary.Row(i);
    for (size_t s = 0; s < k; ++s) best[s] += u[s];
  }
  std::vector<int> path(m);
  const double* last = delta.data() + (m - 1) * k;
  path[m - 1] = static_cast<int>(std::max_element(last, last + k) - last);
  for (size_t ii = m - 1; ii > 0; --ii) {
    path[ii - 1] = backptr[ii * k + static_cast<size_t>(path[ii])];
  }
  return path;
}

nn::Matrix LinearChainCrf::Marginals(const nn::Matrix& unary) const {
  CheckShapes(unary, num_states_);
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix alpha = Forward(unary);
  nn::Matrix beta = Backward(unary);
  double log_z = util::LogSumExp(alpha.Row(m - 1), k);
  nn::Matrix marginals(m, k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t s = 0; s < k; ++s) {
      marginals(i, s) = std::exp(alpha(i, s) + beta(i, s) - log_z);
    }
  }
  return marginals;
}

void LinearChainCrf::Save(std::ostream* out) const {
  nn::SaveMatrix(pairwise_.value, out);
}

LinearChainCrf LinearChainCrf::Load(std::istream* in) {
  nn::Matrix p = nn::LoadMatrix(in);
  if (p.rows() != p.cols()) {
    throw std::runtime_error("LinearChainCrf::Load: non-square matrix");
  }
  LinearChainCrf crf(static_cast<int>(p.rows()));
  crf.pairwise_.value = std::move(p);
  return crf;
}

}  // namespace sato::crf
