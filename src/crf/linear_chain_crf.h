#ifndef SATO_CRF_LINEAR_CHAIN_CRF_H_
#define SATO_CRF_LINEAR_CHAIN_CRF_H_

#include <iosfwd>
#include <vector>

#include "nn/layer.h"
#include "nn/matrix.h"

namespace sato::crf {

/// Linear-chain conditional random field over the columns of a table
/// (paper §3.3).
///
/// Each column i carries a unary potential vector psi_UNI(., c_i) (supplied
/// by a column-wise model; Sato uses the log of the normalised topic-aware
/// prediction scores) and adjacent columns are coupled by a trainable
/// |T| x |T| pairwise potential matrix P with
/// P[a][b] = psi_PAIR(t_i = a, t_{i+1} = b).
///
///   log P(t|c) = sum_i psi_UNI(t_i, c_i) + sum_i P[t_i][t_{i+1}] - log Z(c)
///
/// log Z is computed exactly by the forward algorithm in log space
/// (the "forward-backward" of §3.3), MAP decoding by Viterbi.
///
/// Re-entrancy: every decoding entry point (LogPartition, LogLikelihood,
/// Viterbi, Marginals) is const, keeps all its state on the stack, and
/// only reads pairwise().value -- one trained CRF may decode for any
/// number of threads concurrently. The only mutating paths are training
/// (AccumulateGradients writes pairwise().grad) and the initialisers.
class LinearChainCrf {
 public:
  explicit LinearChainCrf(int num_states);

  int num_states() const { return num_states_; }

  /// The pairwise potential matrix as a trainable parameter (plug into
  /// nn::AdamOptimizer, as §4.3 trains it with Adam at lr 1e-2).
  nn::Parameter& pairwise() { return pairwise_; }
  const nn::Parameter& pairwise() const { return pairwise_; }

  /// Initialises pairwise potentials from an adjacent-column co-occurrence
  /// count matrix (§4.3): P = scale * centred log1p(counts).
  void InitFromCooccurrence(const nn::Matrix& counts, double scale = 1.0);

  /// Log partition function for a table. `unary` is [m x K] of log
  /// potentials.
  double LogPartition(const nn::Matrix& unary) const;

  /// Joint log-likelihood log P(labels | unary).
  double LogLikelihood(const nn::Matrix& unary,
                       const std::vector<int>& labels) const;

  /// Adds the gradient of the *negative* log-likelihood to
  /// pairwise().grad (and, when non-null, to `unary_grad`, enabling
  /// end-to-end training of the underlying column model). Returns the NLL.
  double AccumulateGradients(const nn::Matrix& unary,
                             const std::vector<int>& labels,
                             nn::Matrix* unary_grad = nullptr);

  /// MAP decoding (Viterbi, §3.3). Ties go to the lowest state index, both
  /// for the predecessor of each state and for the final state. Runs in
  /// O(m K^2) over contiguous rows of pairwise(), with two flat m x K
  /// buffers (scores and backpointers) as its only scratch.
  std::vector<int> Viterbi(const nn::Matrix& unary) const;

  /// Posterior marginals P(t_i = k | c): an [m x K] matrix.
  nn::Matrix Marginals(const nn::Matrix& unary) const;

  void Save(std::ostream* out) const;
  static LinearChainCrf Load(std::istream* in);

 private:
  /// Forward log-messages alpha: [m x K].
  nn::Matrix Forward(const nn::Matrix& unary) const;
  /// Backward log-messages beta: [m x K].
  nn::Matrix Backward(const nn::Matrix& unary) const;

  int num_states_;
  nn::Parameter pairwise_;
};

}  // namespace sato::crf

#endif  // SATO_CRF_LINEAR_CHAIN_CRF_H_
