#ifndef SATO_TOPIC_LDA_H_
#define SATO_TOPIC_LDA_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "embedding/vocabulary.h"
#include "util/rng.h"

namespace sato::topic {

/// Largest LdaOptions::infer_iterations a model may carry (Train and Load
/// reject more): with max_doc_tokens it bounds the fold-in's work per
/// table. gensim's default is 50.
inline constexpr int kMaxInferIterations = 1000;

/// Latent Dirichlet Allocation configuration. The paper pre-trains a
/// 400-topic gensim LDA on 10K tables (§4.2); topic count here is
/// configurable and scaled with corpus size.
struct LdaOptions {
  int num_topics = 64;
  double alpha = 0.1;          ///< document-topic prior
  double beta = 0.01;          ///< topic-word prior
  int train_iterations = 120;  ///< collapsed Gibbs sweeps
  /// Iteration cap of the variational fold-in for unseen documents
  /// (gensim's `iterations`). The E-step usually stops earlier, once the
  /// mean absolute change of gamma drops below 1e-3 (gensim's
  /// `gamma_threshold`); on 64-256-row synthetic tables at K = 32 it
  /// averages about 20 iterations and about 12% of tables reach the cap.
  /// Bundles store this field, so a model keeps the cap it was trained
  /// with. Must lie in [1, kMaxInferIterations].
  int infer_iterations = 50;
  int64_t min_count = 2;       ///< vocabulary cutoff
  size_t max_doc_tokens = 512; ///< truncate very large documents (>= 1)
};

/// Reusable scratch state for the fold-in fast path (InferTopicsInto).
/// One per worker; every buffer is recycled across calls, so steady-state
/// inference allocates nothing (growth is observable via CapacityBytes).
struct LdaScratch {
  std::vector<embedding::TokenId> ids;  ///< encoded document (caller fills);
                                        ///< the fold-in collapses it in place
                                        ///< into its sorted unique ids
  std::vector<double> counts;           ///< occurrences of each unique id
  std::vector<uint32_t> id_counts;      ///< occurrences by vocabulary id,
                                        ///< sized to the largest vocabulary
                                        ///< seen; all zero between calls
  std::vector<double> scale;            ///< count_w / (e . phi_w) of each
                                        ///< unique id, one E-step iteration
  std::vector<double> gamma;            ///< variational Dirichlet (K)
  std::vector<double> e;                ///< exp(digamma(gamma)) (K)
  std::vector<double> acc;              ///< per-iteration sufficient stats (K)

  /// Total heap capacity currently held (for zero-allocation assertions).
  size_t CapacityBytes() const {
    return ids.capacity() * sizeof(embedding::TokenId) +
           id_counts.capacity() * sizeof(uint32_t) +
           (counts.capacity() + scale.capacity() + gamma.capacity() +
            e.capacity() + acc.capacity()) *
               sizeof(double);
  }
};

/// LDA trained with collapsed Gibbs sampling; inference for unseen
/// documents is the variational E-step gensim runs (Blei, Ng & Jordan
/// 2003; Hoffman, Blei & Bach 2010) against the frozen topic-word
/// distribution. This is Sato's "table intent estimator" (§3.2): tables
/// are documents, the inferred topic mixture is the table topic vector.
///
/// The topic-word distribution is stored as one flat row-major [K x V]
/// array (phi()), plus a [V x K] transpose maintained alongside it so the
/// serving fold-in reads each word's phi column as one contiguous
/// K-vector. Inference is deterministic: theta is a pure function of the
/// document and the model. The E-step has one scalar code path, with no
/// CPU dispatch and no FP contraction under -std=c++20, so its own
/// arithmetic rounds the same on every host; exp and log come from the C
/// math library.
class LdaModel {
 public:
  /// Trains a model on tokenised documents.
  static LdaModel Train(const std::vector<std::vector<std::string>>& documents,
                        const LdaOptions& options, util::Rng* rng);

  /// Infers the topic mixture theta (length num_topics, sums to 1) for an
  /// unseen document. Documents with no in-vocabulary token get the uniform
  /// mixture. Routes through the fast path with a thread_local scratch
  /// that keeps its capacity (about 4 bytes per word of the largest
  /// vocabulary seen) for the thread's lifetime.
  std::vector<double> InferTopics(
      const std::vector<std::string>& document) const;

  /// The naive E-step: one update per token in document order over phi()
  /// rows, with serial sums. The parity baseline of the fast path (same
  /// pattern as nn::gemm's Reference* kernels); the two agree to rounding,
  /// not bit for bit (see InferTopicsInto).
  std::vector<double> ReferenceInferTopics(
      const std::vector<std::string>& document) const;

  /// Fold-in fast path over an already-encoded document: `scratch->ids`
  /// must hold the in-vocabulary token ids, truncated to
  /// options().max_doc_tokens (see TokenCache::CollectLdaIds); their order
  /// does not matter, and the call leaves them sorted and deduplicated.
  /// Writes theta into `*theta` (resized to num_topics). The E-step runs
  /// over unique ids with counts, so its sums round differently from
  /// ReferenceInferTopics.
  void InferTopicsInto(LdaScratch* scratch, std::vector<double>* theta) const;

  int num_topics() const { return options_.num_topics; }
  const embedding::Vocabulary& vocab() const { return vocab_; }
  const LdaOptions& options() const { return options_; }

  /// Top-k words of a topic by phi (topic-word probability).
  std::vector<std::pair<std::string, double>> TopWords(int topic,
                                                       size_t k) const;

  /// Flat row-major topic-word distribution: phi()[k * vocab().size() + w];
  /// rows sum to 1.
  const std::vector<double>& phi() const { return phi_; }

  /// Row k of phi (vocab().size() doubles).
  const double* PhiRow(int topic) const {
    return phi_.data() + static_cast<size_t>(topic) * vocab_.size();
  }

  /// Column w of phi (num_topics() doubles, contiguous via the transpose).
  const double* PhiCol(embedding::TokenId word) const {
    return phi_t_.data() +
           static_cast<size_t>(word) * static_cast<size_t>(options_.num_topics);
  }

  void Save(std::ostream* out) const;
  static LdaModel Load(std::istream* in);

 private:
  LdaModel() = default;

  /// Rebuilds phi_t_ from phi_ (after Train and Load).
  void BuildPhiTranspose();

  LdaOptions options_;
  embedding::Vocabulary vocab_;
  std::vector<double> phi_;    // flat row-major [K x V]
  std::vector<double> phi_t_;  // transpose [V x K]; not serialised
};

}  // namespace sato::topic

#endif  // SATO_TOPIC_LDA_H_
