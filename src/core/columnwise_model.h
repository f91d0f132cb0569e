#ifndef SATO_CORE_COLUMNWISE_MODEL_H_
#define SATO_CORE_COLUMNWISE_MODEL_H_

#include <iosfwd>
#include <vector>

#include "core/config.h"
#include "features/pipeline.h"
#include "nn/batch_norm.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "table/semantic_type.h"

namespace sato {

/// A featurised batch of columns ready for the network: one matrix per
/// feature group ([batch x group_dim]); `topic` may be empty when the model
/// has no topic subnetwork.
struct FeatureBatch {
  nn::Matrix char_features;
  nn::Matrix word_features;
  nn::Matrix para_features;
  nn::Matrix stat_features;
  nn::Matrix topic_features;

  size_t batch_size() const { return char_features.rows(); }

  /// Assembles a batch from per-column features (+ per-column topic
  /// vectors; pass empty topics for topic-free models).
  static FeatureBatch FromColumns(
      const std::vector<const features::ColumnFeatures*>& columns,
      const std::vector<const std::vector<double>*>& topics);
};

/// The column-wise prediction network (paper §3.1 + §3.2).
///
/// Char/Word/Para (and Topic when enabled) each pass through their own
/// compression subnetwork; the outputs are concatenated together with the
/// raw 27 Stat features and fed to the primary network: two fully-connected
/// ReLU layers with BatchNorm and Dropout, then a linear output layer over
/// the 78 types. Softmax is applied by the loss / prediction code.
///
/// With `topic_dim == 0` this is exactly the Sherlock-style Base model;
/// with a topic subnetwork it is Sato's topic-aware model.
class ColumnwiseModel {
 public:
  struct Dims {
    size_t char_dim = 0;
    size_t word_dim = 0;
    size_t para_dim = 0;
    size_t stat_dim = 0;
    size_t topic_dim = 0;  ///< 0 disables the topic subnetwork
    size_t num_classes = kNumSemanticTypes;
  };

  ColumnwiseModel(const Dims& dims, const SatoConfig& config, util::Rng* rng);

  bool uses_topic() const { return dims_.topic_dim > 0; }
  const Dims& dims() const { return dims_; }

  /// Forward pass to logits: [batch x num_classes]. Training path; caches
  /// activations for Backward and is not re-entrant.
  nn::Matrix Forward(const FeatureBatch& batch, bool train);

  /// Forward pass that also exposes the activations entering the output
  /// layer -- the "column embeddings" analysed in Fig 10.
  nn::Matrix ForwardWithEmbedding(const FeatureBatch& batch, bool train,
                                  nn::Matrix* embedding);

  /// Re-entrant inference to logits: const through every layer, all
  /// scratch drawn from the caller's workspace, bit-identical to
  /// Forward(batch, /*train=*/false). The returned reference lives in `ws`
  /// until its next Reset.
  const nn::Matrix& Apply(const FeatureBatch& batch, nn::Workspace* ws) const;

  /// Re-entrant counterpart of ForwardWithEmbedding; `embedding` is a
  /// caller-owned matrix receiving the penultimate activations.
  const nn::Matrix& ApplyWithEmbedding(const FeatureBatch& batch,
                                       nn::Workspace* ws,
                                       nn::Matrix* embedding) const;

  /// Backward pass from d(loss)/d(logits); accumulates parameter grads.
  void Backward(const nn::Matrix& grad_logits);

  std::vector<nn::Parameter*> Parameters();

  void Save(std::ostream* out) const;
  void Load(std::istream* in);

 private:
  nn::Matrix RunSubnets(const FeatureBatch& batch, bool train);
  const nn::Matrix& ApplySubnets(const FeatureBatch& batch,
                                 nn::Workspace* ws) const;

  Dims dims_;
  nn::Sequential char_subnet_;
  nn::Sequential word_subnet_;
  nn::Sequential para_subnet_;
  nn::Sequential topic_subnet_;
  nn::Sequential primary_;

  // Borrowed views of the primary network's BatchNorm layers; their running
  // statistics are state that Save/Load must persist alongside parameters.
  std::vector<nn::BatchNorm1d*> batch_norms_;

  // Per-group output widths, cached for the concat/split in fwd/bwd.
  size_t char_out_, word_out_, para_out_, topic_out_;
};

}  // namespace sato

#endif  // SATO_CORE_COLUMNWISE_MODEL_H_
