#ifndef SATO_CORE_SATO_MODEL_H_
#define SATO_CORE_SATO_MODEL_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/columnwise_model.h"
#include "core/config.h"
#include "core/dataset.h"
#include "crf/linear_chain_crf.h"

namespace sato {

/// The four models evaluated in the paper (Table 1):
///   kBase      -- Sherlock-style single-column model,
///   kNoStruct  -- topic-aware prediction only (Sato_noStruct),
///   kNoTopic   -- Base + structured prediction   (Sato_noTopic),
///   kFull      -- topic-aware + structured       (Sato).
enum class SatoVariant { kBase, kNoStruct, kNoTopic, kFull };

/// Paper-style display name ("Base", "Sato", "Sato-NoStruct", "Sato-NoTopic").
std::string VariantName(SatoVariant variant);

/// True when the variant feeds the table topic vector into the network.
bool VariantUsesTopic(SatoVariant variant);

/// True when the variant decodes with the CRF layer.
bool VariantUsesCrf(SatoVariant variant);

/// A complete Sato model: the column-wise (optionally topic-aware) network
/// plus, for structured variants, the linear-chain CRF layer whose unary
/// potentials are the log of the column-wise prediction scores (§3.3).
class SatoModel {
 public:
  /// `feature_dims` describes the Char/Word/Para/Stat inputs; `topic_dim`
  /// is the LDA dimensionality (used only by topic-aware variants).
  SatoModel(SatoVariant variant, const ColumnwiseModel::Dims& feature_dims,
            size_t topic_dim, const SatoConfig& config, util::Rng* rng);

  SatoVariant variant() const { return variant_; }
  bool uses_topic() const { return VariantUsesTopic(variant_); }
  bool uses_crf() const { return VariantUsesCrf(variant_); }
  const SatoConfig& config() const { return config_; }

  ColumnwiseModel& columnwise() { return *columnwise_; }
  const ColumnwiseModel& columnwise() const { return *columnwise_; }
  crf::LinearChainCrf& crf() { return *crf_; }
  const crf::LinearChainCrf& crf() const { return *crf_; }

  /// Assembles the network input batch for one table, including topic
  /// features when the variant uses them.
  FeatureBatch MakeBatch(const TableExample& table) const;

  /// Column-wise softmax probabilities [num_columns x num_types] in eval
  /// mode (these are the CRF's normalised unary scores).
  ///
  /// The whole prediction surface is const and re-entrant: one trained
  /// SatoModel may serve any number of threads concurrently, each passing
  /// its own Workspace. `ws` is Reset on entry and supplies every
  /// intermediate, so steady-state predictions allocate only the returned
  /// result. The overloads without a workspace use a transient one.
  nn::Matrix PredictProbs(const TableExample& table, nn::Workspace* ws) const;
  nn::Matrix PredictProbs(const TableExample& table) const;

  /// Final type prediction for every column of the table: Viterbi decoding
  /// for structured variants, per-column argmax otherwise.
  std::vector<int> Predict(const TableExample& table, nn::Workspace* ws) const;
  std::vector<int> Predict(const TableExample& table) const;

  /// Column embeddings (final-layer input activations, Fig 10).
  nn::Matrix ColumnEmbeddings(const TableExample& table,
                              nn::Workspace* ws) const;
  nn::Matrix ColumnEmbeddings(const TableExample& table) const;

  void Save(std::ostream* out) const;
  void Load(std::istream* in);

 private:
  /// Shared core of the const prediction path: featurised probs written
  /// into `ws` (which is Reset here). Returned reference is valid until
  /// the workspace's next Reset.
  const nn::Matrix& ApplyProbs(const TableExample& table,
                               nn::Workspace* ws) const;

  SatoVariant variant_;
  SatoConfig config_;
  std::unique_ptr<ColumnwiseModel> columnwise_;
  std::unique_ptr<crf::LinearChainCrf> crf_;
};

}  // namespace sato

#endif  // SATO_CORE_SATO_MODEL_H_
