#ifndef SATO_EMBEDDING_VOCABULARY_H_
#define SATO_EMBEDDING_VOCABULARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace sato::embedding {

/// Token id within a Vocabulary.
using TokenId = int;

/// A frequency-counted token vocabulary built from a corpus.
///
/// Construction is two-phase: Count() every token, then Finalize() to assign
/// contiguous ids to tokens meeting the minimum count, ordered by descending
/// frequency (ties broken lexicographically, so builds are deterministic).
class Vocabulary {
 public:
  /// Adds `n` occurrences of a token (pre-finalize).
  void Count(std::string_view token, int64_t n = 1);

  /// Adds occurrences of each token in the sequence.
  void CountAll(const std::vector<std::string>& tokens);

  /// Assigns ids to all tokens with count >= min_count. Idempotent.
  void Finalize(int64_t min_count = 1);

  /// Number of in-vocabulary tokens. Valid after Finalize.
  size_t size() const { return id_to_token_.size(); }

  /// Id for a token or nullopt if OOV / not finalized.
  std::optional<TokenId> Id(std::string_view token) const;

  /// Token string for an id.
  const std::string& Token(TokenId id) const {
    return id_to_token_[static_cast<size_t>(id)];
  }

  /// Corpus frequency of an in-vocabulary token id.
  int64_t Frequency(TokenId id) const {
    return id_frequency_[static_cast<size_t>(id)];
  }

  /// Total count of all in-vocabulary occurrences.
  int64_t TotalCount() const { return total_count_; }

  bool finalized() const { return finalized_; }

 private:
  // Transparent hashing: Count()/Id() probe with string_view keys directly,
  // never materialising a temporary std::string per lookup.
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, util::TransparentStringHash,
                         std::equal_to<>>;

  StringMap<int64_t> counts_;
  StringMap<TokenId> token_to_id_;
  std::vector<std::string> id_to_token_;
  std::vector<int64_t> id_frequency_;
  int64_t total_count_ = 0;
  bool finalized_ = false;
};

/// Tokenises a cell value for embedding/LDA purposes: lower-cases, splits
/// on non-alphanumeric characters, and maps every pure number to a magnitude
/// bucket token ("<num_3>" for 3-digit integers, etc.) so numeric columns
/// produce a compact, learnable vocabulary instead of millions of singleton
/// tokens. This mirrors the paper's practice of converting numeric values
/// to strings before topic modelling (§4.2) while keeping vocab tractable.
std::vector<std::string> TokenizeCell(std::string_view cell);

}  // namespace sato::embedding

#endif  // SATO_EMBEDDING_VOCABULARY_H_
