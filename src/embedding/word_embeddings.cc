#include "embedding/word_embeddings.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "nn/serialize.h"
#include "util/binary_io.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace sato::embedding {

WordEmbeddings::WordEmbeddings(Vocabulary vocab, nn::Matrix vectors)
    : vocab_(std::move(vocab)), vectors_(std::move(vectors)) {
  if (vocab_.size() != vectors_.rows()) {
    throw std::invalid_argument("WordEmbeddings: vocab/vector row mismatch");
  }
}

std::vector<double> WordEmbeddings::Lookup(std::string_view token) const {
  auto id = vocab_.Id(token);
  if (id.has_value()) return vectors_.RowVector(static_cast<size_t>(*id));
  std::vector<double> v(dim());
  OovVectorInto(util::Fnv1aHash(token), v.data());
  return v;
}

void WordEmbeddings::OovVectorInto(uint64_t token_hash, double* out) const {
  // Deterministic OOV vector from the token hash: a small fixed-scale
  // pseudo-random direction, stable across runs.
  util::Rng rng(token_hash);
  double scale = 0.1;
  for (size_t i = 0; i < dim(); ++i) out[i] = rng.Normal(0.0, scale);
}

std::vector<double> WordEmbeddings::Average(
    const std::vector<std::string>& tokens) const {
  std::vector<double> acc(dim(), 0.0);
  if (tokens.empty()) return acc;
  for (const auto& t : tokens) {
    std::vector<double> v = Lookup(t);
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += v[i];
  }
  for (double& x : acc) x /= static_cast<double>(tokens.size());
  return acc;
}

std::vector<std::pair<std::string, double>> WordEmbeddings::Nearest(
    std::string_view token, size_t k) const {
  std::vector<double> query = Lookup(token);
  std::vector<std::pair<std::string, double>> scored;
  scored.reserve(vocab_.size());
  for (size_t i = 0; i < vocab_.size(); ++i) {
    const std::string& other = vocab_.Token(static_cast<TokenId>(i));
    if (other == token) continue;
    scored.emplace_back(other,
                        util::CosineSimilarity(query, vectors_.RowVector(i)));
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min(k, scored.size()), scored.end(),
                    [](const auto& a, const auto& b) { return a.second > b.second; });
  scored.resize(std::min(k, scored.size()));
  return scored;
}

void WordEmbeddings::Save(std::ostream* out) const {
  uint64_t n = vocab_.size();
  out->write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (size_t i = 0; i < vocab_.size(); ++i) {
    const std::string& t = vocab_.Token(static_cast<TokenId>(i));
    uint64_t len = t.size();
    out->write(reinterpret_cast<const char*>(&len), sizeof(len));
    out->write(t.data(), static_cast<std::streamsize>(len));
    int64_t freq = vocab_.Frequency(static_cast<TokenId>(i));
    out->write(reinterpret_cast<const char*>(&freq), sizeof(freq));
  }
  nn::SaveMatrix(vectors_, out);
}

WordEmbeddings WordEmbeddings::Load(std::istream* in) {
  uint64_t n = 0;
  in->read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!*in) throw std::runtime_error("WordEmbeddings::Load: truncated");
  Vocabulary vocab;
  std::vector<std::pair<std::string, int64_t>> entries;
  int64_t total = 0;  // bounds every count sum below INT64_MAX
  for (uint64_t i = 0; i < n; ++i) {
    std::string t = util::ReadLengthPrefixedString(in, "WordEmbeddings::Load");
    int64_t freq = 0;
    in->read(reinterpret_cast<char*>(&freq), sizeof(freq));
    if (!*in) throw std::runtime_error("WordEmbeddings::Load: truncated");
    if (freq < 1 || freq > std::numeric_limits<int64_t>::max() - total) {
      throw std::runtime_error("WordEmbeddings::Load: invalid word frequency");
    }
    total += freq;
    entries.emplace_back(std::move(t), freq);
  }
  // Rebuild the vocabulary with identical id assignment: Finalize sorts by
  // (count desc, token asc), which reproduces the saved order because that
  // order was produced the same way -- unless a corrupt frequency or a
  // repeated token shifts the ids off the rows of the matrix.
  for (const auto& [t, freq] : entries) vocab.Count(t, freq);
  vocab.Finalize(1);
  if (vocab.size() != n) {
    throw std::runtime_error("WordEmbeddings::Load: vocabulary mismatch");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (vocab.Token(static_cast<TokenId>(i)) != entries[i].first) {
      throw std::runtime_error("WordEmbeddings::Load: vocabulary mismatch");
    }
  }
  nn::Matrix vectors = nn::LoadMatrix(in);
  return WordEmbeddings(std::move(vocab), std::move(vectors));
}

}  // namespace sato::embedding
