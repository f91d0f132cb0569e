#include "embedding/tfidf.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "util/binary_io.h"

namespace sato::embedding {

void TfIdf::Fit(const std::vector<std::vector<std::string>>& documents) {
  num_documents_ = documents.size();
  for (const auto& doc : documents) {
    std::unordered_set<std::string> seen(doc.begin(), doc.end());
    for (const auto& token : seen) ++document_frequency_[token];
  }
}

double TfIdf::Idf(std::string_view token) const {
  size_t df = 0;
  auto it = document_frequency_.find(token);
  if (it != document_frequency_.end()) df = it->second;
  return std::log((1.0 + static_cast<double>(num_documents_)) /
                  (1.0 + static_cast<double>(df))) +
         1.0;
}

std::vector<double> TfIdf::Weights(
    const std::vector<std::string>& tokens) const {
  std::vector<double> weights(tokens.size(), 0.0);
  if (tokens.empty()) return weights;
  std::unordered_map<std::string, double> tf;
  for (const auto& t : tokens) tf[t] += 1.0;
  double inv_len = 1.0 / static_cast<double>(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    weights[i] = tf[tokens[i]] * inv_len * Idf(tokens[i]);
  }
  return weights;
}

void TfIdf::Save(std::ostream* out) const {
  uint64_t n = num_documents_;
  uint64_t entries = document_frequency_.size();
  out->write(reinterpret_cast<const char*>(&n), sizeof(n));
  out->write(reinterpret_cast<const char*>(&entries), sizeof(entries));
  // Stable output: sort keys so identical models serialise identically.
  std::vector<const std::string*> keys;
  keys.reserve(document_frequency_.size());
  for (const auto& [token, df] : document_frequency_) keys.push_back(&token);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* token : keys) {
    uint64_t len = token->size();
    out->write(reinterpret_cast<const char*>(&len), sizeof(len));
    out->write(token->data(), static_cast<std::streamsize>(len));
    uint64_t df = document_frequency_.at(*token);
    out->write(reinterpret_cast<const char*>(&df), sizeof(df));
  }
}

TfIdf TfIdf::Load(std::istream* in) {
  TfIdf tfidf;
  uint64_t n = 0, entries = 0;
  in->read(reinterpret_cast<char*>(&n), sizeof(n));
  in->read(reinterpret_cast<char*>(&entries), sizeof(entries));
  if (!*in) throw std::runtime_error("TfIdf::Load: truncated stream");
  tfidf.num_documents_ = n;
  for (uint64_t i = 0; i < entries; ++i) {
    std::string token = util::ReadLengthPrefixedString(in, "TfIdf::Load");
    uint64_t df = 0;
    in->read(reinterpret_cast<char*>(&df), sizeof(df));
    if (!*in) throw std::runtime_error("TfIdf::Load: truncated stream");
    tfidf.document_frequency_[std::move(token)] = df;
  }
  return tfidf;
}

}  // namespace sato::embedding
