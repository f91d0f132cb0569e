#include "embedding/vocabulary.h"

#include <algorithm>
#include <cctype>

#include "util/string_util.h"

namespace sato::embedding {

void Vocabulary::Count(std::string_view token, int64_t n) {
  auto it = counts_.find(token);
  if (it == counts_.end()) {
    counts_.emplace(std::string(token), n);
  } else {
    it->second += n;
  }
}

void Vocabulary::CountAll(const std::vector<std::string>& tokens) {
  for (const auto& t : tokens) Count(t);
}

void Vocabulary::Finalize(int64_t min_count) {
  if (finalized_) return;
  std::vector<std::pair<std::string, int64_t>> entries;
  entries.reserve(counts_.size());
  for (const auto& [token, count] : counts_) {
    if (count >= min_count) entries.emplace_back(token, count);
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  id_to_token_.reserve(entries.size());
  id_frequency_.reserve(entries.size());
  for (const auto& [token, count] : entries) {
    token_to_id_[token] = static_cast<TokenId>(id_to_token_.size());
    id_to_token_.push_back(token);
    id_frequency_.push_back(count);
    total_count_ += count;
  }
  finalized_ = true;
}

std::optional<TokenId> Vocabulary::Id(std::string_view token) const {
  auto it = token_to_id_.find(token);
  if (it == token_to_id_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> TokenizeCell(std::string_view cell) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    // Map pure digit strings to a magnitude bucket.
    bool all_digits = std::all_of(current.begin(), current.end(), [](char c) {
      return std::isdigit(static_cast<unsigned char>(c));
    });
    if (all_digits) {
      size_t digits = std::min<size_t>(current.size(), 12);
      tokens.push_back("<num_" + std::to_string(digits) + ">");
    } else {
      tokens.push_back(util::ToLower(current));
    }
    current.clear();
  };
  for (char c : cell) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current += c;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

}  // namespace sato::embedding
