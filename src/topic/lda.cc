#include "topic/lda.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/binary_io.h"

namespace sato::topic {

// The options struct is written raw into bundles (Save/Load), so its layout
// is part of the bundle format.
static_assert(sizeof(LdaOptions) == 48, "LdaOptions layout is serialised");

namespace {

using embedding::TokenId;
using embedding::Vocabulary;

// Writes the options in their raw 48-byte layout with the padding bytes
// zeroed, so equal options always save to equal bytes.
void WriteOptions(const LdaOptions& o, std::ostream* out) {
  char raw[sizeof(LdaOptions)] = {};
  auto put = [&raw](size_t offset, const auto& field) {
    std::memcpy(raw + offset, &field, sizeof(field));
  };
  put(offsetof(LdaOptions, num_topics), o.num_topics);
  put(offsetof(LdaOptions, alpha), o.alpha);
  put(offsetof(LdaOptions, beta), o.beta);
  put(offsetof(LdaOptions, train_iterations), o.train_iterations);
  put(offsetof(LdaOptions, infer_iterations), o.infer_iterations);
  put(offsetof(LdaOptions, min_count), o.min_count);
  put(offsetof(LdaOptions, max_doc_tokens), o.max_doc_tokens);
  out->write(raw, sizeof(raw));
}

// Encodes a tokenised document as in-vocabulary token ids, truncated.
std::vector<TokenId> Encode(const Vocabulary& vocab,
                            const std::vector<std::string>& doc,
                            size_t max_tokens) {
  std::vector<TokenId> ids;
  ids.reserve(std::min(doc.size(), max_tokens));
  for (const auto& token : doc) {
    if (ids.size() >= max_tokens) break;
    auto id = vocab.Id(token);
    if (id.has_value()) ids.push_back(*id);
  }
  return ids;
}

// gensim's gamma_threshold: the E-step stops once the mean absolute change
// of gamma falls below it.
constexpr double kGammaThreshold = 1e-3;
// gensim's epsilon: keeps the per-word normaliser away from zero.
constexpr double kNormEpsilon = 1e-100;

// Digamma for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x lifts x to at
// least 6, then the asymptotic series (absolute error below 1e-12 there).
double Digamma(double x) {
  double result = 0.0;
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double f = 1.0 / (x * x);
  return result + std::log(x) - 0.5 / x -
         f * (1.0 / 12 -
              f * (1.0 / 120 - f * (1.0 / 252 - f * (1.0 / 240 - f / 132))));
}

// e[t] = exp(psi(gamma[t])): exp(E[log theta_t]) up to the common factor
// exp(-psi(sum gamma)), which cancels in the gamma update.
void ExpDigamma(const double* gamma, size_t k, double* e) {
  for (size_t t = 0; t < k; ++t) e[t] = std::exp(Digamma(gamma[t]));
}

// Dot product with a fixed 8-lane split: lane l sums the products at
// indices = l (mod 8) in order, then the lanes combine in a fixed tree.
// Independent lanes let the compiler vectorise without reassociating, so
// the bits do not depend on how it vectorises.
double Dot8(const double* a, const double* b, size_t n) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t tail = n % 8;
  const size_t body = n - tail;
  for (size_t i = 0; i < body; i += 8) {
    for (size_t l = 0; l < 8; ++l) lane[l] += a[i + l] * b[i + l];
  }
  for (size_t l = 0; l < tail; ++l) lane[l] += a[body + l] * b[body + l];
  return ((lane[0] + lane[4]) + (lane[1] + lane[5])) +
         ((lane[2] + lane[6]) + (lane[3] + lane[7]));
}

// gamma[t] = alpha + e[t] * acc[t]; returns the mean absolute change.
double UpdateGamma(double alpha, const double* e, const double* acc, size_t k,
                   double* gamma) {
  double change = 0.0;
  for (size_t t = 0; t < k; ++t) {
    const double next = alpha + e[t] * acc[t];
    change += std::abs(next - gamma[t]);
    gamma[t] = next;
  }
  return change / static_cast<double>(k);
}

}  // namespace

LdaModel LdaModel::Train(const std::vector<std::vector<std::string>>& documents,
                         const LdaOptions& options, util::Rng* rng) {
  LdaModel model;
  model.options_ = options;

  Vocabulary& vocab = model.vocab_;
  for (const auto& doc : documents) vocab.CountAll(doc);
  vocab.Finalize(options.min_count);
  const size_t v = vocab.size();
  const int k = options.num_topics;
  if (v == 0) throw std::invalid_argument("LdaModel::Train: empty vocabulary");
  if (!(options.alpha > 0.0) || !std::isfinite(options.alpha)) {
    throw std::invalid_argument("LdaModel::Train: alpha must be positive");
  }
  if (options.infer_iterations < 1 ||
      options.infer_iterations > kMaxInferIterations) {
    throw std::invalid_argument(
        "LdaModel::Train: infer_iterations out of range");
  }
  if (options.max_doc_tokens == 0) {
    throw std::invalid_argument(
        "LdaModel::Train: max_doc_tokens must be positive");
  }

  std::vector<std::vector<TokenId>> docs;
  docs.reserve(documents.size());
  for (const auto& doc : documents) {
    docs.push_back(Encode(vocab, doc, options.max_doc_tokens));
  }

  // Collapsed Gibbs state.
  std::vector<std::vector<int>> z(docs.size());          // token topics
  std::vector<std::vector<int>> n_dk(docs.size());       // doc-topic counts
  std::vector<int> n_kw(static_cast<size_t>(k) * v, 0);  // topic-word counts
  std::vector<int> n_k(static_cast<size_t>(k), 0);       // topic totals

  for (size_t d = 0; d < docs.size(); ++d) {
    z[d].resize(docs[d].size());
    n_dk[d].assign(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < docs[d].size(); ++i) {
      int topic = static_cast<int>(rng->UniformInt(0, k - 1));
      z[d][i] = topic;
      ++n_dk[d][static_cast<size_t>(topic)];
      ++n_kw[static_cast<size_t>(topic) * v + static_cast<size_t>(docs[d][i])];
      ++n_k[static_cast<size_t>(topic)];
    }
  }

  const double alpha = options.alpha;
  const double beta = options.beta;
  const double v_beta = static_cast<double>(v) * beta;
  std::vector<double> p(static_cast<size_t>(k));

  for (int iter = 0; iter < options.train_iterations; ++iter) {
    for (size_t d = 0; d < docs.size(); ++d) {
      for (size_t i = 0; i < docs[d].size(); ++i) {
        TokenId w = docs[d][i];
        int old_topic = z[d][i];
        --n_dk[d][static_cast<size_t>(old_topic)];
        --n_kw[static_cast<size_t>(old_topic) * v + static_cast<size_t>(w)];
        --n_k[static_cast<size_t>(old_topic)];

        for (int t = 0; t < k; ++t) {
          p[static_cast<size_t>(t)] =
              (static_cast<double>(n_dk[d][static_cast<size_t>(t)]) + alpha) *
              (static_cast<double>(
                   n_kw[static_cast<size_t>(t) * v + static_cast<size_t>(w)]) +
               beta) /
              (static_cast<double>(n_k[static_cast<size_t>(t)]) + v_beta);
        }
        int new_topic = static_cast<int>(rng->Categorical(p));
        z[d][i] = new_topic;
        ++n_dk[d][static_cast<size_t>(new_topic)];
        ++n_kw[static_cast<size_t>(new_topic) * v + static_cast<size_t>(w)];
        ++n_k[static_cast<size_t>(new_topic)];
      }
    }
  }

  // Estimate phi from the final counts (flat row-major [K x V]).
  model.phi_.assign(static_cast<size_t>(k) * v, 0.0);
  for (int t = 0; t < k; ++t) {
    double denom = static_cast<double>(n_k[static_cast<size_t>(t)]) + v_beta;
    double* row = model.phi_.data() + static_cast<size_t>(t) * v;
    for (size_t w = 0; w < v; ++w) {
      row[w] =
          (static_cast<double>(n_kw[static_cast<size_t>(t) * v + w]) + beta) /
          denom;
    }
  }
  model.BuildPhiTranspose();
  return model;
}

void LdaModel::BuildPhiTranspose() {
  const size_t k = static_cast<size_t>(options_.num_topics);
  const size_t v = vocab_.size();
  phi_t_.assign(v * k, 0.0);
  for (size_t t = 0; t < k; ++t) {
    const double* row = phi_.data() + t * v;
    for (size_t w = 0; w < v; ++w) phi_t_[w * k + t] = row[w];
  }
}

std::vector<double> LdaModel::InferTopics(
    const std::vector<std::string>& document) const {
  // One scratch per thread, reused across calls and models: a fresh one
  // would zero-fill a vocabulary-sized id_counts array for every document.
  thread_local LdaScratch scratch;
  scratch.ids = Encode(vocab_, document, options_.max_doc_tokens);
  std::vector<double> theta;
  InferTopicsInto(&scratch, &theta);
  return theta;
}

void LdaModel::InferTopicsInto(LdaScratch* scratch,
                               std::vector<double>* theta) const {
  const size_t k = static_cast<size_t>(options_.num_topics);
  theta->assign(k, 1.0 / static_cast<double>(k));
  std::vector<TokenId>& ids = scratch->ids;
  if (ids.empty()) return;
  const double n_tokens = static_cast<double>(ids.size());

  // Collapse the document into sorted unique ids with counts, in place:
  // count each id in the dense per-vocabulary array, keep its first
  // occurrence, sort only the unique ids, then read the counts back and
  // reset their slots to zero for the next call. Both buffers are sized
  // before counting, so nothing between counting and the reset allocates
  // and a throw cannot leave a slot non-zero.
  std::vector<uint32_t>& id_counts = scratch->id_counts;
  if (id_counts.size() < vocab_.size()) id_counts.resize(vocab_.size(), 0);
  std::vector<double>& counts = scratch->counts;
  counts.resize(ids.size());
  size_t unique = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const TokenId id = ids[i];
    if (id_counts[static_cast<size_t>(id)]++ == 0) ids[unique++] = id;
  }
  ids.resize(unique);
  std::sort(ids.begin(), ids.end());
  for (size_t u = 0; u < unique; ++u) {
    uint32_t& slot = id_counts[static_cast<size_t>(ids[u])];
    counts[u] = static_cast<double>(slot);
    slot = 0;
  }
  counts.resize(unique);

  // E-step against the frozen phi, one contiguous phi column per unique
  // word: gamma = alpha + e * sum_w count_w * phi_w / (e . phi_w). Each
  // iteration first scales every word, then accumulates in id order.
  const double alpha = options_.alpha;
  scratch->gamma.assign(k, alpha + n_tokens / static_cast<double>(k));
  scratch->e.resize(k);
  scratch->acc.resize(k);
  scratch->scale.resize(unique);
  double* gamma = scratch->gamma.data();
  double* e = scratch->e.data();
  double* acc = scratch->acc.data();
  double* scale = scratch->scale.data();
  for (int iter = 0; iter < options_.infer_iterations; ++iter) {
    ExpDigamma(gamma, k, e);
    for (size_t u = 0; u < unique; ++u) {
      scale[u] = counts[u] / (Dot8(e, PhiCol(ids[u]), k) + kNormEpsilon);
    }
    std::fill(acc, acc + k, 0.0);
    for (size_t u = 0; u < unique; ++u) {
      const double* col = PhiCol(ids[u]);
      const double s = scale[u];
      for (size_t t = 0; t < k; ++t) acc[t] += s * col[t];
    }
    if (UpdateGamma(alpha, e, acc, k, gamma) < kGammaThreshold) break;
  }
  double total = 0.0;
  for (size_t t = 0; t < k; ++t) total += gamma[t];
  for (size_t t = 0; t < k; ++t) (*theta)[t] = gamma[t] / total;
}

std::vector<double> LdaModel::ReferenceInferTopics(
    const std::vector<std::string>& document) const {
  const size_t k = static_cast<size_t>(options_.num_topics);
  const size_t v = vocab_.size();
  std::vector<double> theta(k, 1.0 / static_cast<double>(k));
  std::vector<TokenId> ids = Encode(vocab_, document, options_.max_doc_tokens);
  if (ids.empty()) return theta;

  const double alpha = options_.alpha;
  std::vector<double> gamma(
      k, alpha + static_cast<double>(ids.size()) / static_cast<double>(k));
  std::vector<double> e(k);
  std::vector<double> acc(k);
  for (int iter = 0; iter < options_.infer_iterations; ++iter) {
    ExpDigamma(gamma.data(), k, e.data());
    std::fill(acc.begin(), acc.end(), 0.0);
    for (TokenId id : ids) {
      const size_t w = static_cast<size_t>(id);
      double norm = 0.0;
      for (size_t t = 0; t < k; ++t) norm += e[t] * phi_[t * v + w];
      norm += kNormEpsilon;
      for (size_t t = 0; t < k; ++t) acc[t] += phi_[t * v + w] / norm;
    }
    if (UpdateGamma(alpha, e.data(), acc.data(), k, gamma.data()) <
        kGammaThreshold) {
      break;
    }
  }
  double total = 0.0;
  for (double g : gamma) total += g;
  for (size_t t = 0; t < k; ++t) theta[t] = gamma[t] / total;
  return theta;
}

std::vector<std::pair<std::string, double>> LdaModel::TopWords(
    int topic, size_t k) const {
  const size_t v = vocab_.size();
  const double* row = PhiRow(topic);
  std::vector<std::pair<std::string, double>> scored;
  scored.reserve(v);
  for (size_t w = 0; w < v; ++w) {
    scored.emplace_back(vocab_.Token(static_cast<TokenId>(w)), row[w]);
  }
  std::partial_sort(scored.begin(), scored.begin() + std::min(k, scored.size()),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  scored.resize(std::min(k, scored.size()));
  return scored;
}

void LdaModel::Save(std::ostream* out) const {
  uint64_t k = static_cast<uint64_t>(options_.num_topics);
  uint64_t v = vocab_.size();
  out->write(reinterpret_cast<const char*>(&k), sizeof(k));
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
  WriteOptions(options_, out);
  for (size_t i = 0; i < v; ++i) {
    const std::string& t = vocab_.Token(static_cast<TokenId>(i));
    uint64_t len = t.size();
    out->write(reinterpret_cast<const char*>(&len), sizeof(len));
    out->write(t.data(), static_cast<std::streamsize>(len));
    int64_t freq = vocab_.Frequency(static_cast<TokenId>(i));
    out->write(reinterpret_cast<const char*>(&freq), sizeof(freq));
  }
  // Flat [K x V] phi: byte-identical to the previous row-by-row format.
  out->write(reinterpret_cast<const char*>(phi_.data()),
             static_cast<std::streamsize>(phi_.size() * sizeof(double)));
}

LdaModel LdaModel::Load(std::istream* in) {
  LdaModel model;
  uint64_t k = 0, v = 0;
  in->read(reinterpret_cast<char*>(&k), sizeof(k));
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  in->read(reinterpret_cast<char*>(&model.options_), sizeof(model.options_));
  if (!*in) throw std::runtime_error("LdaModel::Load: truncated stream");
  // The saved options bound the fold-in's work per table.
  if (model.options_.infer_iterations < 1 ||
      model.options_.infer_iterations > kMaxInferIterations) {
    throw std::runtime_error("LdaModel::Load: infer_iterations out of range");
  }
  if (model.options_.max_doc_tokens == 0) {
    throw std::runtime_error("LdaModel::Load: max_doc_tokens must be positive");
  }
  std::vector<std::string> tokens;
  int64_t total = 0;  // bounds every count sum below INT64_MAX
  for (uint64_t i = 0; i < v; ++i) {
    std::string t = util::ReadLengthPrefixedString(in, "LdaModel::Load");
    int64_t freq = 0;
    in->read(reinterpret_cast<char*>(&freq), sizeof(freq));
    if (!*in) throw std::runtime_error("LdaModel::Load: truncated stream");
    if (freq < 1 || freq > std::numeric_limits<int64_t>::max() - total) {
      throw std::runtime_error("LdaModel::Load: invalid word frequency");
    }
    total += freq;
    model.vocab_.Count(t, freq);
    tokens.push_back(std::move(t));
  }
  // Finalize re-derives the ids from the frequencies; a corrupt frequency
  // or a repeated token would shift them off the columns of phi.
  model.vocab_.Finalize(1);
  if (model.vocab_.size() != v) {
    throw std::runtime_error("LdaModel::Load: vocabulary mismatch");
  }
  for (uint64_t i = 0; i < v; ++i) {
    if (model.vocab_.Token(static_cast<TokenId>(i)) != tokens[i]) {
      throw std::runtime_error("LdaModel::Load: vocabulary mismatch");
    }
  }
  if (static_cast<uint64_t>(model.options_.num_topics) != k) {
    throw std::runtime_error("LdaModel::Load: topic count mismatch");
  }
  // The fold-in's digamma needs gamma > 0, which alpha > 0 guarantees.
  if (!(model.options_.alpha > 0.0) || !std::isfinite(model.options_.alpha)) {
    throw std::runtime_error("LdaModel::Load: alpha must be positive");
  }
  if (v != 0 && k > std::numeric_limits<uint64_t>::max() / v) {
    throw std::runtime_error("LdaModel::Load: phi too large");
  }
  util::ReadArray(in, k * v, &model.phi_, "LdaModel::Load");
  model.BuildPhiTranspose();
  return model;
}

}  // namespace sato::topic
