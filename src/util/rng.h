#ifndef SATO_UTIL_RNG_H_
#define SATO_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace sato::util {

/// Deterministic pseudo-random number generator used by every stochastic
/// component in the library (corpus generation, weight initialisation,
/// dropout, Gibbs training of the LDA, shuffling, ...). Inference draws
/// nothing: the LDA fold-in is a deterministic E-step.
///
/// All call sites take an explicit `Rng&` so experiments are reproducible
/// from a single seed. The engine is std::mt19937_64, which is portable and
/// produces an identical stream on every platform for a given seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Reseeds the generator, restarting the stream.
  void Seed(uint64_t seed) { engine_.seed(seed); }

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * Uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double Normal() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Draw from a zipf-like distribution over {0, ..., n-1} with exponent
  /// `s` (larger `s` = heavier head). Used to produce the long-tailed
  /// semantic-type frequencies of Figure 5.
  size_t Zipf(size_t n, double s);

  /// Samples an index proportionally to the (non-negative) weights.
  /// Weights need not be normalised. Throws if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Returns a uniformly random element index for a container of size `n`.
  size_t Index(size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::Index: empty range");
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Index(i)]);
    }
  }

  /// Returns `k` distinct indices drawn uniformly from {0, ..., n-1}.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Exposes the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace sato::util

#endif  // SATO_UTIL_RNG_H_
