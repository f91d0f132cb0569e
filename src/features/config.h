#ifndef SATO_FEATURES_CONFIG_H_
#define SATO_FEATURES_CONFIG_H_

#include <string>

namespace sato::features {

/// Process-wide configuration for the featurization kernels, mirroring
/// nn::gemm::Config's dispatch contract: the scalar kernels are the
/// portable baseline every SIMD kernel is parity-tested against, and the
/// escape hatch below pins them at runtime when bitwise cross-machine
/// reproducibility (or a suspected kernel bug) matters more than speed.
///
/// The SIMD featurization kernels are byte-exact with their scalar
/// baselines (they classify bytes and accumulate integers -- there is no
/// floating-point regrouping), so flipping dispatch never changes a
/// feature vector; the hatch exists for debugging and for CI's
/// scalar-coverage pass, not for determinism.
struct Config {
  /// Allow the AVX2 featurization kernels (char-slot classification, the
  /// stat value scan, the tokenizer's byte classification) when the host
  /// CPU supports them. When false -- or on hosts without AVX2 -- the
  /// scalar kernels run. Also forced off process-wide by setting
  /// SATO_DISABLE_CPU_DISPATCH=1 in the environment before first use
  /// (the same hook gemm::DefaultConfig() honours).
  bool enable_cpu_dispatch = true;
};

/// Process-wide configuration used by TokenCache::Build and every
/// extractor ExtractInto kernel. Constructed honouring
/// SATO_DISABLE_CPU_DISPATCH.
const Config& DefaultConfig();

/// Replaces the process-wide default. Not synchronised: call during
/// startup, before concurrent featurization begins.
void SetDefaultConfig(const Config& config);

/// True when the AVX2 featurization kernels will actually run under
/// `config` on this host.
bool SimdEnabled(const Config& config);
bool SimdEnabled();

/// Human-readable name of the featurization kernel `config` selects on
/// this host: "avx2" or "scalar". Surfaced as `featurize_kernel` in
/// perfbench's run details so perf datapoints are self-describing.
std::string KernelName(const Config& config);
std::string KernelName();

}  // namespace sato::features

#endif  // SATO_FEATURES_CONFIG_H_
