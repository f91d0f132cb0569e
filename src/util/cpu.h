#ifndef SATO_UTIL_CPU_H_
#define SATO_UTIL_CPU_H_

namespace sato::util {

/// Host-CPU feature probes behind the runtime kernel dispatch in
/// nn/gemm.cc, the Viterbi step (crf/linear_chain_crf.cc) and the SIMD
/// featurization kernels (features/, embedding/token_cache.cc). Each
/// probe is evaluated once and cached; on non-x86-64 builds they are
/// compile-time false, so every dispatch site falls back to its portable
/// scalar kernel.

/// True when the host supports AVX2.
bool CpuHasAvx2();

/// True when the host supports both AVX2 and FMA (the GEMM fp64
/// micro-kernel wants both).
bool CpuHasAvx2Fma();

/// True when the environment variable SATO_DISABLE_CPU_DISPATCH is set
/// to a non-empty value other than "0" at first use. Both
/// features::DefaultConfig() and the immutable gemm::DefaultConfig() are
/// built with enable_cpu_dispatch = false when it is, pinning every kernel
/// to its portable scalar baseline -- CI runs the parity suites a second
/// time under this hook so the scalar kernels stay continuously covered.
bool CpuDispatchDisabledByEnv();

}  // namespace sato::util

#endif  // SATO_UTIL_CPU_H_
