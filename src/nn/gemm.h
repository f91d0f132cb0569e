#ifndef SATO_NN_GEMM_H_
#define SATO_NN_GEMM_H_

#include <cstddef>
#include <string>

#include "nn/matrix.h"

namespace sato::nn::gemm {

/// Cache-blocked, register-tiled fp64 GEMM -- the one numeric path behind
/// every MatMul* entry point in matrix.h, and therefore behind Linear,
/// multi-head attention, the Transformer encoder and the column-wise model.
///
/// Algorithm (BLIS/Goto-style): C = op(A) * op(B) is computed over three
/// cache-blocking loops (columns of C in `nc` slabs, the shared dimension
/// in `kc` panels, rows of C in `mc` strips). Each (mc x kc) strip of A is
/// packed once into contiguous, zero-padded panel storage, then a
/// register-tiled micro-kernel computes kMicroRows x kMicroCols output
/// tiles with all accumulators in registers. B is packed only when that
/// pays: when op(B) has unit column stride (Gemm, GemmTransposeA) and C is
/// one row strip (M <= mc, e.g. one table's columns), full kMicroCols-wide
/// panels are read in place and only the partial last panel is packed; a
/// strided op(B) (GemmTransposeB) or several row strips pack each (kc x nc)
/// panel of B in full. Either way the micro-kernel sees the same values in
/// the same order, so C is bitwise the same. The transpose variants differ
/// only in how A/B are walked, so all four MatMul routings share one
/// kernel.
///
/// Numerical contract: for one (M, N, K, Config) the result is a pure
/// function of the inputs -- bitwise deterministic on any thread. Each row
/// of C depends only on its row of op(A), op(B) and kc, so a table's
/// columns get the same bits alone as inside a larger batch. Each
/// call runs serially on the calling thread; serving parallelises across
/// tables instead, one GEMM per worker. Different block sizes regroup the
/// k-accumulation and may differ from the reference kernel by normal
/// floating-point rounding (~1e-15 relative; tests allow 1e-12).
///
/// Thread-safety: every function here is re-entrant; scratch packing
/// buffers are thread_local and recycled across calls (no steady-state
/// allocation on the serving hot path, matching the Workspace design).

/// Register micro-tile height (rows of C per micro-kernel call).
inline constexpr size_t kMicroRows = 4;
/// Register micro-tile width (columns of C per micro-kernel call).
inline constexpr size_t kMicroCols = 8;

/// Kernel tuning knobs. The defaults were measured on the serving
/// container (see docs/BENCHMARKS.md); correctness never depends on them.
/// Serving always runs with DefaultConfig(); tests and benches pass
/// explicit configs to the entry points below.
struct Config {
  size_t mc = 64;   ///< rows of A per packed strip (L1-resident with kc)
  size_t kc = 256;  ///< shared-dim depth per packed panel
  size_t nc = 512;  ///< columns of B per packed panel (L2-resident)

  /// Allow the runtime CPU dispatch to select a wider-vector micro-kernel
  /// (AVX2+FMA on x86-64) when the hardware supports one. Results then
  /// depend on the host CPU (FMA changes rounding); disable to pin the
  /// portable generic micro-kernel when bitwise cross-machine
  /// reproducibility matters more than speed.
  bool enable_cpu_dispatch = true;
};

/// The configuration used by the MatMul* wrappers in matrix.h: the field
/// defaults above, except that enable_cpu_dispatch is false when
/// SATO_DISABLE_CPU_DISPATCH is set (see util::CpuDispatchDisabledByEnv).
/// Built once on first use and immutable afterwards, so every thread sees
/// the same kernel for the life of the process.
const Config& DefaultConfig();

/// Human-readable name of the micro-kernel `config` would run with on this
/// host: "blocked-generic" or "blocked-avx2fma". Surfaced in
/// BENCH_gemm.json and perfbench so perf datapoints are self-describing.
std::string KernelName(const Config& config = DefaultConfig());

// -- blocked entry points ---------------------------------------------------
// All three resize *c and overwrite it completely; `c` must not alias `a`
// or `b`. Shape mismatches throw std::invalid_argument. Degenerate shapes
// are well-defined: M==0 or N==0 yields an empty matrix, K==0 yields
// zeros.

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n].
void Gemm(const Matrix& a, const Matrix& b, Matrix* c,
          const Config& config = DefaultConfig());

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n].
void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c,
                    const Config& config = DefaultConfig());

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n].
void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c,
                    const Config& config = DefaultConfig());

// -- reference kernels ------------------------------------------------------
// The pre-kernel naive loops, preserved verbatim: single-threaded,
// cache-oblivious, with strict left-to-right k-accumulation per element.
// They are the parity baseline for tests/gemm_test.cc and the "naive"
// side of BENCH_gemm.json.

/// Reference C = A * B (i-k-j loop order, streams rows of B and C).
void ReferenceGemm(const Matrix& a, const Matrix& b, Matrix* c);

/// Reference C = A^T * B.
void ReferenceGemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c);

/// Reference C = A * B^T (row-dot-row, no transposed copy).
void ReferenceGemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace sato::nn::gemm

#endif  // SATO_NN_GEMM_H_
