#include "nn/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/cpu.h"

namespace sato::nn::gemm {
namespace {

constexpr size_t MR = kMicroRows;
constexpr size_t NR = kMicroCols;

/// Strided read-only view: element (i, j) is p[i * rs + j * cs]. Both
/// transpose variants reduce to swapping the strides, so the whole blocked
/// path below is written once against views.
struct ConstView {
  const double* p;
  size_t rs, cs;
  double At(size_t i, size_t j) const { return p[i * rs + j * cs]; }
};

// The micro-kernel body is expanded twice -- once per ISA level -- because
// GCC will not inline one function into another with a wider target
// attribute. Accumulators live in a local MR x NR tile the optimiser keeps
// fully in registers (4 x 8 doubles = 8 ymm accumulators under AVX2).
#define SATO_GEMM_MICROKERNEL_BODY                                       \
  double acc[MR * NR] = {};                                              \
  for (size_t p = 0; p < kb; ++p) {                                      \
    const double* bv = bp + p * NR;                                      \
    const double* av = ap + p * MR;                                      \
    for (size_t i = 0; i < MR; ++i) {                                    \
      double a_i = av[i];                                                \
      for (size_t j = 0; j < NR; ++j) acc[i * NR + j] += a_i * bv[j];    \
    }                                                                    \
  }                                                                      \
  std::memcpy(out, acc, sizeof(acc));

/// Portable micro-kernel: whatever vector width the baseline target has.
void MicroKernelGeneric(size_t kb, const double* ap, const double* bp,
                        double* out) {
  SATO_GEMM_MICROKERNEL_BODY
}

#if defined(__GNUC__) && defined(__x86_64__)
#define SATO_GEMM_HAS_AVX2_KERNEL 1
/// Same body compiled for AVX2+FMA; selected by runtime dispatch so the
/// binary still runs on baseline x86-64.
__attribute__((target("avx2,fma"))) void MicroKernelAvx2Fma(
    size_t kb, const double* ap, const double* bp, double* out) {
  SATO_GEMM_MICROKERNEL_BODY
}
#endif

#undef SATO_GEMM_MICROKERNEL_BODY

using MicroKernelFn = void (*)(size_t, const double*, const double*, double*);

bool HaveAvx2Fma() {
#if defined(SATO_GEMM_HAS_AVX2_KERNEL)
  static const bool have =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return have;
#else
  return false;
#endif
}

MicroKernelFn PickMicroKernel(const Config& config) {
#if defined(SATO_GEMM_HAS_AVX2_KERNEL)
  if (config.enable_cpu_dispatch && HaveAvx2Fma()) return MicroKernelAvx2Fma;
#else
  (void)config;
#endif
  return MicroKernelGeneric;
}

/// Packs the [i0, i0+mb) x [k0, k0+kb) block of A into MR-row panels laid
/// out k-major, zero-padding the last partial panel so the micro-kernel
/// never branches on row count.
void PackA(const ConstView& a, size_t i0, size_t k0, size_t mb, size_t kb,
           double* out) {
  for (size_t ir = 0; ir < mb; ir += MR) {
    size_t mr = std::min(MR, mb - ir);
    for (size_t p = 0; p < kb; ++p) {
      for (size_t i = 0; i < mr; ++i) *out++ = a.At(i0 + ir + i, k0 + p);
      for (size_t i = mr; i < MR; ++i) *out++ = 0.0;
    }
  }
}

/// Packs the [k0, k0+kb) x [j0, j0+nb) block of B into NR-column panels
/// laid out k-major, zero-padded like PackA. Padded lanes contribute only
/// zeros to the accumulators and are never written back.
void PackB(const ConstView& b, size_t k0, size_t j0, size_t kb, size_t nb,
           double* out) {
  for (size_t jr = 0; jr < nb; jr += NR) {
    size_t nr = std::min(NR, nb - jr);
    for (size_t p = 0; p < kb; ++p) {
      for (size_t j = 0; j < nr; ++j) *out++ = b.At(k0 + p, j0 + jr + j);
      for (size_t j = nr; j < NR; ++j) *out++ = 0.0;
    }
  }
}

/// Computes C [m,n] = op(A) * op(B) with the full blocking scheme. Each
/// element's k-accumulation order depends only on kc.
void GemmBlocked(const ConstView& a, const ConstView& b, double* c, size_t m,
                 size_t k, size_t n, const Config& config,
                 MicroKernelFn micro) {
  // Packing scratch. thread_local keeps the capacity across calls, so the
  // steady-state serving path allocates nothing here (same discipline as
  // nn::Workspace); distinct threads pack into distinct buffers.
  static thread_local std::vector<double> a_panel, b_panel;

  const size_t mc = std::max<size_t>(MR, config.mc);
  const size_t kc = std::max<size_t>(1, config.kc);
  const size_t nc = std::max<size_t>(NR, config.nc);

  for (size_t jc = 0; jc < n; jc += nc) {
    size_t nb = std::min(nc, n - jc);
    size_t nb_pad = (nb + NR - 1) / NR * NR;
    for (size_t pc = 0; pc < k; pc += kc) {
      size_t kb = std::min(kc, k - pc);
      b_panel.resize(nb_pad * kb);
      PackB(b, pc, jc, kb, nb, b_panel.data());
      // First k-panel stores into C, later panels accumulate: C is fully
      // overwritten without a separate zeroing pass.
      bool first = (pc == 0);
      for (size_t ic = 0; ic < m; ic += mc) {
        size_t mb = std::min(mc, m - ic);
        size_t mb_pad = (mb + MR - 1) / MR * MR;
        a_panel.resize(mb_pad * kb);
        PackA(a, ic, pc, mb, kb, a_panel.data());
        for (size_t jr = 0; jr < nb; jr += NR) {
          size_t nr = std::min(NR, nb - jr);
          const double* bp = b_panel.data() + jr / NR * (NR * kb);
          for (size_t ir = 0; ir < mb; ir += MR) {
            size_t mr = std::min(MR, mb - ir);
            const double* ap = a_panel.data() + ir / MR * (MR * kb);
            double tile[MR * NR];
            micro(kb, ap, bp, tile);
            double* cblk = c + (ic + ir) * n + jc + jr;
            if (first) {
              for (size_t i = 0; i < mr; ++i)
                for (size_t j = 0; j < nr; ++j)
                  cblk[i * n + j] = tile[i * NR + j];
            } else {
              for (size_t i = 0; i < mr; ++i)
                for (size_t j = 0; j < nr; ++j)
                  cblk[i * n + j] += tile[i * NR + j];
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// int8 quantized path
// ---------------------------------------------------------------------------

/// Largest k the int8 path accepts: each int32 accumulator sums k products
/// bounded by 127^2 * 2 per madd pair, so k * 127^2 < 2^31 keeps the
/// accumulation exact. Beyond this (never hit by the model's shapes) the
/// entry points silently run the fp64 blocked path instead.
constexpr size_t kMaxInt8K = kInt8MaxSharedDim;

/// Symmetric absmax quantization of one value. `inv_scale` is
/// 127 / absmax (0 for an all-zero row/column); the clamp absorbs the one
/// ulp by which `x * inv_scale` can exceed 127 at the extremes.
int16_t QuantizeValue(double x, double inv_scale) {
  long q = std::lrint(x * inv_scale);
  if (q > 127) q = 127;
  if (q < -127) q = -127;
  return static_cast<int16_t>(q);
}

/// Packs ALL of op(A) [m,k] quantized per row into MR-row panels laid out
/// in k-PAIRS: element (panel p, row i, half h) at (p * MR + i) * 2 + h
/// holds q(A(i, 2p + h)), zero-padded in both directions. The pair layout
/// is what _mm256_madd_epi16 consumes as one 32-bit broadcast per row.
void PackAInt8(const ConstView& a, size_t m, size_t k,
               const double* inv_row_scale, int16_t* out) {
  const size_t kb2 = (k + 1) / 2;
  for (size_t ir = 0; ir < m; ir += MR) {
    size_t mr = std::min(MR, m - ir);
    for (size_t p = 0; p < kb2; ++p) {
      for (size_t i = 0; i < MR; ++i) {
        for (size_t h = 0; h < 2; ++h) {
          size_t kk = 2 * p + h;
          *out++ = (i < mr && kk < k)
                       ? QuantizeValue(a.At(ir + i, kk), inv_row_scale[ir + i])
                       : int16_t{0};
        }
      }
    }
  }
}

/// Packs ALL of op(B) [k,n] quantized per column into NR-column panels in
/// the matching k-pair layout: (panel p, column j, half h) at
/// (p * NR + j) * 2 + h holds q(B(2p + h, j)).
void PackBInt8(const ConstView& b, size_t k, size_t n,
               const double* inv_col_scale, int16_t* out) {
  const size_t kb2 = (k + 1) / 2;
  for (size_t jr = 0; jr < n; jr += NR) {
    size_t nr = std::min(NR, n - jr);
    for (size_t p = 0; p < kb2; ++p) {
      for (size_t j = 0; j < NR; ++j) {
        for (size_t h = 0; h < 2; ++h) {
          size_t kk = 2 * p + h;
          *out++ = (j < nr && kk < k)
                       ? QuantizeValue(b.At(kk, jr + j), inv_col_scale[jr + j])
                       : int16_t{0};
        }
      }
    }
  }
}

/// Portable int8 micro-kernel: exact int32 accumulation over the packed
/// k-pair panels. Integer addition is associative, so this is bitwise
/// identical to the AVX2 kernel below for any input.
void Int8MicroKernelGeneric(size_t kb2, const int16_t* ap, const int16_t* bp,
                            int32_t* out) {
  int32_t acc[MR * NR] = {};
  for (size_t p = 0; p < kb2; ++p) {
    const int16_t* av = ap + p * MR * 2;
    const int16_t* bv = bp + p * NR * 2;
    for (size_t i = 0; i < MR; ++i) {
      int32_t a0 = av[i * 2], a1 = av[i * 2 + 1];
      for (size_t j = 0; j < NR; ++j) {
        acc[i * NR + j] += a0 * bv[j * 2] + a1 * bv[j * 2 + 1];
      }
    }
  }
  std::memcpy(out, acc, sizeof(int32_t) * MR * NR);
}

#if defined(SATO_GEMM_HAS_AVX2_KERNEL)
/// AVX2 int8 micro-kernel: one madd per (row, k-pair) -- each 32-bit lane
/// of `bv` holds a column's (b[2p,j], b[2p+1,j]) pair, the row's pair is
/// broadcast, and _mm256_madd_epi16 produces the exact pairwise int32 dot
/// products (int16 inputs are sign-extended; no maddubs saturation).
__attribute__((target("avx2"))) void Int8MicroKernelAvx2(size_t kb2,
                                                         const int16_t* ap,
                                                         const int16_t* bp,
                                                         int32_t* out) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  static_assert(MR == 4 && NR == 8, "int8 kernel assumes a 4x8 micro-tile");
  for (size_t p = 0; p < kb2; ++p) {
    __m256i bv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * NR * 2));
    const int16_t* av = ap + p * MR * 2;
    int32_t pair[MR];
    std::memcpy(pair, av, sizeof(pair));
    acc0 = _mm256_add_epi32(acc0,
                            _mm256_madd_epi16(_mm256_set1_epi32(pair[0]), bv));
    acc1 = _mm256_add_epi32(acc1,
                            _mm256_madd_epi16(_mm256_set1_epi32(pair[1]), bv));
    acc2 = _mm256_add_epi32(acc2,
                            _mm256_madd_epi16(_mm256_set1_epi32(pair[2]), bv));
    acc3 = _mm256_add_epi32(acc3,
                            _mm256_madd_epi16(_mm256_set1_epi32(pair[3]), bv));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0 * NR), acc0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 1 * NR), acc1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * NR), acc2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 3 * NR), acc3);
}
#endif

using Int8MicroKernelFn = void (*)(size_t, const int16_t*, const int16_t*,
                                   int32_t*);

Int8MicroKernelFn PickInt8MicroKernel(const Config& config) {
#if defined(SATO_GEMM_HAS_AVX2_KERNEL)
  if (config.enable_cpu_dispatch && util::CpuHasAvx2()) {
    return Int8MicroKernelAvx2;
  }
#else
  (void)config;
#endif
  return Int8MicroKernelGeneric;
}

/// B-side quantize + pack, whole (the int16 panels are a quarter of the
/// fp64 panel bandwidth, so no mc/kc blocking is needed at the model's
/// sizes). The k-accumulation downstream is a single exact int32 sum, so
/// the packed contents -- and every product computed from them -- are a
/// pure function of the input values, independent of kernel flavour and
/// thread.
void QuantizePackBInt8(const ConstView& b, size_t k, size_t n,
                       std::vector<int16_t>* panels,
                       std::vector<double>* scale_b) {
  scale_b->resize(n);
  std::vector<double> inv_b(n);
  for (size_t j = 0; j < n; ++j) {
    double mx = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(b.At(kk, j)));
    }
    (*scale_b)[j] = mx / 127.0;
    inv_b[j] = mx > 0.0 ? 127.0 / mx : 0.0;
  }
  const size_t kb2 = (k + 1) / 2;
  const size_t n_pad = (n + NR - 1) / NR * NR;
  panels->resize(n_pad * kb2 * 2);
  PackBInt8(b, k, n, inv_b.data(), panels->data());
}

/// A-side quantize + pack, micro-tile sweep and dequantization against an
/// already-packed B. Shared by the per-call path (GemmViewInt8) and the
/// prepacked-weights path (GemmPrepackedInt8), so the two are bitwise
/// identical by construction.
void Int8ComputeWithPackedB(const ConstView& a, size_t m, size_t k, size_t n,
                            const int16_t* qb_data, const double* sb,
                            Matrix* c, const Config& config) {
  c->ResizeUninit(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    c->Fill(0.0);
    return;
  }
  // Quantization + packing scratch; thread_local like the fp64 panels.
  static thread_local std::vector<int16_t> qa;
  static thread_local std::vector<double> scale_a, inv_a;

  scale_a.resize(m);
  inv_a.resize(m);
  for (size_t i = 0; i < m; ++i) {
    double mx = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(a.At(i, kk)));
    }
    scale_a[i] = mx / 127.0;
    inv_a[i] = mx > 0.0 ? 127.0 / mx : 0.0;
  }

  const size_t kb2 = (k + 1) / 2;
  const size_t m_pad = (m + MR - 1) / MR * MR;
  qa.resize(m_pad * kb2 * 2);
  PackAInt8(a, m, k, inv_a.data(), qa.data());

  Int8MicroKernelFn micro = PickInt8MicroKernel(config);
  double* cdata = c->data();
  const int16_t* qa_data = qa.data();
  const double* sa = scale_a.data();

  int32_t tile[MR * NR];
  for (size_t jr = 0; jr < n; jr += NR) {
    size_t nr = std::min(NR, n - jr);
    const int16_t* bp = qb_data + (jr / NR) * (kb2 * NR * 2);
    for (size_t ir = 0; ir < m; ir += MR) {
      size_t mr = std::min(MR, m - ir);
      const int16_t* ap = qa_data + (ir / MR) * (kb2 * MR * 2);
      micro(kb2, ap, bp, tile);
      for (size_t i = 0; i < mr; ++i) {
        for (size_t j = 0; j < nr; ++j) {
          cdata[(ir + i) * n + jr + j] =
              static_cast<double>(tile[i * NR + j]) *
              (sa[ir + i] * sb[jr + j]);
        }
      }
    }
  }
}

/// Per-call int8 driver: quantize + pack B (thread_local scratch), then
/// run the shared compute. Serving layers with frozen weights should
/// prefer PackInt8B + GemmPrepackedInt8, which hoists the O(k * n) B-side
/// work out of the call.
void GemmViewInt8(const ConstView& a, const ConstView& b, size_t m, size_t k,
                  size_t n, Matrix* c, const Config& config) {
  static thread_local std::vector<int16_t> qb;
  static thread_local std::vector<double> scale_b;
  QuantizePackBInt8(b, k, n, &qb, &scale_b);
  Int8ComputeWithPackedB(a, m, k, n, qb.data(), scale_b.data(), c, config);
}

/// Shared driver for all three entry points once shapes are resolved into
/// views of op(A) [m,k] and op(B) [k,n].
void GemmView(const ConstView& a, const ConstView& b, size_t m, size_t k,
              size_t n, Matrix* c, const Config& config) {
  if (config.use_int8 && k <= kMaxInt8K) {
    GemmViewInt8(a, b, m, k, n, c, config);
    return;
  }
  c->ResizeUninit(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    c->Fill(0.0);  // empty sum: the reference kernels also yield zeros
    return;
  }
  GemmBlocked(a, b, c->data(), m, k, n, config, PickMicroKernel(config));
}

}  // namespace

namespace {
Config& MutableDefaultConfig() {
  static Config* config = [] {
    Config* c = new Config();  // leaked: outlives static dtors
    c->enable_cpu_dispatch = !util::CpuDispatchDisabledByEnv();
    return c;
  }();
  return *config;
}
}  // namespace

const Config& DefaultConfig() { return MutableDefaultConfig(); }

void SetDefaultConfig(const Config& config) {
  MutableDefaultConfig() = config;
}

std::string KernelName(const Config& config) {
  if (config.use_reference) return "reference";
  if (config.use_int8) {
    return config.enable_cpu_dispatch && util::CpuHasAvx2() ? "int8-avx2"
                                                            : "int8-generic";
  }
  if (config.enable_cpu_dispatch && HaveAvx2Fma()) return "blocked-avx2fma";
  return "blocked-generic";
}

PackedInt8B PackInt8B(const Matrix& b) {
  if (b.rows() > kInt8MaxSharedDim) {
    throw std::invalid_argument(
        "gemm::PackInt8B: shared dimension exceeds the int8 accumulator "
        "bound");
  }
  PackedInt8B packed;
  packed.k = b.rows();
  packed.n = b.cols();
  packed.source = b.data();
  ConstView bv{b.data(), b.cols(), 1};
  QuantizePackBInt8(bv, packed.k, packed.n, &packed.panels,
                    &packed.col_scale);
  return packed;
}

void GemmPrepackedInt8(const Matrix& a, const PackedInt8B& packed, Matrix* c,
                       const Config& config) {
  if (a.cols() != packed.k) {
    throw std::invalid_argument("gemm::GemmPrepackedInt8: shape mismatch");
  }
  ConstView av{a.data(), a.cols(), 1};
  Int8ComputeWithPackedB(av, a.rows(), packed.k, packed.n,
                         packed.panels.data(), packed.col_scale.data(), c,
                         config);
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, const Config& config) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("gemm::Gemm: shape mismatch");
  }
  if (config.use_reference) {
    ReferenceGemm(a, b, c);
    return;
  }
  ConstView av{a.data(), a.cols(), 1};
  ConstView bv{b.data(), b.cols(), 1};
  GemmView(av, bv, a.rows(), a.cols(), b.cols(), c, config);
}

void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c,
                    const Config& config) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("gemm::GemmTransposeA: shape mismatch");
  }
  if (config.use_reference) {
    ReferenceGemmTransposeA(a, b, c);
    return;
  }
  // op(A) = A^T: element (i, k) of the view is A(k, i).
  ConstView av{a.data(), 1, a.cols()};
  ConstView bv{b.data(), b.cols(), 1};
  GemmView(av, bv, a.cols(), a.rows(), b.cols(), c, config);
}

void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c,
                    const Config& config) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("gemm::GemmTransposeB: shape mismatch");
  }
  if (config.use_reference) {
    ReferenceGemmTransposeB(a, b, c);
    return;
  }
  // op(B) = B^T: element (k, j) of the view is B(j, k).
  ConstView av{a.data(), a.cols(), 1};
  ConstView bv{b.data(), 1, b.cols()};
  GemmView(av, bv, a.rows(), a.cols(), b.rows(), c, config);
}

void ReferenceGemm(const Matrix& a, const Matrix& b, Matrix* c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("gemm::ReferenceGemm: shape mismatch");
  }
  c->Resize(a.rows(), b.cols());
  // i-k-j loop order: streams over contiguous rows of b and c.
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.Row(i);
    double* crow = c->Row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.Row(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

void ReferenceGemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("gemm::ReferenceGemmTransposeA: shape mismatch");
  }
  c->Resize(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.Row(k);
    const double* brow = b.Row(k);
    for (size_t i = 0; i < a.cols(); ++i) {
      double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c->Row(i);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
}

void ReferenceGemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("gemm::ReferenceGemmTransposeB: shape mismatch");
  }
  c->Resize(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.Row(i);
    double* crow = c->Row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.Row(j);
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
      crow[j] = sum;
    }
  }
}

}  // namespace sato::nn::gemm
