#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

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
// fully in registers (4 x 8 doubles = 8 ymm accumulators under AVX2). Row p
// of the B panel starts at bp + p * ldb: ldb is NR for a packed panel and
// B's row stride when the panel is read in place.
#define SATO_GEMM_MICROKERNEL_BODY                                       \
  double acc[MR * NR] = {};                                              \
  for (size_t p = 0; p < kb; ++p) {                                      \
    const double* bv = bp + p * ldb;                                     \
    const double* av = ap + p * MR;                                      \
    for (size_t i = 0; i < MR; ++i) {                                    \
      double a_i = av[i];                                                \
      for (size_t j = 0; j < NR; ++j) acc[i * NR + j] += a_i * bv[j];    \
    }                                                                    \
  }                                                                      \
  std::memcpy(out, acc, sizeof(acc));

/// Portable micro-kernel: whatever vector width the baseline target has.
void MicroKernelGeneric(size_t kb, const double* ap, const double* bp,
                        size_t ldb, double* out) {
  SATO_GEMM_MICROKERNEL_BODY
}

#if defined(__GNUC__) && defined(__x86_64__)
#define SATO_GEMM_HAS_AVX2_KERNEL 1
/// Same body compiled for AVX2+FMA; selected by runtime dispatch so the
/// binary still runs on baseline x86-64.
__attribute__((target("avx2,fma"))) void MicroKernelAvx2Fma(
    size_t kb, const double* ap, const double* bp, size_t ldb, double* out) {
  SATO_GEMM_MICROKERNEL_BODY
}
#endif

#undef SATO_GEMM_MICROKERNEL_BODY

using MicroKernelFn = void (*)(size_t, const double*, const double*, size_t,
                               double*);

MicroKernelFn PickMicroKernel(const Config& config) {
#if defined(SATO_GEMM_HAS_AVX2_KERNEL)
  if (config.enable_cpu_dispatch && util::CpuHasAvx2Fma()) {
    return MicroKernelAvx2Fma;
  }
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
///
/// When op(B) has unit column stride (Gemm, GemmTransposeA) and C is one
/// row strip (m <= mc), every full NR-column panel is read in place from B
/// and only the partial last panel is packed (zero-padded, at most NR x kc
/// doubles). A table has a handful of columns, so a serving call would use
/// each packed B element about once: packing the whole weight matrix per
/// call cost more than the multiply. Several strips reuse each panel
/// enough that the contiguous packed copy wins again (about 8% at 256^3),
/// so they, like a strided op(B) (GemmTransposeB), pack B in full. The
/// micro-kernel sees the same values in the same order either way, so C is
/// bitwise the same.
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
  const bool b_in_place = (b.cs == 1 && m <= mc);

  for (size_t jc = 0; jc < n; jc += nc) {
    size_t nb = std::min(nc, n - jc);
    // Columns [0, nb_direct) of the slab are read from B, the rest packed.
    size_t nb_direct = b_in_place ? nb / NR * NR : 0;
    size_t nb_packed_pad = (nb - nb_direct + NR - 1) / NR * NR;
    for (size_t pc = 0; pc < k; pc += kc) {
      size_t kb = std::min(kc, k - pc);
      b_panel.resize(nb_packed_pad * kb);
      PackB(b, pc, jc + nb_direct, kb, nb - nb_direct, b_panel.data());
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
          const bool direct = jr < nb_direct;
          const double* bp =
              direct ? b.p + pc * b.rs + jc + jr
                     : b_panel.data() + (jr - nb_direct) / NR * (NR * kb);
          const size_t ldb = direct ? b.rs : NR;
          for (size_t ir = 0; ir < mb; ir += MR) {
            size_t mr = std::min(MR, mb - ir);
            const double* ap = a_panel.data() + ir / MR * (MR * kb);
            double tile[MR * NR];
            micro(kb, ap, bp, ldb, tile);
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

/// Shared driver for all three entry points once shapes are resolved into
/// views of op(A) [m,k] and op(B) [k,n].
void GemmView(const ConstView& a, const ConstView& b, size_t m, size_t k,
              size_t n, Matrix* c, const Config& config) {
  c->ResizeUninit(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    c->Fill(0.0);  // empty sum: the reference kernels also yield zeros
    return;
  }
  GemmBlocked(a, b, c->data(), m, k, n, config, PickMicroKernel(config));
}

}  // namespace

const Config& DefaultConfig() {
  static const Config config = [] {
    Config c;
    c.enable_cpu_dispatch = !util::CpuDispatchDisabledByEnv();
    return c;
  }();
  return config;
}

std::string KernelName(const Config& config) {
  if (config.enable_cpu_dispatch && util::CpuHasAvx2Fma()) {
    return "blocked-avx2fma";
  }
  return "blocked-generic";
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, const Config& config) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("gemm::Gemm: shape mismatch");
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
