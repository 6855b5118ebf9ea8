#include "linalg/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/backend.hpp"
#include "support/scratch.hpp"
#include "support/thread_pool.hpp"

// The vector micro-kernels are compiled per function with GCC/Clang target
// attributes, so the rest of the library keeps the baseline ISA.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TT_GEMM_X86 1
#include <immintrin.h>
#else
#define TT_GEMM_X86 0
#endif

namespace tt::linalg {

namespace {

// Half-open range overlap on raw addresses (std::uintptr_t: comparing
// unrelated pointers directly is unspecified).
bool ranges_overlap(const real_t* a, index_t na, const real_t* b, index_t nb) {
  if (na <= 0 || nb <= 0) return false;
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto a0 = reinterpret_cast<std::uintptr_t>(a);
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto a1 = reinterpret_cast<std::uintptr_t>(a + na);
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto b0 = reinterpret_cast<std::uintptr_t>(b);
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto b1 = reinterpret_cast<std::uintptr_t>(b + nb);
  return a0 < b1 && b0 < a1;
}

// --- packed-panel, register-tiled GEMM ---------------------------------------
//
// BLIS-style blocking: for each (jc, pc) block, op(B) is packed once into
// kNr-wide strips; kMc-row panels of op(A) are packed into kMr-tall strips
// (alpha folded in) and swept by a kMr×kNr register-tile micro-kernel. The
// packing reads op(A)/op(B) through their physical layout, so transposed
// operands cost nothing extra — no transpose is ever materialized.
//
// Threads (support::parallel_for) split each block's packing and tile sweep
// over disjoint writes while the pc loop stays sequential, so every C element
// accumulates its k contributions in one fixed order: results are bitwise
// identical at any thread count.
constexpr index_t kMr = 4;     // register tile rows
constexpr index_t kNr = 8;     // register tile cols (one or two vector widths)
constexpr index_t kMc = 128;   // A panel rows   (A panel: kMc×kKc = 256 KB)
constexpr index_t kKc = 256;   // shared k block
constexpr index_t kNc = 2048;  // B panel cols   (B panel: kKc×kNc ≤ 4 MB)

// Flops of one (jc, pc) block below which the whole GEMM runs serially. Each
// block dispatches three pool loops at about 10 µs apiece (measured on a
// 4-core x86-64 host). A 2^22-flop block runs for about 120-150 µs serially
// at the FMA kernels' 28-35 GFlop/s, so that 30 µs is 20-25% of it, yet
// splitting it still pays: at TT_THREADS=4 on the same host, 2^22 beat 2^24
// on BM_Gemm/128 (exactly 2^22 flops; 118 vs 138 µs) and BM_BlockContract
// /32-/128 (45-66 vs 50-77 µs), median of 3 alternating runs.
constexpr index_t kParallelBlockFlops = index_t{1} << 22;

index_t round_up(index_t x, index_t q) { return (x + q - 1) / q * q; }

// Pack alpha·op(A)[i0:i0+ib, pc:pc+kc] — one kMr-tall strip, k-major,
// zero-padded past ib rows.
void pack_a_strip(bool transa, const real_t* a, index_t m, index_t k,
                  index_t i0, index_t ib, index_t pc, index_t kc, real_t alpha,
                  real_t* ap) {
  for (index_t kk = 0; kk < kc; ++kk) {
    for (index_t i = 0; i < ib; ++i)
      ap[kk * kMr + i] = alpha * (transa ? a[(pc + kk) * m + i0 + i]
                                         : a[(i0 + i) * k + pc + kk]);
    for (index_t i = ib; i < kMr; ++i) ap[kk * kMr + i] = 0.0;
  }
}

// Pack op(B)[pc:pc+kc, j0:j0+jb] — one kNr-wide strip, zero-padded past jb.
void pack_b_strip(bool transb, const real_t* b, index_t k, index_t n,
                  index_t pc, index_t j0, index_t jb, index_t kc, real_t* bp) {
  for (index_t kk = 0; kk < kc; ++kk) {
    for (index_t j = 0; j < jb; ++j)
      bp[kk * kNr + j] = transb ? b[(j0 + j) * k + pc + kk]
                                : b[(pc + kk) * n + j0 + j];
    for (index_t j = jb; j < kNr; ++j) bp[kk * kNr + j] = 0.0;
  }
}

// --- micro-kernels ------------------------------------------------------------
//
// C[0:mb, 0:nb] += Σ_kk ap-strip(kk) ⊗ bp-strip(kk). Every variant keeps the
// accumulator tile in registers, starts it at +0, updates each element with
// one fused multiply-add per kk in ascending kk order, and then adds it into
// C (padded lanes hold zeros and are not written back). Each step is one
// correctly rounded IEEE operation, so all variants give the same bits; they
// differ only in how many lanes one instruction covers.

// Portable: std::fma per element (a libm call where the build target has no
// FMA instruction; the slowest variant, kept for such hosts).
void micro_kernel_fma(index_t kc, const real_t* __restrict ap,
                      const real_t* __restrict bp, real_t* __restrict c,
                      index_t ldc, index_t mb, index_t nb) {
  real_t acc[kMr][kNr] = {};
  for (index_t kk = 0; kk < kc; ++kk) {
    const real_t* av = ap + kk * kMr;
    const real_t* bv = bp + kk * kNr;
    for (index_t i = 0; i < kMr; ++i)
      for (index_t j = 0; j < kNr; ++j)
        acc[i][j] = std::fma(av[i], bv[j], acc[i][j]);
  }
  for (index_t i = 0; i < mb; ++i)
    for (index_t j = 0; j < nb; ++j) c[i * ldc + j] += acc[i][j];
}

#if TT_GEMM_X86
static_assert(kMr == 4 && kNr == 8, "the vector micro-kernels hold a 4x8 tile");

// AVX2 + FMA: each tile row is two 4-lane accumulators.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    index_t kc, const real_t* __restrict ap, const real_t* __restrict bp,
    real_t* __restrict c, index_t ldc, index_t mb, index_t nb) {
  __m256d acc[kMr][2];
  for (auto& row : acc) row[0] = row[1] = _mm256_setzero_pd();
  for (index_t kk = 0; kk < kc; ++kk) {
    const real_t* av = ap + kk * kMr;
    const __m256d b0 = _mm256_loadu_pd(bp + kk * kNr);
    const __m256d b1 = _mm256_loadu_pd(bp + kk * kNr + 4);
    for (index_t i = 0; i < kMr; ++i) {
      const __m256d ai = _mm256_broadcast_sd(av + i);
      acc[i][0] = _mm256_fmadd_pd(ai, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_pd(ai, b1, acc[i][1]);
    }
  }
  if (nb == kNr) {
    for (index_t i = 0; i < mb; ++i) {
      real_t* ci = c + i * ldc;
      _mm256_storeu_pd(ci, _mm256_add_pd(_mm256_loadu_pd(ci), acc[i][0]));
      _mm256_storeu_pd(ci + 4, _mm256_add_pd(_mm256_loadu_pd(ci + 4), acc[i][1]));
    }
    return;
  }
  alignas(32) real_t tile[kMr][kNr];
  for (index_t i = 0; i < kMr; ++i) {
    _mm256_store_pd(tile[i], acc[i][0]);
    _mm256_store_pd(tile[i] + 4, acc[i][1]);
  }
  for (index_t i = 0; i < mb; ++i)
    for (index_t j = 0; j < nb; ++j) c[i * ldc + j] += tile[i][j];
}

// AVX-512: each tile row is one 8-lane accumulator; a partial tile row is
// added with a lane mask, which never touches C past nb.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    index_t kc, const real_t* __restrict ap, const real_t* __restrict bp,
    real_t* __restrict c, index_t ldc, index_t mb, index_t nb) {
  __m512d acc[kMr];
  for (auto& row : acc) row = _mm512_setzero_pd();
  for (index_t kk = 0; kk < kc; ++kk) {
    const real_t* av = ap + kk * kMr;
    const __m512d b = _mm512_loadu_pd(bp + kk * kNr);
    for (index_t i = 0; i < kMr; ++i)
      acc[i] = _mm512_fmadd_pd(_mm512_set1_pd(av[i]), b, acc[i]);
  }
  const auto mask = static_cast<__mmask8>((1u << nb) - 1u);
  for (index_t i = 0; i < mb; ++i) {
    real_t* ci = c + i * ldc;
    _mm512_mask_storeu_pd(
        ci, mask, _mm512_add_pd(_mm512_maskz_loadu_pd(mask, ci), acc[i]));
  }
}
#endif

// The micro-kernels this host can run, fastest first. __builtin_cpu_init
// makes the feature query safe during static initialization.
std::vector<detail::GemmKernel> detect_kernels() {
  std::vector<detail::GemmKernel> kernels;
#if TT_GEMM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f"))
    kernels.push_back({"builtin-avx512", micro_kernel_avx512});
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    kernels.push_back({"builtin-avx2", micro_kernel_avx2});
#endif
  kernels.push_back({"builtin-fma", micro_kernel_fma});
  return kernels;
}

// Picked once, at static initialization; gemm_raw only reads it.
const std::vector<detail::GemmKernel> kHostKernels = detect_kernels();
const detail::GemmKernel kKernel = kHostKernels.front();

// C += alpha·op(A)·op(B) for non-degenerate shapes (beta already applied).
// Each (jc, pc) block runs three phases — pack B strips, pack A strips,
// sweep (panel × column-strip) tiles — every one parallel over disjoint
// writes, so parallelism scales with max(m/4, n/8, m·n/1024) rather than
// m/128 alone, and results stay bitwise identical at any thread count.
void gemm_packed(detail::MicroKernel micro_kernel, bool transa, bool transb,
                 index_t m, index_t n, index_t k, real_t alpha, const real_t* a,
                 const real_t* b, real_t* c) {
  const index_t kc_max = std::min(kKc, k);
  // The calling thread's pack buffers: pool threads fill disjoint strips of
  // them, and every strip is packed (padding included) before it is read, so
  // they need no zero fill and a warm call allocates nothing.
  thread_local support::ScratchBuffer bpack_buf, apack_buf;
  real_t* const bpack = bpack_buf.get(
      static_cast<std::size_t>(round_up(std::min(kNc, n), kNr) * kc_max));
  real_t* const apack =
      apack_buf.get(static_cast<std::size_t>(round_up(m, kMr) * kc_max));
  const index_t num_panels = (m + kMc - 1) / kMc;
  const index_t num_astrips = (m + kMr - 1) / kMr;
  // Small GEMMs loop inline and never touch the pool (nor build the
  // std::function a pool loop takes); inside a region the pool runs inline.
  const bool parallel = 2 * m * std::min(kNc, n) * kc_max >= kParallelBlockFlops;
  auto for_each = [parallel](index_t count, const auto& body) {
    if (parallel) return support::parallel_for(count, body);
    for (index_t i = 0; i < count; ++i) body(i);
  };
  for (index_t jc = 0; jc < n; jc += kNc) {
    const index_t nc = std::min(kNc, n - jc);
    const index_t num_bstrips = (nc + kNr - 1) / kNr;
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      for_each(num_bstrips, [&](index_t s) {
        pack_b_strip(transb, b, k, n, pc, jc + s * kNr,
                     std::min(kNr, nc - s * kNr), kc,
                     bpack + s * kc * kNr);
      });
      for_each(num_astrips, [&](index_t s) {
        pack_a_strip(transa, a, m, k, s * kMr, std::min(kMr, m - s * kMr), pc,
                     kc, alpha, apack + s * kc * kMr);
      });
      // One tile = one C row panel × one packed B strip, column-strip-minor:
      // consecutive tiles reuse the same A panel (the L2-resident object)
      // and stream the small B strips past it.
      for_each(num_panels * num_bstrips, [&](index_t t) {
        const index_t panel = t / num_bstrips;
        const index_t js = t % num_bstrips;
        const index_t ic = panel * kMc;
        const index_t mc = std::min(kMc, m - ic);
        const index_t jr = js * kNr;
        const index_t nb = std::min(kNr, nc - jr);
        const real_t* bs = bpack + js * kc * kNr;
        for (index_t ir = 0; ir < mc; ir += kMr)
          micro_kernel(kc, apack + ((ic + ir) / kMr) * kc * kMr, bs,
                       c + (ic + ir) * n + jc + jr, n, std::min(kMr, mc - ir),
                       nb);
      });
    }
  }
}

void scale_inplace(real_t* c, index_t count, real_t beta) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    std::memset(c, 0, static_cast<std::size_t>(count) * sizeof(real_t));
    return;
  }
  for (index_t i = 0; i < count; ++i) c[i] *= beta;
}

}  // namespace

const char* backend_name() { return kKernel.name; }

namespace detail {

const std::vector<GemmKernel>& host_kernels() { return kHostKernels; }

void gemm_raw_with(MicroKernel micro_kernel, bool transa, bool transb,
                   index_t m, index_t n, index_t k, real_t alpha,
                   const real_t* a, const real_t* b, real_t beta, real_t* c) {
  // BLAS forbids aliased output: the beta pass rewrites c before the multiply
  // reads a/b, so overlap would corrupt the operands silently.
  TT_CHECK(!ranges_overlap(c, m * n, a, m * k),
           "gemm output aliases operand A");
  TT_CHECK(!ranges_overlap(c, m * n, b, k * n),
           "gemm output aliases operand B");
  scale_inplace(c, m * n, beta);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  gemm_packed(micro_kernel, transa, transb, m, n, k, alpha, a, b, c);
}

}  // namespace detail

void gemm_raw(bool transa, bool transb, index_t m, index_t n, index_t k,
              real_t alpha, const real_t* a, const real_t* b, real_t beta,
              real_t* c) {
  detail::gemm_raw_with(kKernel.run, transa, transb, m, n, k, alpha, a, b,
                        beta, c);
}

void gemm(bool transa, bool transb, real_t alpha, const Matrix& a,
          const Matrix& b, real_t beta, Matrix& c) {
  const index_t m = transa ? a.cols() : a.rows();
  const index_t ka = transa ? a.rows() : a.cols();
  const index_t kb = transb ? b.cols() : b.rows();
  const index_t n = transb ? b.rows() : b.cols();
  TT_CHECK(ka == kb, "gemm inner dimension mismatch: " << ka << " vs " << kb);
  TT_CHECK(c.rows() == m && c.cols() == n,
           "gemm output shape mismatch: got " << c.rows() << "x" << c.cols()
                                              << ", want " << m << "x" << n);
  gemm_raw(transa, transb, m, n, ka, alpha, a.data(), b.data(), beta, c.data());
}

Matrix matmul(const Matrix& a, const Matrix& b) { return matmul(false, false, a, b); }

Matrix matmul(bool transa, bool transb, const Matrix& a, const Matrix& b) {
  const index_t m = transa ? a.cols() : a.rows();
  const index_t n = transb ? b.rows() : b.cols();
  Matrix c(m, n);
  gemm(transa, transb, 1.0, a, b, 0.0, c);
  return c;
}

void gemv(index_t m, index_t n, real_t alpha, const real_t* a, const real_t* x,
          real_t beta, real_t* y) {
  for (index_t i = 0; i < m; ++i) {
    real_t s = 0.0;
    const real_t* ai = a + i * n;
    for (index_t j = 0; j < n; ++j) s += ai[j] * x[j];
    // BLAS semantics: beta == 0 overwrites without reading y, which may hold
    // NaN or uninitialized garbage that 0*y would propagate.
    y[i] = (beta == 0.0) ? alpha * s : alpha * s + beta * y[i];
  }
}

}  // namespace tt::linalg
