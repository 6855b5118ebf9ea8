#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "linalg/backend.hpp"
#include "support/scratch.hpp"
#include "support/thread_pool.hpp"

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
// 4-core x86-64 host), so a block threads only when its serial time (about
// 600 µs at 7 GFlop/s) keeps that 30 µs under 5%.
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

// C[0:mb, 0:nb] += Σ_kk ap-strip(kk) ⊗ bp-strip(kk). The accumulator tile
// lives in registers; padded lanes hold zeros and are simply not written back.
void micro_kernel(index_t kc, const real_t* __restrict ap,
                  const real_t* __restrict bp, real_t* __restrict c, index_t ldc,
                  index_t mb, index_t nb) {
  real_t acc[kMr][kNr] = {};
  for (index_t kk = 0; kk < kc; ++kk) {
    const real_t* av = ap + kk * kMr;
    const real_t* bv = bp + kk * kNr;
    for (index_t i = 0; i < kMr; ++i)
      for (index_t j = 0; j < kNr; ++j) acc[i][j] += av[i] * bv[j];
  }
  for (index_t i = 0; i < mb; ++i)
    for (index_t j = 0; j < nb; ++j) c[i * ldc + j] += acc[i][j];
}

// C += alpha·op(A)·op(B) for non-degenerate shapes (beta already applied).
// Each (jc, pc) block runs three phases — pack B strips, pack A strips,
// sweep (panel × column-strip) tiles — every one parallel over disjoint
// writes, so parallelism scales with max(m/4, n/8, m·n/1024) rather than
// m/128 alone, and results stay bitwise identical at any thread count.
void gemm_packed(bool transa, bool transb, index_t m, index_t n, index_t k,
                 real_t alpha, const real_t* a, const real_t* b, real_t* c) {
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

const char* backend_name() { return "builtin"; }

void gemm_raw(bool transa, bool transb, index_t m, index_t n, index_t k,
              real_t alpha, const real_t* a, const real_t* b, real_t beta,
              real_t* c) {
  // BLAS forbids aliased output: the beta pass rewrites c before the multiply
  // reads a/b, so overlap would corrupt the operands silently.
  TT_CHECK(!ranges_overlap(c, m * n, a, m * k),
           "gemm output aliases operand A");
  TT_CHECK(!ranges_overlap(c, m * n, b, k * n),
           "gemm output aliases operand B");
  scale_inplace(c, m * n, beta);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  gemm_packed(transa, transb, m, n, k, alpha, a, b, c);
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
