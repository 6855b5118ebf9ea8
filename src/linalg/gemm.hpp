// GEMM entry points on raw row-major buffers and Matrix objects.
//
// Every tensor contraction in the library lowers to gemm_raw (the same
// execution strategy CTF uses: permute to matrix layout, multiply, permute
// back), so its throughput sets the library's GFlop/s scale. The kernel is a
// packed-panel register-tiled micro-kernel (transposes absorbed by the
// packing, bitwise deterministic at any thread count). The micro-kernel is
// built for AVX-512, AVX2 + FMA and portable std::fma; the widest one the
// host runs is picked once per process, and all give the same bits.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "support/types.hpp"

namespace tt::linalg {

/// C := alpha * op(A) * op(B) + beta * C on raw row-major buffers.
/// op(A) is m×k, op(B) is k×n, C is m×n. transa/transb select op(X)=X^T, in
/// which case the physical layout of A is k×m (resp. B is n×k).
void gemm_raw(bool transa, bool transb, index_t m, index_t n, index_t k,
              real_t alpha, const real_t* a, const real_t* b, real_t beta,
              real_t* c);

/// C := alpha * op(A) * op(B) + beta * C; shapes validated against C.
void gemm(bool transa, bool transb, real_t alpha, const Matrix& a,
          const Matrix& b, real_t beta, Matrix& c);

/// Returns A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Returns op(A) * op(B).
Matrix matmul(bool transa, bool transb, const Matrix& a, const Matrix& b);

/// y := alpha * A * x + beta * y (row-major A, contiguous x/y).
void gemv(index_t m, index_t n, real_t alpha, const real_t* a, const real_t* x,
          real_t beta, real_t* y);

/// Flop count of one GEMM call (2*m*n*k), used by the runtime's flop counter.
inline double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

namespace detail {

/// One build of the 4×8 register-tile micro-kernel:
/// C[0:mb, 0:nb] += Σ_kk ap(kk) ⊗ bp(kk) over kc packed k-steps. Every build
/// performs the same fused multiply-adds in the same order (same bits).
using MicroKernel = void (*)(index_t kc, const real_t* ap, const real_t* bp,
                             real_t* c, index_t ldc, index_t mb, index_t nb);

struct GemmKernel {
  const char* name;  // as backend_name() reports it, e.g. "builtin-avx2"
  MicroKernel run;
};

/// The micro-kernels this host can run, fastest first. gemm_raw uses the
/// first one, picked once at static initialization.
const std::vector<GemmKernel>& host_kernels();

/// gemm_raw through the given micro-kernel (tests compare every path).
void gemm_raw_with(MicroKernel micro_kernel, bool transa, bool transb,
                   index_t m, index_t n, index_t k, real_t alpha,
                   const real_t* a, const real_t* b, real_t beta, real_t* c);

}  // namespace detail
}  // namespace tt::linalg
