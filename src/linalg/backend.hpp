// Runtime-dispatched linear-algebra backend layer.
//
// Every hot dense kernel in the library — gemm_raw/gemv (gemm.hpp), svd
// (svd.hpp), qr (qr.hpp), eigh (eigen.hpp) — routes through the active
// Backend. Two implementations exist:
//
//   "builtin"  the self-contained kernels in this directory (packed
//              micro-kernel GEMM, Golub–Kahan–Reinsch SVD, Householder QR,
//              cyclic Jacobi eigensolver). Always available; bitwise
//              deterministic at any TT_THREADS.
//   "blas"     vendor BLAS/LAPACK (dgemm/dgemv/dgesdd/dgeqrf+dorgqr/dsyevd),
//              compiled in under -DTT_WITH_BLAS=ON (backend_blas.cpp) and the
//              default whenever present.
//
// Selection, in precedence order: set_backend() > the TT_BACKEND environment
// variable ("builtin" or "blas") > the compiled-in default. Unknown names
// throw tt::Error. Switching is a process-global runtime choice — no rebuild —
// but must not race in-flight kernels; select once at startup (or from a
// single thread between phases).
#pragma once

#include <string>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/types.hpp"

namespace tt::linalg {

/// One full set of dense kernels. Implementations must honour BLAS semantics:
/// beta == 0 overwrites C/y without reading (no NaN propagation from
/// uninitialized output), and alpha == 0 or k == 0 still applies beta.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identifier ("builtin", "blas") used by TT_BACKEND/set_backend.
  virtual const char* name() const noexcept = 0;

  /// C := alpha * op(A) * op(B) + beta * C, row-major (see gemm.hpp).
  virtual void gemm(bool transa, bool transb, index_t m, index_t n, index_t k,
                    real_t alpha, const real_t* a, const real_t* b, real_t beta,
                    real_t* c) const = 0;

  /// y := alpha * A * x + beta * y (row-major A).
  virtual void gemv(index_t m, index_t n, real_t alpha, const real_t* a,
                    const real_t* x, real_t beta, real_t* y) const = 0;

  /// Thin SVD of a non-empty matrix (see svd.hpp for the result contract).
  virtual SvdResult svd(const Matrix& a) const = 0;

  /// Thin QR (see qr.hpp).
  virtual QrResult qr(const Matrix& a) const = 0;

  /// Full symmetric eigendecomposition of a validated symmetric matrix,
  /// eigenvalues ascending (see eigen.hpp).
  virtual EigResult eigh(const Matrix& a) const = 0;
};

/// The active backend. First use resolves TT_BACKEND (throwing tt::Error on
/// unknown names); afterwards set_backend() switches it.
const Backend& backend();

/// name() of the active backend.
const char* backend_name();

/// Select the active backend by name; throws tt::Error on unknown names and
/// leaves the previous selection untouched.
void set_backend(const std::string& name);

/// Names accepted by set_backend()/TT_BACKEND in this build.
std::vector<std::string> available_backends();

/// True when the 'blas' backend was compiled in (-DTT_WITH_BLAS=ON).
bool blas_backend_available();

namespace detail {

/// The resolution step behind the lazy default: TT_BACKEND when set (tt::Error
/// on unknown names), else "blas" when compiled in, else "builtin". Exposed so
/// tests can exercise the environment path without respawning the process.
const Backend& resolve_default_backend();

/// The 'blas' backend singleton; defined in backend_blas.cpp, only when
/// TT_WITH_BLAS is compiled in (never referenced otherwise).
const Backend* blas_backend_instance();

}  // namespace detail

}  // namespace tt::linalg
