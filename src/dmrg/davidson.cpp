#include "dmrg/davidson.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/eigen.hpp"
#include "runtime/trace.hpp"
#include "support/rng.hpp"

namespace tt::dmrg {

using symm::BlockTensor;

namespace {

// Seed of the randomized-restart stream: fixed, so every solve is reproducible.
constexpr std::uint64_t kRestartSeed = 0xdad1d50ULL;

// Add N(0, eps·|t|) noise into every existing block (randomized recovery from
// re-orthogonalization breakdown, paper §II.C).
void add_noise(BlockTensor& t, real_t eps, Rng& rng) {
  BlockTensor noise = t;
  for (const auto& [key, blk] : noise.blocks())
    for (index_t i = 0; i < blk.size(); ++i) blk[i] = rng.normal();
  const real_t scale = eps * std::max(t.norm2(), real_t{1e-30});
  t.axpy(scale / std::max(noise.norm2(), real_t{1e-300}), noise);
}

}  // namespace

DavidsonResult davidson(const BlockMatVec& apply, BlockTensor x0,
                        const DavidsonOptions& opts) {
  TT_CHECK(opts.max_iter >= 1, "Davidson needs at least one iteration");
  TT_CHECK(opts.subspace >= 2, "Davidson subspace must be at least 2");
  const real_t nrm0 = x0.norm2();
  TT_CHECK(nrm0 > 0.0, "Davidson initial guess must be nonzero");
  x0.scale(1.0 / nrm0);

  Rng rng(kRestartSeed);
  DavidsonResult out;

  auto traced_apply = [&apply](const BlockTensor& t) {
    TT_TRACE_SPAN("davidson.matvec", rt::TraceCat::kDavidson);
    return apply(t);
  };

  std::vector<BlockTensor> v{std::move(x0)};
  std::vector<BlockTensor> va;  // A·v, aligned with v
  v.reserve(static_cast<std::size_t>(opts.subspace));
  va.reserve(static_cast<std::size_t>(opts.subspace));
  va.push_back(traced_apply(v[0]));
  ++out.matvecs;

  // Projected matrix entries m(i,j) = vᵢᵀ A vⱼ, grown incrementally.
  linalg::Matrix m(opts.subspace, opts.subspace);
  m(0, 0) = symm::dot(v[0], va[0]);

  real_t lambda = m(0, 0);
  BlockTensor x = v[0];
  BlockTensor ax = va[0];

  for (int it = 0; it < opts.max_iter; ++it) {
    const int k = static_cast<int>(v.size());

    // Rayleigh–Ritz on the leading k×k block (Alg. 1 line 7).
    linalg::Matrix mk(k, k);
    for (int i = 0; i < k; ++i)
      for (int j = 0; j < k; ++j) mk(i, j) = m(i, j);
    auto eig = linalg::eigh(mk);
    lambda = eig.values.front();

    // Ritz vector x = Σ s_j v_j and A·x = Σ s_j (Av)_j (Alg. 1 line 8).
    x = v[0];
    x.scale(eig.vectors(0, 0));
    ax = va[0];
    ax.scale(eig.vectors(0, 0));
    for (int j = 1; j < k; ++j) {
      x.axpy(eig.vectors(j, 0), v[static_cast<std::size_t>(j)]);
      ax.axpy(eig.vectors(j, 0), va[static_cast<std::size_t>(j)]);
    }

    // Residual q = A·x − λ·x (lines 9–10).
    BlockTensor q = ax;
    q.axpy(-lambda, x);
    const real_t qnorm = q.norm2();
    if (qnorm < opts.tol) {
      out.converged = true;
      break;
    }
    if (out.matvecs >= opts.max_iter) break;

    // Subspace full: restart from the Ritz vector (paper: subspace size 2).
    if (k >= opts.subspace) {
      v.assign(1, x);
      va.assign(1, ax);
      m = linalg::Matrix(opts.subspace, opts.subspace);
      m(0, 0) = lambda;
    }

    // Orthogonalize q against the basis via modified Gram–Schmidt, with
    // randomized recovery when q lies (numerically) inside the span (line 11).
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (const BlockTensor& b : v) q.axpy(-symm::dot(q, b), b);
      const real_t n = q.norm2();
      if (n > 1e-12 * (1.0 + std::abs(lambda))) {
        q.scale(1.0 / n);
        break;
      }
      add_noise(q, 1.0, rng);
    }
    {
      const real_t n = q.norm2();
      if (n < 1e-300) break;  // hopeless: return current Ritz pair
      q.scale(1.0 / n);
    }

    // Extend the subspace (line 12).
    v.push_back(q);
    va.push_back(traced_apply(v.back()));
    ++out.matvecs;
    const int knew = static_cast<int>(v.size());
    for (int i = 0; i < knew; ++i) {
      const real_t mij = symm::dot(va.back(), v[static_cast<std::size_t>(i)]);
      m(i, knew - 1) = mij;
      m(knew - 1, i) = mij;
    }
  }

  const real_t xn = x.norm2();
  x.scale(1.0 / xn);
  out.eigenvalue = lambda;
  out.vector = std::move(x);
  return out;
}

}  // namespace tt::dmrg
