// Physical observables on an MPS: two-point correlators (with automatic
// Jordan–Wigner strings for fermionic operators) and bipartite entanglement
// entropy — the measurements a DMRG study of the paper's two models reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "mps/autompo.hpp"
#include "mps/measure.hpp"
#include "mps/mps.hpp"
#include "support/error.hpp"
#include "symm/block_factor.hpp"

namespace tt::testing {

/// ⟨ψ| O1_i · O2_j |ψ⟩ for i ≠ j (any order). Charged operators are allowed
/// when their fluxes cancel (e.g. S+ with S-); fermionic pairs receive the
/// parity string between the sites. ψ must be normalized for a true
/// expectation value.
inline real_t correlation(const mps::Mps& psi, const std::string& op1, int i,
                          const std::string& op2, int j) {
  TT_CHECK(i != j, "use expect_local (or add an on-site product operator) for i == j");
  // Compile the two-point term through AutoMpo: fermionic reordering signs,
  // Jordan–Wigner strings, and charge bookkeeping are inherited from the
  // Hamiltonian machinery.
  mps::AutoMpo ampo(psi.sites());
  ampo.add(1.0, op1, i, op2, j);
  return mps::expectation(psi, ampo.to_mpo(0.0));
}

/// Connected correlator ⟨O1_i O2_j⟩ − ⟨O1_i⟩⟨O2_j⟩ (both ops charge-neutral).
inline real_t connected_correlation(const mps::Mps& psi, const std::string& op1, int i,
                                    const std::string& op2, int j) {
  return correlation(psi, op1, i, op2, j) -
         mps::expect_local(psi, op1, i) * mps::expect_local(psi, op2, j);
}

/// Singular-value spectrum across bond `b` (between sites b and b+1), sorted
/// descending.
inline std::vector<real_t> entanglement_spectrum(const mps::Mps& psi, int bond) {
  TT_CHECK(bond >= 0 && bond + 1 < psi.size(), "bond " << bond << " out of range");
  mps::Mps work = psi;
  work.canonicalize(bond);
  // With everything left of the center left-canonical and everything right of
  // it right-canonical, the SVD of the center site over (l,s)|(r) yields the
  // Schmidt coefficients across the bond.
  auto f = symm::block_svd(work.site(bond), {0, 1});
  std::vector<real_t> all;
  for (const auto& sv : f.singular_values) all.insert(all.end(), sv.begin(), sv.end());
  std::sort(all.rbegin(), all.rend());
  return all;
}

/// Von Neumann entanglement entropy S = −Σ λ² ln λ² across bond `b`, from
/// the singular values of the bipartition.
inline real_t entanglement_entropy(const mps::Mps& psi, int bond) {
  const auto spectrum = entanglement_spectrum(psi, bond);
  real_t total = 0.0;
  for (real_t s : spectrum) total += s * s;
  TT_CHECK(total > 0.0, "state has zero norm across bond " << bond);
  real_t entropy = 0.0;
  for (real_t s : spectrum) {
    const real_t p = s * s / total;
    if (p > 1e-300) entropy -= p * std::log(p);
  }
  return entropy;
}

}  // namespace tt::testing
