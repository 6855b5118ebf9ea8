// AutoMPO-style Hamiltonian builder (modeled on the ITensor facility the
// paper uses to generate its MPOs, §V).
//
// Terms are sums of products of named local operators at sites. Fermionic
// operators are reordered with the correct anticommutation signs and receive
// Jordan–Wigner parity strings automatically. The exact finite-state-machine
// MPO (bond dimension 2 + #terms crossing each bond) is then SVD-compressed
// with a relative cutoff (paper: 1e-13, giving k = 26 for the triangular
// Hubbard XC6 cylinder).
#pragma once

#include <string>
#include <vector>

#include "mps/mpo.hpp"

namespace tt::mps {

/// One named operator applied at one site.
struct OpFactor {
  std::string name;
  int site = 0;
};

/// Accumulates Hamiltonian terms and compiles them into an MPO.
class AutoMpo {
 public:
  explicit AutoMpo(SiteSetPtr sites);

  /// Add coeff · op(f₁)·op(f₂)⋯ . Factors may be given in any order; sites
  /// may repeat (operators multiply on-site). Charge-violating or
  /// odd-fermion-parity terms are rejected.
  AutoMpo& add(real_t coeff, std::vector<OpFactor> factors);

  /// Convenience: single-site term.
  AutoMpo& add(real_t coeff, const std::string& op, int i);
  /// Convenience: two-site term.
  AutoMpo& add(real_t coeff, const std::string& op1, int i, const std::string& op2,
               int j);

  /// Compile. rel_cutoff > 0 compresses each bond via SVD with
  /// σ ≤ rel_cutoff·σ_max dropped; rel_cutoff <= 0 returns the exact FSM MPO.
  /// Requires the "F" (fermion parity) and "Id" operators on the site set
  /// when fermionic terms are present (Id always).
  Mpo to_mpo(real_t rel_cutoff = 1e-13) const;

 private:
  struct Term {
    real_t coeff;
    std::vector<OpFactor> factors;
  };

  SiteSetPtr sites_;
  std::vector<Term> terms_;
};

}  // namespace tt::mps
