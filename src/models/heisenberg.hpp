// J1–J2 Heisenberg Hamiltonian (the paper's "spins" benchmark, §V):
//   H = J1 Σ_⟨i,j⟩ S_i·S_j + J2 Σ_⟨⟨i,j⟩⟩ S_i·S_j
// over a lattice whose type-0 bonds carry J1 and type-1 bonds J2. The paper
// studies the 2D square cylinder at J2/J1 = 0.5.
#pragma once

#include "models/lattice.hpp"
#include "mps/mpo.hpp"

namespace tt::models {

/// The Heisenberg MPO on `lat` (spin-1/2 sites), compiled with the given
/// compression cutoff.
mps::Mpo heisenberg_mpo(mps::SiteSetPtr sites, const Lattice& lat, double j1,
                        double j2 = 0.0, double rel_cutoff = 1e-13);

}  // namespace tt::models
