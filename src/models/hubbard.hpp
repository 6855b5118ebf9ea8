// Hubbard Hamiltonian (the paper's "electrons" benchmark, §V):
//   H = −t Σ_{⟨i,j⟩,σ} (c†_iσ c_jσ + h.c.) + U Σ_i n_i↑ n_i↓
// The paper studies the triangular cylinder at t = 1, U = 8.5, half filling.
#pragma once

#include "models/lattice.hpp"
#include "mps/mpo.hpp"

namespace tt::models {

/// The Hubbard MPO on `lat` (electron sites), compiled with the given
/// compression cutoff.
mps::Mpo hubbard_mpo(mps::SiteSetPtr sites, const Lattice& lat, double t, double u,
                     double rel_cutoff = 1e-13);

}  // namespace tt::models
