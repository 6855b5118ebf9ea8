#include "models/hubbard.hpp"

#include "mps/autompo.hpp"

namespace tt::models {

namespace {

mps::AutoMpo hubbard_terms(mps::SiteSetPtr sites, const Lattice& lat, double t,
                           double u) {
  TT_CHECK(sites->size() == lat.num_sites,
           "site set has " << sites->size() << " sites, lattice " << lat.num_sites);
  mps::AutoMpo ampo(std::move(sites));
  for (const Bond& b : lat.bonds) {
    if (t == 0.0) break;
    // −t (c†_iσ c_jσ + c†_jσ c_iσ) for both spin species; Jordan–Wigner
    // strings are inserted by AutoMpo.
    ampo.add(-t, "Cdagup", b.s1, "Cup", b.s2);
    ampo.add(-t, "Cdagup", b.s2, "Cup", b.s1);
    ampo.add(-t, "Cdagdn", b.s1, "Cdn", b.s2);
    ampo.add(-t, "Cdagdn", b.s2, "Cdn", b.s1);
  }
  if (u != 0.0)
    for (int i = 0; i < lat.num_sites; ++i) ampo.add(u, "Nupdn", i);
  return ampo;
}

}  // namespace

mps::Mpo hubbard_mpo(mps::SiteSetPtr sites, const Lattice& lat, double t, double u,
                     double rel_cutoff) {
  return hubbard_terms(std::move(sites), lat, t, u).to_mpo(rel_cutoff);
}

}  // namespace tt::models
