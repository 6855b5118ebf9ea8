#include "models/heisenberg.hpp"

#include "mps/autompo.hpp"

namespace tt::models {

namespace {

mps::AutoMpo heisenberg_terms(mps::SiteSetPtr sites, const Lattice& lat, double j1,
                              double j2) {
  TT_CHECK(sites->size() == lat.num_sites,
           "site set has " << sites->size() << " sites, lattice " << lat.num_sites);
  mps::AutoMpo ampo(std::move(sites));
  for (const Bond& b : lat.bonds) {
    const double j = (b.type == 0) ? j1 : j2;
    if (j == 0.0) continue;
    // S_i·S_j = Sz_i Sz_j + (S+_i S-_j + S-_i S+_j)/2.
    ampo.add(j, "Sz", b.s1, "Sz", b.s2);
    ampo.add(0.5 * j, "S+", b.s1, "S-", b.s2);
    ampo.add(0.5 * j, "S-", b.s1, "S+", b.s2);
  }
  return ampo;
}

}  // namespace

mps::Mpo heisenberg_mpo(mps::SiteSetPtr sites, const Lattice& lat, double j1,
                        double j2, double rel_cutoff) {
  return heisenberg_terms(std::move(sites), lat, j1, j2).to_mpo(rel_cutoff);
}

}  // namespace tt::models
