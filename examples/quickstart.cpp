// Quickstart: ground state of the spin-1/2 Heisenberg chain with DMRG.
//
//   ./quickstart [--n 32] [--m 64] [--sweeps 6]
//
// Demonstrates the minimal pipeline: site set → lattice → AutoMPO → MPO →
// product-state MPS → DMRG sweeps → measurements. The energy per site is
// compared against the thermodynamic-limit Bethe-ansatz value 1/4 − ln 2.
#include <cmath>
#include <iostream>

#include "dmrg/dmrg.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/measure.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace tt;
  Cli cli(argc, argv);
  cli.allow_only({"n", "m", "sweeps"});
  const int n = static_cast<int>(cli.get_int("n", 32));
  const index_t m = cli.get_int("m", 64);
  const int sweeps = static_cast<int>(cli.get_int("sweeps", 6));

  // 1. Local Hilbert spaces and geometry.
  auto sites = models::spin_half_sites(n);
  auto lat = models::chain(n);

  // 2. Hamiltonian as a compressed MPO (AutoMPO inserts the S·S terms).
  mps::Mpo h = models::heisenberg_mpo(sites, lat, /*J1=*/1.0);
  std::cout << "MPO bond dimension k = " << h.max_bond_dim() << "\n";

  // 3. Néel product state in the 2Sz = 0 sector.
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  mps::Mps psi = mps::Mps::product_state(sites, neel);

  // 4. DMRG through the block-wise contraction engine.
  dmrg::Dmrg solver(std::move(psi), h, std::make_unique<dmrg::ContractionEngine>());
  Table table("DMRG sweeps — Heisenberg chain, N=" + std::to_string(n));
  table.header({"sweep", "energy", "E/site", "max m", "trunc err", "wall s"});
  for (int s = 0; s < sweeps; ++s) {
    dmrg::SweepParams p;
    p.max_m = m;
    p.davidson_iter = 3;
    auto rec = solver.sweep(p);
    table.row({std::to_string(rec.sweep), fmt(rec.energy, 10),
               fmt(rec.energy / n, 8), std::to_string(rec.max_bond_dim),
               fmt_sci(rec.truncation_error, 1), fmt(rec.wall_seconds, 2)});
  }
  table.print();

  const double e_site = solver.last_energy() / n;
  const double bethe = 0.25 - std::log(2.0);
  std::cout << "\nE/site = " << fmt(e_site, 8) << "   (Bethe N→∞: " << fmt(bethe, 8)
            << ", finite-size open chain lies above)\n";

  // 5. Measurements on the optimized state.
  std::cout << "⟨Sz⟩ profile (middle 8 sites):";
  for (int j = n / 2 - 4; j < n / 2 + 4; ++j)
    std::cout << " " << fmt(mps::expect_local(solver.psi(), "Sz", j), 3);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
