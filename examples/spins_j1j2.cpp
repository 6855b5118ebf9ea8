// The paper's "spins" workload: J1–J2 Heisenberg model on a square cylinder
// (§V), run with any of the four contraction engines on a virtual cluster.
//
//   ./spins_j1j2 [--lx 6] [--ly 4] [--j2 0.5] [--m 64] [--sweeps 4]
//                [--engine list|reference|sparse-dense|sparse-sparse]
//                [--machine bw|s2] [--nodes 4] [--ppn 16] [--ed]
//
// With --ed (only for small lattices) the DMRG energy is checked against the
// exact-diagonalization oracle.
#include <iostream>

#include "dmrg/dmrg.hpp"
#include "dmrg/replay.hpp"
#include "ed/ed.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

tt::rt::MachineModel parse_machine(const std::string& s) {
  if (s == "bw") return tt::rt::blue_waters();
  if (s == "s2") return tt::rt::stampede2();
  if (s == "local") return tt::rt::localhost();
  TT_FAIL("unknown machine '" << s << "' (bw|s2|local)");
}

int run(int argc, char** argv) {
  using namespace tt;
  Cli cli(argc, argv);
  cli.allow_only({"lx", "ly", "j2", "m", "sweeps", "engine", "machine", "nodes", "ppn"},
                 {"ed"});
  const int lx = static_cast<int>(cli.get_int("lx", 6));
  const int ly = static_cast<int>(cli.get_int("ly", 4));
  const double j2 = cli.get_double("j2", 0.5);
  const index_t m = cli.get_int("m", 64);
  const int sweeps = static_cast<int>(cli.get_int("sweeps", 4));
  const auto kind = dmrg::engine_from_name(cli.get("engine", "list"));
  const rt::Cluster cluster{parse_machine(cli.get("machine", "bw")),
                            static_cast<int>(cli.get_int("nodes", 4)),
                            static_cast<int>(cli.get_int("ppn", 16))};

  auto lat = models::square_cylinder(lx, ly, /*diagonals=*/true);
  std::cout << models::render(lat);
  auto sites = models::spin_half_sites(lat.num_sites);
  mps::Mpo h = models::heisenberg_mpo(sites, lat, 1.0, j2);
  std::cout << "J2/J1 = " << j2 << ", MPO k = " << h.max_bond_dim() << ", engine "
            << dmrg::engine_name(kind) << " on " << cluster.nodes << "x"
            << cluster.procs_per_node << " " << cluster.machine.name << "\n\n";

  std::vector<int> neel;
  for (int x = 0; x < lx; ++x)
    for (int y = 0; y < ly; ++y) neel.push_back((x + y) % 2);
  dmrg::Dmrg solver(mps::Mps::product_state(sites, neel), h,
                    std::make_unique<dmrg::ContractionEngine>());
  solver.engine().set_logging(true);

  Table table("DMRG sweeps — J1-J2 " + std::to_string(lx) + "x" + std::to_string(ly) +
              " cylinder");
  table.header({"sweep", "energy", "E/site", "max m", "trunc err", "wall s",
                "sim s", "GFlop"});
  rt::CostTracker costs;  // each sweep's log priced as `kind`
  for (int s = 0; s < sweeps; ++s) {
    dmrg::SweepParams p;
    p.max_m = m;
    p.davidson_iter = 3;
    solver.engine().clear_log();
    auto rec = solver.sweep(p);
    costs = dmrg::price(kind, solver.engine().log(), cluster);
    table.row({std::to_string(rec.sweep), fmt(rec.energy, 8),
               fmt(rec.energy / lat.num_sites, 6), std::to_string(rec.max_bond_dim),
               fmt_sci(rec.truncation_error, 1), fmt(rec.wall_seconds, 2),
               fmt(costs.total_time(), 3), fmt(costs.flops() / 1e9, 2)});
  }
  table.print();

  // Simulated time breakdown of the final sweep (cf. paper Fig 7).
  auto pct = costs.percentages();
  std::cout << "\nSimulated time breakdown of last sweep:";
  for (int c = 0; c < rt::kNumCategories; ++c)
    if (pct[static_cast<std::size_t>(c)] > 0.05)
      std::cout << "  " << rt::category_name(static_cast<rt::Category>(c)) << " "
                << fmt(pct[static_cast<std::size_t>(c)], 1) << "%";
  std::cout << "\n";

  if (cli.get_bool("ed", false)) {
    TT_CHECK(lat.num_sites <= 16, "--ed only for <= 16 sites");
    const double e_ed = ed::heisenberg_ground_energy(lat, 1.0, j2, 0);
    std::cout << "ED oracle energy: " << fmt(e_ed, 8) << "  (DMRG "
              << fmt(solver.last_energy(), 8) << ", diff "
              << fmt_sci(solver.last_energy() - e_ed, 2) << ")\n";
  }
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
