// The paper's "electrons" workload: Hubbard model on a triangular cylinder at
// half filling, t = 1, U = 8.5 (§V). Two conserved U(1) charges (N, 2Sz)
// produce the many-small-blocks regime where the sparse algorithms shine.
//
//   ./electrons_hubbard [--lx 4] [--ly 3] [--u 8.5] [--m 64] [--sweeps 4]
//                       [--engine sparse-sparse] [--machine s2]
//                       [--nodes 4] [--ppn 32] [--ed]
#include <iostream>

#include "dmrg/dmrg.hpp"
#include "dmrg/replay.hpp"
#include "ed/ed.hpp"
#include "models/electron.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "mps/measure.hpp"
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
  cli.allow_only({"lx", "ly", "u", "m", "sweeps", "engine", "machine", "nodes", "ppn"},
                 {"ed"});
  const int lx = static_cast<int>(cli.get_int("lx", 4));
  const int ly = static_cast<int>(cli.get_int("ly", 3));
  const double u = cli.get_double("u", 8.5);
  const index_t m = cli.get_int("m", 64);
  const int sweeps = static_cast<int>(cli.get_int("sweeps", 4));
  const auto kind = dmrg::engine_from_name(cli.get("engine", "sparse-sparse"));
  const rt::Cluster cluster{parse_machine(cli.get("machine", "s2")),
                            static_cast<int>(cli.get_int("nodes", 4)),
                            static_cast<int>(cli.get_int("ppn", 32))};

  auto lat = models::triangular_cylinder(lx, ly);
  std::cout << models::render(lat);
  auto sites = models::electron_sites(lat.num_sites);
  mps::Mpo h = models::hubbard_mpo(sites, lat, 1.0, u);
  std::cout << "U = " << u << ", MPO k = " << h.max_bond_dim() << ", engine "
            << dmrg::engine_name(kind) << " on " << cluster.nodes << "x"
            << cluster.procs_per_node << " " << cluster.machine.name << "\n\n";

  // Half filling, N↑ = N↓ = N/2: alternate |↑⟩ and |↓⟩.
  TT_CHECK(lat.num_sites % 2 == 0, "half filling needs an even site count");
  std::vector<int> filling;
  for (int i = 0; i < lat.num_sites; ++i) filling.push_back(i % 2 == 0 ? 1 : 2);
  dmrg::Dmrg solver(mps::Mps::product_state(sites, filling), h,
                    std::make_unique<dmrg::ContractionEngine>());
  solver.engine().set_logging(true);

  Table table("DMRG sweeps — triangular Hubbard " + std::to_string(lx) + "x" +
              std::to_string(ly));
  table.header({"sweep", "energy", "max m", "trunc err", "wall s (incl. recording)",
                "sim s", "GFlop"});
  for (int s = 0; s < sweeps; ++s) {
    dmrg::SweepParams p;
    p.max_m = m;
    p.davidson_iter = 4;
    p.davidson_subspace = 3;
    solver.engine().clear_log();
    auto rec = solver.sweep(p);
    const rt::CostTracker costs = dmrg::price(kind, solver.engine().log(), cluster);
    table.row({std::to_string(rec.sweep), fmt(rec.energy, 8),
               std::to_string(rec.max_bond_dim), fmt_sci(rec.truncation_error, 1),
               fmt(rec.wall_seconds, 2), fmt(costs.total_time(), 3),
               fmt(costs.flops() / 1e9, 2)});
  }
  table.print();

  // Double-occupancy profile — the quantity U suppresses.
  std::cout << "\n⟨n↑n↓⟩ per site:";
  for (int j = 0; j < lat.num_sites; ++j)
    std::cout << " " << fmt(mps::expect_local(solver.psi(), "Nupdn", j), 3);
  std::cout << "\n";

  if (cli.get_bool("ed", false)) {
    TT_CHECK(lat.num_sites <= 10, "--ed only for <= 10 electron sites");
    const double e_ed =
        ed::hubbard_ground_energy(lat, 1.0, u, lat.num_sites / 2, lat.num_sites / 2);
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
