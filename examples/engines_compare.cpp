// Side-by-side comparison of the four algorithms (engine kinds) on the same
// problem: one two-sweep solve, whose last sweep's recorded log is priced as
// each kind on the virtual cluster. Every kind executes the same block-wise
// contractions, so one run stands for all four; only the modelled cost differs.
//
//   ./engines_compare [--system spins|electrons] [--m 48] [--nodes 4]
#include <iostream>

#include "dmrg/dmrg.hpp"
#include "dmrg/replay.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace tt;
  Cli cli(argc, argv);
  cli.allow_only({"system", "m", "nodes"});
  const std::string system = cli.get("system", "spins");
  const index_t m = cli.get_int("m", 48);
  const int nodes = static_cast<int>(cli.get_int("nodes", 4));

  models::Lattice lat;
  mps::SiteSetPtr sites;
  mps::Mpo h;
  std::vector<int> start;
  if (system == "spins") {
    lat = models::square_cylinder(4, 3, true);
    sites = models::spin_half_sites(lat.num_sites);
    h = models::heisenberg_mpo(sites, lat, 1.0, 0.5);
    for (int i = 0; i < lat.num_sites; ++i) start.push_back(i % 2);
  } else if (system == "electrons") {
    lat = models::triangular_cylinder(3, 2);
    sites = models::electron_sites(lat.num_sites);
    h = models::hubbard_mpo(sites, lat, 1.0, 8.5);
    for (int i = 0; i < lat.num_sites; ++i) start.push_back(i % 2 == 0 ? 1 : 2);
  } else {
    TT_FAIL("--system must be spins or electrons");
  }
  std::cout << "System: " << lat.name << " (" << lat.num_sites << " sites), m = " << m
            << ", virtual cluster: " << nodes << " Blue-Waters nodes x 16\n\n";

  dmrg::Dmrg solver(mps::Mps::product_state(sites, start), h,
                    std::make_unique<dmrg::ContractionEngine>());
  dmrg::SweepParams p;
  p.max_m = m;
  p.davidson_iter = 3;
  solver.sweep(p);
  solver.engine().set_logging(true);
  const dmrg::SweepRecord rec = solver.sweep(p);

  Table table("engine comparison — sweep 2 of one solve, priced as each kind");
  table.header({"engine", "energy", "wall s", "sim s", "GFlop", "supersteps",
                "comm Mwords", "GF/s (sim)"});
  for (auto kind :
       {dmrg::EngineKind::kReference, dmrg::EngineKind::kList,
        dmrg::EngineKind::kSparseDense, dmrg::EngineKind::kSparseSparse}) {
    const rt::Cluster cluster{rt::blue_waters(),
                              kind == dmrg::EngineKind::kReference ? 1 : nodes, 16};
    const rt::CostTracker c = dmrg::price(kind, solver.engine().log(), cluster);
    table.row({dmrg::engine_name(kind), fmt(rec.energy, 9), fmt(rec.wall_seconds, 2),
               fmt(c.total_time(), 3), fmt(c.flops() / 1e9, 2),
               fmt(c.supersteps(), 0), fmt(c.words() / 1e6, 2),
               fmt(c.flops() / 1e9 / std::max(1e-12, c.total_time()), 1)});
  }
  table.print();
  std::cout << "\nOne solve prices as every engine: they execute the same block-wise\n"
               "contractions and differ only in the cost they are charged.\n";
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
