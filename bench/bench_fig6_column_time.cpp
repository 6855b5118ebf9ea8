// Paper Fig 6: time spent per column of the cylinder during a full sweep at
// fixed m (list, spins).
//
// Shape to reproduce: per-column time is flat across the bulk and dips at the
// open edges (the paper uses this to justify timing only the middle columns).
#include <iostream>

#include "common.hpp"
#include "support/timer.hpp"

namespace {

int run() {
  tt::bench::print_driver_header("bench_fig6_column_time");
  using namespace tt;
  const int lx = 8, ly = bench::full_mode() ? 4 : 3;
  auto w = bench::Workload::spins(lx, ly);
  const index_t m = bench::spin_ms()[bench::spin_ms().size() / 2];

  // Grow to m with two untimed sweeps from a random state.
  Rng rng(2);
  auto psi = mps::Mps::random(w.sites, w.sector, m, rng);
  dmrg::Dmrg solver(std::move(psi), w.h, std::make_unique<dmrg::ContractionEngine>());
  solver.engine().set_logging(true);
  const rt::Cluster cl = bench::cluster(rt::blue_waters(), 4, 16);

  dmrg::SweepParams params;
  params.max_m = m;
  params.davidson_iter = 2;

  // One measured left-to-right half sweep, attributing each bond to the
  // column of its left site (columns hold `ly` sites): its log slice priced
  // as the list algorithm, and its wall time.
  std::vector<double> col_sim(static_cast<std::size_t>(lx), 0.0);
  std::vector<double> col_wall(static_cast<std::size_t>(lx), 0.0);
  for (int j = 0; j + 1 < solver.psi().size(); ++j) {
    solver.engine().clear_log();
    Timer timer;
    solver.optimize_bond(j, params, true);
    const int col = j / ly;
    col_wall[static_cast<std::size_t>(col)] += timer.seconds();
    col_sim[static_cast<std::size_t>(col)] +=
        dmrg::price(dmrg::EngineKind::kList, solver.engine().log(), cl).total_time();
  }

  Table t("Fig 6 — time per column, half sweep at m=" + fmt_int(m) + " (list, " +
          w.name + ")");
  t.header({"column", "sim s", "wall s"});
  for (int c = 0; c < lx; ++c)
    t.row({std::to_string(c + 1), fmt_sci(col_sim[static_cast<std::size_t>(c)], 2),
           fmt(col_wall[static_cast<std::size_t>(c)], 3)});
  t.print();

  // The paper's point: middle columns are representative.
  double middle = 0.0, edge = 0.0;
  for (int c = 1; c + 1 < lx; ++c) middle += col_sim[static_cast<std::size_t>(c)];
  middle /= (lx - 2);
  edge = 0.5 * (col_sim.front() + col_sim.back());
  std::cout << "\nbulk column mean / edge column mean = " << fmt(middle / edge, 2)
            << " (edges are cheaper; bulk columns are uniform)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tt::Cli(argc, argv).allow_only({});
    return run();
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
