// Paper Fig 9: strong scaling of the list algorithm for spins at fixed m on
// Blue Waters — speedup (left) and efficiency (right), 16 vs 32 procs/node.
//
// Shape to reproduce: near-ideal speedup only for a modest node-count
// increase; efficiency decays to ~60% after a further doubling (limited
// concurrency at fixed problem size).
#include <iostream>

#include "common.hpp"

namespace {

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig9_strong_scaling_spins");
  using namespace tt;
  auto spins = bench::Workload::spins();
  if (bench::distributed_mode(cli, "bench_fig9_strong_scaling_spins",
                              spins, bench::spin_ms()))
    return 0;
  const index_t m = bench::spin_ms().back();  // paper: m = 8192 fixed
  auto k = bench::measure_step(spins, m);
  const auto list = dmrg::EngineKind::kList;
  auto mr = bench::make_metrics("bench_fig9_strong_scaling_spins");
  mr.add_context("workload", spins.name);
  mr.add_context("m_equiv", static_cast<double>(bench::m_equiv(k.m_actual)));

  bench::Csv csv(cli.get("csv", ""),
                 "driver,workload,source,m_equiv,ppn,nodes,sim_s,speedup,efficiency");
  Table t("Fig 9 — strong scaling, spins list at m(eq)=" + fmt_int(bench::m_equiv(k.m_actual)) +
          " (Blue Waters)");
  t.header({"ppn", "nodes", "sim s", "speedup", "efficiency"});
  for (int ppn : {16, 32}) {
    const double t1 =
        bench::sim_seconds(k, list, bench::cluster(rt::blue_waters(), 1, ppn));
    for (int nodes : bench::node_counts(64)) {
      const auto tr =
          bench::replayed(k, list, bench::cluster(rt::blue_waters(), nodes, ppn));
      const double tn = tr.total_time();
      const double speedup = t1 / tn;
      t.row({std::to_string(ppn), std::to_string(nodes), fmt_sci(tn, 2),
             fmt(speedup, 2), fmt(speedup / nodes, 2)});
      csv.row({"bench_fig9_strong_scaling_spins", spins.name, "replayed",
               std::to_string(bench::m_equiv(k.m_actual)), std::to_string(ppn),
               std::to_string(nodes), fmt_sci(tn, 6), fmt(speedup, 4),
               fmt(speedup / nodes, 4)});
      const std::string sec =
          "fig9.ppn" + std::to_string(ppn) + ".nodes" + std::to_string(nodes);
      mr.add(sec, "speedup", speedup);
      mr.add(sec, "efficiency", speedup / nodes);
      mr.add_tracker(sec, tr);
    }
  }
  t.print();
  mr.write(cli.get("metrics", ""));

  std::cout << "\nShape to reproduce (paper Fig 9): speedup saturates after a\n"
               "few doublings; efficiency drops to roughly 60% and below as the\n"
               "fixed-size blocks can no longer fill the machine.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tt::Cli cli(argc, argv);
    cli.allow_only({"csv", "metrics", "ranks"});
    return run(cli);
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
