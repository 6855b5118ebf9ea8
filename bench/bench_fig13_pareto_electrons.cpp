// Paper Fig 13: electron-system execution time and node-hour cost relative to
// the single-node baseline, for list (circles) and sparse-sparse (diamonds)
// on Blue Waters (left) and Stampede2 (right).
//
// Shapes to reproduce: on Blue Waters only the list algorithm is efficient in
// both time and cost (paper: ~8x speedup at ~1x relative rate); sparse-sparse
// buys time at a steep cost (paper: 14x rate at 4.5x cost); on Stampede2 the
// gap between the algorithms narrows.
#include <algorithm>
#include <iostream>

#include "common.hpp"

namespace {

void panel(const char* title, const tt::rt::MachineModel& machine, int ppn,
           const char* tag, const tt::bench::Workload& electrons,
           const std::vector<tt::bench::KernelMeasurement>& ks, tt::bench::Csv& csv) {
  using namespace tt;
  const auto base = bench::baseline(ks.front(), machine);

  Table t(title);
  t.header({"engine", "m", "nodes", "rel time", "rel cost", "rate speedup"});
  for (auto kind : {dmrg::EngineKind::kList, dmrg::EngineKind::kSparseSparse}) {
    for (const auto& k : ks) {
      const double flops = k.flops(kind);
      const double base_time =
          k.flops(dmrg::EngineKind::kReference) / (base.gflops_rate * 1e9);
      double best_time = 1e300;
      int best_nodes = 1;
      for (int nodes : bench::node_counts(bench::full_mode() ? 32 : 8)) {
        const double secs =
            bench::sim_seconds(k, kind, bench::cluster(machine, nodes, ppn));
        if (secs < best_time) {
          best_time = secs;
          best_nodes = nodes;
        }
      }
      t.row({dmrg::engine_name(kind), fmt_int(bench::m_equiv(k.m_actual)),
             std::to_string(best_nodes), fmt(best_time / base_time, 3),
             fmt(best_time * best_nodes / base_time, 2),
             fmt((flops / best_time) / (base.gflops_rate * 1e9), 1)});
      csv.row({"bench_fig13_pareto_electrons", electrons.name, tag,
               dmrg::engine_name(kind), std::to_string(bench::m_equiv(k.m_actual)),
               std::to_string(best_nodes), std::to_string(ppn),
               fmt_sci(best_time / base_time, 6),
               fmt_sci(best_time * best_nodes / base_time, 6),
               fmt_sci((flops / best_time) / (base.gflops_rate * 1e9), 6)});
    }
  }
  t.print();
  std::cout << "\n";
}

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig13_pareto_electrons");
  const auto electrons = tt::bench::Workload::electrons();
  const auto ms = tt::bench::electron_ms();
  if (tt::bench::distributed_mode(cli, "bench_fig13_pareto_electrons", electrons, ms))
    return 0;
  tt::bench::Csv csv(cli.get("csv", ""),
                     "driver,workload,machine,engine,m_equiv,nodes,ppn,"
                     "rel_time,rel_cost,rate_speedup");
  const auto ks = tt::bench::measure_ladder(electrons, ms);
  panel("Fig 13 (left) — electrons relative time vs cost, Blue Waters (16/node)",
        tt::rt::blue_waters(), 16, "blue_waters", electrons, ks, csv);
  panel("Fig 13 (right) — electrons relative time vs cost, Stampede2 (64/node)",
        tt::rt::stampede2(), 64, "stampede2", electrons, ks, csv);
  std::cout << "Shape to reproduce (paper Fig 13): list is cost-efficient on\n"
               "Blue Waters; sparse-sparse reaches higher rates at higher cost;\n"
               "the cost gap narrows on Stampede2.\n";
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
