// Paper Fig 11: electrons weak scaling — relative efficiency at fixed m/node
// and peak relative efficiency, for list and sparse-sparse on both machine
// presets.
//
// Shapes to reproduce: efficiency gained only at the largest problem sizes;
// sparse-sparse does not scale on Blue Waters but is marginally better on
// Stampede2; the list algorithm suffers from communication (BW) and
// transposition (S2) overheads on the many-small-blocks workload.
#include <iostream>

#include "common.hpp"

namespace {

void panel(const char* title, const tt::rt::MachineModel& machine, int ppn,
           const char* tag, const tt::bench::Workload& electrons,
           const std::vector<tt::bench::KernelMeasurement>& ks, tt::bench::Csv& csv) {
  using namespace tt;
  const auto base = bench::baseline(ks.front(), machine);

  Table t(title);
  t.header({"engine", "m", "nodes", "GF/s/node", "rel efficiency"});
  for (auto kind : {dmrg::EngineKind::kList, dmrg::EngineKind::kSparseSparse}) {
    int nodes = 1;
    for (const auto& k : ks) {
      const auto tr = bench::replayed(k, kind, bench::cluster(machine, nodes, ppn));
      const double per_node = bench::gflops_equiv(tr.flops(), tr.total_time()) / nodes;
      const double rel = per_node / bench::gflops_equiv(base.flops, base.sim_seconds);
      t.row({dmrg::engine_name(kind), fmt_int(bench::m_equiv(k.m_actual)), std::to_string(nodes),
             fmt(per_node, 1), fmt(rel, 2)});
      csv.row({"bench_fig11_weak_scaling_electrons", electrons.name, tag, "weak",
               dmrg::engine_name(kind), std::to_string(bench::m_equiv(k.m_actual)),
               std::to_string(nodes), std::to_string(ppn), fmt_sci(per_node, 6),
               fmt_sci(rel, 6)});
      nodes *= 2;
    }
  }
  t.print();

  Table pk("  peak relative efficiency vs node count");
  pk.header({"engine", "nodes", "peak rel eff", "@m"});
  for (auto kind : {dmrg::EngineKind::kList, dmrg::EngineKind::kSparseSparse}) {
    for (int nodes : bench::node_counts(bench::full_mode() ? 32 : 8)) {
      double best = 0.0;
      index_t best_m = 0;
      for (const auto& k : ks) {
        const auto tr = bench::replayed(k, kind, bench::cluster(machine, nodes, ppn));
        const double rel = bench::gflops_equiv(tr.flops(), tr.total_time()) / nodes /
                             bench::gflops_equiv(base.flops, base.sim_seconds);
        if (rel > best) {
          best = rel;
          best_m = bench::m_equiv(k.m_actual);
        }
      }
      pk.row({dmrg::engine_name(kind), std::to_string(nodes), fmt(best, 2),
              fmt_int(best_m)});
      csv.row({"bench_fig11_weak_scaling_electrons", electrons.name, tag, "peak",
               dmrg::engine_name(kind), std::to_string(best_m),
               std::to_string(nodes), std::to_string(ppn), "",
               fmt_sci(best, 6)});
    }
  }
  pk.print();
  std::cout << "\n";
}

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig11_weak_scaling_electrons");
  const auto electrons = tt::bench::Workload::electrons();
  const auto ms = tt::bench::electron_ms();
  if (tt::bench::distributed_mode(cli, "bench_fig11_weak_scaling_electrons", electrons,
                                  ms))
    return 0;
  tt::bench::Csv csv(cli.get("csv", ""),
                     "driver,workload,machine,series,engine,m_equiv,nodes,ppn,"
                     "gfs_per_node,rel_efficiency");
  const auto ks = tt::bench::measure_ladder(electrons, ms);
  panel("Fig 11 (left) — electrons weak scaling, Blue Waters (16/node)",
        tt::rt::blue_waters(), 16, "blue_waters", electrons, ks, csv);
  panel("Fig 11 (right) — electrons weak scaling, Stampede2 (64/node)",
        tt::rt::stampede2(), 64, "stampede2", electrons, ks, csv);
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
