// Paper Fig 8: spins weak scaling on Blue Waters with the list algorithm.
// (a) relative efficiency at fixed m/node (m doubles with the node count;
//     note the paper's point that doubling m is 8x work and 4x memory),
// (b) peak relative efficiency vs node count, 16 vs 32 processes/node.
//
// Relative efficiency = (GFlop/s per node) / (single-node baseline rate at
// the smallest m) — baseline plays the paper's ITensor role.
#include <iostream>

#include "common.hpp"

namespace {

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig8_weak_scaling_spins");
  using namespace tt;
  auto spins = bench::Workload::spins();
  const auto ms = bench::spin_ms();
  if (bench::distributed_mode(cli, "bench_fig8_weak_scaling_spins",
                              spins, ms))
    return 0;
  const auto ks = bench::measure_ladder(spins, ms);
  const auto base = bench::baseline(ks.front(), rt::blue_waters());
  bench::Csv csv(cli.get("csv", ""),
                 "driver,workload,source,panel,m_equiv,nodes,ppn,gf_per_node,"
                 "rel_efficiency");

  {
    Table t("Fig 8a — weak scaling, fixed m/node (list, Blue Waters)");
    t.header({"m", "nodes", "ppn", "GF/s/node", "relative efficiency"});
    for (int ppn : {16, 32}) {
      int nodes = 1;
      for (const auto& k : ks) {
        const auto tr = bench::replayed(k, dmrg::EngineKind::kList,
                                        bench::cluster(rt::blue_waters(), nodes, ppn));
        const double per_node = bench::gflops_equiv(tr.flops(), tr.total_time()) / nodes;
        const double rel =
            per_node / bench::gflops_equiv(base.flops, base.sim_seconds);
        t.row({fmt_int(bench::m_equiv(k.m_actual)), std::to_string(nodes), std::to_string(ppn),
               fmt(per_node, 1), fmt(rel, 2)});
        csv.row({"bench_fig8_weak_scaling_spins", spins.name, "replayed", "8a",
                 std::to_string(bench::m_equiv(k.m_actual)), std::to_string(nodes),
                 std::to_string(ppn), fmt(per_node, 4), fmt(rel, 4)});
        nodes *= 2;
      }
    }
    t.print();
  }

  {
    Table t("Fig 8b — peak relative efficiency vs node count");
    t.header({"nodes", "ppn", "peak rel. efficiency", "@m"});
    for (int ppn : {16, 32}) {
      for (int nodes : bench::node_counts(bench::full_mode() ? 128 : 32)) {
        double best = 0.0;
        index_t best_m = 0;
        for (const auto& k : ks) {
          const auto tr = bench::replayed(k, dmrg::EngineKind::kList,
                                          bench::cluster(rt::blue_waters(), nodes, ppn));
          const double rel = bench::gflops_equiv(tr.flops(), tr.total_time()) / nodes /
                             bench::gflops_equiv(base.flops, base.sim_seconds);
          if (rel > best) {
            best = rel;
            best_m = bench::m_equiv(k.m_actual);
          }
        }
        t.row({std::to_string(nodes), std::to_string(ppn), fmt(best, 2),
               fmt_int(best_m)});
        csv.row({"bench_fig8_weak_scaling_spins", spins.name, "replayed", "8b",
                 std::to_string(best_m), std::to_string(nodes), std::to_string(ppn),
                 "", fmt(best, 4)});
      }
    }
    t.print();
  }

  std::cout << "\nShape to reproduce (paper Fig 8): efficiency stays near ideal\n"
               "when m doubles with the node count, and the preferred\n"
               "processes-per-node crosses from 32 to 16 at large node counts.\n";
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
