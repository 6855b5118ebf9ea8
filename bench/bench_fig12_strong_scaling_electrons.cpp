// Paper Fig 12: strong scaling of the sparse-sparse algorithm for electrons
// at fixed m, on Blue Waters (left) and Stampede2 (right).
//
// Shape to reproduce: close to (or apparently better than) ideal speedup at
// the benchmark m on a few node doublings; the minimum usable node count is
// higher on Stampede2 because the fused sparse format costs more memory than
// the list format (paper: 4 nodes minimum vs 2 on Blue Waters).
#include <iostream>

#include "common.hpp"

namespace {

void panel(const char* title, const tt::rt::MachineModel& machine, int ppn,
           int min_nodes, const char* tag, const tt::bench::Workload& electrons,
           const tt::bench::KernelMeasurement& k, tt::bench::Csv& csv) {
  using namespace tt;
  const auto ss = dmrg::EngineKind::kSparseSparse;

  Table t(title);
  t.header({"nodes", "sim s", "speedup", "efficiency"});
  const double t1 = bench::sim_seconds(k, ss, bench::cluster(machine, min_nodes, ppn));
  for (int nodes = min_nodes; nodes <= (bench::full_mode() ? 32 : 16); nodes *= 2) {
    const double tn = bench::sim_seconds(k, ss, bench::cluster(machine, nodes, ppn));
    const double speedup = t1 / tn * min_nodes;
    t.row({std::to_string(nodes), fmt_sci(tn, 2), fmt(speedup / min_nodes, 2),
           fmt(speedup / nodes, 2)});
    csv.row({"bench_fig12_strong_scaling_electrons", electrons.name, tag,
             std::to_string(bench::m_equiv(k.m_actual)), std::to_string(ppn),
             std::to_string(nodes), fmt_sci(tn, 6),
             fmt_sci(speedup / min_nodes, 6), fmt_sci(speedup / nodes, 6)});
  }
  t.print();
  std::cout << "\n";
}

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig12_strong_scaling_electrons");
  const auto electrons = tt::bench::Workload::electrons();
  const auto ms = tt::bench::electron_ms();
  if (tt::bench::distributed_mode(cli, "bench_fig12_strong_scaling_electrons", electrons,
                                  ms))
    return 0;
  tt::bench::Csv csv(cli.get("csv", ""),
                     "driver,workload,machine,m_equiv,ppn,nodes,sim_s,speedup,"
                     "efficiency");
  const auto k = tt::bench::measure_step(electrons, ms.back());  // paper: m = 8192
  panel("Fig 12 (left) — electrons sparse-sparse strong scaling at fixed m, Blue Waters",
        tt::rt::blue_waters(), 16, 2, "blue_waters", electrons, k, csv);
  panel("Fig 12 (right) — electrons sparse-sparse strong scaling at fixed m, Stampede2",
        tt::rt::stampede2(), 64, 4, "stampede2", electrons, k, csv);
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
