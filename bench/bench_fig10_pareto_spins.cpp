// Paper Fig 10: spin-system execution time and node-hour cost relative to the
// single-node baseline's maximum performance rate, sweeping hyperparameters
// (engine ∈ {list, sparse-dense}, node count, procs/node, m) on the Blue
// Waters and Stampede2 presets.
//
// Shapes to reproduce: speedups grow from ~6x toward ~100x in performance
// rate as m grows, at a relative cost near ~1.5x; on Blue Waters the Pareto
// frontier consists entirely of list-algorithm points.
#include <algorithm>
#include <iostream>

#include "common.hpp"

namespace {

struct Point {
  std::string engine;
  tt::index_t m;
  int nodes, ppn;
  double rel_time, rel_cost, rate_speedup;
  bool pareto = false;
};

void mark_pareto(std::vector<Point>& pts) {
  for (auto& p : pts) {
    p.pareto = true;
    for (const auto& q : pts)
      if (q.rel_cost <= p.rel_cost && q.rel_time < p.rel_time && q.m >= p.m)
        p.pareto = false;
  }
}

void panel(const char* title, const tt::rt::MachineModel& machine,
           const char* tag, tt::bench::Csv& csv) {
  using namespace tt;
  auto spins = bench::Workload::spins();
  const auto ms = bench::spin_ms();
  const auto base = bench::baseline(spins, machine, ms.front());

  std::vector<Point> pts;
  for (auto kind : {dmrg::EngineKind::kList, dmrg::EngineKind::kSparseDense}) {
    for (index_t m : ms) {
      const auto k = bench::measure_step(spins, m);
      const double flops = k.flops(kind);
      // Extrapolated single-node baseline time at this m (paper method: the
      // baseline's max rate applied to this problem's flops).
      const double base_time =
          k.flops(dmrg::EngineKind::kReference) / (base.gflops_rate * 1e9);
      for (int nodes : bench::node_counts(bench::full_mode() ? 64 : 16)) {
        for (int ppn : {16, 32}) {
          const double secs =
              bench::sim_seconds(k, kind, bench::cluster(machine, nodes, ppn));
          Point p;
          p.engine = dmrg::engine_name(kind);
          p.m = bench::m_equiv(k.m_actual);
          p.nodes = nodes;
          p.ppn = ppn;
          p.rel_time = secs / base_time;
          p.rel_cost = secs * nodes / base_time;
          p.rate_speedup = (flops / secs) / (base.gflops_rate * 1e9);
          pts.push_back(p);
        }
      }
    }
  }
  mark_pareto(pts);

  Table t(title);
  t.header({"engine", "m", "nodes", "ppn", "rel time", "rel cost",
            "rate speedup", "pareto"});
  std::sort(pts.begin(), pts.end(), [](const Point& a, const Point& b) {
    return a.rel_cost < b.rel_cost;
  });
  int printed = 0;
  for (const auto& p : pts) {
    if (!p.pareto && printed > 40) continue;  // keep output readable
    t.row({p.engine, fmt_int(p.m), std::to_string(p.nodes), std::to_string(p.ppn),
           fmt(p.rel_time, 3), fmt(p.rel_cost, 2), fmt(p.rate_speedup, 1),
           p.pareto ? "*" : ""});
    ++printed;
  }
  t.print();
  // The CSV carries every point, not just the readable subset.
  for (const auto& p : pts)
    csv.row({"bench_fig10_pareto_spins", spins.name, tag, p.engine,
             std::to_string(p.m), std::to_string(p.nodes), std::to_string(p.ppn),
             fmt_sci(p.rel_time, 6), fmt_sci(p.rel_cost, 6),
             fmt_sci(p.rate_speedup, 6), p.pareto ? "1" : "0"});

  int list_pareto = 0, other_pareto = 0;
  for (const auto& p : pts)
    if (p.pareto) (p.engine == "list" ? list_pareto : other_pareto)++;
  std::cout << "Pareto points: list " << list_pareto << ", sparse-dense "
            << other_pareto << "\n\n";
}

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig10_pareto_spins");
  if (tt::bench::distributed_mode(cli, "bench_fig10_pareto_spins",
                                  tt::bench::Workload::spins(),
                                  tt::bench::spin_ms()))
    return 0;
  tt::bench::Csv csv(cli.get("csv", ""),
                     "driver,workload,machine,engine,m_equiv,nodes,ppn,"
                     "rel_time,rel_cost,rate_speedup,pareto");
  panel("Fig 10 (left) — spins relative time vs cost, Blue Waters",
        tt::rt::blue_waters(), "blue_waters", csv);
  panel("Fig 10 (right) — spins relative time vs cost, Stampede2",
        tt::rt::stampede2(), "stampede2", csv);
  std::cout << "Shape to reproduce (paper Fig 10): on Blue Waters the Pareto\n"
               "frontier is all list-algorithm points; best speedups come at\n"
               "modest extra cost (paper: 5.9x-99x rate at ~1.5x cost).\n";
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
