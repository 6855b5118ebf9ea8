// Paper Fig 7: percentage time breakdown — SVD / load imbalance / CTF
// transposition / communication / GEMM.
//
// (a) spins with the list algorithm on Blue Waters, node counts 16..128:
//     GEMM share grows with m, communication+SVD significant but not
//     dominant.
// (b) electrons at fixed m on Blue Waters and Stampede2, list vs
//     sparse-sparse: list is dominated by communication (BW) and
//     transposition (S2); sparse-sparse spends more of its time in (sparse)
//     GEMM.
#include <iostream>

#include "common.hpp"

namespace {

int run(const tt::Cli& cli) {
  tt::bench::print_driver_header("bench_fig7_breakdown");
  using namespace tt;
  auto spins = bench::Workload::spins();
  auto electrons = bench::Workload::electrons();
  auto mr = bench::make_metrics("bench_fig7_breakdown");

  {
    Table t("Fig 7a — spins, list, Blue Waters (16/node): % time by category");
    t.header({"m", "nodes", "GEMM", "Comm", "CTF transp", "SVD", "Imbalance"});
    const auto ms = bench::spin_ms();
    const int nodes_for[] = {16, 32, 64, 128};
    for (std::size_t i = 0; i < ms.size(); ++i) {
      auto k = bench::measure_step(spins, dmrg::EngineKind::kList, ms[i]);
      const int nodes = nodes_for[std::min<std::size_t>(i, 3)];
      auto tr = bench::replayed(k, bench::cluster(rt::blue_waters(), nodes, 16));
      auto p = bench::pct_cells(tr);
      t.row({fmt_int(k.m_actual), std::to_string(nodes), p[0], p[1], p[2], p[3],
             p[4]});
      mr.add_tracker("fig7a.m" + std::to_string(ms[i]) + ".nodes" +
                         std::to_string(nodes),
                     tr);
    }
    t.print();
    std::cout << "\n";
  }

  {
    const index_t m = bench::electron_ms().back();
    Table t("Fig 7b — electrons at m=" + fmt_int(m) +
            ": % time by category (4 BW nodes / 8 S2 nodes)");
    t.header({"machine", "engine", "GEMM", "Comm", "CTF transp", "SVD",
              "Imbalance"});
    for (auto kind : {dmrg::EngineKind::kList, dmrg::EngineKind::kSparseSparse}) {
      auto k = bench::measure_step(electrons, kind, m);
      auto bw = bench::replayed(k, bench::cluster(rt::blue_waters(), 4, 16));
      auto s2 = bench::replayed(k, bench::cluster(rt::stampede2(), 8, 64));
      auto pbw = bench::pct_cells(bw);
      auto ps2 = bench::pct_cells(s2);
      t.row({"blue-waters", dmrg::engine_name(kind), pbw[0], pbw[1], pbw[2],
             pbw[3], pbw[4]});
      t.row({"stampede2", dmrg::engine_name(kind), ps2[0], ps2[1], ps2[2], ps2[3],
             ps2[4]});
      mr.add_tracker(std::string("fig7b.blue-waters.") + dmrg::engine_name(kind),
                     bw);
      mr.add_tracker(std::string("fig7b.stampede2.") + dmrg::engine_name(kind),
                     s2);
    }
    t.print();
  }

  std::cout << "\nShapes to reproduce (paper Fig 7): GEMM share grows with m in\n"
               "(a); in (b) the list algorithm pays more communication on Blue\n"
               "Waters and more transposition on Stampede2, while sparse-sparse\n"
               "shifts time into (sparse) GEMM.\n";
  mr.write(cli.get("metrics", ""));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tt::Cli cli(argc, argv);
    cli.allow_only({"metrics"});
    return run(cli);
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
