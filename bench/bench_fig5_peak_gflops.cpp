// Paper Fig 5: peak performance rate (GFlop/s) vs bond dimension, annotated
// with the node count that achieves it — spins with the list algorithm
// (left panel, Blue Waters) and electrons with list + sparse-sparse (right
// panel, Stampede2 in the paper's right-panel series).
//
// Shape to reproduce: rate grows with m (bigger blocks feed the machine
// better) and the optimal node count grows with m.
//
// Usage: bench_fig5_peak_gflops [--csv <path>]
// The CSV records the host GEMM peak rows (backend, m, n, k, GFLOP/s) — the
// first piece of the machine-readable artifact pipeline; the simulated panels
// stay on stdout.
#include <iostream>

#include "common.hpp"
#include "linalg/backend.hpp"
#include "linalg/gemm.hpp"
#include "support/timer.hpp"

namespace {

// Measured dgemm-equivalent throughput of the library's GEMM on this host:
// the paper's "peak rate" denominator, and the number the ≥2× builtin-GEMM
// acceptance check reads (512³ row).
void host_gemm_peak(tt::bench::Csv& csv) {
  using namespace tt;
  Table t("Host GEMM peak (this machine)");
  t.header({"backend", "m", "n", "k", "GF/s"});
  const struct {
    index_t m, n, k;
  } sizes[] = {{256, 256, 256}, {512, 512, 512}, {1024, 1024, 512}, {512, 2048, 128}};
  for (const auto& s : sizes) {
    Rng rng(5);
    const auto a = linalg::Matrix::random(s.m, s.k, rng);
    const auto b = linalg::Matrix::random(s.k, s.n, rng);
    linalg::Matrix c(s.m, s.n);
    linalg::gemm(false, false, 1.0, a, b, 0.0, c);  // warm-up
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Timer timer;
      linalg::gemm(false, false, 1.0, a, b, 0.0, c);
      best = std::min(best, timer.seconds());
    }
    const double gfs = linalg::gemm_flops(s.m, s.n, s.k) / best / 1e9;
    t.row({linalg::backend_name(), fmt_int(s.m), fmt_int(s.n), fmt_int(s.k),
           fmt(gfs, 2)});
    csv.row({linalg::backend_name(), std::to_string(s.m), std::to_string(s.n),
             std::to_string(s.k), fmt(gfs, 3)});
  }
  t.print();
  std::cout << "\n";
}

void panel(const char* title, const tt::bench::Workload& w,
           const std::vector<tt::dmrg::EngineKind>& kinds,
           const std::vector<tt::index_t>& ms, const tt::rt::MachineModel& machine,
           int ppn) {
  using namespace tt;
  Table t(title);
  std::vector<std::string> head{"engine", "m(eq)"};
  for (int n : bench::node_counts(256)) head.push_back(std::to_string(n) + "n");
  head.push_back("peak GF/s");
  head.push_back("@nodes");
  t.header(head);

  for (auto kind : kinds) {
    for (index_t m : ms) {
      const auto k = bench::measure_step(w, m);
      const double flops = k.flops(kind);
      std::vector<std::string> row{dmrg::engine_name(kind),
                                   fmt_int(bench::m_equiv(k.m_actual))};
      double best = 0.0;
      int best_n = 1;
      for (int n : bench::node_counts(256)) {
        const double gfs = bench::gflops_equiv(
            flops, bench::sim_seconds(k, kind, bench::cluster(machine, n, ppn)));
        row.push_back(fmt(gfs, 0));
        if (gfs > best) {
          best = gfs;
          best_n = n;
        }
      }
      row.push_back(fmt(best, 0));
      row.push_back(std::to_string(best_n));
      t.row(row);
    }
  }
  t.print();
  std::cout << "\n";
}

int run(const tt::Cli& cli) {
  using namespace tt;
  bench::print_driver_header("bench_fig5_peak_gflops");
  const std::string csv_file = cli.get("csv", "");
  bench::Csv csv = csv_file.empty() ? bench::Csv()
                                    : bench::Csv(csv_file, "backend,m,n,k,gflops");
  host_gemm_peak(csv);

  auto spins = bench::Workload::spins();
  auto electrons = bench::Workload::electrons();

  panel("Fig 5 (left) — spins, list, Blue Waters preset, 16/node", spins,
        {dmrg::EngineKind::kList}, bench::spin_ms(), rt::blue_waters(), 16);
  panel("Fig 5 (right) — electrons, list & sparse-sparse, Stampede2 preset, 64/node",
        electrons, {dmrg::EngineKind::kList, dmrg::EngineKind::kSparseSparse},
        bench::electron_ms(), rt::stampede2(), 64);

  std::cout << "Paper reference points: 3.1 TF/s peak on Blue Waters (spins),\n"
               "198 GF/s on Stampede2 (electrons); absolute numbers here are\n"
               "scaled with m — the shape (rate and optimal node count grow\n"
               "with m) is the reproduced claim.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tt::Cli cli(argc, argv);
    cli.allow_only({"csv"});
    return run(cli);
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
