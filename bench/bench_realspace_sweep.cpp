// Sweep-mode ablation: energy-vs-sweep and wall time for the serial sweep,
// the prefetch-overlapped serial sweep, and real-space parallel sweeps at
// R ∈ {2, 4} regions — all on the same Heisenberg chain from the same
// product state. The serial configurations are bitwise identical, charged
// cost included (prefetch only moves when the environment refresh runs); the
// real-space rows show the convergence cost of boundary reconciliation that
// buys intra-sweep parallelism.
//
// Shape to reproduce: all configurations converge to the same ground-state
// energy; regions>1 trails the serial energy by a reconciliation-limited gap
// in early sweeps and closes it as the state converges.
#include <iostream>
#include <vector>

#include "common.hpp"
#include "support/timer.hpp"

using namespace tt;

namespace {

struct Config {
  const char* label;
  dmrg::SweepMode mode;
  int regions;
  bool prefetch;
};

struct SweepRow {
  dmrg::SweepRecord rec;
  double wall_s;
};

dmrg::Dmrg make_solver(int n) {
  auto lat = models::chain(n);
  auto sites = models::spin_half_sites(n);
  auto h = models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  return dmrg::Dmrg(mps::Mps::product_state(sites, neel), h,
                    dmrg::make_engine(dmrg::EngineKind::kReference,
                                      {rt::localhost(), 1, 1}));
}

}  // namespace

int main(int argc, char** argv) {
  const int n = bench::full_mode() ? 32 : 16;
  const index_t m = bench::full_mode() ? 48 : 24;
  const int sweeps = bench::full_mode() ? 8 : 6;

  const std::vector<Config> configs = {
      {"serial", dmrg::SweepMode::kSerial, 1, false},
      {"serial+prefetch", dmrg::SweepMode::kSerial, 1, true},
      {"real-space R=2", dmrg::SweepMode::kRealSpace, 2, false},
      {"real-space R=4", dmrg::SweepMode::kRealSpace, 4, false},
  };

  bench::Csv csv(bench::csv_path(argc, argv),
                 "driver,workload,mode,regions,prefetch,sweep,energy,max_bond,"
                 "trunc_err,wall_s,gemm_s,prefetch_launched,"
                 "prefetch_wait_s,total_flops");

  const std::string workload = "heisenberg-chain-" + std::to_string(n);
  auto mr = bench::make_metrics("bench_realspace_sweep");
  mr.add_context("workload", workload);
  mr.add_context("sweeps", static_cast<double>(sweeps));
  std::vector<double> totals;
  std::vector<double> finals;
  for (const Config& c : configs) {
    bench::print_driver_header("bench_realspace_sweep", c.mode, c.regions);

    dmrg::Dmrg solver = make_solver(n);
    dmrg::SweepParams p;
    p.max_m = m;
    p.davidson_iter = 3;
    p.mode = c.mode;
    p.regions = c.regions;
    p.prefetch = c.prefetch;

    std::vector<SweepRow> rows;
    double total = 0.0;
    for (int s = 0; s < sweeps; ++s) {
      Timer timer;
      dmrg::SweepRecord rec = solver.sweep(p);
      const double wall = timer.seconds();
      total += wall;
      rows.push_back({rec, wall});
    }
    totals.push_back(total);
    finals.push_back(rows.back().rec.energy);

    Table t(std::string("energy vs sweep — ") + c.label + " (N=" +
            std::to_string(n) + ", m=" + std::to_string(m) + ")");
    t.header({"sweep", "energy", "max m", "trunc err", "wall s", "gemm s",
              "pf launched", "pf wait s"});
    for (const SweepRow& r : rows) {
      t.row({std::to_string(r.rec.sweep), fmt(r.rec.energy, 10),
             fmt_int(r.rec.max_bond_dim), fmt_sci(r.rec.truncation_error, 2),
             fmt_sci(r.wall_s, 2),
             fmt_sci(r.rec.costs.time(rt::Category::kGemm), 2),
             std::to_string(r.rec.prefetch_launched),
             fmt_sci(r.rec.prefetch_wait_seconds, 2)});
      csv.row({"bench_realspace_sweep", workload,
               dmrg::sweep_mode_name(r.rec.mode), std::to_string(r.rec.regions),
               c.prefetch ? "1" : "0", std::to_string(r.rec.sweep),
               fmt(r.rec.energy, 12), std::to_string(r.rec.max_bond_dim),
               fmt_sci(r.rec.truncation_error, 6), fmt_sci(r.wall_s, 6),
               fmt_sci(r.rec.costs.time(rt::Category::kGemm), 6),
               std::to_string(r.rec.prefetch_launched),
               fmt_sci(r.rec.prefetch_wait_seconds, 6),
               fmt_sci(r.rec.costs.flops(), 6)});
    }
    t.print();
    bench::print_metrics_summary(std::string("breakdown — ") + c.label +
                                     ", final sweep",
                                 rows.back().rec.costs);
    // Section per config keyed on the final sweep; total wall time covers all.
    const std::string sec = c.label;
    bench::add_sweep_metrics(mr, sec, rows.back().rec);
    mr.add(sec, "total_wall_s", total);
    std::cout << "\n";
  }

  Table s("ablation summary — total wall time and final energy");
  s.header({"config", "regions", "prefetch", "final energy", "total wall s",
            "vs serial"});
  for (std::size_t i = 0; i < configs.size(); ++i)
    s.row({configs[i].label, std::to_string(configs[i].regions),
           configs[i].prefetch ? "on" : "off", fmt(finals[i], 10),
           fmt_sci(totals[i], 2), fmt(totals[i] / totals[0], 2)});
  s.print();
  std::cout << "\nShape to reproduce: identical final energies across\n"
               "configurations (serial rows bitwise equal); real-space rows\n"
               "trade a small early-sweep energy lag for intra-sweep\n"
               "parallelism across regions.\n";
  mr.write(bench::metrics_path(argc, argv));
  return 0;
}
