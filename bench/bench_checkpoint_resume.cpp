// Checkpoint/restart demo and overhead measurement: one DMRG run executed
// three ways on the same Heisenberg chain from the same product state —
//
//   baseline   uninterrupted run, no checkpointing
//   ckpt       same run snapshotting every few bonds (overhead column)
//   kill+resume  the checkpointed run killed mid-sweep through the
//              dmrg.kill_sweep fault point, then resumed from the latest
//              snapshot in a fresh solver
//
// Shape to reproduce: all three final energies are BITWISE identical (the
// restart contract of dmrg::CheckpointManager), and the ckpt column's
// overhead stays a small fraction of the sweep wall time.
//
// Flags: --checkpoint-dir <dir> (default: under TMPDIR), --csv <path>.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "dmrg/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "support/timer.hpp"

using namespace tt;

namespace {

dmrg::Dmrg make_solver(int n) {
  auto lat = models::chain(n);
  auto sites = models::spin_half_sites(n);
  auto h = models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  return dmrg::Dmrg(mps::Mps::product_state(sites, neel), h,
                    std::make_unique<dmrg::ContractionEngine>());
}

std::string default_dir() {
  const char* tmp = std::getenv("TMPDIR");
  return (std::filesystem::path(tmp != nullptr ? tmp : "/tmp") /
          "tt_bench_checkpoint")
      .string();
}

int run(const tt::Cli& cli) {
  bench::print_driver_header("bench_checkpoint_resume");

  const int n = bench::full_mode() ? 24 : 12;
  const index_t m = bench::full_mode() ? 48 : 24;
  const int sweeps = bench::full_mode() ? 6 : 4;
  const int every = 4;  // bonds between snapshots
  const std::string dir = cli.get("checkpoint-dir", default_dir());
  std::filesystem::remove_all(dir);

  std::vector<dmrg::SweepParams> schedule(static_cast<std::size_t>(sweeps));
  for (auto& p : schedule) {
    p.max_m = m;
    p.davidson_iter = 3;
    p.checkpoint_every = every;
  }
  std::vector<dmrg::SweepParams> plain = schedule;
  for (auto& p : plain) p.checkpoint_every = 0;

  // Baseline: no checkpointing.
  dmrg::Dmrg base = make_solver(n);
  Timer t0;
  const double e_base = base.run(plain);
  const double wall_base = t0.seconds();

  // Checkpointed, uninterrupted: measures the snapshot overhead.
  dmrg::CheckpointManager mgr(dir);
  dmrg::Dmrg ckpt = make_solver(n);
  ckpt.set_checkpointing(&mgr);
  Timer t1;
  const double e_ckpt = ckpt.run(schedule);
  const double wall_ckpt = t1.seconds();
  const long snapshots = mgr.sequence();

  // Kill mid-run (second sweep), then resume from the latest snapshot in a
  // fresh solver — the in-process stand-in for job preemption.
  std::filesystem::remove_all(dir);
  dmrg::CheckpointManager mgr2(dir);
  const int bonds_per_sweep = 2 * (n - 1);
  rt::FaultInjector::instance().configure(
      "dmrg.kill_sweep:nth=" + std::to_string(bonds_per_sweep + n / 2));
  double wall_killed = 0.0;
  {
    dmrg::Dmrg victim = make_solver(n);
    victim.set_checkpointing(&mgr2);
    Timer tk;
    try {
      (void)victim.run(schedule);
      std::cerr << "bench_checkpoint_resume: kill fault never fired\n";
      return 1;
    } catch (const Error&) {
      wall_killed = tk.seconds();
    }
  }
  rt::FaultInjector::instance().clear();

  dmrg::Dmrg revived = make_solver(n);
  revived.set_checkpointing(&mgr2);
  Timer t2;
  const double e_resume = revived.resume(schedule);
  const double wall_resume = t2.seconds();

  Table t("checkpoint/restart — heisenberg chain N=" + std::to_string(n) +
          ", m=" + std::to_string(m) + ", snapshot every " +
          std::to_string(every) + " bonds (dir: " + dir + ")");
  t.header({"run", "final energy", "wall s", "snapshots", "bitwise == base"});
  t.row({"baseline", fmt(e_base, 12), fmt_sci(wall_base, 2), "0", "-"});
  t.row({"checkpointed", fmt(e_ckpt, 12), fmt_sci(wall_ckpt, 2),
         std::to_string(snapshots), e_ckpt == e_base ? "yes" : "NO"});
  t.row({"kill+resume", fmt(e_resume, 12),
         fmt_sci(wall_killed + wall_resume, 2), std::to_string(mgr2.sequence()),
         e_resume == e_base ? "yes" : "NO"});
  t.print();
  std::cout << "\ncheckpoint overhead: "
            << fmt(100.0 * (wall_ckpt / wall_base - 1.0), 1)
            << "% of baseline wall time\n";

  bench::Csv csv(cli.get("csv", ""),
                 "driver,workload,run,energy,wall_s,snapshots,bitwise");
  const std::string workload = "heisenberg-chain-" + std::to_string(n);
  csv.row({"bench_checkpoint_resume", workload, "baseline", fmt(e_base, 12),
           fmt_sci(wall_base, 6), "0", "1"});
  csv.row({"bench_checkpoint_resume", workload, "checkpointed", fmt(e_ckpt, 12),
           fmt_sci(wall_ckpt, 6), std::to_string(snapshots),
           e_ckpt == e_base ? "1" : "0"});
  csv.row({"bench_checkpoint_resume", workload, "kill_resume", fmt(e_resume, 12),
           fmt_sci(wall_killed + wall_resume, 6), std::to_string(mgr2.sequence()),
           e_resume == e_base ? "1" : "0"});

  auto mr = bench::make_metrics("bench_checkpoint_resume");
  mr.add_context("workload", workload);
  mr.add_context("snapshot_every_bonds", static_cast<double>(every));
  mr.add("baseline", "energy", e_base);
  mr.add("baseline", "wall_s", wall_base);
  mr.add("baseline", "snapshots", 0.0);
  mr.add("checkpointed", "energy", e_ckpt);
  mr.add("checkpointed", "wall_s", wall_ckpt);
  mr.add("checkpointed", "snapshots", static_cast<double>(snapshots));
  mr.add("checkpointed", "bitwise", e_ckpt == e_base ? 1.0 : 0.0);
  mr.add("checkpointed", "overhead_pct",
         100.0 * (wall_ckpt / wall_base - 1.0));
  mr.add("kill_resume", "energy", e_resume);
  mr.add("kill_resume", "wall_s", wall_killed + wall_resume);
  mr.add("kill_resume", "snapshots", static_cast<double>(mgr2.sequence()));
  mr.add("kill_resume", "bitwise", e_resume == e_base ? 1.0 : 0.0);
  mr.write(cli.get("metrics", ""));

  if (e_ckpt != e_base || e_resume != e_base) {
    std::cerr << "bench_checkpoint_resume: BITWISE MISMATCH\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tt::Cli cli(argc, argv);
    cli.allow_only({"checkpoint-dir", "csv", "metrics"});
    return run(cli);
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
