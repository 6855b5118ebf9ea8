// Shared machinery for the paper-reproduction benches.
//
// Methodology (mirrors paper §VI): an MPS is grown to the target bond
// dimension m (untimed), then a single two-site DMRG optimization at the
// middle bond is executed and measured — 2 Davidson matvecs, the truncated
// SVD, and one environment update. The engine's kind-neutral op log is
// captured once per step, so the BSP cost model can price it as any
// algorithm on any virtual cluster without re-executing the numerics
// (dmrg/replay.hpp); measurements are cached on disk because several figure
// benches share them.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "dmrg/replay.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "runtime/metrics.hpp"
#include "runtime/scheduler.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace tt::bench {

/// Standard driver banner: driver name, linalg kernel set, thread count and
/// scale factor. Every bench main prints this first so any recorded output
/// identifies the kernel configuration that produced it (see
/// docs/BENCHMARKS.md). Resolving TT_BENCH_SCALE, TT_BENCH_FULL and the
/// thread count here also makes a bad value of any of them fail before any
/// work.
void print_driver_header(const std::string& driver);

/// MetricsRegistry pre-loaded with the context every driver shares: linalg
/// kernel set, thread count, scale factor.
rt::MetricsRegistry make_metrics(const std::string& driver);

/// Per-category percentage cells of a breakdown table row — one cell per
/// paper Fig 7 category. The one formatter behind every driver's breakdown
/// table.
std::vector<std::string> pct_cells(const rt::CostTracker& t, int decimals = 1);

/// One standardized breakdown line — total simulated seconds followed by
/// each nonzero category's share — replacing the drivers' hand-rolled stats
/// printing.
void print_metrics_summary(const std::string& title, const rt::CostTracker& t,
                           std::ostream& os = std::cout);

/// Flatten a SweepRecord into `mr` section `sec`: energy, bond dimension,
/// wall time, prefetch counters. Lives here because rt::MetricsRegistry
/// cannot depend on the dmrg layer.
void add_sweep_metrics(rt::MetricsRegistry& mr, const std::string& sec,
                       const dmrg::SweepRecord& rec);

/// Append-only CSV emitter for the artifact pipeline. Inactive (row() is a
/// no-op) when constructed without a path; writes the header line on open and
/// throws tt::Error when the path cannot be opened.
class Csv {
 public:
  Csv() = default;
  Csv(const std::string& path, const std::string& header);

  bool active() const { return out_ != nullptr; }
  void row(const std::vector<std::string>& cells);

 private:
  std::shared_ptr<std::ofstream> out_;
};

/// One benchmark system (the paper's "spins" or "electrons" workload).
struct Workload {
  std::string name;
  models::Lattice lat;
  mps::SiteSetPtr sites;
  mps::Mpo h;
  symm::QN sector;

  /// J1–J2 Heisenberg cylinder at J2/J1 = 0.5 (paper: 20×10; scaled here).
  static Workload spins(int lx = 6, int ly = 4, double j2 = 0.5);
  /// Triangular Hubbard cylinder at U = 8.5, half filling (paper: 6×6 XC6).
  static Workload electrons(int lx = 4, int ly = 3, double u = 8.5);
};

/// Captured execution of one two-site optimization: one recorded log, priced
/// per algorithm.
struct KernelMeasurement {
  index_t m_actual = 0;    ///< realized bond dimension at the middle bond
  int theta_blocks = 0;    ///< block count of the two-site tensor
  index_t largest_block = 0;  ///< largest bond-sector dimension
  double fill = 0.0;       ///< fused fill fraction of the two-site tensor
  std::vector<dmrg::OpRecord> log;  ///< kind-neutral op stream

  /// Flops the step is charged when priced as `kind` (any cluster).
  double flops(dmrg::EngineKind kind) const;
};

/// Execute (or load from cache) one measured step. A missing cache file is a
/// miss; a malformed one is a tt::Error naming the file.
KernelMeasurement measure_step(const Workload& w, index_t m, unsigned seed = 1);

/// Simulated seconds of a measurement priced as `kind` on a cluster.
double sim_seconds(const KernelMeasurement& k, dmrg::EngineKind kind,
                   const rt::Cluster& cluster);

/// Full cost tracker of a measurement priced as `kind` on a cluster.
rt::CostTracker replayed(const KernelMeasurement& k, dmrg::EngineKind kind,
                         const rt::Cluster& cluster);

/// Measured execution of one two-site optimization across real scheduler
/// ranks (multi-process by default). Unlike KernelMeasurement — whose
/// communication numbers come from replaying the BSP cost model on a virtual
/// cluster — every number here is measured on this host: wall time, per-rank
/// busy time, bytes actually moved by the transport, and the idle tails.
struct DistMeasurement {
  int ranks = 0;
  rt::SpawnMode mode = rt::SpawnMode::kProcess;
  double flops = 0.0;          ///< flops of the measured step priced as list
  double wall_seconds = 0.0;   ///< real end-to-end time of the step
  index_t m_actual = 0;        ///< realized bond dimension at the middle bond
  rt::DistStats dist;          ///< the step's measured exchanges, per rank
};

/// Execute one middle-bond optimization routed through a `ranks`-rank
/// rt::Scheduler. Never cached: this is a real measurement of this machine,
/// not a replayable log.
DistMeasurement measure_step_distributed(const Workload& w, index_t m, int ranks,
                                         unsigned seed = 1);

/// Shared "--ranks N" mode of the figure drivers: when the flag is present,
/// run measured distributed steps over `ms` instead of the replayed figure,
/// print the measured table, emit `--csv` rows tagged source=measured (plus
/// the BSP-replayed analogue rows for contrast), and return true — the
/// driver exits. Returns false when "--ranks" is absent; throws tt::Error
/// when N is not an integer of at least 2.
bool distributed_mode(const Cli& cli, const std::string& driver, const Workload& w,
                      const std::vector<index_t>& ms);

/// Single-node baseline ("ITensor" stand-in): a step priced as the reference
/// kind on one node of `machine`. gflops_rate is used for the paper's
/// extrapolated comparisons.
struct Baseline {
  double flops = 0.0;
  double sim_seconds = 0.0;
  double gflops_rate = 0.0;
};
Baseline baseline(const Workload& w, const rt::MachineModel& machine, index_t m,
                  unsigned seed = 1);

/// True when TT_BENCH_FULL=1 (larger sweeps, closer to paper scale). The
/// value must be 0 or 1 (empty counts as unset); anything else is a tt::Error.
bool full_mode();

/// Scale factor sf between bench and paper bond dimensions (default 64, env
/// TT_BENCH_SCALE, a finite number >= 1; empty counts as unset, anything else
/// is a tt::Error): bench m=128 stands for paper m=8192. The simulated
/// machine is rescaled accordingly — node rate by 1/sf³, bandwidths by 1/sf²,
/// per-event costs (latency, block launch) unchanged — so one bench flop
/// prices like sf³ paper flops and every reported *ratio* (efficiency,
/// speedup, breakdown) transfers to paper scale. See docs/BENCHMARKS.md.
double scale_factor();

/// Cost-model parameters consistent with the scale transformation.
rt::CostModelParams scaled_params();

/// A virtual cluster viewed at paper scale.
rt::Cluster cluster(const rt::MachineModel& machine, int nodes, int ppn);

/// Paper-equivalent GFlop/s of a measurement on a cluster.
double gflops_equiv(double bench_flops, double sim_secs);

/// Paper-equivalent bond dimension of a bench m.
index_t m_equiv(index_t m_bench);

/// Default bond-dimension ladders (scaled stand-ins for the paper's
/// 2^12..2^15; doubling preserved so weak-scaling shapes transfer).
std::vector<index_t> spin_ms();
std::vector<index_t> electron_ms();

/// Virtual node counts for scaling sweeps.
std::vector<int> node_counts(int max_nodes = 64);

}  // namespace tt::bench
