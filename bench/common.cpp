#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "linalg/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace tt::bench {

void print_driver_header(const std::string& driver) {
  // Resolve every environment knob before printing: a bad value fails the
  // driver before any work.
  const double sf = scale_factor();
  (void)full_mode();
  const int threads = support::num_threads();
  std::cout << "[" << driver << "] linalg backend: " << linalg::backend_name()
            << " | threads: " << threads << " | scale factor: " << sf << "\n\n";
}

rt::MetricsRegistry make_metrics(const std::string& driver) {
  rt::MetricsRegistry mr(driver);
  mr.add_context("backend", std::string(linalg::backend_name()));
  mr.add_context("threads", static_cast<double>(support::num_threads()));
  mr.add_context("scale_factor", scale_factor());
  return mr;
}

std::vector<std::string> pct_cells(const rt::CostTracker& t, int decimals) {
  std::vector<std::string> cells;
  for (double p : t.percentages()) cells.push_back(fmt(p, decimals));
  return cells;
}

void print_metrics_summary(const std::string& title, const rt::CostTracker& t,
                           std::ostream& os) {
  os << title << ": total " << fmt_sci(t.total_time(), 2) << " s";
  const auto p = t.percentages();
  for (int c = 0; c < rt::kNumCategories; ++c) {
    if (t.time(static_cast<rt::Category>(c)) <= 0.0) continue;
    os << " | " << rt::category_name(static_cast<rt::Category>(c)) << " "
       << fmt(p[static_cast<std::size_t>(c)], 1) << "%";
  }
  os << "\n";
}

void add_sweep_metrics(rt::MetricsRegistry& mr, const std::string& sec,
                       const dmrg::SweepRecord& rec) {
  mr.add(sec, "sweep", static_cast<double>(rec.sweep));
  mr.add(sec, "energy", rec.energy);
  mr.add(sec, "max_bond_dim", static_cast<double>(rec.max_bond_dim));
  mr.add(sec, "truncation_error", rec.truncation_error);
  mr.add(sec, "wall_s", rec.wall_seconds);
  mr.add(sec, "prefetch_launched", static_cast<double>(rec.prefetch_launched));
  mr.add(sec, "prefetch_hits", static_cast<double>(rec.prefetch_hits));
  mr.add(sec, "prefetch_wait_s", rec.prefetch_wait_seconds);
}

Csv::Csv(const std::string& path, const std::string& header) {
  if (path.empty()) return;  // no --csv flag: stay inactive
  auto out = std::make_shared<std::ofstream>(path);
  TT_CHECK(*out, "cannot open --csv path '" << path << "' for writing");
  *out << header << "\n";
  out_ = std::move(out);
}

void Csv::row(const std::vector<std::string>& cells) {
  if (!out_) return;
  for (std::size_t i = 0; i < cells.size(); ++i)
    *out_ << (i ? "," : "") << cells[i];
  *out_ << "\n";
  out_->flush();
}

Workload Workload::spins(int lx, int ly, double j2) {
  Workload w;
  w.lat = models::square_cylinder(lx, ly, true);
  w.sites = models::spin_half_sites(w.lat.num_sites);
  w.h = models::heisenberg_mpo(w.sites, w.lat, 1.0, j2);
  w.sector = symm::QN(0);
  w.name = "spins-" + std::to_string(lx) + "x" + std::to_string(ly);
  return w;
}

Workload Workload::electrons(int lx, int ly, double u) {
  Workload w;
  w.lat = models::triangular_cylinder(lx, ly);
  w.sites = models::electron_sites(w.lat.num_sites);
  w.h = models::hubbard_mpo(w.sites, w.lat, 1.0, u);
  w.sector = symm::QN(w.lat.num_sites, 0);  // half filling, Sz = 0
  w.name = "electrons-" + std::to_string(lx) + "x" + std::to_string(ly);
  return w;
}

double KernelMeasurement::flops(dmrg::EngineKind kind) const {
  // Charged flops do not depend on the cluster.
  return dmrg::price(kind, log, cluster(rt::blue_waters(), 1, 16)).flops();
}

KernelMeasurement measure_step(const Workload& w, index_t m, unsigned seed) {
  // Grow the state to m at the middle bond (untimed, paper §VI): a random MPS
  // with charge-path-proportional sector dims stands in for DMRG growth
  // sweeps.
  Rng rng(seed);
  mps::Mps psi = mps::Mps::random(w.sites, w.sector, m, rng);

  auto engine = std::make_unique<dmrg::ContractionEngine>();
  dmrg::ContractionEngine* eng = engine.get();
  dmrg::Dmrg solver(std::move(psi), w.h, std::move(engine));

  KernelMeasurement k;
  const int j = solver.psi().size() / 2;
  {
    // Two-site tensor structure stats (paper Fig 2).
    symm::BlockTensor theta =
        symm::contract(solver.psi().site(j), solver.psi().site(j + 1), {{2, 0}});
    k.theta_blocks = theta.num_blocks();
    k.fill = theta.fill_fraction();
  }
  const symm::Index& bond = solver.psi().site(j).index(2);
  for (int s = 0; s < bond.num_sectors(); ++s)
    k.largest_block = std::max(k.largest_block, bond.sector(s).dim);
  k.m_actual = bond.dim();

  eng->set_logging(true);
  dmrg::SweepParams params;
  params.max_m = m;
  params.davidson_iter = 2;  // paper production setting
  solver.optimize_bond(j, params, /*sweep_right=*/true);
  k.log = eng->log();
  return k;
}

std::vector<KernelMeasurement> measure_ladder(const Workload& w,
                                              const std::vector<index_t>& ms) {
  std::vector<KernelMeasurement> out;
  out.reserve(ms.size());
  for (index_t m : ms) out.push_back(measure_step(w, m));
  return out;
}

DistMeasurement measure_step_distributed(const Workload& w, index_t m, int ranks,
                                         unsigned seed) {
  Rng rng(seed);
  mps::Mps psi = mps::Mps::random(w.sites, w.sector, m, rng);

  // Spawn the ranks before the solver builds its environment stack, from
  // quiescent context (process mode forks).
  rt::SchedulerOptions sopts;
  sopts.num_ranks = ranks;
  rt::Scheduler sched(sopts);

  auto engine = std::make_unique<dmrg::ContractionEngine>();
  engine->set_scheduler(&sched);
  dmrg::ContractionEngine* eng = engine.get();
  dmrg::Dmrg solver(std::move(psi), w.h, std::move(engine));

  const int j = solver.psi().size() / 2;
  DistMeasurement d;
  d.ranks = ranks;
  d.mode = sched.mode();
  d.m_actual = solver.psi().site(j).index(2).dim();

  sched.reset_accumulated();  // drop the untimed environment build
  eng->set_logging(true);
  dmrg::SweepParams params;
  params.max_m = m;
  params.davidson_iter = 2;  // paper production setting
  Timer timer;
  solver.optimize_bond(j, params, /*sweep_right=*/true);
  d.wall_seconds = timer.seconds();
  d.dist = sched.accumulated();
  d.flops = dmrg::price(dmrg::EngineKind::kList, eng->log(),
                        cluster(rt::blue_waters(), 1, 16))
                .flops();
  return d;
}

namespace {

// The measured analogue of print_metrics_summary: total measured seconds of
// the exchanges, then each nonzero component's share.
void print_dist_summary(const std::string& title, const rt::DistStats& d) {
  const std::pair<const char*, double> parts[] = {
      {"critical busy", d.critical_busy_seconds},
      {"comm", d.comm_seconds},
      {"imbalance", d.imbalance_seconds},
      {"recovery", d.recovery_seconds}};
  double total = 0.0;
  for (const auto& [name, secs] : parts) total += secs;
  std::cout << title << ": total " << fmt_sci(total, 2) << " s";
  for (const auto& [name, secs] : parts)
    if (secs > 0.0)
      std::cout << " | " << name << " " << fmt(100.0 * secs / total, 1) << "%";
  std::cout << "\n";
}

// One short prefetch-overlapped sweep through a `ranks`-rank scheduler: the
// full pipeline — rank-sharded contractions, async environment prefetch, and
// Davidson — in one run, so a TT_TRACE'd `--ranks` invocation records spans
// from every rank *and* the sweep-turn prefetch/Davidson overlap (the in-
// flight extension a turn bond never demands; see dmrg.cpp optimize_bond).
// Small m on purpose: this is a smoke for the timeline, not a measurement.
//
// At bench scale the prefetch engine runs locally while theta and Davidson
// pay real IPC through the scheduler, so the in-flight extension would finish
// under theta and the turn overlap — which at paper scale is a same-order
// contraction — would be invisible in the timeline. A stall of one measured
// bond-wall (same host, same load, so it tracks theta robustly) keeps the
// future alive into the Davidson window.
dmrg::SweepRecord pipeline_smoke(const Workload& w, index_t m, int ranks,
                                 double bond_wall_s) {
  Rng rng(1);
  mps::Mps psi = mps::Mps::random(w.sites, w.sector, m, rng);

  rt::SchedulerOptions sopts;
  sopts.num_ranks = ranks;
  rt::Scheduler sched(sopts);  // forks before the prefetch queue exists

  auto engine = std::make_unique<dmrg::ContractionEngine>();
  engine->set_scheduler(&sched);
  dmrg::Dmrg solver(std::move(psi), w.h, std::move(engine));

  const long delay_ms = std::min<long>(
      500, std::max<long>(50, std::lround(bond_wall_s * 1000.0)));
  solver.environments().set_prefetch_delay_for_testing(
      std::chrono::milliseconds(delay_ms));

  dmrg::SweepParams params;
  params.max_m = m;
  params.davidson_iter = 2;
  params.prefetch = true;
  return solver.sweep(params);
}

}  // namespace

bool distributed_mode(const Cli& cli, const std::string& driver, const Workload& w,
                      const std::vector<index_t>& ms) {
  if (!cli.has("ranks")) return false;
  const long long ranks_arg = cli.get_int("ranks", 0);
  TT_CHECK(ranks_arg >= 2, "--ranks must be at least 2 (measured mode runs "
                           "real scheduler ranks), got " << ranks_arg);
  const int ranks = static_cast<int>(ranks_arg);

  Csv csv(cli.get("csv", ""),
          "driver,workload,source,m_bench,m_equiv,ranks,mode,seconds,gemm_s,"
          "comm_s,imbalance_s,words_moved,bytes_moved,flops");
  rt::MetricsRegistry mr = make_metrics(driver);
  mr.add_context("workload", w.name);
  mr.add_context("ranks", static_cast<double>(ranks));
  mr.add_context("mode",
                 std::string(rt::spawn_mode_name(rt::spawn_mode_from_env())));

  Table t(driver + " — measured distributed steps, " + w.name + " list at --ranks " +
          std::to_string(ranks) + " (" + rt::spawn_mode_name(
              rt::spawn_mode_from_env()) + " mode)");
  t.header({"m(eq)", "ranks", "wall s", "gemm s", "comm s", "imb s", "MB moved",
            "bins"});
  rt::DistStats measured_total;
  double first_step_wall = 0.0;
  for (index_t m : ms) {
    const DistMeasurement d = measure_step_distributed(w, m, ranks);
    if (first_step_wall == 0.0) first_step_wall = d.wall_seconds;
    measured_total.merge(d.dist);
    int bins = 0;
    for (const auto& r : d.dist.ranks) bins += r.bins;
    t.row({fmt_int(m_equiv(d.m_actual)), std::to_string(d.ranks),
           fmt_sci(d.wall_seconds, 2), fmt_sci(d.dist.critical_busy_seconds, 2),
           fmt_sci(d.dist.comm_seconds, 2), fmt_sci(d.dist.imbalance_seconds, 2),
           fmt(d.dist.total_bytes() / 1e6, 2), fmt_int(bins)});
    csv.row({driver, w.name, "measured", std::to_string(m),
             std::to_string(m_equiv(d.m_actual)),
             std::to_string(d.ranks), rt::spawn_mode_name(d.mode),
             fmt_sci(d.wall_seconds, 6), fmt_sci(d.dist.critical_busy_seconds, 6),
             fmt_sci(d.dist.comm_seconds, 6), fmt_sci(d.dist.imbalance_seconds, 6),
             fmt_sci(d.dist.exchange_words, 6), fmt_sci(d.dist.total_bytes(), 6),
             fmt_sci(d.flops, 6)});

    const std::string sec = "measured.m" + std::to_string(m);
    mr.add(sec, "wall_s", d.wall_seconds);
    mr.add(sec, "m_equiv", static_cast<double>(m_equiv(d.m_actual)));
    mr.add_dist(sec, d.dist);

    // BSP-replayed analogue at `ranks` virtual nodes, for contrast: simulated
    // seconds on a scaled virtual cluster, not this machine's wall time (see
    // docs/BENCHMARKS.md, "Measured vs replayed").
    const KernelMeasurement k = measure_step(w, m);
    const rt::CostTracker sim =
        replayed(k, dmrg::EngineKind::kList, cluster(rt::blue_waters(), ranks, 16));
    csv.row({driver, w.name, "replayed", std::to_string(m),
             std::to_string(m_equiv(k.m_actual)),
             std::to_string(ranks), "bsp-sim", fmt_sci(sim.total_time(), 6),
             fmt_sci(sim.time(rt::Category::kGemm), 6),
             fmt_sci(sim.time(rt::Category::kComm), 6),
             fmt_sci(sim.time(rt::Category::kImbalance), 6),
             fmt_sci(sim.words(), 6), fmt_sci(sim.words() * 8.0, 6),
             fmt_sci(sim.flops(), 6)});
    mr.add_tracker("replayed.m" + std::to_string(m), sim);
  }
  t.print();
  print_dist_summary("\nmeasured breakdown (all steps)", measured_total);

  // Full-pipeline smoke: one prefetch-overlapped sweep through the same
  // scheduler config, so a traced run (TT_TRACE=...) shows rank-sharded
  // contraction spans AND the prefetch/Davidson overlap in one timeline.
  const index_t m_smoke = std::min<index_t>(ms.front(), 32);
  const dmrg::SweepRecord smoke =
      pipeline_smoke(w, m_smoke, ranks, first_step_wall);
  std::cout << "pipeline smoke: 1 sweep at m=" << m_smoke << ", E = "
            << fmt_sci(smoke.energy, 6) << ", prefetch "
            << smoke.prefetch_hits << "/" << smoke.prefetch_launched
            << " hits\n";
  add_sweep_metrics(mr, "pipeline_smoke", smoke);

  std::cout << "\nMeasured mode: real multi-" << rt::spawn_mode_name(
                   rt::spawn_mode_from_env())
            << " execution on this host — bytes and idle tails are transport\n"
               "measurements, not cost-model output. Replayed rows (CSV) price\n"
               "the same numerics on a scaled virtual cluster instead.\n";
  mr.write(cli.get("metrics", ""));
  return true;
}

double sim_seconds(const KernelMeasurement& k, dmrg::EngineKind kind,
                   const rt::Cluster& cluster) {
  return replayed(k, kind, cluster).total_time();
}

rt::CostTracker replayed(const KernelMeasurement& k, dmrg::EngineKind kind,
                         const rt::Cluster& cluster) {
  return dmrg::price(kind, k.log, cluster, scaled_params());
}

Baseline baseline(const KernelMeasurement& k, const rt::MachineModel& machine) {
  Baseline b;
  b.flops = k.flops(dmrg::EngineKind::kReference);
  b.sim_seconds = sim_seconds(k, dmrg::EngineKind::kReference, cluster(machine, 1, 1));
  b.gflops_rate = b.flops / b.sim_seconds / 1e9;
  return b;
}

bool full_mode() {
  const char* env = std::getenv("TT_BENCH_FULL");
  if (env == nullptr || *env == '\0') return false;
  const std::string v(env);
  TT_CHECK(v == "0" || v == "1", "TT_BENCH_FULL must be 0 or 1, got '" << v << "'");
  return v == "1";
}

double scale_factor() {
  const char* env = std::getenv("TT_BENCH_SCALE");
  if (env == nullptr || *env == '\0') return 64.0;
  const char* end = env + std::strlen(env);
  double sf = 0.0;
  const auto [ptr, ec] = std::from_chars(env, end, sf);
  TT_CHECK(ec == std::errc() && ptr == end && std::isfinite(sf) && sf >= 1.0,
           "TT_BENCH_SCALE must be a finite number >= 1, got '" << env << "'");
  return sf;
}

rt::CostModelParams scaled_params() {
  rt::CostModelParams p;
  const double sf = scale_factor();
  // The imbalance granularity is a flop count; one bench flop stands for sf³
  // paper flops, so the threshold shrinks by the same factor.
  p.min_flops_per_proc /= sf * sf * sf;
  // SVD parallelism limits are judged at paper-equivalent matrix dimensions.
  p.svd_scale = sf;
  return p;
}

rt::Cluster cluster(const rt::MachineModel& machine, int nodes, int ppn) {
  rt::MachineModel m = machine;
  const double sf = scale_factor();
  m.node_gflops /= sf * sf * sf;          // flops shrink as m³
  m.net_bandwidth_gbs /= sf * sf;         // tensor words shrink as m²
  m.mem_bandwidth_gbs /= sf * sf;
  // Per-event costs (network latency, per-block mapping/launch) are paid per
  // event at either scale: unchanged.
  return rt::Cluster{m, nodes, ppn};
}

double gflops_equiv(double bench_flops, double sim_secs) {
  const double sf = scale_factor();
  return bench_flops * sf * sf * sf / sim_secs / 1e9;
}

index_t m_equiv(index_t m_bench) {
  return static_cast<index_t>(static_cast<double>(m_bench) * scale_factor());
}

std::vector<index_t> spin_ms() {
  if (full_mode()) return {32, 64, 128, 256, 512};
  return {32, 64, 128};
}

std::vector<index_t> electron_ms() {
  if (full_mode()) return {16, 32, 64, 128};
  return {16, 32, 64};
}

std::vector<int> node_counts(int max_nodes) {
  std::vector<int> out;
  for (int n = 1; n <= max_nodes; n *= 2) out.push_back(n);
  return out;
}

}  // namespace tt::bench
