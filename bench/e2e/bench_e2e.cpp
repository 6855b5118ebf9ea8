// bench_e2e — end-to-end DMRG benchmark: complete ground-state runs of the
// paper's two systems (J1–J2 spins, triangular Hubbard electrons), measured
// from outside the library.
//
// One invocation runs one workload of kWorkloads as a closed-loop batch job
// with one solver: timed set-ups, then complete solves — kRampSweeps sweeps
// at each m = 16, 32, … below m_final, then `final_sweeps` sweeps at m_final —
// repeated while the next one still fits in `--seconds` (each workload is
// sized so that one solve, with the serial pass where there is one, takes
// 11–16 s of the 20 s of BENCHMARK.json on the reference host), then the
// serial pass and more timed set-ups. Each solve starts from its own seeded
// product state. Layers are measured only through public calls:
//   ContractionEngine::contract / svd   the TimedEngine decorator below
//   Dmrg::sweep                         wall time of the call
//   EnvGraph::prefetch_stats            through SweepRecord
//   Scheduler::accumulated / stats      measured exchanges and retries
//
// The output is one JSON run document: raw samples, energies with their IEEE
// bits, an independent energy recomputation, and the run's MetricsRegistry.
// bench.py applies the correctness gates and reduces the samples to metrics.
//
//   bench_e2e --workload spins-6x4-m256 --seed 1 --seconds 20 --out run.json
//             [--trace run.trace.json] [--max-solves 1]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dmrg/dmrg.hpp"
#include "linalg/backend.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "runtime/metrics.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace tt;
using dmrg::EngineKind;
using dmrg::Role;
using symm::BlockTensor;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Threads plus ranks never exceed 4, the core count of the host the
// run lengths were sized on; README.md gives the reason for each workload.
// ---------------------------------------------------------------------------
struct Workload {
  const char* name;
  bool electrons;      ///< Hubbard 4×3 triangular (else J1–J2 6×4 square)
  EngineKind engine;
  int threads;         ///< pool and OpenMP threads of the root process
  bool prefetch;       ///< EnvGraph prefetch (one more thread while it runs)
  int ranks;           ///< scheduler process ranks; 1 = local
  index_t m_final;
  int final_sweeps;    ///< sweeps at m_final; all but the first are steady
  bool serial_pass;    ///< also time a 1-thread local solve (rank parity)
};

constexpr Workload kWorkloads[] = {
    {"spins-6x4-m256", false, EngineKind::kList, 3, true, 1, 256, 6, false},
    {"electrons-4x3-m256", true, EngineKind::kList, 4, false, 1, 256, 10, false},
    {"spins-6x4-ranks4", false, EngineKind::kList, 1, false, 4, 128, 5, true},
    {"electrons-4x3-fused", true, EngineKind::kSparseDense, 4, false, 1, 96, 6, false},
};

// Sweeps at each ramp bond dimension. From a scrambled product state one
// sweep per m leaves about half the spins solves short of E_ref after the
// final sweeps; three bring every seed tried to the converged energy, so the
// steady sweeps see the converged block structure whatever the seed.
constexpr int kRampSweeps = 3;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  TT_FAIL("unknown workload '" << name << "'; known:" << known);
}

struct Problem {
  mps::SiteSetPtr sites;
  mps::Mpo h;
  std::vector<int> filling;  ///< default product state, one sector per site
};

Problem build_problem(const Workload& w) {
  Problem p;
  if (w.electrons) {
    const models::Lattice lat = models::triangular_cylinder(4, 3);
    p.sites = models::electron_sites(lat.num_sites);
    p.h = models::hubbard_mpo(p.sites, lat, 1.0, 8.5);
    // Half filling, N↑ = N↓: alternate |↑⟩ and |↓⟩.
    for (int i = 0; i < lat.num_sites; ++i) p.filling.push_back(i % 2 == 0 ? 1 : 2);
  } else {
    const models::Lattice lat = models::square_cylinder(6, 4, /*diagonals=*/true);
    p.sites = models::spin_half_sites(lat.num_sites);
    p.h = models::heisenberg_mpo(p.sites, lat, 1.0, 0.5);
    for (int x = 0; x < lat.length; ++x)  // Néel order
      for (int y = 0; y < lat.circumference; ++y) p.filling.push_back((x + y) % 2);
  }
  return p;
}

/// A seeded random arrangement of the default filling: same conserved sector,
/// a different product state for every (seed, rep).
mps::Mps initial_state(const Problem& p, std::uint64_t seed, int rep) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(rep));
  std::vector<int> f = p.filling;
  for (std::size_t i = f.size() - 1; i > 0; --i)
    std::swap(f[i], f[static_cast<std::size_t>(
                        rng.integer(0, static_cast<std::int64_t>(i)))]);
  return mps::Mps::product_state(p.sites, f);
}

// ---------------------------------------------------------------------------
// TimedEngine: forwards every call to the engine under test and counts it by
// role. Untimed it only counts calls, counts flops and stamps each theta
// contraction — the first engine call of every Dmrg::optimize_bond, which
// delimits bonds. Timed (traced runs) it also clocks each call and records a
// bench.* span around it.
// ---------------------------------------------------------------------------
enum Op { kTheta, kMatvec, kEnv, kSvd, kNumOps };
constexpr const char* kOpSpan[kNumOps] = {"bench.theta", "bench.matvec", "bench.env",
                                          "bench.svd"};

struct EngineCounters {
  long calls[kNumOps] = {};
  double seconds[kNumOps] = {};
  double flops = 0.0;  ///< contraction flops charged by the engine under test
};

class TimedEngine final : public dmrg::ContractionEngine {
 public:
  TimedEngine(std::unique_ptr<dmrg::ContractionEngine> inner, bool timed)
      : ContractionEngine(inner->cluster(), inner->params()),
        inner_(std::move(inner)),
        timed_(timed) {}

  EngineKind kind() const override { return inner_->kind(); }

  // Roles tell the call sites apart: theta contracts two MPS sites as
  // intermediates, the Davidson matvec mixes an intermediate with operators,
  // and environment extension contracts operators only.
  BlockTensor contract(const BlockTensor& a, Role role_a, const BlockTensor& b,
                       Role role_b, const std::vector<std::pair<int, int>>& pairs) override {
    const bool ia = role_a == Role::kIntermediate;
    const bool ib = role_b == Role::kIntermediate;
    const Op op = ia && ib ? kTheta : (ia || ib ? kMatvec : kEnv);
    if (op == kTheta) theta_marks_.push_back(Clock::now());
    const double f0 = inner_->tracker().flops();
    BlockTensor c = forward(op, [&] { return inner_->contract(a, role_a, b, role_b, pairs); });
    c_.flops += inner_->tracker().flops() - f0;
    return c;
  }

  symm::BlockSvd svd(const BlockTensor& a, const std::vector<int>& row_modes,
                     const symm::TruncParams& trunc) override {
    return forward(kSvd, [&] { return inner_->svd(a, row_modes, trunc); });
  }

  const EngineCounters& counters() const { return c_; }

  /// Theta timestamps since the previous call.
  std::vector<Clock::time_point> take_theta_marks() {
    std::vector<Clock::time_point> out;
    out.swap(theta_marks_);
    return out;
  }

 private:
  template <class F>
  std::invoke_result_t<F&> forward(Op op, F&& f) {
    ++c_.calls[op];
    if (!timed_) return f();
    const Clock::time_point t0 = Clock::now();
    auto r = [&] {
      rt::TraceSpan span(kOpSpan[op], op == kSvd ? rt::TraceCat::kSvd : rt::TraceCat::kContract);
      return f();
    }();
    c_.seconds[op] += seconds_between(t0, Clock::now());
    return r;
  }

  std::unique_ptr<dmrg::ContractionEngine> inner_;
  bool timed_;
  EngineCounters c_;
  std::vector<Clock::time_point> theta_marks_;
};

// ---------------------------------------------------------------------------
// Set-up and solve.
// ---------------------------------------------------------------------------
struct Solver {
  std::unique_ptr<rt::Scheduler> sched;  // outlives dmrg (declared first)
  std::unique_ptr<dmrg::Dmrg> dmrg;
  TimedEngine* eng = nullptr;            // owned by dmrg
};

/// Tear down in dependency order: the engine holds a raw scheduler pointer.
void release(Solver& s) {
  s.dmrg.reset();
  s.sched.reset();
}

/// MPO build + scheduler spawn + Dmrg construction (canonicalize and the
/// environment build): everything a user pays before the first sweep.
Solver set_up(const Workload& w, std::uint64_t seed, int rep, bool timed) {
  rt::TraceSpan span("bench.setup", rt::TraceCat::kOther);
  Problem p = build_problem(w);
  Solver s;
  if (w.ranks > 1) {
    rt::SchedulerOptions o;
    o.num_ranks = w.ranks;
    o.mode = rt::SpawnMode::kProcess;
    o.worker_threads = 1;
    o.root_threads = w.threads;
    s.sched = std::make_unique<rt::Scheduler>(o);
  }
  auto inner = dmrg::make_engine(w.engine, {rt::localhost(), 1, 1});
  inner->set_num_threads(w.threads);
  inner->set_scheduler(s.sched.get());
  auto eng = std::make_unique<TimedEngine>(std::move(inner), timed);
  s.eng = eng.get();
  s.dmrg = std::make_unique<dmrg::Dmrg>(initial_state(p, seed, rep), std::move(p.h),
                                        std::move(eng));
  return s;
}

/// Per-steady-sweep layer totals (summed over the steady sweeps of a run).
struct LayerTotals {
  int sweeps = 0;
  EngineCounters engine;
  long prefetch_launched = 0, prefetch_hits = 0;
  double prefetch_wait_s = 0.0;
  rt::DistStats dist;
  long retries = 0;
};

struct SolveResult {
  double solve_s = 0.0;
  std::vector<double> ramp_s, steady_s, bond_s;
  std::vector<double> energies;  ///< after every sweep, ramp included
  double energy = 0.0;
  double recomputed = 0.0;
  index_t max_bond_dim = 0;
  double truncation_error = 0.0;
  double peak_rss_mb = 0.0;  ///< process high-water mark when the solve ended
};

dmrg::SweepParams sweep_params(const Workload& w, index_t m) {
  dmrg::SweepParams p;  // Davidson 2/2, the paper's production setting
  p.max_m = m;
  p.prefetch = w.prefetch;
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// ⟨ψ|H|ψ⟩ through a fresh solver on the reference engine: independent of the
/// engine, scheduler and fused format under test.
double recompute_energy(mps::Mps psi, mps::Mpo h) {
  dmrg::Dmrg ref(std::move(psi), std::move(h),
                 dmrg::make_engine(EngineKind::kReference, {rt::localhost(), 1, 1}));
  return ref.energy_expectation();
}

/// One complete schedule. `steady_span` names the trace span of each steady
/// sweep, so the serial reference pass stays out of the steady-sweep profile.
SolveResult solve(Solver s, const Workload& w, LayerTotals& layers,
                  const char* steady_span = "bench.sweep.steady") {
  SolveResult out;
  std::vector<index_t> ms;
  for (index_t m = 16; m < w.m_final; m *= 2) ms.insert(ms.end(), kRampSweeps, m);
  for (int k = 0; k < w.final_sweeps; ++k) ms.push_back(w.m_final);
  const std::size_t first_steady = ms.size() - static_cast<std::size_t>(w.final_sweeps) + 1;

  const Clock::time_point t_solve = Clock::now();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const bool steady = i >= first_steady;
    const EngineCounters c0 = s.eng->counters();
    const long retries0 = s.sched ? s.sched->stats().retries : 0;
    if (s.sched) s.sched->reset_accumulated();
    (void)s.eng->take_theta_marks();

    const Clock::time_point t0 = Clock::now();
    dmrg::SweepRecord rec;
    {
      rt::TraceSpan span(steady ? steady_span : "bench.sweep.ramp", rt::TraceCat::kSweep);
      rec = s.dmrg->sweep(sweep_params(w, ms[i]));
    }
    const Clock::time_point t1 = Clock::now();
    out.energies.push_back(rec.energy);
    if (!steady) {
      out.ramp_s.push_back(seconds_between(t0, t1));
      continue;
    }
    out.steady_s.push_back(seconds_between(t0, t1));
    // A bond runs from its theta contraction to the next bond's; the last
    // bond of the sweep ends when Dmrg::sweep returns.
    const std::vector<Clock::time_point> marks = s.eng->take_theta_marks();
    for (std::size_t b = 0; b < marks.size(); ++b)
      out.bond_s.push_back(seconds_between(marks[b], b + 1 < marks.size() ? marks[b + 1] : t1));

    const EngineCounters& c1 = s.eng->counters();
    ++layers.sweeps;
    for (int op = 0; op < kNumOps; ++op) {
      layers.engine.calls[op] += c1.calls[op] - c0.calls[op];
      layers.engine.seconds[op] += c1.seconds[op] - c0.seconds[op];
    }
    layers.engine.flops += c1.flops - c0.flops;
    layers.prefetch_launched += rec.prefetch_launched;
    layers.prefetch_hits += rec.prefetch_hits;
    layers.prefetch_wait_s += rec.prefetch_wait_seconds;
    if (s.sched) {
      layers.dist.merge(s.sched->accumulated());
      layers.retries += s.sched->stats().retries - retries0;
    }
  }
  out.solve_s = seconds_between(t_solve, Clock::now());
  out.energy = s.dmrg->last_energy();
  out.max_bond_dim = s.dmrg->psi().max_bond_dim();
  out.truncation_error = s.dmrg->last_truncation_error();
  out.peak_rss_mb = peak_rss_mb();

  // Free the solver (and shut its ranks down) before the recomputation, so
  // the check neither overlaps nor raises the measured peak memory.
  mps::Mps psi = s.dmrg->psi();
  mps::Mpo h = s.dmrg->hamiltonian();
  release(s);
  out.recomputed = recompute_energy(std::move(psi), std::move(h));
  return out;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return std::string("\"") + buf + "\"";
}

std::string array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

std::string solve_json(const SolveResult& r) {
  std::ostringstream os;
  os << "{\"solve_s\": " << num(r.solve_s) << ", \"ramp_s\": " << array(r.ramp_s)
     << ", \"steady_s\": " << array(r.steady_s) << ", \"bond_s\": " << array(r.bond_s)
     << ", \"energy\": " << num(r.energy) << ", \"energy_bits\": " << bits(r.energy)
     << ", \"recomputed\": " << num(r.recomputed)
     << ", \"recomputed_bits\": " << bits(r.recomputed)
     << ", \"max_bond_dim\": " << r.max_bond_dim
     << ", \"truncation_error\": " << num(r.truncation_error)
     << ", \"energies\": " << array(r.energies) << ", \"peak_rss_mb\": " << num(r.peak_rss_mb)
     << "}";
  return os.str();
}

std::string layers_json(const LayerTotals& l) {
  std::ostringstream os;
  os << "{\"sweeps\": " << l.sweeps << ", \"theta_calls\": " << l.engine.calls[kTheta]
     << ", \"matvec_calls\": " << l.engine.calls[kMatvec]
     << ", \"env_calls\": " << l.engine.calls[kEnv]
     << ", \"svd_calls\": " << l.engine.calls[kSvd]
     << ", \"theta_s\": " << num(l.engine.seconds[kTheta])
     << ", \"matvec_s\": " << num(l.engine.seconds[kMatvec])
     << ", \"env_s\": " << num(l.engine.seconds[kEnv])
     << ", \"svd_s\": " << num(l.engine.seconds[kSvd])
     << ", \"flops\": " << num(l.engine.flops)
     << ", \"prefetch_launched\": " << l.prefetch_launched
     << ", \"prefetch_hits\": " << l.prefetch_hits
     << ", \"prefetch_wait_s\": " << num(l.prefetch_wait_s)
     << ", \"sched_contractions\": " << l.dist.contractions
     << ", \"sched_bytes\": " << num(l.dist.total_bytes())
     << ", \"sched_comm_s\": " << num(l.dist.comm_seconds)
     << ", \"sched_critical_busy_s\": " << num(l.dist.critical_busy_seconds)
     << ", \"sched_imbalance_s\": " << num(l.dist.imbalance_seconds)
     << ", \"sched_retries\": " << l.retries << "}";
  return os.str();
}

void add_solve_metrics(rt::MetricsRegistry& mr, const std::string& sec, const SolveResult& r) {
  mr.add(sec, "solve_s", r.solve_s);
  mr.add(sec, "energy", r.energy);
  mr.add(sec, "recomputed", r.recomputed);
  mr.add(sec, "max_bond_dim", static_cast<double>(r.max_bond_dim));
  mr.add(sec, "truncation_error", r.truncation_error);
  for (std::size_t k = 0; k < r.steady_s.size(); ++k)
    mr.add(sec, "steady_s." + std::to_string(k), r.steady_s[k]);
}

/// Writes a document to `path`, or to stdout when it is empty.
void emit(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::cout << text;
    return;
  }
  std::ofstream f(path);
  f << text;
  TT_CHECK(f.good(), "cannot write '" << path << "'");
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Workload& w = find_workload(cli.get("workload", ""));
  const long long seed_arg = cli.get_int("seed", 1);
  TT_CHECK(seed_arg >= 0, "--seed must be non-negative");
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const double budget_s = cli.get_double("seconds", 20.0);
  const long long max_solves = cli.get_int("max-solves", 1000);
  const std::string trace_path = cli.get("trace", "");
  const std::string out_path = cli.get("out", "");
  const bool traced = !trace_path.empty();

  support::set_num_threads(w.threads);
#ifdef _OPENMP
  omp_set_num_threads(w.threads);
#endif
  // Sized for a whole traced run: the capacity is a per-thread cap, and
  // memory grows only with the events actually recorded.
  if (traced) rt::Trace::instance().start({"", std::size_t{1} << 24});

  rt::MetricsRegistry mr("bench_e2e");
  mr.add_context("workload", w.name);
  mr.add_context("seed", static_cast<double>(seed));
  mr.add_context("engine", dmrg::engine_name(w.engine));
  mr.add_context("threads", w.threads);
  mr.add_context("ranks", w.ranks);
  mr.add_context("prefetch", w.prefetch ? 1.0 : 0.0);
  mr.add_context("m_final", static_cast<double>(w.m_final));
  mr.add_context("backend", linalg::backend_name());
  mr.add_context("nproc", static_cast<double>(std::thread::hardware_concurrency()));

  const Clock::time_point t_run = Clock::now();

  // Set-up is timed kSetups times at each end of the run, each time after a
  // pause. A vCPU of the reference host switches between speeds about 1.5×
  // apart in phases lasting seconds, and back-to-back set-ups all land in one
  // phase; paused ones at both ends sample several, which narrowed the
  // run-to-run spread of their median from up to 37% to at most 17%. One
  // untimed set-up first lets lazy first-use costs (heap growth, pool start)
  // settle.
  constexpr int kSetups = 9;
  constexpr std::chrono::milliseconds kSetupPause{150};
  std::vector<double> setup_s;
  auto time_setups = [&] {
    for (int i = 0; i < kSetups; ++i) {
      std::this_thread::sleep_for(kSetupPause);
      const Clock::time_point t0 = Clock::now();
      Solver s = set_up(w, seed, 0, traced);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      release(s);
    }
  };
  {
    Solver warm = set_up(w, seed, 0, traced);
    release(warm);
  }
  time_setups();

  LayerTotals layers;
  std::vector<SolveResult> solves;
  const Clock::time_point t_measure = Clock::now();
  while (static_cast<long long>(solves.size()) < max_solves) {
    const int rep = static_cast<int>(solves.size());
    solves.push_back(solve(set_up(w, seed, rep, traced), w, layers));
    add_solve_metrics(mr, "solve." + std::to_string(rep), solves.back());
    // Start another solve only if it still ends within the budget, counting
    // the serial pass that follows as one more solve.
    const double used = seconds_between(t_measure, Clock::now());
    const double per_solve = used / static_cast<double>(solves.size());
    if (used + per_solve * (w.serial_pass ? 2.0 : 1.0) > budget_s) break;
  }

  // Plain single-thread local pass of the same schedule from the same state:
  // the baseline for speedup_vs_serial and the reference for rank parity. It
  // runs after the measured solves, so that the first solve's peak memory is
  // the ranked solver's own.
  std::string serial_json = "null";
  if (w.serial_pass) {
    Workload local = w;
    local.threads = 1;
    local.ranks = 1;
    support::set_num_threads(1);
    LayerTotals unused;
    const SolveResult r =
        solve(set_up(local, seed, 0, false), local, unused, "bench.sweep.serial");
    support::set_num_threads(w.threads);
    serial_json = solve_json(r);
    add_solve_metrics(mr, "serial", r);
  }
  time_setups();
  const double run_s = seconds_between(t_run, Clock::now());
  mr.add_dist("sched", layers.dist);

  std::size_t dropped = 0;
  if (traced) {
    rt::Trace::instance().stop();
    dropped = rt::Trace::instance().events_dropped();
    rt::Trace::instance().write_chrome_json(trace_path);
  }

  std::ostringstream doc;
  doc << "{\"schema\": \"bench-e2e-run-v1\", \"workload\": \"" << w.name
      << "\", \"seed\": " << seed << ", \"traced\": " << (traced ? "true" : "false")
      << ",\n \"config\": {\"model\": \"" << (w.electrons ? "electrons" : "spins")
      << "\", \"engine\": \"" << dmrg::engine_name(w.engine) << "\", \"threads\": " << w.threads
      << ", \"ranks\": " << w.ranks << ", \"prefetch\": " << (w.prefetch ? "true" : "false")
      << ", \"m_final\": " << w.m_final << ", \"final_sweeps\": " << w.final_sweeps
      << ", \"backend\": \"" << linalg::backend_name()
      << "\", \"nproc\": " << std::thread::hardware_concurrency() << "},\n \"setup_s\": "
      << array(setup_s) << ",\n \"serial\": " << serial_json << ",\n \"solves\": [";
  for (std::size_t i = 0; i < solves.size(); ++i)
    doc << (i ? ",\n  " : "\n  ") << solve_json(solves[i]);
  doc << "],\n \"layers\": " << layers_json(layers) << ", \"run_s\": " << num(run_s)
      << ", \"trace_events_dropped\": " << dropped << ",\n \"registry\": " << mr.to_json()
      << "}\n";

  emit(out_path, doc.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
