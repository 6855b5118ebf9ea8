// The sweep oracle matrix (tests/README.md): a seeded small model crossed
// with executor × prefetch × logging × trace × checkpoint-resume, the full
// product, every cell bitwise equal to the reference cell (the pool at one
// thread, every option off) in its sweep records and MPS blocks, and a
// logging cell's op log equal to the one-thread log at the same prefetch
// setting (prefetched extensions run on an unlogged engine). Resumed cells
// compare state and records, not logs. The ED column runs the reference
// executor on the model's ED-sized problems.
//
// Each tests/dmrg/test_sweep_matrix_<model>.cpp includes this harness once
// and picks its model with matrix_model(): one binary per model keeps every
// binary's wall time short.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parity.hpp"
#include "dmrg/checkpoint.hpp"
#include "dmrg/dmrg.hpp"
#include "dmrg/replay.hpp"
#include "ed/ed.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "runtime/fault.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spawn_modes.hpp"
#include "runtime/trace.hpp"
#include "support/thread_pool.hpp"

namespace {  // one including translation unit per binary

using tt::dmrg::Dmrg;
using tt::dmrg::OpRecord;
using tt::dmrg::SweepParams;
using tt::dmrg::SweepRecord;
using tt::mps::Mps;
using tt::rt::FaultInjector;
using tt::rt::Scheduler;
using tt::rt::SpawnMode;
using tt::rt::Trace;
using tt::testing::bitwise_equal;

// --- the models ------------------------------------------------------------------

// One ED check: DMRG from `state` with this schedule, against `exact`.
struct EdCase {
  std::string name;
  tt::mps::SiteSetPtr sites;
  tt::mps::Mpo h;
  std::vector<int> state;
  tt::index_t m;
  int sweeps, dav, subspace;
  std::function<double()> exact;
  double tol;
};

struct Model {
  std::string name;
  tt::mps::SiteSetPtr sites;
  tt::mps::Mpo h;
  std::vector<int> filling;  // per-site state, a seeded arrangement
  tt::index_t m;             // two sweeps at this bond dimension
  int kill_nth;  // completed bonds (2(N − 1) a sweep) before dmrg.kill_sweep fires
  std::vector<EdCase> ed;
};

std::vector<int> alternating(int n, int even, int odd) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i % 2 == 0 ? even : odd);
  return out;
}

// A tt::Rng-seeded arrangement (Fisher–Yates) of the given filling.
std::vector<int> arrange(std::vector<int> filling, unsigned seed) {
  tt::Rng rng(seed);
  for (std::size_t i = filling.size(); i > 1; --i) {
    const auto j = rng.integer(0, static_cast<std::int64_t>(i) - 1);
    std::swap(filling[i - 1], filling[static_cast<std::size_t>(j)]);
  }
  return filling;
}

enum class ModelId { kHeisenbergChain, kJ1J2Cylinder, kHubbardChain, kTriangularHubbard };

Model make_model(ModelId id) {
  using namespace tt::models;
  switch (id) {
    case ModelId::kHeisenbergChain: {
      const Lattice lat = chain(8);
      auto sites = spin_half_sites(8);
      auto h = heisenberg_mpo(sites, lat, 1.0);
      return {"HeisenbergChain", sites, h, arrange(alternating(8, 0, 1), 1), 8,
              /*sweep 2, left to right=*/19,
              {{"HeisenbergChainMatchesEd", sites, h, alternating(8, 0, 1), 32, 6, 3, 2,
                [lat] { return tt::ed::heisenberg_ground_energy(lat, 1.0, 0.0, 0); },
                1e-8}}};
    }
    case ModelId::kJ1J2Cylinder: {
      // The paper's spins workload, shrunk to an ED-verifiable 4x2 cylinder.
      const Lattice lat = square_cylinder(4, 2, true);
      auto sites = spin_half_sites(lat.num_sites);
      auto h = heisenberg_mpo(sites, lat, 1.0, 0.5);
      return {"J1J2Cylinder", sites, h, arrange(alternating(8, 0, 1), 2), 8,
              /*sweep 1, right to left=*/11,
              {{"J1J2CylinderMatchesEd", sites, h, {0, 1, 1, 0, 0, 1, 1, 0}, 48, 8, 3, 2,
                [lat] { return tt::ed::heisenberg_ground_energy(lat, 1.0, 0.5, 0); },
                1e-7}}};
    }
    case ModelId::kHubbardChain: {
      // Strong-U Hubbard converges slowly out of the Néel-like product state:
      // the ED check gives Davidson a deeper subspace than the paper's
      // production setting. U = 0 is the exact band energy, a qualitatively
      // different regime.
      const Lattice lat = chain(4), lat6 = chain(6);
      auto sites = electron_sites(4), sites6 = electron_sites(6);
      auto h = hubbard_mpo(sites, lat, 1.0, 8.5);
      auto band = [] {
        double e = 0.0;
        for (int k = 1; k <= 3; ++k) e += 2.0 * -2.0 * std::cos(M_PI * k / 7.0);
        return e;
      };
      return {"HubbardChain", sites, h, arrange(alternating(4, 1, 2), 3), 8,
              /*sweep 2, left to right=*/8,
              {{"HubbardChainMatchesEd", sites, h, alternating(4, 1, 2), 40, 14, 8, 4,
                [lat] { return tt::ed::hubbard_ground_energy(lat, 1.0, 8.5, 2, 2); },
                1e-7},
               {"HubbardFreeFermionLimit", sites6, hubbard_mpo(sites6, lat6, 1.0, 0.0),
                alternating(6, 1, 2), 48, 8, 3, 2, band, 1e-6}}};
    }
    case ModelId::kTriangularHubbard: {
      // The paper's electrons workload, shrunk to a 3x2 triangular cylinder.
      const Lattice lat = triangular_cylinder(3, 2);
      auto sites = electron_sites(lat.num_sites);
      auto h = hubbard_mpo(sites, lat, 1.0, 8.5);
      return {"TriangularHubbard", sites, h, arrange(alternating(6, 1, 2), 4), 12,
              /*sweep 2, right to left=*/17,
              {{"TriangularHubbardMatchesEd", sites, h, alternating(6, 1, 2), 64, 14, 8,
                4, [lat] { return tt::ed::hubbard_ground_energy(lat, 1.0, 8.5, 3, 3); },
                1e-6}}};
    }
  }
  return {};
}

/// The model this binary crosses with every cell; defined by the test file.
Model matrix_model();

const Model& model() {
  static const Model m = matrix_model();
  return m;
}

// --- the cells -------------------------------------------------------------------

struct Executor {
  std::string name;
  int threads = 1;  // pool width (scheduler cells keep the global setting)
  int ranks = 1;    // > 1: every contraction runs through an rt::Scheduler
  SpawnMode mode = SpawnMode::kThread;
};

void PrintTo(const Executor& e, std::ostream* os) { *os << e.name; }

std::vector<Executor> executors() {
  std::vector<Executor> out = {{"pool1", 1}, {"pool2", 2}, {"pool8", 8}};
  for (SpawnMode mode : tt::rt::testing::tested_spawn_modes())
    for (int ranks : {2, 4})
      out.push_back(
          {"ranks" + std::to_string(ranks) + "_" + tt::rt::spawn_mode_name(mode), 0,
           ranks, mode});
  return out;
}

// A cell's options, as bits.
enum : int { kPrefetch = 1, kLog = 2, kTrace = 4, kResume = 8 };

std::string options_name(int bits) {
  const char* names[] = {"prefetch", "log", "trace", "resume"};
  std::string s;
  for (int i = 0; i < 4; ++i)
    if (bits & (1 << i)) s += std::string(s.empty() ? "" : "_") + names[i];
  return s.empty() ? "plain" : s;
}

struct Outcome {
  std::vector<SweepRecord> records;
  Mps psi;
  std::vector<OpRecord> log;
};

Outcome run_cell(const Executor& ex, int bits) {
  const Model& m = model();
  if (ex.threads > 0) tt::support::set_num_threads(ex.threads);
  if (bits & kTrace) Trace::instance().start();
  std::unique_ptr<Scheduler> sched;
  if (ex.ranks > 1) {
    tt::rt::SchedulerOptions opts;
    opts.num_ranks = ex.ranks;
    opts.mode = ex.mode;
    sched = std::make_unique<Scheduler>(opts);
  }
  auto solver = [&] {
    auto engine = std::make_unique<tt::dmrg::ContractionEngine>();
    engine->set_scheduler(sched.get());
    engine->set_logging((bits & kLog) != 0);
    return std::make_unique<Dmrg>(Mps::product_state(m.sites, m.filling), m.h,
                                  std::move(engine));
  };
  std::vector<SweepParams> schedule(2);
  for (SweepParams& p : schedule) {
    p.max_m = m.m;
    p.prefetch = (bits & kPrefetch) != 0;
    p.checkpoint_every = 2;  // only with a CheckpointManager attached
  }

  std::unique_ptr<Dmrg> done;
  if (!(bits & kResume)) {
    done = solver();
    done->run(schedule);
  } else {
    const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                      (m.name + "_" + ex.name + "_" + options_name(bits));
    std::filesystem::remove_all(dir);
    {
      tt::dmrg::CheckpointManager mgr(dir.string());
      // Appended to whatever TT_FAULTS armed; reload_from_env() below drops
      // it again and re-arms that background schedule for the next cells.
      FaultInjector::instance().configure("dmrg.kill_sweep:nth=" +
                                          std::to_string(m.kill_nth));
      auto victim = solver();
      victim->set_checkpointing(&mgr);
      EXPECT_THROW(victim->run(schedule), tt::Error);
      FaultInjector::instance().reload_from_env();
      EXPECT_GT(mgr.sequence(), 1);  // several snapshots were taken before death
    }
    // A fresh solver (a restarted process) picks the run up from disk.
    tt::dmrg::CheckpointManager mgr(dir.string());
    done = solver();
    done->set_checkpointing(&mgr);
    done->resume(schedule);
    std::filesystem::remove_all(dir);
  }

  if (sched) {
    // The measured side: real exchanges, real time, real bytes.
    const tt::rt::DistStats& acc = sched->accumulated();
    EXPECT_GT(acc.contractions, 10);
    EXPECT_GT(acc.comm_seconds, 0.0);
    EXPECT_GT(acc.critical_busy_seconds, 0.0);
    EXPECT_GT(acc.exchange_words, 0.0);
    sched->shutdown();  // process-mode workers ship their trace here
  }
  if (bits & kTrace) {
    EXPECT_GT(Trace::instance().events_recorded(), 0u);
    Trace::instance().stop();
    Trace::instance().clear();
  }
  tt::support::set_num_threads(0);
  return {done->records(), done->psi(), done->engine().log()};
}

// The reference cell, and the one-thread logs at each prefetch setting.
struct Reference {
  Outcome ref;
  Outcome log[2];  // index: prefetch
};

const Reference& reference() {
  static const Reference r = [] {
    const Executor serial{"pool1", 1};
    return Reference{run_cell(serial, 0),
                     {run_cell(serial, kLog), run_cell(serial, kPrefetch | kLog)}};
  }();
  return r;
}

const tt::rt::Cluster kCluster{tt::rt::blue_waters(), 4, 16};
const tt::dmrg::EngineKind kAllKinds[] = {
    tt::dmrg::EngineKind::kReference, tt::dmrg::EngineKind::kList,
    tt::dmrg::EngineKind::kSparseDense, tt::dmrg::EngineKind::kSparseSparse};

class SweepMatrix : public ::testing::TestWithParam<std::tuple<Executor, int>> {};

TEST_P(SweepMatrix, CellIsBitwiseTheReference) {
  const auto& [ex, bits] = GetParam();
  const Reference& r = reference();
  ASSERT_EQ(r.ref.records.size(), 2u);

  const Outcome got = run_cell(ex, bits);
  EXPECT_TRUE(bitwise_equal(got.records, r.ref.records));
  EXPECT_TRUE(bitwise_equal(got.psi, r.ref.psi));
  if (!(bits & kResume)) {  // a checkpoint's history keeps no prefetch counters
    for (const SweepRecord& rec : got.records)
      EXPECT_EQ(rec.prefetch_launched > 0, (bits & kPrefetch) != 0)
          << "sweep " << rec.sweep;
  }
  if ((bits & kLog) && !(bits & kResume)) {
    const std::vector<OpRecord>& want = r.log[bits & kPrefetch].log;
    ASSERT_GT(want.size(), 10u);
    EXPECT_TRUE(bitwise_equal(got.log, want));
    for (tt::dmrg::EngineKind k : kAllKinds) {
      const tt::rt::CostTracker priced = tt::dmrg::price(k, want, kCluster);
      EXPECT_GT(priced.total_time(), 0.0) << tt::dmrg::engine_name(k);
      EXPECT_TRUE(bitwise_equal(tt::dmrg::price(k, got.log, kCluster), priced))
          << tt::dmrg::engine_name(k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SweepMatrix,
    ::testing::Combine(::testing::ValuesIn(executors()), ::testing::Range(0, 16)),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_" + options_name(std::get<1>(info.param));
    });

// --- the ED column -----------------------------------------------------------------

TEST(SweepMatrixEd, ReferenceExecutorMatchesEd) {
  tt::support::set_num_threads(1);
  for (const EdCase& c : model().ed) {
    SCOPED_TRACE(c.name);
    std::vector<SweepParams> schedule(static_cast<std::size_t>(c.sweeps));
    for (SweepParams& p : schedule) {
      p.max_m = c.m;
      p.davidson_iter = c.dav;
      p.davidson_subspace = c.subspace;
    }
    Dmrg solver(Mps::product_state(c.sites, c.state), c.h,
                std::make_unique<tt::dmrg::ContractionEngine>());
    EXPECT_NEAR(solver.run(schedule), c.exact(), c.tol);
  }
  tt::support::set_num_threads(0);
}

}  // namespace
