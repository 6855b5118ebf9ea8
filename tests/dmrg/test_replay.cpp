#include <gtest/gtest.h>

#include "dmrg/dmrg.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "runtime/scheduler.hpp"

namespace {

using tt::Rng;
using tt::dmrg::EngineKind;
using tt::symm::QN;

// A logged run, replayed on the engine's own cluster, must reproduce the
// tracker exactly — the invariant the scaling benches rely on. `sched`, when
// given, executes every contraction across its ranks.
void expect_replay_matches_live(EngineKind kind, tt::rt::Scheduler* sched) {
  auto lat = tt::models::chain(8);
  auto sites = tt::models::spin_half_sites(8);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  Rng rng(9);
  auto psi = tt::mps::Mps::random(sites, QN(0), 12, rng);

  tt::rt::Cluster cl{tt::rt::blue_waters(), 4, 16};
  auto engine = tt::dmrg::make_engine(kind, cl);
  engine->set_scheduler(sched);
  auto* eng = engine.get();
  tt::dmrg::Dmrg solver(std::move(psi), h, std::move(engine));

  eng->set_logging(true);
  eng->clear_log();
  const tt::rt::CostTracker before = eng->tracker();
  tt::dmrg::SweepParams p;
  p.max_m = 12;
  solver.optimize_bond(4, p, true);
  const tt::rt::CostTracker live = eng->tracker().diff(before);

  const tt::rt::CostTracker replayed = tt::dmrg::replay_log(eng->log(), cl);
  EXPECT_NEAR(replayed.total_time(), live.total_time(),
              1e-12 * (1.0 + live.total_time()));
  EXPECT_NEAR(replayed.flops(), live.flops(), 1e-6);
  EXPECT_NEAR(replayed.words(), live.words(), 1e-6);
  EXPECT_NEAR(replayed.supersteps(), live.supersteps(), 1e-12);
  for (int c = 0; c < tt::rt::kNumCategories; ++c)
    EXPECT_NEAR(replayed.time(static_cast<tt::rt::Category>(c)),
                live.time(static_cast<tt::rt::Category>(c)),
                1e-12 * (1.0 + live.total_time()))
        << tt::rt::category_name(static_cast<tt::rt::Category>(c));
}

class ReplayParam : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ReplayParam, ReplayOnSameClusterMatchesLiveTracker) {
  expect_replay_matches_live(GetParam(), nullptr);
}

TEST_P(ReplayParam, ReplayMatchesLiveTrackerWithSchedulerAttached) {
  // The tracker holds the modelled cost only, so distributing the execution
  // over real ranks leaves it exactly what the op log replays to.
  tt::rt::SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = tt::rt::SpawnMode::kThread;
  tt::rt::Scheduler sched(opts);
  expect_replay_matches_live(GetParam(), &sched);
  EXPECT_GT(sched.accumulated().contractions, 0);
}

TEST_P(ReplayParam, ReplayOnBiggerClusterIsFaster) {
  auto lat = tt::models::chain(8);
  auto sites = tt::models::spin_half_sites(8);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  Rng rng(10);
  auto psi = tt::mps::Mps::random(sites, QN(0), 16, rng);

  auto engine = tt::dmrg::make_engine(GetParam(), {tt::rt::blue_waters(), 1, 16});
  auto* eng = engine.get();
  tt::dmrg::Dmrg solver(std::move(psi), h, std::move(engine));
  eng->set_logging(true);
  eng->clear_log();
  tt::dmrg::SweepParams p;
  p.max_m = 16;
  solver.optimize_bond(4, p, true);

  if (GetParam() == EngineKind::kReference) {
    // The local layout ignores the cluster size.
    auto t1 = tt::dmrg::replay_log(eng->log(), {tt::rt::blue_waters(), 1, 16});
    auto t8 = tt::dmrg::replay_log(eng->log(), {tt::rt::blue_waters(), 8, 16});
    EXPECT_NEAR(t8.total_time(), t1.total_time(), 1e-12);
  } else {
    // At unit-test problem sizes fixed per-event costs can dominate the
    // total; the node-scalable component (GEMM) must strictly shrink.
    auto t1 = tt::dmrg::replay_log(eng->log(), {tt::rt::blue_waters(), 1, 16});
    auto t8 = tt::dmrg::replay_log(eng->log(), {tt::rt::blue_waters(), 8, 16});
    EXPECT_LT(t8.time(tt::rt::Category::kGemm), t1.time(tt::rt::Category::kGemm));
    // Comm volume shrinks with p, but for the list engine the per-block
    // synchronization latency grows with log p and dominates at unit-test
    // sizes — only the fused engines' comm must shrink here.
    if (GetParam() != EngineKind::kList) {
      EXPECT_LT(t8.time(tt::rt::Category::kComm), t1.time(tt::rt::Category::kComm));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, ReplayParam,
                         ::testing::Values(EngineKind::kReference, EngineKind::kList,
                                           EngineKind::kSparseDense,
                                           EngineKind::kSparseSparse),
                         [](const auto& info) {
                           std::string name = tt::dmrg::engine_name(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Replay, EmptyLogIsFree) {
  auto t = tt::dmrg::replay_log({}, {tt::rt::blue_waters(), 4, 16});
  EXPECT_DOUBLE_EQ(t.total_time(), 0.0);
}

}  // namespace
