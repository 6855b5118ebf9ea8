// Deterministic fault injection and scheduler self-healing.
//
// Every fault in the catalog is armed against a live 2-rank (and, for the
// env-schedule acceptance test, 4-rank) scheduler; the contraction must come
// back bitwise identical to the serial reference, with the recovery counted
// in SchedulerStats and measured in DistStats::recovery_seconds. Root-evaluated
// faults (worker.*) have exact mode-agnostic counters; worker-evaluated ones
// (frame.*, payload.*, wire.*) have per-process counters in fork mode — a
// respawned worker starts fresh — so those assertions use >= where the two
// spawn modes legitimately differ (see fault.hpp's process-mode caveat).
// Also here: worker reuse across contractions and its accumulated record, a
// killed rank with no respawn budget, and the worker-free single rank.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parity.hpp"
#include "runtime/fault.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/tracker.hpp"
#include "spawn_modes.hpp"
#include "support/timer.hpp"

namespace {

using tt::rt::FaultInjector;
using tt::rt::FaultSide;
using tt::rt::FaultSpec;
using tt::rt::Scheduler;
using tt::rt::SchedulerOptions;
using tt::rt::SpawnMode;
using tt::symm::BlockTensor;
using tt::testing::bitwise_equal;
using tt::testing::many_block_pair;

// Every test arms the process-wide injector (the one transport/scheduler
// consult) and must leave it empty for the next test.
class FaultModes : public ::testing::TestWithParam<SpawnMode> {
 protected:
  void SetUp() override { FaultInjector::instance().clear(); }
  void TearDown() override { FaultInjector::instance().clear(); }
};

SchedulerOptions two_rank_opts(SpawnMode mode) {
  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = mode;
  opts.root_threads = 1;
  opts.retry.base_delay_seconds = 0.001;  // keep backoff out of test wall time
  return opts;
}

// ---------------------------------------------------------------------------
// FaultInjector unit semantics (local instances, no scheduler involved).
// ---------------------------------------------------------------------------

TEST(FaultInjectorUnit, ParseEntryFieldsAndDefaults) {
  const FaultSpec d = FaultInjector::parse_entry("frame.delay");
  EXPECT_EQ(d.point, "frame.delay");
  EXPECT_EQ(d.nth, 0);
  EXPECT_EQ(d.rank, -1);
  EXPECT_EQ(d.side, FaultSide::kAny);
  EXPECT_EQ(d.count, 1);
  EXPECT_DOUBLE_EQ(d.prob, 1.0);
  EXPECT_DOUBLE_EQ(d.ms, 0.0);

  const FaultSpec f = FaultInjector::parse_entry(
      "payload.corrupt:nth=3;rank=2;side=worker;count=5;prob=0.25;seed=11;ms=7.5");
  EXPECT_EQ(f.point, "payload.corrupt");
  EXPECT_EQ(f.nth, 3);
  EXPECT_EQ(f.rank, 2);
  EXPECT_EQ(f.side, FaultSide::kWorker);
  EXPECT_EQ(f.count, 5);
  EXPECT_DOUBLE_EQ(f.prob, 0.25);
  EXPECT_EQ(f.seed, 11u);
  EXPECT_DOUBLE_EQ(f.ms, 7.5);
}

TEST(FaultInjectorUnit, RejectsUnknownFieldsAndBadValues) {
  EXPECT_THROW((void)FaultInjector::parse_entry("frame.delay:bogus=1"), tt::Error);
  EXPECT_THROW((void)FaultInjector::parse_entry("frame.delay:nth=abc"), tt::Error);
  EXPECT_THROW((void)FaultInjector::parse_entry("frame.delay:side=sideways"),
               tt::Error);
  EXPECT_THROW((void)FaultInjector::parse_entry(""), tt::Error);
}

TEST(FaultInjectorUnit, NthCountAndContextMatching) {
  FaultInjector inj;
  FaultSpec s;
  s.point = "p";
  s.nth = 2;   // fire on exactly the 2nd eligible hit
  s.count = 1;
  s.rank = 1;
  s.side = FaultSide::kWorker;
  inj.arm(s);

  // Contexts that do not state rank 1 / worker side are not eligible.
  EXPECT_FALSE(inj.should_fire("p"));
  EXPECT_FALSE(inj.should_fire("p", 2, FaultSide::kWorker));
  EXPECT_FALSE(inj.should_fire("p", 1, FaultSide::kRoot));
  EXPECT_EQ(inj.hits("p"), 0);

  EXPECT_FALSE(inj.should_fire("p", 1, FaultSide::kWorker));  // hit 1
  EXPECT_TRUE(inj.should_fire("p", 1, FaultSide::kWorker));   // hit 2: fires
  EXPECT_FALSE(inj.should_fire("p", 1, FaultSide::kWorker));  // spent
  EXPECT_EQ(inj.hits("p"), 3);
  EXPECT_EQ(inj.fires("p"), 1);

  // nth=0, count=2: fires on every eligible hit until the budget is spent.
  FaultInjector inj2;
  FaultSpec every;
  every.point = "q";
  every.nth = 0;
  every.count = 2;
  inj2.arm(every);
  EXPECT_TRUE(inj2.should_fire("q"));
  EXPECT_TRUE(inj2.should_fire("q"));
  EXPECT_FALSE(inj2.should_fire("q"));
  EXPECT_EQ(inj2.fires("q"), 2);
}

TEST(FaultInjectorUnit, ProbStreamIsDeterministic) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector inj;
    FaultSpec s;
    s.point = "p";
    s.nth = 0;
    s.count = 0;  // unlimited
    s.prob = 0.5;
    s.seed = seed;
    inj.arm(s);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(inj.should_fire("p"));
    return fired;
  };
  const std::vector<bool> a = pattern(7);
  EXPECT_EQ(a, pattern(7));  // same seed, same schedule — replayable
  EXPECT_NE(a, pattern(8));  // different stream
  // And genuinely probabilistic: neither all-fire nor never-fire in 64 draws.
  long fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST(FaultInjectorUnit, ConfigureArmsCommaSeparatedEntries) {
  FaultInjector inj;
  inj.configure("frame.delay:ms=5,worker.fail_task:nth=2;count=3");
  EXPECT_TRUE(inj.active());
  EXPECT_FALSE(inj.should_fire("worker.fail_task"));  // hit 1 of nth=2
  EXPECT_TRUE(inj.should_fire("worker.fail_task"));
  FaultSpec fired;
  EXPECT_TRUE(inj.should_fire("frame.delay", -1, FaultSide::kAny, &fired));
  EXPECT_DOUBLE_EQ(fired.ms, 5.0);
  inj.clear();
  EXPECT_FALSE(inj.active());
  EXPECT_FALSE(inj.should_fire("frame.delay"));
}

// ---------------------------------------------------------------------------
// Scheduler self-healing, one catalog fault at a time.
// ---------------------------------------------------------------------------

TEST_P(FaultModes, KillBeforeResultIsHealedBitwise) {
  auto [a, b] = many_block_pair(51);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  FaultInjector::instance().configure("worker.kill_before_result:nth=1;rank=1");
  Scheduler sched(two_rank_opts(GetParam()));
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));

  // Root-evaluated fault: counters are exact in both spawn modes.
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().retries, 1);
  EXPECT_EQ(sched.stats().respawns, 1);
  EXPECT_EQ(sched.stats().ranks_lost, 0);
  EXPECT_FALSE(sched.stats().degraded);
  EXPECT_EQ(sched.live_workers(), 1);
  EXPECT_GT(sched.last().recovery_seconds, 0.0);

  // Recovery is measured in its own field, beside the transport wall.
  EXPECT_GT(sched.accumulated().recovery_seconds, 0.0);

  // The respawned worker serves the next contraction cleanly (spec spent).
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  sched.shutdown();
}

TEST_P(FaultModes, FailedTaskIsRedistributedWithoutRespawn) {
  auto [a, b] = many_block_pair(52);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  FaultInjector::instance().configure("worker.fail_task:nth=1;rank=1");
  Scheduler sched(two_rank_opts(GetParam()));
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));

  // An error frame is frame-aligned: the worker stays alive, its share is
  // simply re-executed on the root.
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().retries, 1);
  EXPECT_EQ(sched.stats().respawns, 0);
  EXPECT_EQ(sched.live_workers(), 1);

  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  sched.shutdown();
}

TEST_P(FaultModes, CorruptResultPayloadIsDetectedAndHealed) {
  auto [a, b] = many_block_pair(53);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  FaultInjector::instance().configure("payload.corrupt:nth=1;rank=1;side=worker");
  Scheduler sched(two_rank_opts(GetParam()));
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().retries, 1);
  EXPECT_EQ(sched.stats().respawns, 1);

  // Worker-evaluated fault: in process mode the respawned fork starts with
  // fresh counters and may re-fire, so later contractions assert bitwise
  // results and monotone counters only.
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_GE(sched.stats().faults_detected, 1);
  sched.shutdown();
}

TEST_P(FaultModes, CorruptTaskPayloadIsDetectedAndHealed) {
  auto [a, b] = many_block_pair(60);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  // The root's task frame is corrupted: the worker's checksum check fails and
  // it stops serving. Its channel end must close at once in both spawn modes,
  // so the root heals the rank in milliseconds, not after its 120 s deadline.
  FaultInjector::instance().configure("payload.corrupt:nth=1;rank=1;side=root");
  Scheduler sched(two_rank_opts(GetParam()));
  tt::Timer wall;
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_LT(wall.seconds(), 5.0);
  // Root-evaluated side: the counter is the root's own, exact in both modes.
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().retries, 1);
  EXPECT_EQ(sched.stats().respawns, 1);

  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  sched.shutdown();
}

TEST_P(FaultModes, TruncatedResultFrameIsDetectedAndHealed) {
  auto [a, b] = many_block_pair(54);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  FaultInjector::instance().configure("frame.truncate:nth=1;rank=1;side=worker");
  Scheduler sched(two_rank_opts(GetParam()));
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().retries, 1);
  EXPECT_EQ(sched.stats().respawns, 1);

  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  sched.shutdown();
}

TEST_P(FaultModes, WireTruncatedPayloadIsDetectedAndHealed) {
  auto [a, b] = many_block_pair(55);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  // wire.truncate has no rank/side context (it fires where a wire payload is
  // *built*), so which frame it damages differs between spawn modes — task
  // frame at the root, or result/error frame in a fork's own counter space.
  // The healing contract is mode-independent: bitwise result, fault counted.
  FaultInjector::instance().configure("wire.truncate:nth=1");
  Scheduler sched(two_rank_opts(GetParam()));
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().retries, 1);

  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  sched.shutdown();
}

TEST_P(FaultModes, WedgedWorkerIsTimedOutAndHealed) {
  auto [a, b] = many_block_pair(56);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  // The worker's result frame is delayed far past the transport deadline:
  // the root must observe a timeout (not hang), re-execute the share, and
  // heal the rank.
  FaultInjector::instance().configure(
      "frame.delay:ms=800;nth=1;rank=1;side=worker");
  SchedulerOptions opts = two_rank_opts(GetParam());
  opts.timeout_seconds = 0.25;
  Scheduler sched(opts);
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_GE(sched.stats().faults_detected, 1);
  EXPECT_GE(sched.stats().retries, 1);
  EXPECT_GT(sched.last().recovery_seconds, 0.0);
  sched.shutdown();
}

TEST_P(FaultModes, DegradesToSerialWhenWorkersKeepDying) {
  auto [a, b] = many_block_pair(57);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});

  // Kill the worker on every task. One respawn is allowed; the second death
  // retires the rank and the scheduler degrades to serial root execution.
  FaultInjector::instance().configure("worker.kill_before_result:nth=0;count=0");
  SchedulerOptions opts = two_rank_opts(GetParam());
  opts.retry.max_attempts = 1;
  Scheduler sched(opts);

  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));  // die + respawn
  EXPECT_EQ(sched.stats().respawns, 1);
  EXPECT_EQ(sched.live_workers(), 1);

  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));  // die + retire
  EXPECT_EQ(sched.stats().faults_detected, 2);
  EXPECT_EQ(sched.stats().retries, 2);
  EXPECT_EQ(sched.stats().ranks_lost, 1);
  EXPECT_TRUE(sched.stats().degraded);
  EXPECT_EQ(sched.live_workers(), 0);

  // Serial degraded mode: no workers left to fault, still correct.
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 2);
  sched.shutdown();
}

TEST_P(FaultModes, ZeroAttemptsRetiresRankAtFirstFault) {
  auto [a, b] = many_block_pair(58);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});
  FaultInjector::instance().configure("worker.kill_before_result:nth=1;rank=1");
  SchedulerOptions opts = two_rank_opts(GetParam());
  opts.retry.max_attempts = 0;  // never respawn
  Scheduler sched(opts);
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().faults_detected, 1);
  EXPECT_EQ(sched.stats().respawns, 0);
  EXPECT_EQ(sched.stats().ranks_lost, 1);
  EXPECT_TRUE(sched.stats().degraded);
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  sched.shutdown();
}

TEST_P(FaultModes, RepeatedContractionsReuseWorkersAndAccumulate) {
  auto [a, b] = many_block_pair(42);
  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = GetParam();
  Scheduler sched(opts);

  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});
  for (int it = 0; it < 3; ++it)
    EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.accumulated().contractions, 3);
  EXPECT_DOUBLE_EQ(sched.accumulated().total_bytes(),
                   3.0 * sched.last().total_bytes());

  // The measured record accumulates every exchange, rank by rank.
  const tt::rt::DistStats& acc = sched.accumulated();
  EXPECT_GT(acc.critical_busy_seconds, 0.0);
  EXPECT_GT(acc.comm_seconds, 0.0);
  EXPECT_DOUBLE_EQ(acc.exchange_words, 3.0 * sched.last().exchange_words);
  EXPECT_DOUBLE_EQ(acc.total_flops(), 3.0 * sched.last().total_flops());
}

INSTANTIATE_TEST_SUITE_P(Modes, FaultModes,
                         ::testing::ValuesIn(tt::rt::testing::tested_spawn_modes()),
                         [](const auto& info) {
                           return std::string(tt::rt::spawn_mode_name(info.param));
                         });

// ---------------------------------------------------------------------------
// A lost rank without respawns, and the single-rank scheduler.
// ---------------------------------------------------------------------------

TEST(SchedulerFault, KilledWorkerWithoutRespawnsIsRetiredAndResultStaysBitwise) {
  auto [a, b] = many_block_pair(45);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});
  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = SpawnMode::kProcess;
  opts.timeout_seconds = 10.0;
  // No respawns: the first fault retires the rank.
  opts.retry.max_attempts = 0;
  Scheduler sched(opts);
  // First exchange proves the pair works.
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  sched.kill_rank(1);
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  EXPECT_EQ(sched.stats().respawns, 0);
  EXPECT_EQ(sched.stats().ranks_lost, 1);
  EXPECT_TRUE(sched.stats().degraded);
  // Degraded to serial root execution: still bitwise.
  EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
  sched.shutdown();  // must not hang on the corpse
}

TEST(SchedulerFault, SingleRankNeedsNoWorkersAndCannotBreak) {
  auto [a, b] = many_block_pair(46);
  Scheduler sched;  // defaults: 1 rank
  EXPECT_EQ(sched.num_ranks(), 1);
  EXPECT_THROW(sched.kill_rank(1), tt::Error);
  EXPECT_TRUE(
      bitwise_equal(tt::symm::contract(a, b, {{2, 0}}), sched.contract(a, b, {{2, 0}})));
}

// ---------------------------------------------------------------------------
// Acceptance: the TT_FAULTS-grammar schedule of the issue, at 2 and 4 ranks.
// ---------------------------------------------------------------------------

TEST(FaultEnvSchedule, WorkerKillPlusFrameTruncationHealBitwiseAt2And4Ranks) {
  auto [a, b] = many_block_pair(59);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});
  const std::string schedule =
      "worker.kill_before_result:nth=1;rank=1,"
      "frame.truncate:nth=1;rank=2;side=worker";

  for (SpawnMode mode : tt::rt::testing::tested_spawn_modes()) {
    for (int ranks : {2, 4}) {
      FaultInjector::instance().clear();
      FaultInjector::instance().configure(schedule);
      SchedulerOptions opts;
      opts.num_ranks = ranks;
      opts.mode = mode;
      opts.root_threads = 1;
      opts.retry.base_delay_seconds = 0.001;
      Scheduler sched(opts);

      EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
      // rank 2 only exists in the 4-rank run; the kill always fires.
      const long expect_faults = ranks == 4 ? 2 : 1;
      EXPECT_EQ(sched.stats().faults_detected, expect_faults)
          << ranks << " ranks, " << tt::rt::spawn_mode_name(mode);
      EXPECT_EQ(sched.stats().retries, expect_faults);
      EXPECT_EQ(sched.stats().respawns, expect_faults);
      EXPECT_EQ(sched.live_workers(), ranks - 1);  // everyone healed
      EXPECT_GT(sched.last().recovery_seconds, 0.0);

      // Healed group keeps serving, bitwise.
      EXPECT_TRUE(bitwise_equal(ref, sched.contract(a, b, {{2, 0}})));
      sched.shutdown();
    }
  }
  FaultInjector::instance().clear();
}

}  // namespace
