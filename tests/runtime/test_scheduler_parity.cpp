// Rank parity of the distributed block scheduler: results AND merged
// ContractStats at 2 and 4 ranks must be bitwise identical to the 1-rank run
// (which itself equals symm::contract) — the distributed extension of the
// TT_THREADS thread-count invariant. Plus measured-stats sanity and
// fault-injection behaviour of the scheduler itself.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/naive_einsum.hpp"
#include "dmrg/dmrg.hpp"
#include "dmrg/engine.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "runtime/machine.hpp"
#include "runtime/scheduler.hpp"
#include "spawn_modes.hpp"
#include "runtime/tracker.hpp"
#include "support/rng.hpp"
#include "symm/block_ops.hpp"
#include "symm/fuse.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::rt::DistStats;
using tt::rt::Scheduler;
using tt::rt::SchedulerOptions;
using tt::rt::SpawnMode;
using tt::symm::BlockTensor;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

// A bond with many sectors so one contraction produces dozens of bins (the
// tests/symm parallel-contract workload).
Index wide_bond(Dir d, int nsec, int dim0) {
  std::vector<tt::symm::Sector> secs;
  for (int q = 0; q < nsec; ++q)
    secs.push_back({QN(q - nsec / 2), static_cast<index_t>(dim0 + q % 3)});
  return Index(secs, d);
}

Index phys(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}}, d); }

std::pair<BlockTensor, BlockTensor> many_block_pair(unsigned seed) {
  Rng rng(seed);
  const Index mid = wide_bond(Dir::Out, 11, 3);
  BlockTensor a = BlockTensor::random(
      {wide_bond(Dir::In, 9, 2), phys(Dir::In), mid}, QN::zero(1), rng);
  BlockTensor b = BlockTensor::random(
      {mid.reversed(), phys(Dir::In), wide_bond(Dir::Out, 9, 2)}, QN::zero(1), rng);
  return {std::move(a), std::move(b)};
}

void expect_bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  ASSERT_TRUE(x.same_structure(y));
  ASSERT_EQ(x.num_blocks(), y.num_blocks());
  for (const auto& [key, blk] : x.blocks()) {
    const tt::tensor::DenseTensor* other = y.find_block(key);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(blk.shape(), other->shape());
    ASSERT_EQ(std::memcmp(blk.data(), other->data(),
                          static_cast<std::size_t>(blk.size()) * sizeof(double)),
              0);
  }
}

void expect_identical_stats(const ContractStats& x, const ContractStats& y) {
  EXPECT_EQ(x.total_flops, y.total_flops);
  EXPECT_EQ(x.num_bins, y.num_bins);
  ASSERT_EQ(x.block_ops.size(), y.block_ops.size());
  for (std::size_t i = 0; i < x.block_ops.size(); ++i) {
    EXPECT_EQ(x.block_ops[i].flops, y.block_ops[i].flops);
    EXPECT_EQ(x.block_ops[i].words_a, y.block_ops[i].words_a);
    EXPECT_EQ(x.block_ops[i].words_b, y.block_ops[i].words_b);
    EXPECT_EQ(x.block_ops[i].words_c, y.block_ops[i].words_c);
  }
}

class SchedulerModes : public ::testing::TestWithParam<SpawnMode> {};

TEST_P(SchedulerModes, ResultsAndStatsBitwiseIdenticalAt1_2_4Ranks) {
  auto [a, b] = many_block_pair(41);
  const std::vector<std::pair<int, int>> pairs = {{2, 0}};

  // Serial reference: the existing thread executor at one thread.
  ContractStats ref_stats;
  const BlockTensor ref = tt::symm::contract(a, b, pairs, &ref_stats, /*num_threads=*/1);
  ASSERT_GT(ref.num_blocks(), 8);
  ASSERT_GT(ref_stats.block_ops.size(), 30u);

  for (int ranks : {1, 2, 4}) {
    SchedulerOptions opts;
    opts.num_ranks = ranks;
    opts.mode = GetParam();
    opts.root_threads = 1;
    Scheduler sched(opts);
    ContractStats st;
    const BlockTensor c = sched.contract(a, b, pairs, &st);
    expect_bitwise_equal(ref, c);
    expect_identical_stats(ref_stats, st);

    // Placement bookkeeping: every bin executed exactly once, somewhere.
    const DistStats& d = sched.last();
    ASSERT_EQ(d.ranks.size(), static_cast<std::size_t>(ranks));
    int bins = 0;
    double flops = 0.0;
    for (const auto& r : d.ranks) {
      bins += r.bins;
      flops += r.flops;
    }
    EXPECT_EQ(bins, st.num_bins);
    EXPECT_DOUBLE_EQ(flops, st.total_flops);
    if (ranks > 1) {
      for (std::size_t r = 1; r < d.ranks.size(); ++r) {
        EXPECT_GT(d.ranks[r].bins, 0);  // the deal spreads this many bins
        EXPECT_GT(d.ranks[r].bytes_sent, 0.0);      // operands were shipped
        EXPECT_GT(d.ranks[r].bytes_received, 0.0);  // results came back
      }
      EXPECT_GT(d.exchange_words, 0.0);
      EXPECT_GE(d.imbalance_seconds, 0.0);
    } else {
      EXPECT_EQ(d.total_bytes(), 0.0);  // fully local: nothing on the wire
    }
    sched.shutdown();
  }
}

TEST_P(SchedulerModes, RepeatedContractionsReuseWorkersAndAccumulate) {
  auto [a, b] = many_block_pair(42);
  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = GetParam();
  Scheduler sched(opts);

  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});
  for (int it = 0; it < 3; ++it)
    expect_bitwise_equal(ref, sched.contract(a, b, {{2, 0}}));
  EXPECT_EQ(sched.accumulated().contractions, 3);
  EXPECT_DOUBLE_EQ(sched.accumulated().total_bytes(),
                   3.0 * sched.last().total_bytes());

  // The measured record accumulates every exchange, rank by rank.
  const DistStats& acc = sched.accumulated();
  EXPECT_GT(acc.critical_busy_seconds, 0.0);
  EXPECT_GT(acc.comm_seconds, 0.0);
  EXPECT_DOUBLE_EQ(acc.exchange_words, 3.0 * sched.last().exchange_words);
  EXPECT_DOUBLE_EQ(acc.total_flops(), 3.0 * sched.last().total_flops());
}

TEST_P(SchedulerModes, MultiModeAndScalarOutputsStayDeterministic) {
  auto [a, b] = many_block_pair(43);
  (void)b;
  const BlockTensor adag = a.dagger();
  SchedulerOptions opts;
  opts.num_ranks = 3;
  opts.mode = GetParam();
  Scheduler sched(opts);
  // Overlap-style double contraction (order-2 output).
  expect_bitwise_equal(tt::symm::contract(a, adag, {{1, 1}, {2, 2}}),
                       sched.contract(a, adag, {{1, 1}, {2, 2}}));
  // Full contraction to a scalar: a single bin, so 2 of 3 ranks idle.
  expect_bitwise_equal(tt::symm::contract(a, adag, {{0, 0}, {1, 1}, {2, 2}}),
                       sched.contract(a, adag, {{0, 0}, {1, 1}, {2, 2}}));
  const DistStats& d = sched.last();
  EXPECT_EQ(d.ranks[0].bins + d.ranks[1].bins + d.ranks[2].bins, 1);
}

TEST_P(SchedulerModes, AgreesWithTheFusedDenseOracle) {
  auto [a, b] = many_block_pair(44);
  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = GetParam();
  Scheduler sched(opts);
  const BlockTensor c = sched.contract(a, b, {{2, 0}});
  auto want = tt::testing::naive_einsum("lsr,rtm->lstm", tt::symm::fuse_dense(a),
                                        tt::symm::fuse_dense(b));
  EXPECT_LT(tt::tensor::max_abs_diff(tt::symm::fuse_dense(c), want),
            1e-10 * (1.0 + want.max_abs()));
}

TEST_P(SchedulerModes, FullDmrgRunIsBitwiseIdenticalWithAndWithoutRanks) {
  // End-to-end wiring: a DMRG ground-state run whose list engine routes every
  // block contraction through a 2-rank scheduler must reproduce the local
  // run's energy trajectory bitwise — and its modelled cost tracker too. The
  // measured exchange lives in the scheduler, never in the tracker.
  const int n = 6;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  std::vector<tt::dmrg::SweepParams> schedule(2);
  for (auto& p : schedule) p.max_m = 16;

  auto run = [&](tt::rt::Scheduler* sched) {
    auto engine = tt::dmrg::make_engine(tt::dmrg::EngineKind::kList,
                                        {tt::rt::localhost(), 1, 1});
    engine->set_scheduler(sched);
    tt::dmrg::Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
                          std::move(engine));
    const double e = solver.run(schedule);
    return std::make_pair(e, solver.engine().tracker());
  };

  const auto [e_local, t_local] = run(nullptr);

  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = GetParam();
  Scheduler sched(opts);
  const auto [e_dist, t_dist] = run(&sched);

  EXPECT_EQ(e_dist, e_local);  // bitwise: the whole trajectory must agree
  // The modelled tracker is bitwise the local one, in every field.
  for (int c = 0; c < tt::rt::kNumCategories; ++c)
    EXPECT_EQ(t_dist.time(static_cast<tt::rt::Category>(c)),
              t_local.time(static_cast<tt::rt::Category>(c)))
        << tt::rt::category_name(static_cast<tt::rt::Category>(c));
  EXPECT_EQ(t_dist.flops(), t_local.flops());
  EXPECT_EQ(t_dist.words(), t_local.words());
  EXPECT_EQ(t_dist.supersteps(), t_local.supersteps());
  // The measured side: real exchanges, real time, real bytes.
  const DistStats& acc = sched.accumulated();
  EXPECT_GT(acc.contractions, 10);
  EXPECT_GT(acc.comm_seconds, 0.0);
  EXPECT_GT(acc.critical_busy_seconds, 0.0);
  EXPECT_GT(acc.exchange_words, 0.0);
  sched.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Modes, SchedulerModes,
                         ::testing::ValuesIn(
                             tt::rt::testing::tested_spawn_modes()),
                         [](const auto& info) {
                           return std::string(tt::rt::spawn_mode_name(info.param));
                         });

TEST(SchedulerFault, KilledWorkerWithoutRespawnsIsRetiredAndResultStaysBitwise) {
  auto [a, b] = many_block_pair(45);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}});
  SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = SpawnMode::kProcess;
  opts.timeout_seconds = 10.0;
  // No respawns: the first fault retires the rank (the respawn path is
  // covered by tests/runtime/test_fault.cpp).
  opts.retry.max_attempts = 0;
  Scheduler sched(opts);
  // First exchange proves the pair works.
  expect_bitwise_equal(ref, sched.contract(a, b, {{2, 0}}));
  sched.kill_rank(1);
  expect_bitwise_equal(ref, sched.contract(a, b, {{2, 0}}));
  EXPECT_EQ(sched.stats().respawns, 0);
  EXPECT_EQ(sched.stats().ranks_lost, 1);
  EXPECT_TRUE(sched.stats().degraded);
  // Degraded to serial root execution: still bitwise.
  expect_bitwise_equal(ref, sched.contract(a, b, {{2, 0}}));
  sched.shutdown();  // must not hang on the corpse
}

TEST(SchedulerFault, SingleRankNeedsNoWorkersAndCannotBreak) {
  auto [a, b] = many_block_pair(46);
  Scheduler sched;  // defaults: 1 rank
  EXPECT_EQ(sched.num_ranks(), 1);
  EXPECT_THROW(sched.kill_rank(1), tt::Error);
  expect_bitwise_equal(tt::symm::contract(a, b, {{2, 0}}),
                       sched.contract(a, b, {{2, 0}}));
}

}  // namespace
