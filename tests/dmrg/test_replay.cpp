// Pricing a recorded op log (dmrg/replay.hpp). One seeded two-site step —
// θ, the Davidson matvecs, an SVD that keeps every singular value and one
// environment extension — is recorded once and priced as every kind on two
// clusters. The golden values are the charges the engine made live, on its
// own tracker, when each kind priced itself during execution: pricing moved
// off the execution path without changing a bit of any modelled cost.
#include <gtest/gtest.h>

#include <string>

#include "dmrg/dmrg.hpp"
#include "dmrg/replay.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spawn_modes.hpp"

namespace {

using tt::Rng;
using tt::dmrg::EngineKind;
using tt::dmrg::OpRecord;
using tt::rt::Category;
using tt::symm::QN;

const EngineKind kAllKinds[] = {EngineKind::kReference, EngineKind::kList,
                                EngineKind::kSparseDense, EngineKind::kSparseSparse};

// The log of optimize_bond(4) on a seeded 8-site Heisenberg chain at m = 12.
// `sched`, when given, executes every contraction across its ranks.
std::vector<OpRecord> record_step(tt::rt::Scheduler* sched = nullptr, unsigned seed = 9,
                                  tt::index_t m = 12) {
  auto lat = tt::models::chain(8);
  auto sites = tt::models::spin_half_sites(8);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  Rng rng(seed);
  auto psi = tt::mps::Mps::random(sites, QN(0), m, rng);

  auto engine = std::make_unique<tt::dmrg::ContractionEngine>();
  engine->set_scheduler(sched);
  engine->set_logging(true);
  tt::dmrg::Dmrg solver(std::move(psi), h, std::move(engine));
  tt::dmrg::SweepParams p;
  p.max_m = 1000;  // keep every singular value: no truncation decision
  p.cutoff = 0.0;
  solver.optimize_bond(4, p, true);
  EXPECT_EQ(solver.last_truncation_error(), 0.0);
  return solver.engine().log();
}

// Every CostTracker field: the five category times, flops, words, supersteps.
struct Golden {
  double gemm, comm, transpose, svd, imbalance, flops, words, supersteps;
};

// Live-tracker values per kind (reference, list, sparse-dense,
// sparse-sparse), each on Blue Waters 4×16 then Stampede2 2×64.
const Golden kGolden[4][2] = {
    {{0x1.d51b1a74cf2a6p-23, 0x0p+0, 0x0p+0, 0x1.4482363d8847p-24, 0x0p+0, 0x1.586p+14,
      0x0p+0, 0x0p+0},
     {0x1.7748e1f70c21dp-26, 0x0p+0, 0x0p+0, 0x1.2edfee5b90425p-26, 0x0p+0, 0x1.586p+14,
      0x0p+0, 0x0p+0}},
    {{0x1.d51b1a74cf299p-25, 0x1.72c877c2a5bb7p-9, 0x1.32b782fbace54p-5,
      0x1.38b3b12d94d94p-15, 0x1.cdc6ae0afbee5p-19, 0x1.586p+14, 0x1.800ccccccccbep+9,
      0x1.3cp+8},
     {0x1.7748e1f70c21cp-27, 0x1.20e485d630f52p-9, 0x1.0a3d7b74df8acp-1,
      0x1.e9ed2024c8a54p-16, 0x1.745a50331e0a2p-20, 0x1.586p+14, 0x1.e410c78c26dcbp+8,
      0x1.3cp+8}},
    {{0x1.a2546ebb4b4f7p-23, 0x1.9e1af10664801p-13, 0x1.79f20e99ae8eep-10,
      0x1.38b3b12d94d94p-15, 0x1.9bcb1d005e223p-17, 0x1.1b3cp+16, 0x1.484e666666667p+11,
      0x1.2p+4},
     {0x1.4ea9f22f6f72cp-25, 0x1.6f73535849527p-13, 0x1.47b0651e1fb97p-6,
      0x1.e9ed2024c8a54p-16, 0x1.4c0c9e4b1093ep-18, 0x1.1b3cp+16, 0x1.d02dbc4159498p+10,
      0x1.2p+4}},
    {{0x1.45c4997bc8c1p-22, 0x1.6adb5eb2a3b53p-13, 0x1.79a3569d1fd4ep-10,
      0x1.38b3b12d94d94p-15, 0x1.40ad8715d99dfp-16, 0x1.586p+14, 0x1.b049999999999p+10,
      0x1.2p+4},
     {0x1.38bcbc4ddf719p-25, 0x1.380ff0cafe16ap-13, 0x1.47aed7618f6fp-6,
      0x1.e9ed2024c8a54p-16, 0x1.364b42d543b2ap-18, 0x1.586p+14, 0x1.318e92a4d428fp+10,
      0x1.2p+4}},
};

TEST(Replay, PricesTheGoldenStepBitwise) {
  const std::vector<OpRecord> log = record_step();
  const tt::rt::Cluster clusters[2] = {{tt::rt::blue_waters(), 4, 16},
                                       {tt::rt::stampede2(), 2, 64}};
  for (int k = 0; k < 4; ++k)
    for (int c = 0; c < 2; ++c) {
      SCOPED_TRACE(std::string(tt::dmrg::engine_name(kAllKinds[k])) + " cluster " +
                   std::to_string(c));
      const tt::rt::CostTracker t = tt::dmrg::price(kAllKinds[k], log, clusters[c]);
      const Golden& g = kGolden[k][c];
      EXPECT_EQ(t.time(Category::kGemm), g.gemm);
      EXPECT_EQ(t.time(Category::kComm), g.comm);
      EXPECT_EQ(t.time(Category::kTranspose), g.transpose);
      EXPECT_EQ(t.time(Category::kSvd), g.svd);
      EXPECT_EQ(t.time(Category::kImbalance), g.imbalance);
      EXPECT_EQ(t.flops(), g.flops);
      EXPECT_EQ(t.words(), g.words);
      EXPECT_EQ(t.supersteps(), g.supersteps);
    }
}

class ReplaySpawnModes : public ::testing::TestWithParam<tt::rt::SpawnMode> {};

TEST_P(ReplaySpawnModes, LogThroughRanksEqualsTheLocalLog) {
  // Ranks move where bins run, never what is recorded: the scheduler's
  // rank-parity invariant carries every field of every record.
  tt::rt::SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = GetParam();
  tt::rt::Scheduler sched(opts);
  const std::vector<OpRecord> ranked = record_step(&sched);
  EXPECT_GT(sched.accumulated().contractions, 0);
  sched.shutdown();
  const std::vector<OpRecord> local = record_step();
  ASSERT_EQ(ranked.size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    EXPECT_TRUE(ranked[i] == local[i]) << "record " << i;
}

INSTANTIATE_TEST_SUITE_P(Modes, ReplaySpawnModes,
                         ::testing::ValuesIn(tt::rt::testing::tested_spawn_modes()),
                         [](const auto& info) {
                           return std::string(tt::rt::spawn_mode_name(info.param));
                         });

class ReplayParam : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ReplayParam, ReplayOnBiggerClusterIsFaster) {
  const std::vector<OpRecord> log = record_step(nullptr, 10, 16);
  auto t1 = tt::dmrg::price(GetParam(), log, {tt::rt::blue_waters(), 1, 16});
  auto t8 = tt::dmrg::price(GetParam(), log, {tt::rt::blue_waters(), 8, 16});
  if (GetParam() == EngineKind::kReference) {
    // The local layout ignores the cluster size.
    EXPECT_NEAR(t8.total_time(), t1.total_time(), 1e-12);
  } else {
    // At unit-test problem sizes fixed per-event costs can dominate the
    // total; the node-scalable component (GEMM) must strictly shrink.
    EXPECT_LT(t8.time(Category::kGemm), t1.time(Category::kGemm));
    // Comm volume shrinks with p, but for the list kind the per-block
    // synchronization latency grows with log p and dominates at unit-test
    // sizes — only the fused kinds' comm must shrink here.
    if (GetParam() != EngineKind::kList) {
      EXPECT_LT(t8.time(Category::kComm), t1.time(Category::kComm));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, ReplayParam, ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           std::string name = tt::dmrg::engine_name(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Replay, EmptyLogIsFree) {
  for (EngineKind k : kAllKinds) {
    auto t = tt::dmrg::price(k, {}, {tt::rt::blue_waters(), 4, 16});
    EXPECT_DOUBLE_EQ(t.total_time(), 0.0);
    EXPECT_DOUBLE_EQ(t.flops(), 0.0);
  }
}

}  // namespace
