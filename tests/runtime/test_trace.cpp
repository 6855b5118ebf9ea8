// rt::Trace contract tests: the disabled path costs nothing observable, the
// ring buffer drops newest-first and counts, Chrome JSON export is
// well-formed, worker events round-trip through serialize/absorb, spans
// arrive from every scheduler rank in both spawn modes, tracing does not
// perturb bitwise determinism, and the sweep-turn prefetch span overlaps the
// Davidson span it hides behind (the timeline fact the tracer exists to
// show).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "dmrg/engine.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "runtime/machine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "runtime/wire.hpp"
#include "spawn_modes.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "symm/block_ops.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::rt::Scheduler;
using tt::rt::SchedulerOptions;
using tt::rt::SpawnMode;
using tt::rt::Trace;
using tt::rt::TraceCat;
using tt::rt::TraceOptions;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

// Every test leaves the process-wide tracer disabled and empty.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::instance().stop();
    Trace::instance().clear();
  }
  void TearDown() override {
    Trace::instance().stop();
    Trace::instance().clear();
  }
};

class TraceModes : public TraceTest,
                   public ::testing::WithParamInterface<SpawnMode> {};

std::string exported_json() {
  std::ostringstream os;
  Trace::instance().write_chrome_json(os);
  return os.str();
}

struct SpanIv {
  double ts = 0.0;   // µs
  double dur = 0.0;  // µs
  int pid = -1;
};

// Scan the line-per-event export for complete ("X") spans named `name`.
std::vector<SpanIv> spans(const std::string& json, const std::string& name) {
  std::vector<SpanIv> out;
  std::istringstream in(json);
  std::string line;
  const std::string needle = "\"name\":\"" + name + "\"";
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    if (line.find(needle) == std::string::npos) continue;
    const auto tp = line.find("\"ts\":");
    const auto dp = line.find("\"dur\":");
    const auto pp = line.find("\"pid\":");
    EXPECT_NE(tp, std::string::npos) << line;
    EXPECT_NE(dp, std::string::npos) << line;
    EXPECT_NE(pp, std::string::npos) << line;
    if (tp == std::string::npos || dp == std::string::npos ||
        pp == std::string::npos)
      continue;
    SpanIv iv;
    iv.ts = std::atof(line.c_str() + tp + 5);
    iv.dur = std::atof(line.c_str() + dp + 6);
    iv.pid = std::atoi(line.c_str() + pp + 6);
    out.push_back(iv);
  }
  return out;
}

std::pair<BlockTensor, BlockTensor> block_pair(unsigned seed) {
  Rng rng(seed);
  std::vector<tt::symm::Sector> secs;
  for (int q = 0; q < 7; ++q)
    secs.push_back({QN(q - 3), static_cast<index_t>(2 + q % 3)});
  const Index mid(secs, Dir::Out);
  const Index phys({{QN(-1), 2}, {QN(1), 2}}, Dir::In);
  BlockTensor a = BlockTensor::random(
      {Index(secs, Dir::In), phys, mid}, QN::zero(1), rng);
  BlockTensor b = BlockTensor::random(
      {mid.reversed(), phys, Index(secs, Dir::Out)}, QN::zero(1), rng);
  return {std::move(a), std::move(b)};
}

void expect_bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  ASSERT_TRUE(x.same_structure(y));
  for (const auto& [key, blk] : x.blocks()) {
    const tt::tensor::DenseTensor* other = y.find_block(key);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(std::memcmp(blk.data(), other->data(),
                          static_cast<std::size_t>(blk.size()) * sizeof(double)),
              0);
  }
}

TEST_F(TraceTest, DisabledSpansRecordNothingAndCostNothingMeasurable) {
  ASSERT_FALSE(tt::rt::trace_enabled());
  const std::size_t before = Trace::instance().events_recorded();
  constexpr int kIters = 10'000'000;
  tt::Timer timer;
  for (int i = 0; i < kIters; ++i) {
    TT_TRACE_SPAN("overhead.probe", TraceCat::kOther);
    TT_TRACE_COUNTER("overhead.counter", 1.0);
  }
  const double secs = timer.seconds();
  EXPECT_EQ(Trace::instance().events_recorded(), before);
  // One relaxed load per macro. Even a sanitizer build clears 10M disabled
  // span+counter pairs in well under this; a clock read or allocation on the
  // disabled path would blow it.
  EXPECT_LT(secs, 5.0);
}

TEST_F(TraceTest, SpansCountersAndMetadataExportAsChromeJson) {
  Trace::instance().start();
  {
    TT_TRACE_SPAN("test.outer", TraceCat::kSweep);
    TT_TRACE_SPAN("test.inner", TraceCat::kDavidson);
    TT_TRACE_COUNTER("test.gauge", 42.0);
  }
  EXPECT_EQ(Trace::instance().events_recorded(), 3u);
  Trace::instance().stop();

  const std::string json = exported_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.inner\",\"cat\":\"davidson\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  // Inner closes before outer and starts at-or-after it.
  const auto outer = spans(json, "test.outer");
  const auto inner = spans(json, "test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_GE(inner[0].ts, outer[0].ts);
  EXPECT_LE(inner[0].ts + inner[0].dur, outer[0].ts + outer[0].dur + 1e-3);
}

TEST_F(TraceTest, BufferDropsNewestEventsAndCountsThem) {
  TraceOptions opts;
  opts.buffer_capacity = 8;
  Trace::instance().start(opts);
  for (int i = 0; i < 20; ++i) {
    TT_TRACE_SPAN("drop.probe", TraceCat::kOther);
  }
  Trace::instance().stop();
  EXPECT_EQ(Trace::instance().events_recorded(), 8u);
  EXPECT_EQ(Trace::instance().events_dropped(), 12u);
  EXPECT_NE(exported_json().find("\"dropped_events\":12"), std::string::npos);
}

TEST_F(TraceTest, SerializeAbsorbRoundTripRetagsRank) {
  Trace::instance().start();
  {
    TT_TRACE_SPAN("ship.a", TraceCat::kComm);
    TT_TRACE_SPAN("ship.b", TraceCat::kRecovery);
  }
  const std::vector<std::byte> payload = Trace::instance().serialize_and_clear();
  EXPECT_EQ(Trace::instance().events_recorded(), 0u);
  ASSERT_FALSE(payload.empty());

  Trace::instance().absorb(payload, /*rank=*/7);
  Trace::instance().stop();
  EXPECT_EQ(Trace::instance().events_recorded(), 2u);
  const std::string json = exported_json();
  const auto a = spans(json, "ship.a");
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].pid, 7);
  EXPECT_NE(json.find("\"cat\":\"recovery\""), std::string::npos);
}

TEST_F(TraceTest, AbsorbRejectsMalformedPayloads) {
  std::vector<std::byte> junk(11, std::byte{0xfe});
  EXPECT_THROW(Trace::instance().absorb(junk, 1), tt::Error);
  // Truncated genuine payload.
  Trace::instance().start();
  { TT_TRACE_SPAN("trunc.probe", TraceCat::kOther); }
  std::vector<std::byte> payload = Trace::instance().serialize_and_clear();
  Trace::instance().stop();
  payload.resize(payload.size() / 2);
  EXPECT_THROW(Trace::instance().absorb(payload, 1), tt::Error);
}

TEST_F(TraceTest, AbsorbBoundsNameCountBeforeReserving) {
  // A torn trace frame can claim an absurd name-table size; absorb must
  // raise a clean Error from the TT_CHECK bound, not reserve gigabytes.
  tt::rt::WireWriter w;
  w.u32(1);                      // format version
  w.u32(3);                      // worker rank claim
  w.u64(0);                      // dropped
  w.u64(std::uint64_t{1} << 61); // names "table"
  EXPECT_THROW(Trace::instance().absorb(w.take(), 1), tt::Error);
}

TEST_P(TraceModes, SchedulerContractionYieldsSpansFromEveryRank) {
  auto [a, b] = block_pair(17);
  Trace::instance().start();
  {
    SchedulerOptions opts;
    opts.num_ranks = 2;
    opts.mode = GetParam();
    Scheduler sched(opts);
    (void)sched.contract(a, b, {{2, 0}});
  }  // process-mode workers ship their buffers at shutdown
  Trace::instance().stop();

  const std::string json = exported_json();
  // Rank 0 is the root: it runs its own bin share inline (sched.root_bins);
  // remote shares execute as sched.worker_task on rank >= 1.
  bool rank0 = false, rank1 = false;
  for (const SpanIv& s : spans(json, "sched.root_bins"))
    rank0 = rank0 || s.pid == 0;
  for (const SpanIv& s : spans(json, "sched.worker_task"))
    rank1 = rank1 || s.pid == 1;
  EXPECT_TRUE(rank0) << "no root-share spans from rank 0";
  EXPECT_TRUE(rank1) << "no worker spans from rank 1";
  EXPECT_FALSE(spans(json, "sched.contract").empty());
}

TEST_P(TraceModes, TracingDoesNotPerturbSchedulerResults) {
  auto [a, b] = block_pair(23);
  const std::vector<std::pair<int, int>> pairs = {{2, 0}};

  auto run = [&] {
    SchedulerOptions opts;
    opts.num_ranks = 2;
    opts.mode = GetParam();
    Scheduler sched(opts);
    return sched.contract(a, b, pairs);
  };
  const BlockTensor untraced = run();
  Trace::instance().start();
  const BlockTensor traced = run();
  Trace::instance().stop();
  EXPECT_GT(Trace::instance().events_recorded(), 0u);
  expect_bitwise_equal(untraced, traced);
}

INSTANTIATE_TEST_SUITE_P(Modes, TraceModes,
                         ::testing::ValuesIn(tt::rt::testing::tested_spawn_modes()),
                         [](const auto& info) {
                           return std::string(tt::rt::spawn_mode_name(info.param));
                         });

TEST_F(TraceTest, SweepTurnPrefetchSpanOverlapsDavidson) {
  const int n = 8;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  tt::dmrg::Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
                        std::make_unique<tt::dmrg::ContractionEngine>());
  // At this scale the extension outpaces theta; the stall holds the turn
  // future in flight into the Davidson window (same seam the TSan turn-race
  // test uses), making the overlap deterministic instead of a scheduling
  // coin flip.
  solver.environments().set_prefetch_delay_for_testing(
      std::chrono::milliseconds(50));

  Trace::instance().start();
  tt::dmrg::SweepParams params;
  params.max_m = 16;
  params.davidson_iter = 2;
  params.prefetch = true;
  const tt::dmrg::SweepRecord rec = solver.sweep(params);
  Trace::instance().stop();
  ASSERT_GT(rec.prefetch_launched, 0);

  const std::string json = exported_json();
  const auto prefetch = spans(json, "env.prefetch");
  const auto davidson = spans(json, "dmrg.davidson");
  ASSERT_FALSE(prefetch.empty());
  ASSERT_FALSE(davidson.empty());
  bool overlap = false;
  for (const SpanIv& p : prefetch)
    for (const SpanIv& d : davidson)
      overlap = overlap ||
                (p.ts < d.ts + d.dur && d.ts < p.ts + p.dur);
  EXPECT_TRUE(overlap)
      << "no env.prefetch span overlapped a dmrg.davidson span";
}

}  // namespace
