// The contraction oracle matrix (tests/README.md): every block-contraction
// executor, tracer off and on, on every input, bitwise equal to the reference
// cell (symm::contract at one thread) in output, ContractStats and op log;
// the reference agrees with the fused-dense naive_einsum oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/fuse.hpp"
#include "common/naive_einsum.hpp"
#include "common/parity.hpp"
#include "dmrg/engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "spawn_modes.hpp"
#include "support/thread_pool.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::rt::Scheduler;
using tt::rt::SchedulerOptions;
using tt::rt::SpawnMode;
using tt::rt::Trace;
using tt::symm::BlockTensor;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::testing::bitwise_equal;
using Pairs = std::vector<std::pair<int, int>>;

// --- inputs ------------------------------------------------------------------

struct Input {
  std::string name;
  BlockTensor a, b;
  Pairs pairs;
  std::string spec;  // the same contraction in naive_einsum's notation
  // The reference cell's output and stats, and a logging engine's record.
  BlockTensor ref{};
  ContractStats stats{};
  std::vector<tt::dmrg::OpRecord> log{};
};

// One of the 12 seeded random structures: a(x, c, y) · b(c̄, z).
Input random_structure(int seed) {
  Rng rng(static_cast<unsigned>(seed) * 1234 + 1);
  const int rank = seed % 2 + 1;
  Input in{"Random" + std::to_string(seed), {}, {}, {{1, 0}}, "xcy,cz->xyz"};
  for (int attempt = 0; attempt < 50; ++attempt) {
    const Index shared = tt::testing::random_index(rng, rank, Dir::Out);
    in.a = BlockTensor::random({tt::testing::random_index(rng, rank, Dir::In), shared,
                                tt::testing::random_index(rng, rank, Dir::Out)},
                               tt::testing::random_flux(rng, rank), rng);
    in.b = BlockTensor::random(
        {shared.reversed(), tt::testing::random_index(rng, rank, Dir::In)},
        tt::testing::random_flux(rng, rank), rng);
    if (in.a.num_blocks() > 0 && in.b.num_blocks() > 0) break;
  }
  return in;
}

// The bin executor's layouts. Each case names a contraction in naive_einsum's
// notation: one letter per leg, a letter in both operands is contracted.
// Lower-case legs are narrow (1–3 sectors of dim 1–3, so the dense oracle
// stays cheap); upper-case legs are wide (2 sectors of dim 17–20), so a pair
// over two of them has k = 17²…20² > 256, more than one GEMM k panel.
struct LayoutCase {
  const char* name;
  const char* spec;
  Pairs pairs;
};

const LayoutCase kLayoutCases[] = {
    // The two-site matvec's t1 · W1 and t2 · W2: both operands permuted.
    {"BothPermutedW1", "abcde,bfcg->adefg", {{1, 0}, {2, 2}}},
    {"BothPermutedW2", "abcde,efbg->acdfg", {{4, 0}, {1, 2}}},
    // Operands stored as the transpose of their matrix layout: trans flags.
    {"TransA", "cdxy,cdz->xyz", {{0, 0}, {1, 1}}},
    {"TransB", "xycd,zcd->xyz", {{2, 1}, {3, 2}}},
    {"TransAB", "cdx,zcd->xz", {{0, 1}, {1, 2}}},
    // k > 256 with a permuted A.
    {"WideK", "CxD,CDz->xz", {{0, 0}, {2, 1}}},
};

Index layout_leg(Rng& rng, int qn_rank, Dir dir, bool wide) {
  const int nsec = wide ? 2 : static_cast<int>(rng.integer(1, 3));
  std::vector<tt::symm::Sector> sectors;
  std::vector<QN> used;
  while (static_cast<int>(sectors.size()) < nsec) {
    QN q = qn_rank == 1 ? QN(static_cast<int>(rng.integer(-1, 1)))
                        : QN(static_cast<int>(rng.integer(-1, 1)),
                             static_cast<int>(rng.integer(0, 1)));
    bool fresh = true;
    for (const QN& u : used) fresh &= !(u == q);
    if (!fresh) continue;
    used.push_back(q);
    sectors.push_back({q, wide ? rng.integer(17, 20) : rng.integer(1, 3)});
  }
  return Index(sectors, dir);
}

// Random operands for `c` whose bin list exercises what the case is for: at
// least two bins (so a second rank gets work), a bin of at least two pairs
// (β=1 accumulation), and for wide cases a pair with k > 256. Under two
// charges such structures are rare (up to a few thousand draws of these
// small tensors), so the draw budget is generous.
Input layout_input(const LayoutCase& c, int seed) {
  Rng rng(static_cast<unsigned>(seed) * 7919 + 11);
  const int qn_rank = seed % 2 + 1;
  const std::string spec = c.spec;
  const std::string la = spec.substr(0, spec.find(','));
  const std::string lb =
      spec.substr(spec.find(',') + 1, spec.find("->") - spec.find(',') - 1);
  const bool wide =
      std::any_of(la.begin(), la.end(), [](char l) { return std::isupper(l); });
  const std::string name = std::string(c.name) + std::to_string(seed);
  for (int attempt = 0; attempt < 5000; ++attempt) {
    std::map<char, Index> legs;  // as seen by a; b reverses the shared ones
    std::vector<Index> ia, ib;
    for (char l : la) {
      const Dir d = rng.integer(0, 1) ? Dir::In : Dir::Out;
      legs.emplace(l, layout_leg(rng, qn_rank, d, std::isupper(l) != 0));
      ia.push_back(legs.at(l));
    }
    for (char l : lb) {
      if (legs.count(l)) {
        ib.push_back(legs.at(l).reversed());
      } else {
        const Dir d = rng.integer(0, 1) ? Dir::In : Dir::Out;
        ib.push_back(layout_leg(rng, qn_rank, d, false));
      }
    }
    Input in{name,
             BlockTensor::random(ia, tt::testing::random_flux(rng, qn_rank), rng),
             BlockTensor::random(ib, tt::testing::random_flux(rng, qn_rank), rng),
             c.pairs, c.spec};
    const auto plan = tt::symm::make_contract_plan(in.a, in.b, c.pairs);
    const auto bins = tt::symm::enumerate_bins(in.a, in.b, plan);
    std::size_t most_pairs = 0;
    index_t most_k = 0;
    for (const auto& bin : bins) {
      most_pairs = std::max(most_pairs, bin.pairs.size());
      for (const auto& pw : bin.pairs) {
        index_t k = 1;
        for (int m : plan.layout.con_a) k *= pw.ablk.dim(m);
        most_k = std::max(most_k, k);
      }
    }
    if (bins.size() >= 2 && most_pairs >= 2 && (!wide || most_k > 256)) return in;
  }
  ADD_FAILURE() << name << ": no structure with the wanted bin list in 5000 attempts";
  return {name, {}, {}, c.pairs, c.spec};
}

std::vector<Input> make_inputs() {
  std::vector<Input> out;
  {
    auto [a, b] = tt::testing::many_block_pair(41);
    out.push_back({"ManyBlock", std::move(a), std::move(b), {{2, 0}}, "lsr,rtm->lstm"});
  }
  for (int seed = 0; seed < 12; ++seed) out.push_back(random_structure(seed));
  for (const LayoutCase& c : kLayoutCases)
    for (int seed = 0; seed < 4; ++seed) out.push_back(layout_input(c, seed));
  {
    // Overlap-style double contraction (order-2 output), then the full
    // contraction to a scalar: a single bin, so every rank but one idles.
    BlockTensor a = tt::testing::many_block_pair(43).first;
    BlockTensor adag = a.dagger();
    out.push_back({"Order2", a, adag, {{1, 1}, {2, 2}}, "lsr,msr->lm"});
    out.push_back({"Scalar", std::move(a), std::move(adag), {{0, 0}, {1, 1}, {2, 2}},
                   "lsr,lsr->"});
  }
  for (Input& in : out) {
    in.ref = tt::symm::contract(in.a, in.b, in.pairs, &in.stats, /*num_threads=*/1);
    tt::dmrg::ContractionEngine eng;
    eng.set_num_threads(1);
    eng.set_logging(true);
    (void)eng.contract(in.a, tt::dmrg::Role::kOperator, in.b,
                       tt::dmrg::Role::kIntermediate, in.pairs);
    in.log = eng.log();
  }
  return out;
}

const std::vector<Input>& inputs() {
  static const std::vector<Input> in = make_inputs();
  return in;
}

// --- the reference cell ----------------------------------------------------------

TEST(ContractMatrixReference, AgreesWithTheFusedDenseOracle) {
  for (const Input& in : inputs()) {
    SCOPED_TRACE(in.name);
    ASSERT_GT(in.a.num_blocks(), 0);
    ASSERT_GT(in.b.num_blocks(), 0);
    ASSERT_EQ(in.log.size(), 1u);
    const auto want = tt::testing::naive_einsum(in.spec, tt::testing::fuse_dense(in.a),
                                                tt::testing::fuse_dense(in.b));
    EXPECT_LT(tt::tensor::max_abs_diff(tt::testing::fuse_dense(in.ref), want),
              1e-10 * (1.0 + want.max_abs()));
  }
  // Bins are enumerated in A-block order, not output key order, so the
  // output layout (bins sorted by key code) must reorder them: some inputs
  // enumerate out of key order.
  int out_of_order = 0;
  for (const Input& in : inputs()) {
    const auto plan = tt::symm::make_contract_plan(in.a, in.b, in.pairs);
    const auto bins = tt::symm::enumerate_bins(in.a, in.b, plan);
    if (!std::ranges::is_sorted(bins, {}, &tt::symm::OutputBin::out_code)) ++out_of_order;
  }
  EXPECT_GT(out_of_order, 0);
  // The many-block pair spreads over every rank; the scalar is one bin.
  EXPECT_GT(inputs().front().stats.num_bins, 8);
  EXPECT_GT(inputs().front().ref.num_blocks(), 8);
  EXPECT_EQ(inputs().back().stats.num_bins, 1);
}

// --- the executors ---------------------------------------------------------------

enum class Exec { kPool, kPoolGlobal, kEngine, kScheduler };

struct Executor {
  std::string name;
  Exec exec;
  int width;  // threads, or ranks
  SpawnMode mode = SpawnMode::kThread;
};

void PrintTo(const Executor& e, std::ostream* os) { *os << e.name; }

std::vector<Executor> executors() {
  std::vector<Executor> out = {{"pool1", Exec::kPool, 1},
                               {"pool2", Exec::kPool, 2},
                               {"pool8", Exec::kPool, 8},
                               {"poolGlobal8", Exec::kPoolGlobal, 8},
                               {"engine1", Exec::kEngine, 1},
                               {"engine8", Exec::kEngine, 8}};
  for (SpawnMode mode : tt::rt::testing::tested_spawn_modes())
    for (int ranks = 1; ranks <= 4; ++ranks)
      out.push_back(
          {"ranks" + std::to_string(ranks) + "_" + tt::rt::spawn_mode_name(mode),
           Exec::kScheduler, ranks, mode});
  return out;
}

class ContractMatrix : public ::testing::TestWithParam<std::tuple<Executor, bool>> {
 protected:
  void TearDown() override {
    Trace::instance().stop();
    Trace::instance().clear();
  }
};

// Scheduler cells: bins and flops summed over ranks equal the stats, and
// while no fault has cost a worker, every worker rank ships and receives
// bytes and gets bins whenever there are enough to go round.
void expect_placement(const Scheduler& sched, const ContractStats& st,
                      long faults_before) {
  const tt::rt::DistStats& d = sched.last();
  ASSERT_EQ(d.ranks.size(), static_cast<std::size_t>(sched.num_ranks()));
  int bins = 0;
  double flops = 0.0;
  for (const auto& r : d.ranks) {
    bins += r.bins;
    flops += r.flops;
  }
  EXPECT_EQ(bins, st.num_bins);
  EXPECT_DOUBLE_EQ(flops, st.total_flops);
  const bool faulted = sched.stats().faults_detected != faults_before;
  EXPECT_TRUE(!faulted || std::getenv("TT_FAULTS") != nullptr);
  if (sched.num_ranks() == 1) {
    EXPECT_EQ(d.total_bytes(), 0.0);  // fully local: nothing on the wire
  } else if (!faulted && sched.live_workers() == sched.num_ranks() - 1) {
    for (std::size_t r = 1; r < d.ranks.size(); ++r) {
      if (st.num_bins >= sched.num_ranks()) {
        EXPECT_GT(d.ranks[r].bins, 0) << "rank " << r;  // the deal reaches every rank
      }
      EXPECT_GT(d.ranks[r].bytes_sent, 0.0) << "rank " << r;
      EXPECT_GT(d.ranks[r].bytes_received, 0.0) << "rank " << r;
    }
    EXPECT_GT(d.exchange_words, 0.0);
    EXPECT_GE(d.imbalance_seconds, 0.0);
  }
}

TEST_P(ContractMatrix, EveryInputIsBitwiseTheReference) {
  const auto& [ex, traced] = GetParam();
  if (traced) Trace::instance().start();
  std::unique_ptr<Scheduler> sched;
  if (ex.exec == Exec::kScheduler) {
    SchedulerOptions opts;
    opts.num_ranks = ex.width;
    opts.mode = ex.mode;
    opts.root_threads = 1;
    sched = std::make_unique<Scheduler>(opts);
  }

  for (const Input& x : inputs()) {
    SCOPED_TRACE(x.name);
    ContractStats st;
    BlockTensor c;
    switch (ex.exec) {
      case Exec::kPool:
        c = tt::symm::contract(x.a, x.b, x.pairs, &st, ex.width);
        break;
      case Exec::kPoolGlobal:
        tt::support::set_num_threads(ex.width);
        c = tt::symm::contract(x.a, x.b, x.pairs, &st);
        tt::support::set_num_threads(0);
        break;
      case Exec::kEngine: {
        tt::dmrg::ContractionEngine eng;
        eng.set_num_threads(ex.width);
        eng.set_logging(true);
        c = eng.contract(x.a, tt::dmrg::Role::kOperator, x.b,
                         tt::dmrg::Role::kIntermediate, x.pairs);
        // The engine counts executed flops and records the same log at any
        // thread count, so every modelled cost is thread-count free too.
        EXPECT_TRUE(tt::testing::same_bits(eng.tracker().flops(), x.stats.total_flops));
        EXPECT_TRUE(bitwise_equal(eng.log(), x.log));
        st = x.stats;  // the engine reports no ContractStats
        break;
      }
      case Exec::kScheduler: {
        const long faults = sched->stats().faults_detected;
        c = sched->contract(x.a, x.b, x.pairs, &st);
        expect_placement(*sched, st, faults);
        break;
      }
    }
    EXPECT_TRUE(bitwise_equal(c, x.ref));
    EXPECT_TRUE(bitwise_equal(st, x.stats));
  }

  if (sched) sched->shutdown();  // process-mode workers ship their trace here
  EXPECT_EQ(Trace::instance().events_recorded() > 0, traced);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ContractMatrix,
    ::testing::Combine(::testing::ValuesIn(executors()), ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param).name + (std::get<1>(info.param) ? "_traced" : "");
    });

}  // namespace
