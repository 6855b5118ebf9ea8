// Real-space sweep-mode tests: regions=1 and prefetch must reproduce the
// serial sweep bitwise at any thread count; regions>1 must converge to the
// same ground state deterministically.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "ed/ed.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/measure.hpp"
#include "support/thread_pool.hpp"

namespace {

using tt::dmrg::Dmrg;
using tt::dmrg::EngineKind;
using tt::dmrg::SweepMode;
using tt::dmrg::SweepParams;
using tt::dmrg::SweepRecord;

tt::rt::Cluster local() { return {tt::rt::localhost(), 1, 1}; }

SweepParams params_for(tt::index_t m, SweepMode mode = SweepMode::kSerial,
                       int regions = 1, bool prefetch = false) {
  SweepParams p;
  p.max_m = m;
  p.davidson_iter = 3;
  p.mode = mode;
  p.regions = regions;
  p.prefetch = prefetch;
  return p;
}

Dmrg heisenberg_solver(int n, EngineKind kind = EngineKind::kReference) {
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  return Dmrg(tt::mps::Mps::product_state(sites, neel), h,
              tt::dmrg::make_engine(kind, local()));
}

std::vector<SweepRecord> run_sweeps(Dmrg& solver, const SweepParams& p, int sweeps) {
  std::vector<SweepRecord> out;
  for (int s = 0; s < sweeps; ++s) out.push_back(solver.sweep(p));
  return out;
}

void expect_bitwise_equal(const std::vector<SweepRecord>& a,
                          const std::vector<SweepRecord>& b, const Dmrg& sa,
                          const Dmrg& sb, const char* label) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].energy, b[i].energy) << label << " sweep " << i;
    EXPECT_EQ(a[i].truncation_error, b[i].truncation_error)
        << label << " sweep " << i;
    EXPECT_EQ(a[i].max_bond_dim, b[i].max_bond_dim) << label << " sweep " << i;
    EXPECT_EQ(a[i].costs.flops(), b[i].costs.flops()) << label << " sweep " << i;
    EXPECT_EQ(a[i].costs.words(), b[i].costs.words()) << label << " sweep " << i;
  }
  for (int j = 0; j < sa.psi().size(); ++j)
    EXPECT_EQ(tt::symm::max_abs_diff(sa.psi().site(j), sb.psi().site(j)), 0.0)
        << label << " site " << j;
}

TEST(PartitionRegions, ShapesAndClamping) {
  using tt::dmrg::partition_regions;
  auto even = partition_regions(8, 4);
  ASSERT_EQ(even.size(), 4u);
  EXPECT_EQ(even[0], std::make_pair(0, 1));
  EXPECT_EQ(even[3], std::make_pair(6, 7));

  auto uneven = partition_regions(8, 3);  // 3 + 3 + 2
  ASSERT_EQ(uneven.size(), 3u);
  EXPECT_EQ(uneven[0], std::make_pair(0, 2));
  EXPECT_EQ(uneven[1], std::make_pair(3, 5));
  EXPECT_EQ(uneven[2], std::make_pair(6, 7));

  // Every region holds at least one bond; the request clamps to n/2.
  EXPECT_EQ(partition_regions(8, 100).size(), 4u);
  EXPECT_EQ(partition_regions(5, 2)[0], std::make_pair(0, 2));
  EXPECT_EQ(partition_regions(2, 5).size(), 1u);
  EXPECT_EQ(partition_regions(8, 1).size(), 1u);
  for (auto [a, b] : partition_regions(9, 4)) EXPECT_GE(b - a + 1, 2);
}

TEST(RealSpaceSweep, RegionsOneIsBitwiseSerial) {
  const int n = 8, sweeps = 3;
  Dmrg serial = heisenberg_solver(n);
  auto ra = run_sweeps(serial, params_for(16), sweeps);
  Dmrg region1 = heisenberg_solver(n);
  auto rb = run_sweeps(region1, params_for(16, SweepMode::kRealSpace, 1), sweeps);
  expect_bitwise_equal(ra, rb, serial, region1, "regions=1");
  for (const auto& r : rb) EXPECT_EQ(r.mode, SweepMode::kSerial);
}

TEST(RealSpaceSweep, PrefetchIsBitwiseSerial) {
  const int n = 8, sweeps = 3;
  Dmrg eager = heisenberg_solver(n);
  auto ra = run_sweeps(eager, params_for(16), sweeps);
  Dmrg pre = heisenberg_solver(n);
  auto rb = run_sweeps(pre, params_for(16, SweepMode::kSerial, 1, true), sweeps);
  expect_bitwise_equal(ra, rb, eager, pre, "prefetch");
  // Overlap is measured in the prefetch counters; the modelled cost is the
  // eager sweep's, up to the rounding of merging the prefetch tracker in.
  auto near = [](double x, double y) { return std::abs(x - y) <= 1e-12 * std::abs(y); };
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_GT(rb[i].prefetch_launched, 0);
    EXPECT_EQ(ra[i].prefetch_launched, 0);
    EXPECT_GT(ra[i].costs.total_time(), 0.0);
    EXPECT_TRUE(near(rb[i].costs.supersteps(), ra[i].costs.supersteps()));
    for (int c = 0; c < tt::rt::kNumCategories; ++c) {
      const auto cat = static_cast<tt::rt::Category>(c);
      EXPECT_TRUE(near(rb[i].costs.time(cat), ra[i].costs.time(cat)))
          << "sweep " << i << " " << tt::rt::category_name(cat) << ": "
          << rb[i].costs.time(cat) << " vs " << ra[i].costs.time(cat);
    }
  }
}

TEST(RealSpaceSweep, SlowPrefetchStaysInFlightAcrossTheTurn) {
  // Regression for the sweep-turn race: the last L2R bond launches
  // prefetch_left(N-1), whose worker reads site N-2, and the first R2L bond
  // re-optimizes that same bond without ever demanding the pending node — so
  // the join must come from site_changed *before* set_site replaces the
  // tensor the worker is reading. The injected worker delay keeps the future
  // in flight across the turn, so under TSan a regressed ordering is a
  // deterministic report instead of scheduling luck.
  const int n = 6, sweeps = 2;
  Dmrg eager = heisenberg_solver(n);
  auto ra = run_sweeps(eager, params_for(12), sweeps);
  Dmrg slow = heisenberg_solver(n);
  slow.environments().set_prefetch_delay_for_testing(
      std::chrono::milliseconds(10));
  auto rb = run_sweeps(slow, params_for(12, SweepMode::kSerial, 1, true), sweeps);
  expect_bitwise_equal(ra, rb, eager, slow, "slow prefetch");
  long blocked = 0;
  for (const auto& r : rb) blocked += r.prefetch_launched - r.prefetch_hits;
  EXPECT_GT(blocked, 0);  // the delay really forced joins to block in flight
}

TEST(RealSpaceSweep, SerialSweepInvariantUnderThreadCount) {
  const int n = 8, sweeps = 2;
  Dmrg base = heisenberg_solver(n);
  auto ra = run_sweeps(base, params_for(16), sweeps);
  for (int threads : {2, 8}) {
    tt::support::set_num_threads(threads);
    Dmrg other = heisenberg_solver(n);
    auto rb = run_sweeps(other, params_for(16, SweepMode::kSerial, 1, true), sweeps);
    tt::support::set_num_threads(0);
    expect_bitwise_equal(ra, rb, base, other, "threads");
  }
}

TEST(RealSpaceSweep, TwoRegionsConvergeToEd) {
  const int n = 8;
  auto lat = tt::models::chain(n);
  Dmrg solver = heisenberg_solver(n);
  SweepRecord last;
  for (int s = 0; s < 10; ++s)
    last = solver.sweep(params_for(32, SweepMode::kRealSpace, 2));
  const double e_ed = tt::ed::heisenberg_ground_energy(lat, 1.0, 0.0, 0);
  EXPECT_NEAR(last.energy, e_ed, 1e-6);
  EXPECT_EQ(last.mode, SweepMode::kRealSpace);
  EXPECT_EQ(last.regions, 2);
  EXPECT_EQ(last.boundary_bonds, 1);
}

TEST(RealSpaceSweep, FourRegionsConvergeAndRespectInvariants) {
  const int n = 12;
  auto lat = tt::models::chain(n);
  Dmrg solver = heisenberg_solver(n);
  SweepRecord last;
  for (int s = 0; s < 12; ++s)
    last = solver.sweep(params_for(48, SweepMode::kRealSpace, 4));
  const double e_ed = tt::ed::heisenberg_ground_energy(lat, 1.0, 0.0, 0);
  EXPECT_NEAR(last.energy, e_ed, 1e-5);
  EXPECT_EQ(last.regions, 4);
  EXPECT_EQ(last.boundary_bonds, 3);

  const tt::mps::Mps& psi = solver.psi();
  psi.check_consistency();
  EXPECT_EQ(psi.total_qn(), tt::symm::QN(0));
  EXPECT_NEAR(tt::mps::overlap(psi, psi), 1.0, 1e-8);
  EXPECT_LE(psi.max_bond_dim(), 48);
  EXPECT_GT(last.costs.flops(), 0.0);
}

TEST(RealSpaceSweep, RegionSweepDeterministicAcrossThreadCounts) {
  const int n = 12, sweeps = 2;
  auto run_at = [&](int threads) {
    tt::support::set_num_threads(threads);
    Dmrg solver = heisenberg_solver(n);
    auto recs = run_sweeps(solver, params_for(24, SweepMode::kRealSpace, 3), sweeps);
    tt::support::set_num_threads(0);
    std::vector<tt::symm::BlockTensor> state;
    for (int j = 0; j < solver.psi().size(); ++j)
      state.push_back(solver.psi().site(j));
    return std::make_pair(recs, state);
  };
  auto [ra, sa] = run_at(1);
  auto [rb, sb] = run_at(8);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].energy, rb[i].energy) << "sweep " << i;
    EXPECT_EQ(ra[i].truncation_error, rb[i].truncation_error) << "sweep " << i;
    EXPECT_EQ(ra[i].costs.flops(), rb[i].costs.flops()) << "sweep " << i;
  }
  for (std::size_t j = 0; j < sa.size(); ++j)
    EXPECT_EQ(tt::symm::max_abs_diff(sa[j], sb[j]), 0.0) << "site " << j;
}

TEST(RealSpaceSweep, MixedScheduleLowersEnergy) {
  // A real-space burst followed by serial polishing is a legal schedule.
  Dmrg solver = heisenberg_solver(10);
  double prev = 1e30;
  for (int s = 0; s < 3; ++s)
    prev = solver.sweep(params_for(24, SweepMode::kRealSpace, 2)).energy;
  const double serial = solver.sweep(params_for(24)).energy;
  EXPECT_LE(serial, prev + 1e-9);
}

}  // namespace
