#include <gtest/gtest.h>

#include <cmath>

#include "linalg/svd.hpp"
#include "runtime/cost_model.hpp"
#include "support/error.hpp"

namespace {

using tt::rt::Category;
using tt::rt::Cluster;
using tt::rt::ContractionCost;
using tt::rt::CostTracker;
using tt::rt::Layout;

Cluster cluster(int nodes, int ppn = 16) {
  return Cluster{tt::rt::blue_waters(), nodes, ppn};
}

ContractionCost big_cost() {
  ContractionCost c;
  c.flops = 1e12;
  c.words_a = 1e8;
  c.words_b = 1e8;
  c.words_c = 1e8;
  return c;
}

TEST(CostModel, GemmTimeInverselyProportionalToNodes) {
  CostTracker t1, t4;
  charge_contraction(cluster(1), t1, big_cost(), Layout::kBlockDense3D);
  charge_contraction(cluster(4), t4, big_cost(), Layout::kBlockDense3D);
  EXPECT_NEAR(t1.time(Category::kGemm) / t4.time(Category::kGemm), 4.0, 1e-6);
}

TEST(CostModel, CommScalingExponents) {
  // Table II: 3D block-wise -> words ~ p^(-2/3); fused 2D -> words ~ p^(-1/2).
  auto words_for = [&](Layout layout, int procs_nodes) {
    CostTracker t;
    charge_contraction(cluster(procs_nodes), t, big_cost(), layout);
    return t.words();
  };
  const double r3d = words_for(Layout::kBlockDense3D, 1) /
                     words_for(Layout::kBlockDense3D, 64);
  const double r2d = words_for(Layout::kFusedDense2D, 1) /
                     words_for(Layout::kFusedDense2D, 64);
  // p grows by 64x: 3D gives 64^(2/3)=16, 2D gives 64^(1/2)=8.
  EXPECT_NEAR(r3d, std::pow(64.0, 2.0 / 3.0), 1e-6);
  EXPECT_NEAR(r2d, std::pow(64.0, 0.5), 1e-6);
}

TEST(CostModel, SparseLayoutSlowerGemmThanDense) {
  CostTracker td, ts;
  charge_contraction(cluster(4), td, big_cost(), Layout::kFusedDense2D);
  charge_contraction(cluster(4), ts, big_cost(), Layout::kFusedSparse2D);
  EXPECT_GT(ts.time(Category::kGemm), td.time(Category::kGemm));
}

TEST(CostModel, SmallBlocksProduceImbalance) {
  ContractionCost small;
  small.flops = 1e5;  // below min_flops_per_proc — cannot fill 256 procs
  small.words_a = small.words_b = small.words_c = 1e3;
  CostTracker t;
  charge_contraction(cluster(16), t, small, Layout::kBlockDense3D);
  EXPECT_GT(t.time(Category::kImbalance), 0.0);
  // A huge contraction on the same cluster shows no imbalance.
  CostTracker t2;
  charge_contraction(cluster(16), t2, big_cost(), Layout::kBlockDense3D);
  EXPECT_DOUBLE_EQ(t2.time(Category::kImbalance), 0.0);
}

TEST(CostModel, LocalLayoutHasNoNetworkCost) {
  CostTracker t;
  charge_contraction(cluster(4), t, big_cost(), Layout::kLocal);
  EXPECT_DOUBLE_EQ(t.time(Category::kComm), 0.0);
  EXPECT_DOUBLE_EQ(t.words(), 0.0);
  EXPECT_GT(t.time(Category::kGemm), 0.0);
}

TEST(CostModel, SuperstepAccounting) {
  CostTracker t;
  for (int b = 0; b < 10; ++b)
    charge_contraction(cluster(4), t, big_cost(), Layout::kBlockDense3D);
  EXPECT_DOUBLE_EQ(t.supersteps(), 10.0);  // one per block contraction (list)
  CostTracker tf;
  charge_contraction(cluster(4), tf, big_cost(), Layout::kFusedSparse2D);
  EXPECT_DOUBLE_EQ(tf.supersteps(), 1.0);  // O(1) for fused formats
}

TEST(CostModel, FlopsRecordedVerbatim) {
  CostTracker t;
  charge_contraction(cluster(2), t, big_cost(), Layout::kFusedDense2D);
  EXPECT_DOUBLE_EQ(t.flops(), 1e12);
}

TEST(CostModel, SvdChargesSvdCategoryOnly) {
  CostTracker t;
  charge_svd(cluster(4), t, 512, 512, Layout::kBlockDense3D);
  EXPECT_GT(t.time(Category::kSvd), 0.0);
  EXPECT_DOUBLE_EQ(t.time(Category::kGemm), 0.0);
  EXPECT_DOUBLE_EQ(t.time(Category::kComm), 0.0);  // pdgesvd MPI booked to SVD
}

TEST(CostModel, SvdScalesPoorlyBeyondPanelLimit) {
  // A tiny SVD cannot use many processes: time should saturate, not shrink.
  CostTracker t1, t256;
  charge_svd(cluster(1), t1, 64, 64, Layout::kBlockDense3D);
  charge_svd(cluster(256), t256, 64, 64, Layout::kBlockDense3D);
  EXPECT_GE(t256.time(Category::kSvd), 0.9 * t1.time(Category::kSvd) / 256.0);
  // And in fact the small problem gains almost nothing from 256 nodes.
  EXPECT_GT(t256.time(Category::kSvd), 0.1 * t1.time(Category::kSvd));
}

TEST(CostModel, LocalSvdIsSerialAtTheNodeSvdRate) {
  // The reference baseline's SVD: one node, no network, whatever the cluster.
  CostTracker t1, t8;
  charge_svd(cluster(1), t1, 512, 256, Layout::kLocal);
  charge_svd(cluster(8), t8, 512, 256, Layout::kLocal);
  const tt::rt::MachineModel bw = tt::rt::blue_waters();
  const double flops = tt::linalg::svd_flops(512, 256);
  EXPECT_EQ(t1.flops(), flops);
  EXPECT_EQ(t1.time(Category::kSvd), flops / (bw.node_gflops * 1e9 * bw.svd_efficiency));
  EXPECT_EQ(t1.total_time(), t1.time(Category::kSvd));
  EXPECT_EQ(t1.words(), 0.0);
  EXPECT_EQ(t1.supersteps(), 0.0);
  EXPECT_EQ(t8.time(Category::kSvd), t1.time(Category::kSvd));
}

TEST(CostModel, TransposeChargesMemoryBandwidth) {
  CostTracker t;
  charge_transpose(cluster(2), t, 1e9);
  EXPECT_GT(t.time(Category::kTranspose), 0.0);
}

TEST(CostModel, RedistributionFreeOnSingleProc) {
  CostTracker t;
  charge_redistribution(Cluster{tt::rt::blue_waters(), 1, 1}, t, 1e9);
  EXPECT_DOUBLE_EQ(t.total_time(), 0.0);
}

TEST(CostModel, RedistributionCostsOnCluster) {
  CostTracker t;
  charge_redistribution(cluster(8), t, 1e9);
  EXPECT_GT(t.time(Category::kComm), 0.0);
  EXPECT_DOUBLE_EQ(t.supersteps(), 1.0);
}

TEST(CostModel, NegativeFlopsRejected) {
  ContractionCost c;
  c.flops = -1.0;
  CostTracker t;
  EXPECT_THROW(charge_contraction(cluster(1), t, c, Layout::kLocal), tt::Error);
}

}  // namespace
