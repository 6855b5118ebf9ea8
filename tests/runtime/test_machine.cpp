#include <gtest/gtest.h>

#include "runtime/machine.hpp"

namespace {

using tt::rt::Cluster;

TEST(Machine, PresetsHaveDistinctCharacters) {
  auto bw = tt::rt::blue_waters();
  auto s2 = tt::rt::stampede2();
  // KNL: higher node throughput, weaker serial cores (paper Fig 7b contrast).
  EXPECT_GT(s2.node_gflops, bw.node_gflops);
  EXPECT_LT(s2.core_gflops, bw.core_gflops);
  EXPECT_GT(s2.net_bandwidth_gbs, bw.net_bandwidth_gbs);
}

TEST(Machine, PresetsArePhysical) {
  for (const auto& m : {tt::rt::blue_waters(), tt::rt::stampede2(), tt::rt::localhost()}) {
    EXPECT_GT(m.node_gflops, 0.0) << m.name;
    EXPECT_GT(m.core_gflops, 0.0) << m.name;
    EXPECT_GT(m.mem_bandwidth_gbs, 0.0) << m.name;
    EXPECT_GT(m.net_bandwidth_gbs, 0.0) << m.name;
    EXPECT_GE(m.net_latency_us, 0.0) << m.name;
    EXPECT_GT(m.cores_per_node, 0) << m.name;
    EXPECT_GT(m.sparse_efficiency, 0.0) << m.name;
    EXPECT_LE(m.sparse_efficiency, 1.0) << m.name;
  }
}

TEST(Cluster, TotalProcs) {
  Cluster c{tt::rt::blue_waters(), 16, 32};
  EXPECT_EQ(c.total_procs(), 512);
}

TEST(Cluster, ThroughputScalesWithNodes) {
  Cluster c1{tt::rt::blue_waters(), 1, 16};
  Cluster c4{tt::rt::blue_waters(), 4, 16};
  EXPECT_NEAR(c4.cluster_gflops(), 4.0 * c1.cluster_gflops(), 1e-9);
}

TEST(Cluster, OversubscriptionPenalized) {
  // 32 procs on a 16-core XE6 node must not increase total throughput.
  Cluster c16{tt::rt::blue_waters(), 1, 16};
  Cluster c32{tt::rt::blue_waters(), 1, 32};
  EXPECT_LE(c32.cluster_gflops(), c16.cluster_gflops());
  EXPECT_GE(c32.cluster_gflops(), 0.5 * c16.cluster_gflops());
}

}  // namespace
