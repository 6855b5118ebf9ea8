// Machine models for the simulated distributed runtime.
//
// The paper benchmarks on two architectures whose contrast drives Figs 7 and
// 11–13: Blue Waters Cray XE6 nodes (strong serial cores, Gemini network,
// lower node throughput) and Stampede2 KNL nodes (high node throughput, weak
// serial cores, Omni-Path network). We reproduce the architecture dependence
// through these parameter sets only; see docs/BENCHMARKS.md for the
// substitution rationale.
#pragma once

#include <string>

#include "support/types.hpp"

namespace tt::rt {

/// Parameters describing one node type + interconnect of a virtual cluster.
struct MachineModel {
  std::string name;

  /// Achievable dense GEMM rate of a full node (GFlop/s). Calibrated to the
  /// effective rates the paper reports, not vendor peak.
  double node_gflops = 100.0;

  /// Single-core rate for serial/latency-bound work such as per-block kernel
  /// launches and index bookkeeping (GFlop/s equivalents).
  double core_gflops = 4.0;

  /// Fraction of node_gflops reachable by sparse (nonzero-indexed) kernels.
  double sparse_efficiency = 0.25;

  /// Per-node memory bandwidth (GB/s) — prices local tensor transposition.
  double mem_bandwidth_gbs = 50.0;

  /// Per-node network injection bandwidth (GB/s).
  double net_bandwidth_gbs = 5.0;

  /// One-way network/global-synchronization latency (microseconds); each BSP
  /// superstep pays this once.
  double net_latency_us = 2.0;

  /// Per-block-contraction launch overhead (microseconds): mapping decisions,
  /// communicator setup — the "CTF transposition/mapping" serial costs that
  /// penalize the list algorithm when blocks are many and small.
  double block_overhead_us = 150.0;

  /// Cores per node (informational; intra-node parallelism is inside
  /// node_gflops).
  int cores_per_node = 16;

  /// Fraction of node_gflops reachable by the (Sca)LAPACK-style SVD.
  double svd_efficiency = 0.12;
};

/// Blue Waters Cray XE6 preset: dual 8-core Interlagos, Gemini interconnect.
MachineModel blue_waters();

/// Stampede2 KNL preset: 68-core Knight's Landing, Omni-Path interconnect.
MachineModel stampede2();

/// The physical host running this process (used when no simulation is wanted).
MachineModel localhost();

/// Virtual cluster = machine model × node count × MPI processes per node.
/// Processes-per-node matters because the paper sweeps 16 vs 32 procs/node:
/// more processes shrink per-process memory and raise communicator overheads
/// but improve small-block concurrency.
struct Cluster {
  MachineModel machine;
  int nodes = 1;
  int procs_per_node = 16;

  int total_procs() const { return nodes * procs_per_node; }

  /// GEMM rate of the whole cluster (GFlop/s), with a mild penalty when the
  /// node is oversubscribed beyond its core count.
  double cluster_gflops() const;
};

}  // namespace tt::rt
