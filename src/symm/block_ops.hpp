// Block-sparse tensor contraction — paper Algorithm 2.
//
// Enumerates pairs of blocks whose contracted sector labels match and bins
// them by the output block they write. The dense layout of a block pair —
// free and contracted modes, GEMM trans flags, operand permutations — depends
// only on the mode pairs, so it is derived once per contraction
// (tensor::ContractLayout). Each bin then runs as a flat list of β=1 GEMMs
// into its one output block: an operand that needs it is permuted into a
// per-thread scratch buffer, and no pair allocates a temporary. Per-block-pair
// costs come from block shapes at enumeration, so a recorded log can price the
// list algorithm block-wise without observing execution (dmrg/replay.hpp).
//
// Execution is thread-parallel: bins run concurrently on the shared
// work-stealing pool (support/thread_pool.hpp, TT_THREADS knob), and each bin
// accumulates its pairs in the fixed enumeration order. Because every output
// block is owned by exactly one bin and stats come from the bin list alone,
// results and stats are bitwise identical at any thread count — including the
// serial path. rt::Scheduler runs the same execute_bin on its root and its
// worker ranks, so they are bitwise identical at any rank count too.
#pragma once

#include <utility>
#include <vector>

#include "symm/block_tensor.hpp"
#include "tensor/contract.hpp"

namespace tt::symm {

/// Cost of one block-pair contraction (words = stored dense elements).
struct BlockOpCost {
  double flops = 0.0;
  double words_a = 0.0;
  double words_b = 0.0;
  double words_c = 0.0;

  bool operator==(const BlockOpCost&) const = default;
};

/// Executed totals of one block-sparse contraction (see add_bin_stats).
struct ContractStats {
  double total_flops = 0.0;  ///< Σ of the pairs' cost.flops, in bin order
  int num_bins = 0;  ///< distinct output blocks touched (executor bin count)
};

/// Validated structural plan of a block contraction.
struct ContractPlan {
  tensor::ContractLayout layout;   ///< dense layout shared by every block pair
  std::vector<Index> out_indices;  ///< free(a) then free(b)
  QN out_flux;                     ///< flux(a) + flux(b)
};

/// Validate the contraction pattern and derive the output structure.
/// Throws tt::Error for non-contractible leg pairs.
ContractPlan make_contract_plan(const BlockTensor& a, const BlockTensor& b,
                                const std::vector<std::pair<int, int>>& pairs);

/// One block pair of an output bin. Pointers refer into the operand tensors'
/// block maps (stable for the operands' lifetime).
struct BinPair {
  const tensor::DenseTensor* ablk = nullptr;
  const tensor::DenseTensor* bblk = nullptr;
  BlockOpCost cost;  ///< from block shapes: 2·m·n·k flops, words of a, b, c
};

/// All pairs contributing to one output block — the unit of parallel and of
/// distributed placement. Pair order is the fixed accumulation order.
struct OutputBin {
  BlockKey out_key;
  std::vector<BinPair> pairs;
  double est_flops = 0.0;  ///< Σ pairs' cost.flops (rank placement weight)
};

/// The Algorithm 2 block-pair list binned by output block key. Bin order and
/// within-bin pair order are fixed by the enumeration (A blocks in key order,
/// then each B group in key order) — they depend only on (a, b, plan), never
/// on thread or rank count. This single enumeration backs both the
/// thread-parallel executor in contract() and the cross-rank placement of
/// rt::Scheduler, so any distribution reduces in the same order as the
/// serial run.
std::vector<OutputBin> enumerate_bins(const BlockTensor& a, const BlockTensor& b,
                                      const ContractPlan& plan);

/// Add the bins' flops and count to `stats`, in bin order. The bin list is the
/// contraction's only cost record: stats never depend on who executed a bin.
void add_bin_stats(const std::vector<OutputBin>& bins, ContractStats& stats);

/// Run every pair of `bin` under `layout` in pair order, as β=1 GEMMs into
/// one output block allocated once. Each pair's block orders and dimensions
/// are checked against the layout (tt::Error on a mismatch), which also
/// validates blocks read off the wire. Deterministic: one thread, fixed order
/// — callers parallelize *across* bins.
tensor::DenseTensor execute_bin(const OutputBin& bin,
                                const tensor::ContractLayout& layout);

/// Contract `a` with `b` over the given (modeA, modeB) pairs. Contracted leg
/// pairs must be contractible (equal sector lists, opposite directions).
/// Output indices: free modes of `a` in order, then free modes of `b`;
/// output flux = flux(a) + flux(b). Bins of block pairs sharing an output
/// block execute concurrently on `num_threads` executor threads (0 = the
/// global TT_THREADS setting, support::num_threads(); 1 = serial); results
/// are bitwise identical at any thread count.
BlockTensor contract(const BlockTensor& a, const BlockTensor& b,
                     const std::vector<std::pair<int, int>>& pairs,
                     ContractStats* stats = nullptr, int num_threads = 0);

}  // namespace tt::symm
