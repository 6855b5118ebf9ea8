// BSP cost model for distributed tensor contractions (paper Table II).
//
// Charges simulated time to a CostTracker for each primitive the DMRG engines
// execute on the virtual cluster. The asymptotics follow the paper's Table II
// and CTF's communication-optimal algorithms:
//
//   list          per-block dense contraction, 3D/2.5D algorithm with
//                 sufficient memory  -> W = O(M / p^(2/3)), O(1) superstep per
//                 block => O(Nb) supersteps per Davidson iteration.
//   sparse-dense  one fused dense contraction, memory-limited 2D algorithm
//                 -> W = O(M_D / p^(1/2)), O(1) supersteps.
//   sparse-sparse one fused sparse contraction -> W = O(nnz / p^(1/2)),
//                 O(1) supersteps, reduced flop rate for sparse kernels.
#pragma once

#include "runtime/machine.hpp"
#include "runtime/tracker.hpp"
#include "support/types.hpp"

namespace tt::rt {

/// How a contraction is distributed over the virtual cluster.
enum class Layout {
  kBlockDense3D,  // list algorithm: one distributed dense contraction per block pair
  kFusedDense2D,  // sparse-dense: single dense contraction, memory-limited
  kFusedSparse2D, // sparse-sparse: single sparse contraction
  kLocal,         // reference single-node engine: no network at all
};

/// Size/flop description of one contraction (words = stored elements; for
/// sparse operands pass the nonzero count).
struct ContractionCost {
  double flops = 0.0;
  double words_a = 0.0;
  double words_b = 0.0;
  double words_c = 0.0;

  double total_words() const { return words_a + words_b + words_c; }
};

/// Tuning constants of the model, exposed for the ablation bench.
struct CostModelParams {
  double summa_coef = 1.2;        // prefactor of the SUMMA communication volume
  double min_flops_per_proc = 5e5;// below this, extra processes sit idle
  double transpose_passes = 3.0;  // read + write + pack traffic per transpose
  double sparse_index_words = 1.0;// index overhead words per sparse nonzero
  double svd_scale = 1.0;         // matrix-dim multiplier for SVD parallelism
                                  // limits (bench-scale replays set this to
                                  // the bond-dimension scale factor)
};

/// Charge one distributed contraction.
void charge_contraction(const Cluster& cluster, CostTracker& t,
                        const ContractionCost& cost, Layout layout,
                        const CostModelParams& params = {});

/// Charge the SVD of an m×n block: distributed (pdgesvd-style) for any
/// distributed layout, serial at one node's SVD rate for Layout::kLocal.
void charge_svd(const Cluster& cluster, CostTracker& t, index_t rows,
                index_t cols, Layout layout, const CostModelParams& params = {});

/// Charge local index transposition of `words` tensor elements.
void charge_transpose(const Cluster& cluster, CostTracker& t, double words,
                      const CostModelParams& params = {});

/// Charge a global redistribution (block extract/fuse between formats).
void charge_redistribution(const Cluster& cluster, CostTracker& t,
                           double words);

}  // namespace tt::rt
