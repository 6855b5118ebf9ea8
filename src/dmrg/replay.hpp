// Pricing a recorded op log as one of the paper's algorithms (§IV-A, Table II).
//
// A recording ContractionEngine (dmrg/engine.hpp) logs what it executed, one
// kind-neutral record per operation. price() charges that log to a fresh
// CostTracker as the chosen EngineKind on the chosen virtual cluster, so one
// executed step prices every kind and every node count:
//
//   Reference     — serial single node, no network. Plays the role of the
//                   paper's ITensor baseline.
//   List          — each quantum-number block is its own distributed dense
//                   tensor; every compatible block pair is one 3D dense
//                   contraction. O(Nb) supersteps.
//   SparseDense   — operator tensors (MPS/MPO/environments) fused into single
//                   sparse tensors, Davidson intermediates fused dense;
//                   one 2D contraction per step. O(1) supersteps.
//   SparseSparse  — everything fused sparse, output sparsity precomputed from
//                   the quantum numbers. O(1) supersteps, sparse flop rate.
//
// The fused kinds are priced from block shapes and exact-nonzero counts, as
// the paper's persistent CTF tensors would store them; no fused tensor is
// ever built (runtime/cost_model.hpp has the per-layout cost formulas). This
// module and the cost model are the only code that charges a CostTracker.
#pragma once

#include <utility>
#include <vector>

#include "dmrg/engine.hpp"

namespace tt::dmrg {

/// The record of contracting a with b over `pairs` into c: the bin list's
/// per-pair costs plus the fused sizes and nonzero counts (scans every
/// element of a, b and c — the recording path only).
ContractionRecord record_contraction(const symm::BlockTensor& a, Role role_a,
                                     const symm::BlockTensor& b, Role role_b,
                                     const std::vector<std::pair<int, int>>& pairs,
                                     const symm::BlockTensor& c);

/// Modelled cost of `log` executed as `kind` on `cluster`.
rt::CostTracker price(EngineKind kind, const std::vector<OpRecord>& log,
                      const rt::Cluster& cluster, const rt::CostModelParams& params = {});

}  // namespace tt::dmrg
