// BSP cost tracker: accumulates simulated time per profile category plus raw
// BSP quantities (flops, communicated words, supersteps).
//
// The categories are exactly paper Fig. 7: GEMM/MKL, communication, CTF
// transposition (local data reordering + mapping), SVD, and load imbalance.
// A tracker holds modelled cost only: runtime/cost_model.cpp charges it, on
// behalf of dmrg/replay.hpp pricing a recorded log. (The one other writer is
// the engine's executed-flop count; see dmrg/engine.hpp.) Measured time lives
// in rt::DistStats, the prefetch counters and the trace spans, never here.
#pragma once

#include <array>

#include "support/types.hpp"

namespace tt::rt {

enum class Category : int {
  kGemm = 0,       // local matrix-matrix multiply work
  kComm = 1,       // MPI communication along the critical path
  kTranspose = 2,  // CTF transposition: local reordering, mapping, small serial ops
  kSvd = 3,        // ScaLAPACK pdgesvd-equivalent
  kImbalance = 4,  // idle time from blocks too small to fill the machine
};
constexpr int kNumCategories = 5;

const char* category_name(Category c);

/// Accumulated simulated cost of a run region. Copyable.
class CostTracker {
 public:
  /// Charge `seconds` of simulated time to category `c`.
  void add_time(Category c, double seconds);

  /// Record raw BSP quantities (do not add time by themselves).
  void add_flops(double flops) { flops_ += flops; }
  void add_words(double words) { words_ += words; }
  void add_supersteps(double steps) { supersteps_ += steps; }

  double time(Category c) const { return time_[static_cast<int>(c)]; }
  double total_time() const;
  double flops() const { return flops_; }
  double words() const { return words_; }
  double supersteps() const { return supersteps_; }

  /// Percentage share of each category (sums to 100 when total > 0).
  std::array<double, kNumCategories> percentages() const;

 private:
  std::array<double, kNumCategories> time_{};
  double flops_ = 0.0;
  double words_ = 0.0;
  double supersteps_ = 0.0;
};

}  // namespace tt::rt
