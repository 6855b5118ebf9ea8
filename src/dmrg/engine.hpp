// The contraction engine: one block-wise executor priced as one of the
// paper's three block-sparsity algorithms or the single-node baseline (§IV-A).
//
// Every contraction executes the same way whatever the engine kind: the
// thread-parallel block executor symm::contract (paper Alg. 2), or
// rt::Scheduler::contract when a multi-rank scheduler is attached. Results
// are therefore bitwise identical across kinds. The kind chooses only the
// cost model — what the tracker is charged and which OpRecords are logged:
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
// ever built (runtime/cost_model.hpp has the per-layout cost formulas).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cost_model.hpp"
#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"

namespace tt::rt {
class Scheduler;  // runtime/scheduler.hpp — the distributed block scheduler
}

namespace tt::dmrg {

/// Which algorithm an engine is priced as (see the taxonomy above and
/// docs/ARCHITECTURE.md). The kind fixes the modelled storage format and the
/// distributed cost charged per operation — never the execution or the
/// numerical result.
enum class EngineKind {
  kReference,     ///< serial single-node baseline (ITensor stand-in, §IV-A)
  kList,          ///< per-block-pair distributed dense contractions (Alg. 2)
  kSparseDense,   ///< operators fused sparse, intermediates fused dense
  kSparseSparse,  ///< all fused sparse, output sparsity precomputed
};

/// Stable display name ("reference", "list", "sparse-dense", "sparse-sparse")
/// as used by the CLI `--engine` flags and the bench tables.
const char* engine_name(EngineKind k);

/// Inverse of engine_name. Throws tt::Error listing the valid names.
EngineKind engine_from_name(const std::string& name);

/// One charged operation, recorded when logging is enabled. An op log can be
/// replayed against any Cluster — the benches execute the (cluster-invariant)
/// numerics once per engine and problem size, then price every node-count /
/// procs-per-node configuration by replay.
struct OpRecord {
  enum class Type { kContraction, kSvd, kRedistribution };
  Type type = Type::kContraction;
  rt::ContractionCost cost;      // kContraction
  rt::Layout layout = rt::Layout::kLocal;
  index_t rows = 0, cols = 0;    // kSvd
  double words = 0.0;            // kRedistribution
};

/// Price an op log on a cluster.
rt::CostTracker replay_log(const std::vector<OpRecord>& log,
                           const rt::Cluster& cluster,
                           const rt::CostModelParams& params = {});

/// Modelled storage role of a contraction operand in the sparse-dense
/// algorithm: operator tensors stay sparse, Davidson intermediates go dense
/// (§IV-A). Callers tag each operand; the result's role is implied (any
/// intermediate operand makes the result an intermediate). Roles only change
/// what the sparse-dense kind charges — execution is block-wise for every
/// role.
enum class Role {
  kOperator,      ///< MPS/MPO/environment tensor: long-lived, fused sparse
  kIntermediate,  ///< Davidson work vector: transient, fused dense
};

/// The contraction engine. Owns a cluster description and a cost tracker;
/// all DMRG work flows through contract()/svd(). kind(), contract() and svd()
/// are virtual so a decorator can wrap an engine (forwarding to an inner one).
class ContractionEngine {
 public:
  explicit ContractionEngine(rt::Cluster cluster, rt::CostModelParams params = {},
                             EngineKind kind = EngineKind::kList)
      : cluster_(cluster), params_(params), kind_(kind) {}
  virtual ~ContractionEngine() = default;

  virtual EngineKind kind() const { return kind_; }
  std::string name() const { return engine_name(kind()); }

  /// Contract two block tensors over the given (mode of a, mode of b) pairs.
  /// Uncontracted modes of a then of b, each in order, form the result. The
  /// roles only select the sparse-dense pricing; the result is bitwise the
  /// same for every kind and role.
  virtual symm::BlockTensor contract(const symm::BlockTensor& a, Role role_a,
                                     const symm::BlockTensor& b, Role role_b,
                                     const std::vector<std::pair<int, int>>& pairs);

  /// Truncated SVD across the (row_modes | remaining modes) bipartition,
  /// truncated per `trunc` (symm::TruncParams: absolute/relative cutoff and
  /// bond cap, applied globally across quantum-number groups). Always
  /// executed in the list format (paper §IV-A); the fused kinds additionally
  /// charge the redistribution of blocks out of / back into the single
  /// tensor, the reference kind a serial single-node SVD.
  virtual symm::BlockSvd svd(const symm::BlockTensor& a,
                             const std::vector<int>& row_modes,
                             const symm::TruncParams& trunc);

  const rt::Cluster& cluster() const { return cluster_; }
  rt::CostTracker& tracker() { return tracker_; }
  const rt::CostTracker& tracker() const { return tracker_; }
  const rt::CostModelParams& params() const { return params_; }

  /// Executor threads for block-wise contraction work flowing through this
  /// engine (the Davidson matvec and environment updates): 0 = the global
  /// TT_THREADS setting, 1 = serial. Results are bitwise identical at any
  /// value — only wall time changes; the simulated distributed cost is
  /// charged from deterministic per-block stats exactly as before.
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  /// Attach a distributed block scheduler (non-owning; the caller keeps it
  /// alive for the engine's lifetime, e.g. the `--ranks N` bench drivers).
  /// With a scheduler of more than one rank attached, every contraction
  /// executes across its ranks. The measured exchange — real bytes, busy
  /// time, idle tails — is read from the scheduler (last()/accumulated());
  /// the tracker and op log keep the kind's modelled cost, bitwise the same
  /// as on the local path (the scheduler's rank-parity invariant). nullptr
  /// (the default) executes locally.
  void set_scheduler(rt::Scheduler* s) { scheduler_ = s; }

  /// Enable/disable op logging (off by default).
  void set_logging(bool on) { logging_ = on; }
  const std::vector<OpRecord>& log() const { return log_; }
  void clear_log() { log_.clear(); }

 private:
  /// Charge `r` to the tracker and log it if logging is on.
  void record(const OpRecord& r);

  rt::Cluster cluster_;
  rt::CostModelParams params_;
  EngineKind kind_;
  rt::CostTracker tracker_;
  rt::Scheduler* scheduler_ = nullptr;
  bool logging_ = false;
  std::vector<OpRecord> log_;
  int num_threads_ = 0;
};

/// Engine priced as `kind`. `cluster` describes the virtual machine the cost
/// model charges against (use {rt::localhost(), 1, 1} for purely local
/// runs); it does not affect the numerics.
std::unique_ptr<ContractionEngine> make_engine(EngineKind kind, rt::Cluster cluster,
                                               rt::CostModelParams params = {});

}  // namespace tt::dmrg
