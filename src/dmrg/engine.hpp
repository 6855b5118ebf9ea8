// The contraction engine: one block-wise executor for every DMRG contraction
// and SVD, and the recorder of what it executed (paper §IV-A).
//
// Every contraction executes the same way: the thread-parallel block executor
// symm::contract (paper Alg. 2), or rt::Scheduler::contract when a multi-rank
// scheduler is attached. The engine executes and counts nothing but executed
// contraction flops. With logging on it also appends one kind-neutral
// OpRecord per operation, and dmrg/replay.hpp prices that log as any of the
// paper's three block-sparsity algorithms or the single-node baseline
// (EngineKind) on any virtual cluster. Pricing never runs on the execution
// path, and measured and modelled seconds never share a tracker.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "runtime/cost_model.hpp"
#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"

namespace tt::rt {
class Scheduler;  // runtime/scheduler.hpp — the distributed block scheduler
}

namespace tt::dmrg {

/// The algorithms a recorded log is priced as (dmrg/replay.hpp; see
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

/// Modelled storage role of a contraction operand in the sparse-dense
/// algorithm: operator tensors stay sparse, Davidson intermediates go dense
/// (§IV-A). Callers tag each operand; the result's role is implied (any
/// intermediate operand makes the result an intermediate). Roles only change
/// what the sparse-dense kind is priced at — execution is block-wise for
/// every role.
enum class Role {
  kOperator,      ///< MPS/MPO/environment tensor: long-lived, fused sparse
  kIntermediate,  ///< Davidson work vector: transient, fused dense
};

/// One executed contraction c = a·b: everything any kind's price reads.
/// "Fused" quantities describe the single tensors the paper's fused formats
/// would store; none is ever built.
struct ContractionRecord {
  Role role_a = Role::kOperator;
  Role role_b = Role::kOperator;
  std::vector<symm::BlockOpCost> pairs;  ///< per block pair, in bin order
  double m = 1.0, n = 1.0, k = 1.0;      ///< fused free(a), free(b), contracted dims
  double size_a = 0.0, size_b = 0.0, size_c = 0.0;  ///< fused dense sizes
  double nnz_a = 0.0, nnz_b = 0.0, nnz_c = 0.0;     ///< exact nonzeros (x != 0)
  double nonzero_block_words_c = 0.0;  ///< elements of c's blocks holding a nonzero
  double matched_products = 0.0;  ///< Σ over contracted positions of nnz(a)·nnz(b)

  bool operator==(const ContractionRecord&) const = default;
};

/// One executed truncated SVD.
struct SvdRecord {
  double in_elements = 0.0;               ///< stored elements of the input
  std::vector<symm::FactorShape> groups;  ///< per quantum-number group matrix
  double uv_elements = 0.0;               ///< stored elements of U plus Vᵀ

  bool operator==(const SvdRecord&) const = default;
};

/// One logged operation, kind-neutral: a log prices as every EngineKind on
/// every cluster (dmrg/replay.hpp).
using OpRecord = std::variant<ContractionRecord, SvdRecord>;

/// The contraction engine. All DMRG work flows through contract()/svd().
class ContractionEngine {
 public:
  ContractionEngine() = default;
  virtual ~ContractionEngine() = default;

  /// Contract two block tensors over the given (mode of a, mode of b) pairs.
  /// Uncontracted modes of a then of b, each in order, form the result. The
  /// roles are recorded for pricing only; the result does not depend on them.
  virtual symm::BlockTensor contract(const symm::BlockTensor& a, Role role_a,
                                     const symm::BlockTensor& b, Role role_b,
                                     const std::vector<std::pair<int, int>>& pairs);

  /// Truncated SVD across the (row_modes | remaining modes) bipartition,
  /// truncated per `trunc` (symm::TruncParams: absolute/relative cutoff and
  /// bond cap, applied globally across quantum-number groups). Always
  /// executed in the list format (paper §IV-A).
  virtual symm::BlockSvd svd(const symm::BlockTensor& a,
                             const std::vector<int>& row_modes,
                             const symm::TruncParams& trunc);

  /// Executor threads for block-wise contraction work flowing through this
  /// engine (the Davidson matvec and environment updates): 0 = the global
  /// TT_THREADS setting, 1 = serial. Results are bitwise identical at any
  /// value — only wall time changes.
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  /// Attach a distributed block scheduler (non-owning; the caller keeps it
  /// alive for the engine's lifetime). With more than one rank, every
  /// contraction executes across its ranks; the measured exchange is read
  /// from the scheduler (last()/accumulated()), and the op log is bitwise the
  /// local one (rank parity). nullptr (the default) executes locally.
  void set_scheduler(rt::Scheduler* s) { scheduler_ = s; }

  /// Enable/disable op logging (off by default). Only a recording engine
  /// enumerates block pairs a second time and counts nonzeros.
  void set_logging(bool on) { logging_ = on; }
  const std::vector<OpRecord>& log() const { return log_; }
  void clear_log() { log_.clear(); }

  // --- Kept for bench/e2e/bench_e2e.cpp, their only user --------------------
  // The end-to-end benchmark builds its engine with make_engine and this
  // constructor, wraps it in a decorator that overrides the virtual kind(),
  // contract() and svd(), and reads engine.flops from tracker().flops(). The
  // kind, cluster and params are stored and returned, nothing more; the
  // tracker counts executed contraction flops only (no seconds, no words).
  // Everything else default-constructs an engine and prices its log.
  explicit ContractionEngine(rt::Cluster cluster, rt::CostModelParams params = {},
                             EngineKind kind = EngineKind::kList)
      : cluster_(cluster), params_(params), kind_(kind) {}
  virtual EngineKind kind() const { return kind_; }
  const rt::Cluster& cluster() const { return cluster_; }
  const rt::CostModelParams& params() const { return params_; }
  rt::CostTracker& tracker() { return tracker_; }
  const rt::CostTracker& tracker() const { return tracker_; }

 private:
  rt::Cluster cluster_;
  rt::CostModelParams params_;
  EngineKind kind_ = EngineKind::kList;
  rt::CostTracker tracker_;
  rt::Scheduler* scheduler_ = nullptr;
  bool logging_ = false;
  std::vector<OpRecord> log_;
  int num_threads_ = 0;
};

/// An engine storing `kind`, `cluster` and `params` (bench/e2e/bench_e2e.cpp
/// only; see the group above). None of them affects execution.
std::unique_ptr<ContractionEngine> make_engine(EngineKind kind, rt::Cluster cluster,
                                               rt::CostModelParams params = {});

}  // namespace tt::dmrg
