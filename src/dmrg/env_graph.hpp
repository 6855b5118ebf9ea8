// The environment dependency graph (sweep pipelining layer).
//
// Every left/right environment of a site is an explicit node:
//
//   left(0) → left(1) → ... → left(N)        left(j) covers sites < j,
//   right(N) → right(N-1) → ... → right(0)   right(j) covers sites >= j,
//
// with a dependency edge from each node to its neighbour toward the chain
// interior (left(j+1) depends on left(j) and site j; right(j) depends on
// right(j+1) and site j). Nodes carry a validity state; mutating a site
// through site_changed(j) invalidates exactly the nodes whose cone contains
// j (left(k) for k > j, right(k) for k <= j). Accessors are *demands*: an
// invalid node is recomputed on the spot from its nearest valid ancestor
// through the main engine, so consumers never see a stale environment and
// never issue hand-ordered update calls.
//
// The graph structure is what makes pipelining safe: the next bond's
// environment extension depends only on tensors the current Davidson
// iteration will not touch, so it can be prefetched as a future on a
// support::TaskQueue worker while Davidson iterates. Prefetched work runs on
// a private, unlogged engine. The measured overlap — hits, misses, blocked
// wait — lives in PrefetchStats
// and the trace spans. At most one prefetch is in flight, and every graph
// mutation joins it first, so demanded values are bitwise identical with
// prefetch on or off.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "dmrg/engine.hpp"
#include "mps/mpo.hpp"
#include "mps/mps.hpp"
#include "support/thread_pool.hpp"

namespace tt::dmrg {

/// Dependency-graph environment cache for a full sweep over psi/h.
class EnvGraph {
 public:
  enum class NodeState {
    kInvalid,  ///< cone contains a changed site; recomputed on demand
    kValid,    ///< tensor matches the current state of psi
    kPending,  ///< a prefetch future is computing it
  };

  /// Prefetch effectiveness counters (cumulative; diff across a sweep).
  struct PrefetchStats {
    long launched = 0;       ///< futures submitted
    long hits = 0;           ///< joins that found the future already finished
    long misses = 0;         ///< joins that had to block on the worker
    double wait_seconds = 0.0;  ///< real time the demanding thread blocked
  };

  /// Builds every interior node eagerly (the classic stack construction).
  /// When `builder` is non-null it executes this initial, amortized
  /// construction while `eng` remains the engine for all later production.
  /// Every engine runs the same kernels; the builder only keeps setup off
  /// `eng`'s op log and scheduler.
  EnvGraph(ContractionEngine& eng, const mps::Mps& psi, const mps::Mpo& h,
           ContractionEngine* builder = nullptr);
  ~EnvGraph();

  EnvGraph(const EnvGraph&) = delete;
  EnvGraph& operator=(const EnvGraph&) = delete;

  /// Environment of everything left of site j (contains sites 0..j-1).
  /// Demands production: invalid ancestors are recomputed through the engine.
  const symm::BlockTensor& left(int j);
  /// Environment of everything right of site j (contains sites j..N-1).
  const symm::BlockTensor& right(int j);

  /// Site j's tensor changed: invalidate every node whose cone contains j.
  /// Joins an in-flight prefetch first (its result may be among the
  /// invalidated nodes).
  void site_changed(int j);

  /// Launch asynchronous production of left(j) / right(j) on the prefetch
  /// worker. No-op if the node is already valid or its parent is not (demand
  /// would have to rebuild a chain; prefetch only ever computes one edge).
  /// The next access joins the future.
  void prefetch_left(int j);
  void prefetch_right(int j);

  /// Join any in-flight prefetch and settle its node.
  void sync();

  NodeState left_state(int j) const;
  NodeState right_state(int j) const;

  const PrefetchStats& prefetch_stats() const { return pf_stats_; }

  /// Test seam: sleep injected in the worker before each prefetched
  /// extension. Widens the in-flight window so that a mutation racing the
  /// worker (e.g. at the sweep turn) is deterministically observable under
  /// TSan instead of depending on scheduling luck. Zero (default) is a no-op.
  void set_prefetch_delay_for_testing(std::chrono::milliseconds d) {
    pf_test_delay_ = d;
  }

  int size() const { return n_; }

 private:
  struct Node {
    symm::BlockTensor t;
    NodeState state = NodeState::kInvalid;
  };

  const symm::BlockTensor& demand(bool is_left, int j);
  void produce(bool is_left, int j);           // one edge, main engine
  void prefetch(bool is_left, int j);
  void join_pending();                         // wait + settle
  std::vector<Node>& chain(bool is_left) { return is_left ? left_ : right_; }

  ContractionEngine& eng_;
  const mps::Mps& psi_;
  const mps::Mpo& h_;
  int n_ = 0;
  std::vector<Node> left_;   // left_[j] covers sites < j
  std::vector<Node> right_;  // right_[j] covers sites >= j

  // Prefetch executor (lazily created on first prefetch_*). One future in
  // flight at a time; pending_* identify the node it will settle.
  std::unique_ptr<ContractionEngine> pf_engine_;
  std::unique_ptr<support::TaskQueue> pf_queue_;
  std::future<void> pf_future_;
  symm::BlockTensor pf_result_;  // written by the worker, moved out at join
  bool pf_active_ = false;
  bool pf_is_left_ = false;
  int pf_node_ = -1;
  PrefetchStats pf_stats_;
  std::chrono::milliseconds pf_test_delay_{0};
};

}  // namespace tt::dmrg
