#include "dmrg/env_graph.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "dmrg/environment.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"

namespace tt::dmrg {

using symm::BlockTensor;

EnvGraph::EnvGraph(ContractionEngine& eng, const mps::Mps& psi, const mps::Mpo& h,
                   ContractionEngine* builder)
    : eng_(eng), psi_(psi), h_(h), n_(psi.size()) {
  TT_CHECK(n_ == h.size(), "MPS/MPO size mismatch");
  left_.resize(static_cast<std::size_t>(n_) + 1);
  right_.resize(static_cast<std::size_t>(n_) + 1);
  left_[0].t = left_boundary(psi.sites()->qn_rank());
  left_[0].state = NodeState::kValid;
  right_[static_cast<std::size_t>(n_)].t = right_boundary(psi.total_qn());
  right_[static_cast<std::size_t>(n_)].state = NodeState::kValid;
  ContractionEngine& build_eng = builder ? *builder : eng_;
  for (int j = n_ - 1; j >= 1; --j) {
    right_[static_cast<std::size_t>(j)].t =
        extend_right(build_eng, right_[static_cast<std::size_t>(j) + 1].t,
                     psi.site(j), h.site(j));
    right_[static_cast<std::size_t>(j)].state = NodeState::kValid;
  }
  for (int j = 0; j + 1 < n_; ++j) {
    left_[static_cast<std::size_t>(j) + 1].t =
        extend_left(build_eng, left_[static_cast<std::size_t>(j)].t, psi.site(j),
                    h.site(j));
    left_[static_cast<std::size_t>(j) + 1].state = NodeState::kValid;
  }
}

EnvGraph::~EnvGraph() {
  // Settle any in-flight prefetch before members it writes to are destroyed.
  if (pf_active_) {
    try {
      join_pending();
    } catch (...) {
      // A failed prefetch has nothing left to settle.
    }
  }
}

const BlockTensor& EnvGraph::left(int j) { return demand(true, j); }
const BlockTensor& EnvGraph::right(int j) { return demand(false, j); }

const BlockTensor& EnvGraph::demand(bool is_left, int j) {
  TT_CHECK(j >= 0 && j <= n_,
           "env " << j << " out of range (" << (is_left ? "left" : "right") << ")");
  std::vector<Node>& nodes = chain(is_left);
  // Walk toward the boundary until a valid ancestor (a pending node joins to
  // valid); the boundary node is always valid, so the walk terminates.
  int k = j;
  while (nodes[static_cast<std::size_t>(k)].state != NodeState::kValid) {
    if (nodes[static_cast<std::size_t>(k)].state == NodeState::kPending) {
      join_pending();
      continue;  // re-check: the join settled this node
    }
    k += is_left ? -1 : 1;
    TT_CHECK(k >= 0 && k <= n_, "environment boundary node was invalidated");
  }
  // Recompute the invalid suffix of the chain, ancestor first.
  if (is_left) {
    for (int i = k + 1; i <= j; ++i) produce(true, i);
  } else {
    for (int i = k - 1; i >= j; --i) produce(false, i);
  }
  return nodes[static_cast<std::size_t>(j)].t;
}

void EnvGraph::produce(bool is_left, int j) {
  if (pf_active_ && pf_is_left_ == is_left && pf_node_ == j) {
    join_pending();
    return;
  }
  TT_TRACE_SPAN("env.extend", rt::TraceCat::kEnv);
  std::vector<Node>& nodes = chain(is_left);
  Node& node = nodes[static_cast<std::size_t>(j)];
  if (is_left) {
    // left(j) = left(j-1) extended over site j-1.
    node.t = extend_left(eng_, nodes[static_cast<std::size_t>(j) - 1].t,
                         psi_.site(j - 1), h_.site(j - 1));
  } else {
    // right(j) = right(j+1) extended over site j.
    node.t = extend_right(eng_, nodes[static_cast<std::size_t>(j) + 1].t,
                          psi_.site(j), h_.site(j));
  }
  node.state = NodeState::kValid;
}

void EnvGraph::site_changed(int j) {
  TT_CHECK(j >= 0 && j < n_, "site " << j << " out of range");
  // The in-flight prefetch may target a node this invalidates; settle it
  // first so its write cannot land after the state flip.
  join_pending();
  for (int k = j + 1; k <= n_; ++k)
    left_[static_cast<std::size_t>(k)].state = NodeState::kInvalid;
  for (int k = 0; k <= j; ++k)
    right_[static_cast<std::size_t>(k)].state = NodeState::kInvalid;
}

void EnvGraph::prefetch_left(int j) { prefetch(true, j); }
void EnvGraph::prefetch_right(int j) { prefetch(false, j); }

void EnvGraph::prefetch(bool is_left, int j) {
  TT_CHECK(j >= 0 && j <= n_,
           "env " << j << " out of range (" << (is_left ? "left" : "right") << ")");
  join_pending();  // at most one future in flight
  std::vector<Node>& nodes = chain(is_left);
  Node& node = nodes[static_cast<std::size_t>(j)];
  if (node.state != NodeState::kInvalid) return;  // nothing to do
  const int parent = is_left ? j - 1 : j + 1;
  if (parent < 0 || parent > n_) return;
  if (nodes[static_cast<std::size_t>(parent)].state != NodeState::kValid)
    return;  // prefetch computes one edge only; demand handles chain rebuilds
  if (!pf_queue_) {
    // Bit-identical tensors to the main engine's. Serial (the worker thread
    // runs with in_parallel_region() set); no scheduler: ranks are not
    // prefetch-safe.
    pf_engine_ = std::make_unique<ContractionEngine>();
    pf_queue_ = std::make_unique<support::TaskQueue>();
  }
  const int site = is_left ? j - 1 : j;
  const BlockTensor* parent_t = &nodes[static_cast<std::size_t>(parent)].t;
  const BlockTensor* psi_t = &psi_.site(site);
  const BlockTensor* w_t = &h_.site(site);
  ContractionEngine* pe = pf_engine_.get();
  pf_result_ = BlockTensor();
  const std::chrono::milliseconds delay = pf_test_delay_;
  pf_future_ =
      pf_queue_->submit([this, pe, parent_t, psi_t, w_t, is_left, delay] {
        // Runs on the TaskQueue worker thread: its own lane in the trace,
        // where overlap with the main thread's Davidson spans is visible.
        rt::Trace::set_thread_label("env-prefetch");
        TT_TRACE_SPAN("env.prefetch", rt::TraceCat::kPrefetch);
        if (delay.count() > 0) std::this_thread::sleep_for(delay);
        pf_result_ = is_left ? extend_left(*pe, *parent_t, *psi_t, *w_t)
                             : extend_right(*pe, *parent_t, *psi_t, *w_t);
      });
  node.state = NodeState::kPending;
  pf_active_ = true;
  pf_is_left_ = is_left;
  pf_node_ = j;
  ++pf_stats_.launched;
}

void EnvGraph::join_pending() {
  if (!pf_active_) return;
  using clock = std::chrono::steady_clock;
  if (pf_future_.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    ++pf_stats_.hits;
  } else {
    ++pf_stats_.misses;
    TT_TRACE_SPAN("env.prefetch_wait", rt::TraceCat::kPrefetch);
    const auto t0 = clock::now();
    pf_future_.wait();
    pf_stats_.wait_seconds +=
        std::chrono::duration<double>(clock::now() - t0).count();
  }
  Node& node = chain(pf_is_left_)[static_cast<std::size_t>(pf_node_)];
  pf_active_ = false;
  pf_node_ = -1;
  node.state = NodeState::kInvalid;  // stays invalid if get() throws
  pf_future_.get();
  node.t = std::move(pf_result_);
  node.state = NodeState::kValid;
}

void EnvGraph::sync() { join_pending(); }

EnvGraph::NodeState EnvGraph::left_state(int j) const {
  TT_CHECK(j >= 0 && j <= n_, "left env " << j << " out of range");
  return left_[static_cast<std::size_t>(j)].state;
}

EnvGraph::NodeState EnvGraph::right_state(int j) const {
  TT_CHECK(j >= 0 && j <= n_, "right env " << j << " out of range");
  return right_[static_cast<std::size_t>(j)].state;
}

}  // namespace tt::dmrg
