// Multi-process block scheduler: the *real* distributed runtime that replaces
// the BSP cost replay for block-sparse contractions.
//
// The unit of placement is one output-block bin of the bin list
// (symm::BinList) — exactly the unit of thread-level parallelism inside
// symm::contract, promoted across process ranks. One contraction executes as:
//
//   1. Root (rank 0) enumerates the bins and deals them across ranks by
//      descending estimated flops (runtime/partition.hpp; cyclic deal with a
//      documented total/R + w_max imbalance bound).
//   2. Root ships each worker its operand slice over the transport: the
//      smaller operand replicated in full, and only the blocks of the larger
//      operand its bins touch (the Zhai & Chan low-communication layout).
//      Every byte is counted — communication volume is measured, not modeled.
//   3. Workers execute their bins on the work-stealing pool (each bin serial
//      in fixed pair order), concurrently with the root executing its own
//      share, and send back only their busy time and the result block of
//      each bin — no stats: the root prices every bin from its own bin list.
//   4. Root lays the output out once (symm::layout_output, as the serial run
//      does), reads every returned block into its bin's slot, and fills
//      ContractStats from the bin list (symm::add_bin_stats) in global bin
//      order, so results and stats are bitwise identical at any rank count,
//      the same invariant the TT_THREADS executor guarantees for threads.
//
// Measured per-rank quantities (busy time, bytes each way, transport wall
// time) land in DistStats, in fixed rank order: the critical (max) rank's busy
// time, the idle tail of the other ranks, the root's transport wall and the
// data words actually moved. They never enter an rt::CostTracker, which holds
// the modelled cost only. See docs/ARCHITECTURE.md "The distributed block
// scheduler".
//
// The scheduler is fault tolerant: a worker that dies, wedges, fails its
// task, or corrupts its reply has its bin share re-executed on the root
// (bitwise-identical — bins are deterministic and each owns its output slot),
// then gets respawned under a bounded-retry/backoff RetryPolicy, degrading
// to serial execution when every worker is lost. Recovery cost is measured
// (DistStats::recovery_seconds) and counted (SchedulerStats). See
// docs/ARCHITECTURE.md "Fault tolerance and checkpointing".
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/partition.hpp"
#include "runtime/transport.hpp"
#include "symm/block_ops.hpp"

namespace tt::rt {

/// The one transport/recovery deadline default. Task timeouts (struct default
/// below, the value shipped inside every task frame) and the retry deadline
/// all derive from this single constant so they cannot drift apart.
constexpr double kDefaultTimeoutSeconds = 120.0;

/// How the scheduler reacts to a dead, wedged, or failing worker.
struct RetryPolicy {
  /// Respawns allowed per rank over the scheduler's lifetime. A rank that
  /// exhausts them is retired (its bin share folds into the survivors).
  /// 0 = never respawn: a rank is retired at its first fault.
  int max_attempts = 2;

  /// Exponential backoff before respawn attempt k sleeps
  /// base_delay_seconds * 2^(k-1).
  double base_delay_seconds = 0.01;

  /// Wall-clock budget for the healing phase of one contract() call; once
  /// exceeded, remaining dead ranks are retired instead of respawned.
  double deadline_seconds = kDefaultTimeoutSeconds;
};

/// Construction-time knobs of a Scheduler.
struct SchedulerOptions {
  /// Total ranks including the root. 1 = fully local (no workers spawned).
  int num_ranks = 1;

  /// Process (fork) or thread workers; default honors TT_SCHED_MODE.
  SpawnMode mode = spawn_mode_from_env();

  /// Executor threads for each worker's bins (worker-local pool). Workers
  /// default to serial: on one machine the ranks already provide the
  /// parallelism, and serial workers keep the thread-mode path TSan-lean.
  int worker_threads = 1;

  /// Executor threads for the root's own bin share; 0 = global TT_THREADS.
  int root_threads = 0;

  /// Deadline for every transport operation of one contraction. A worker that
  /// dies or wedges surfaces as tt::Error within this bound — never a hang.
  double timeout_seconds = kDefaultTimeoutSeconds;

  /// Fault recovery behaviour (see RetryPolicy).
  RetryPolicy retry;
};

/// Lifetime recovery counters of one Scheduler — how much self-healing has
/// happened, so recovery is observable instead of silent.
struct SchedulerStats {
  long faults_detected = 0;  ///< dead/wedged/corrupt/failing worker events
  long retries = 0;          ///< bin shares re-executed on the root
  long respawns = 0;         ///< workers successfully respawned
  long ranks_lost = 0;       ///< ranks retired after exhausting max_attempts
  bool degraded = false;     ///< true once every worker is gone (serial mode)
};

/// Measured execution record of distributed contractions (one or accumulated
/// many). All quantities are wall-clock or byte measurements — nothing here
/// comes from the BSP cost model.
struct DistStats {
  struct Rank {
    int bins = 0;                ///< output bins executed by this rank
    double flops = 0.0;          ///< Σ est_flops of those bins (from shapes)
    double busy_seconds = 0.0;   ///< wall time executing bins
    double bytes_sent = 0.0;     ///< root -> rank frame bytes (operands)
    double bytes_received = 0.0; ///< rank -> root frame bytes (results)
  };
  std::vector<Rank> ranks;       ///< fixed rank order, index = rank

  int contractions = 0;
  double comm_seconds = 0.0;     ///< root wall time inside transport calls
  double exchange_words = 0.0;   ///< tensor words moved (operands + results)
  double critical_busy_seconds = 0.0;  ///< Σ over contractions of max-rank busy
  double imbalance_seconds = 0.0;      ///< Σ over contractions, ranks of (max − busy)
  double recovery_seconds = 0.0;       ///< makeup execution + respawn/backoff wall

  double total_bytes() const;
  double total_flops() const;

  /// Rank-wise and scalar accumulation (for multi-contraction aggregates).
  void merge(const DistStats& other);
};

/// Distributed block-contraction scheduler (see file header). Workers are
/// spawned at construction and serve until shutdown()/destruction; contract()
/// may be called any number of times. Construct from quiescent single-threaded
/// context (process mode forks). Not thread-safe; one contraction at a time.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& opts = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_ranks() const { return opts_.num_ranks; }
  SpawnMode mode() const { return opts_.mode; }

  /// Distributed symm::contract: identical semantics, results, and (when
  /// `stats` is given) ContractStats — bitwise, at any rank count. Measured
  /// communication/imbalance of this call lands in last() and accumulated().
  ///
  /// Self-healing: a worker that dies, wedges past the timeout, fails its
  /// task, or returns a corrupt or unparseable frame does NOT fail the call —
  /// the root re-executes that rank's bin share itself (results stay bitwise
  /// identical to the fault-free run, since the output layout and per-bin
  /// execution are deterministic, and ContractStats come from the bin list
  /// alone), then respawns the rank with exponential backoff, retiring it
  /// once its retry.max_attempts are exhausted (at once when that is 0). When
  /// every worker is gone the scheduler degrades to serial root execution.
  /// Recovery cost is measured into DistStats::recovery_seconds and counted
  /// in stats().
  symm::BlockTensor contract(const symm::BlockTensor& a, const symm::BlockTensor& b,
                             const std::vector<std::pair<int, int>>& pairs,
                             symm::ContractStats* stats = nullptr);

  /// Measured record of the most recent contract() / of all calls so far.
  const DistStats& last() const { return last_; }
  const DistStats& accumulated() const { return accumulated_; }
  void reset_accumulated() { accumulated_ = DistStats{}; }

  /// Fault injection (process mode): SIGKILL a worker. The next contract()
  /// observes the dead peer and heals it per the retry policy.
  void kill_rank(int rank);

  /// Lifetime recovery counters (see SchedulerStats).
  const SchedulerStats& stats() const { return stats_; }

  /// Worker ranks currently alive and serving.
  int live_workers() const;

  /// Graceful teardown: shutdown frames, reap/join workers. Idempotent; the
  /// destructor calls it (hard-killing whatever does not exit in time).
  void shutdown();

 private:
  /// Retire-then-respawn each listed rank with bounded backoff; retires for
  /// good once its attempts are exhausted. Time spent lands in `d`.
  void heal(const std::vector<int>& dead_ranks, DistStats& d);

  SchedulerOptions opts_;
  std::unique_ptr<WorkerGroup> group_;  // null when num_ranks == 1
  DistStats last_;
  DistStats accumulated_;
  SchedulerStats stats_;
  std::vector<char> live_;             // index = rank; rank 0 always live
  std::vector<int> respawn_attempts_;  // index = rank
};

}  // namespace tt::rt
