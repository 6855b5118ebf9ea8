// Shared work-stealing thread pool for intra-node parallelism.
//
// The pool executes index-space loops: parallel_for(n, body) splits [0, n)
// into one contiguous range per participating thread; each participant drains
// its own range through an atomic cursor and, when done, steals iterations
// from the most-loaded victim's range. Iterations therefore run exactly once
// with dynamic placement — callers must not depend on which thread runs which
// index, only that disjoint indices may run concurrently.
//
// This pool is the library's only thread runtime: the block executors and
// the dense kernels (GEMM, permute) all thread through parallel_for, so the
// thread count below is the one knob. Thread count resolution (TT_THREADS):
//   1. set_num_threads(n) override, when set (tests/benches),
//   2. the TT_THREADS environment variable, read once: a whole number >= 1
//      (anything else throws tt::Error; empty counts as unset),
//   3. std::thread::hardware_concurrency().
//
// Loops nest inline: a parallel_for reached from inside a region (or from a
// loop capped at one thread) runs on the calling thread, so nested kernels
// never oversubscribe the machine.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/types.hpp"

namespace tt::support {

/// True while the calling thread executes inside a pool parallel region
/// (worker, participating caller, or a loop capped at one thread). Used to
/// suppress nested parallelism.
bool in_parallel_region();

/// Must be the first tt call in a freshly fork()ed child process. The child
/// inherits pool objects whose worker threads do not exist on its side of the
/// fork (joining or scheduling onto them would hang). This call abandons every
/// inherited pool (deliberately leaked — their destructors would join ghost
/// threads); fresh pools are created on demand by the next parallel_for.
void notify_fork_child();

/// A pool of background worker threads executing stealable index loops.
/// One loop runs at a time per pool; concurrent callers are serialized.
class ThreadPool {
 public:
  /// Spawns `workers` background threads (callers contribute one more).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Run body(i) exactly once for every i in [0, n), on up to `max_threads`
  /// threads including the caller. Blocks until every iteration finished.
  /// The first exception thrown by `body` is rethrown here (remaining
  /// iterations are abandoned). Nested calls from inside a region run inline.
  void parallel_for(index_t n, int max_threads,
                    const std::function<void(index_t)>& body);

 private:
  struct Loop;

  void worker_main();
  static void run_participant(Loop& loop, int slot);

  std::vector<std::thread> threads_;
  std::mutex run_mutex_;               // serializes whole loops
  std::mutex mutex_;                   // guards current_/pending_/stop_
  std::condition_variable work_cv_;    // wakes workers
  std::shared_ptr<Loop> current_;      // loop being joined by workers
  int pending_ = 0;                    // worker slots still unclaimed
  bool stop_ = false;
};

/// Executor thread count from the override / TT_THREADS / hardware (>= 1).
/// Throws tt::Error when TT_THREADS is set to anything but a whole number >= 1.
int num_threads();

/// Override the thread count for this process (n >= 1); n <= 0 restores the
/// TT_THREADS / hardware default. Takes effect on the next parallel_for.
void set_num_threads(int n);

/// Run body(i) for i in [0, n) on the shared global pool. `threads` caps the
/// participant count; 0 means the num_threads() setting. Serial (inline) when
/// the resolved count is 1, n <= 1, or the caller is already inside a region.
/// A loop capped at one thread runs as a region, so every kernel it reaches
/// stays serial too ("1 = serial" holds all the way down); a single iteration
/// with more threads allowed does not, so its kernels may still thread.
void parallel_for(index_t n, const std::function<void(index_t)>& body,
                  int threads = 0);

/// Single background worker draining submitted tasks in FIFO order — the
/// async executor behind environment prefetch (dmrg::EnvGraph): the pool's
/// parallel_for is a synchronous fork-join primitive and cannot overlap work
/// with its caller, so tasks that must run *beside* the main thread live here.
///
/// Tasks execute with in_parallel_region() set on the worker, so any
/// parallel_for or threaded kernel a task reaches runs inline on the worker
/// thread: the submitting thread keeps the pool, the task costs one core, and
/// neither side oversubscribes the machine.
///
/// Not fork-safe: like ThreadPool, the worker does not survive fork() —
/// construct after any rt::Scheduler process spawning, or not at all in
/// forked children.
class TaskQueue {
 public:
  TaskQueue();
  ~TaskQueue();  // drains the queue, then joins the worker

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueue `fn`; the future becomes ready when it finished (exceptions are
  /// captured and rethrown from future::get()).
  std::future<void> submit(std::function<void()> fn);

 private:
  void worker_main();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> tasks_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace tt::support
