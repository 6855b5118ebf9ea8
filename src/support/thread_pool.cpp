#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "support/error.hpp"

namespace tt::support {

namespace {

thread_local bool tl_in_region = false;

std::atomic<int> g_override{0};

}  // namespace

bool in_parallel_region() { return tl_in_region; }

// One parallel_for in flight: per-participant iteration ranges with atomic
// cursors (the steal targets), plus completion and error state.
struct ThreadPool::Loop {
  // Padded so concurrent cursor updates on adjacent slots do not false-share.
  struct alignas(64) Slot {
    std::atomic<index_t> next{0};
    index_t end = 0;
  };

  std::vector<Slot> slots;
  const std::function<void(index_t)>* body = nullptr;
  std::atomic<bool> abort{false};

  std::mutex mutex;              // guards error + active/done signalling
  std::condition_variable done_cv;
  int active = 0;                // participants not yet finished
  std::exception_ptr error;

  void record_error(std::exception_ptr e) {
    abort.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex);
    if (!error) error = std::move(e);
  }

  void finish_participant() {
    std::lock_guard<std::mutex> lock(mutex);
    if (--active == 0) done_cv.notify_all();
  }
};

ThreadPool::ThreadPool(int workers) {
  TT_CHECK(workers >= 0, "thread pool worker count must be non-negative");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t)
    threads_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_main() {
  for (;;) {
    std::shared_ptr<Loop> loop;
    int slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_) return;
      loop = current_;
      slot = static_cast<int>(loop->slots.size()) - pending_;
      if (--pending_ == 0) current_.reset();  // all slots claimed
    }
    run_participant(*loop, slot);
  }
}

void ThreadPool::run_participant(Loop& loop, int slot) {
  tl_in_region = true;
  const int nslots = static_cast<int>(loop.slots.size());
  try {
    int victim = slot;  // start with our own range, then steal
    for (;;) {
      Loop::Slot& s = loop.slots[static_cast<std::size_t>(victim)];
      for (;;) {
        if (loop.abort.load(std::memory_order_relaxed)) break;
        const index_t i = s.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= s.end) break;
        (*loop.body)(i);
      }
      if (loop.abort.load(std::memory_order_relaxed)) break;
      // Steal from the victim with the most remaining iterations.
      victim = -1;
      index_t best = 0;
      for (int v = 0; v < nslots; ++v) {
        const Loop::Slot& c = loop.slots[static_cast<std::size_t>(v)];
        const index_t left = c.end - c.next.load(std::memory_order_relaxed);
        if (left > best) {
          best = left;
          victim = v;
        }
      }
      if (victim < 0) break;  // everything claimed
    }
  } catch (...) {
    loop.record_error(std::current_exception());
  }
  tl_in_region = false;
  loop.finish_participant();
}

void ThreadPool::parallel_for(index_t n, int max_threads,
                              const std::function<void(index_t)>& body) {
  if (n <= 0) return;
  const int cap = std::min<index_t>(n, std::min(max_threads, workers() + 1));
  if (cap <= 1 || in_parallel_region()) {
    for (index_t i = 0; i < n; ++i) body(i);
    return;
  }
  // One loop at a time: a second caller blocks here until the pool is idle.
  std::lock_guard<std::mutex> run_lock(run_mutex_);

  auto loop = std::make_shared<Loop>();
  loop->slots = std::vector<Loop::Slot>(static_cast<std::size_t>(cap));
  loop->body = &body;
  loop->active = cap;
  // Contiguous near-equal ranges; stealing rebalances whatever is left over.
  const index_t base = n / cap;
  const index_t extra = n % cap;
  index_t begin = 0;
  for (int p = 0; p < cap; ++p) {
    const index_t len = base + (p < extra ? 1 : 0);
    auto& s = loop->slots[static_cast<std::size_t>(p)];
    s.next.store(begin, std::memory_order_relaxed);
    s.end = begin + len;
    begin += len;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = loop;
    pending_ = cap - 1;
  }
  work_cv_.notify_all();
  run_participant(*loop, 0);  // caller is participant 0

  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->done_cv.wait(lock, [&] { return loop->active == 0; });
  if (loop->error) std::rethrow_exception(loop->error);
}

int num_threads() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o > 0) return o;
  static const int base = [] {
    const char* env = std::getenv("TT_THREADS");
    if (env != nullptr && *env != '\0') {
      const char* end = env + std::strlen(env);
      int v = 0;
      const auto [ptr, ec] = std::from_chars(env, end, v);
      TT_CHECK(ec == std::errc() && ptr == end && v >= 1,
               "TT_THREADS must be a whole number >= 1, got '" << env << "'");
      return v;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return base;
}

void set_num_threads(int n) { g_override.store(n > 0 ? n : 0); }

namespace {

// The shared pool grows (never shrinks) to honor the largest participant
// count requested; TT_THREADS may legitimately exceed the core count (the
// determinism tests interleave 8 threads on any machine). Outgrown pools are
// retained, not destroyed: another thread may still be running a loop inside
// one, and tearing it down underneath them would drop its unclaimed slots
// (deadlocking that caller) and free memory in use. Growth events are rare
// and bounded, so the retained pools cost a few idle threads at worst.
std::mutex g_pool_mutex;
std::vector<std::unique_ptr<ThreadPool>> g_pools;

ThreadPool& global_pool(int min_workers) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pools.empty() || g_pools.back()->workers() < min_workers)
    g_pools.push_back(std::make_unique<ThreadPool>(min_workers));
  return *g_pools.back();
}

}  // namespace

void notify_fork_child() {
  // The fork duplicated only the calling thread: pool workers, and any loop
  // they were running, are gone. Leak the pool objects instead of destroying
  // them — ~ThreadPool would join threads that do not exist here. No lock:
  // the child is single-threaded, and the inherited g_pool_mutex may have
  // been captured mid-acquisition by a parent thread that no longer exists.
  for (auto& p : g_pools) (void)p.release();
  g_pools.clear();
}

void parallel_for(index_t n, const std::function<void(index_t)>& body,
                  int threads) {
  if (threads <= 0) threads = num_threads();
  if (n <= 0) return;
  if (threads > 1 && n > 1 && !in_parallel_region()) {
    global_pool(threads - 1).parallel_for(n, threads, body);
    return;
  }
  // Inline. A loop capped at one thread runs as a region, so the kernels its
  // body reaches stay serial too; the guard restores the flag on a throw.
  struct RegionGuard {
    bool saved = tl_in_region;
    ~RegionGuard() { tl_in_region = saved; }
  } guard;
  if (threads == 1) tl_in_region = true;
  for (index_t i = 0; i < n; ++i) body(i);
}

TaskQueue::TaskQueue() : thread_([this] { worker_main(); }) {}

TaskQueue::~TaskQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::future<void> TaskQueue::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TT_CHECK(!stop_, "submit on a stopped TaskQueue");
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void TaskQueue::worker_main() {
  // Everything a task runs nests inline on this thread (see class comment).
  tl_in_region = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop requested and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace tt::support
