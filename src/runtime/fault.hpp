// Deterministic fault injection for the distributed runtime.
//
// A FaultInjector holds a set of armed FaultSpecs, each naming a *fault
// point* — a place in transport.cpp / wire.cpp / scheduler.cpp / dmrg.cpp
// that asks "should this fault fire here, now?" before doing something
// destructive on purpose. The catalog of points (see docs/ARCHITECTURE.md
// "Fault tolerance and checkpointing"):
//
//   worker.kill_before_result  worker dies after computing, before replying
//                              (evaluated root-side, shipped as a task flag,
//                              so nth/count are exact in both spawn modes)
//   worker.fail_task           worker answers the task with an error frame
//                              (also root-evaluated / shipped)
//   frame.delay                sleep spec.ms before sending a frame
//   frame.truncate             send the header + half the payload, then
//                              close the channel (peer sees truncation)
//   payload.corrupt            flip one payload byte after the checksum is
//                              computed (peer sees a checksum mismatch)
//   wire.truncate              drop trailing bytes of a built wire payload
//                              (frame arrives intact; the *parse* fails)
//   dmrg.kill_sweep            throw out of the sweep loop — the in-process
//                              stand-in for preemption, pairs with
//                              checkpoint/resume
//
// Configuration is programmatic (arm()) or via the environment:
//
//   TT_FAULTS=point[:k=v[;k=v...]][,point:...]
//   e.g. TT_FAULTS='worker.kill_before_result:nth=1;rank=1,frame.delay:ms=5;prob=0.25;seed=11;count=64'
//
// Firing is deterministic: nth/count are plain counters, and prob draws from
// a per-spec xorshift stream seeded by `seed` — the same armed schedule
// produces the same fire pattern every run, so every recovery path is
// replayable in tests and CI.
//
// Process-mode caveat: fork()ed workers inherit a *copy* of the injector, so
// counters of faults evaluated worker-side (frame.*, payload.*, wire.*) are
// per-process — a respawned worker starts its counters at zero. The two
// worker.* points are evaluated by the root exactly to avoid this.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tt::rt {

/// Which end of a channel a fault-point evaluation is happening on.
enum class FaultSide { kAny = 0, kRoot = 1, kWorker = 2 };

/// One armed fault: where it fires, when, and its action parameter.
struct FaultSpec {
  std::string point;      ///< fault-point name (catalog in the file header)
  int nth = 0;            ///< fire on exactly the nth eligible hit (1-based); 0 = every hit
  int rank = -1;          ///< restrict to this rank; -1 = any
  FaultSide side = FaultSide::kAny;  ///< restrict to root/worker side
  int count = 1;          ///< max fires before the spec is spent; <= 0 = unlimited
  double prob = 1.0;      ///< fire probability per eligible hit (seeded stream)
  std::uint64_t seed = 0; ///< xorshift seed for prob draws (deterministic)
  double ms = 0.0;        ///< action parameter: delay duration in milliseconds
};

/// Armed-fault registry. Usually used through the process-wide instance();
/// directly constructible for determinism tests. Thread-safe.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Process-wide injector; reads TT_FAULTS once on first use.
  static FaultInjector& instance();

  /// Parse one `point[:k=v[;k=v...]]` entry. Throws tt::Error on unknown
  /// fields or malformed values.
  static FaultSpec parse_entry(const std::string& entry);

  /// Arm every comma-separated entry of a TT_FAULTS-grammar string
  /// (appends to whatever is already armed).
  void configure(const std::string& spec_list);

  /// Arm one spec programmatically.
  void arm(FaultSpec spec);

  /// Drop every armed spec and all counters.
  void clear();

  /// clear() then configure(getenv("TT_FAULTS")) — what instance() does at
  /// startup; exposed so tests can re-read a changed environment.
  void reload_from_env();

  /// Evaluate the named fault point. Returns true when an armed spec fires
  /// (copying it to `fired` when given); always counts the hit. rank/side
  /// describe the evaluation context: a spec restricted to a rank or side
  /// only matches a context that states it.
  bool should_fire(const char* point, int rank = -1,
                   FaultSide side = FaultSide::kAny,
                   FaultSpec* fired = nullptr);

  /// Total fires / eligible hits of a point so far (across all its specs).
  long fires(const std::string& point) const;
  long hits(const std::string& point) const;

  /// True when at least one spec is armed (lock-free hot-path gate).
  bool active() const { return active_.load(std::memory_order_relaxed); }

 private:
  struct Armed {
    FaultSpec spec;
    long hits = 0;
    long fires = 0;
    std::uint64_t rng = 0;  ///< xorshift64* state for prob draws
  };

  mutable std::mutex mu_;
  std::vector<Armed> armed_;
  std::atomic<bool> active_{false};
};

}  // namespace tt::rt
