// Low-overhead cross-rank span/counter tracer with Chrome trace-event export.
//
// The tracer answers the question the per-category CostTracker cannot: *when*
// did Davidson, environment prefetch, rank communication, and recovery run
// relative to each other? Spans are recorded into per-thread buffers (one
// registration mutex hit per thread lifetime, lock-free recording afterwards)
// and exported as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing:
//
//   pid  = scheduler rank (0 = root process / root-side threads)
//   tid  = per-thread ordinal within that rank, named via metadata events
//          (tid 0 is the thread that recorded first — the main thread in
//          practice; pool workers and the prefetch worker get their own lanes)
//
// Rank merging: thread-mode scheduler workers share the process-wide tracer
// and are tagged per-thread (set_thread_rank); fork()ed process-mode workers
// serialize their buffers over the existing framed transport at shutdown
// (scheduler.cpp kTagTrace frame) and the root absorbs them. steady_clock
// survives fork() unchanged (same CLOCK_MONOTONIC), so root and worker
// timestamps share an epoch and need no rebasing.
//
// Determinism: recording only reads the clock and appends to a buffer — it
// never branches on data values or perturbs execution order, so results stay
// bitwise identical with tracing on (the parity suites run traced). Disabled
// tracing costs exactly one relaxed atomic load per TT_TRACE_SPAN
// (tests/runtime/test_trace.cpp enforces this).
//
// Activation: TT_TRACE=<path> (export at process exit) or Trace::start().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tt::rt {

/// Chrome "cat" field of a span — the timeline analogue of rt::Category.
enum class TraceCat : int {
  kSweep = 0,      ///< sweep / bond-optimization structure
  kDavidson = 1,   ///< eigensolver iterations and matvecs
  kSvd = 2,        ///< truncated block SVD
  kContract = 3,   ///< block contraction executor (bins)
  kComm = 4,       ///< transport frames (wire send/recv)
  kPrefetch = 5,   ///< async environment extension on the prefetch worker
  kScheduler = 6,  ///< rank scheduler phases (ship/gather/makeup)
  kRecovery = 7,   ///< fault healing: makeup execution, respawns
  kEnv = 8,        ///< eager environment production
  kOther = 9,      ///< keep last: spans no other category fits
};
constexpr int kNumTraceCats = 10;

const char* trace_cat_name(TraceCat c);

/// One recorded event. `name` must point at storage outliving the tracer —
/// the TT_TRACE_SPAN macro passes string literals; absorbed remote events
/// intern their names in the tracer.
struct TraceEvent {
  const char* name = nullptr;
  TraceCat cat = TraceCat::kOther;
  std::int64_t start_ns = 0;  ///< steady_clock nanoseconds
  std::int64_t dur_ns = 0;    ///< span duration; ignored for counters
  double value = 0.0;         ///< counter value (is_counter events)
  bool is_counter = false;
};

struct TraceOptions {
  /// Export path written at process exit (and by stop()). Empty: export only
  /// through explicit write_chrome_json() calls.
  std::string path;
  /// Events retained per thread; recording beyond this drops the newest
  /// events (the sweep skeleton at the front stays intact) and counts them.
  std::size_t buffer_capacity = 1 << 16;
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}

/// Hot-path gate: the entire cost of a TT_TRACE_SPAN while tracing is off.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide tracer singleton (see file header).
class Trace {
 public:
  // Implementation details, public so trace.cpp's file-local state (the
  // registry pointer and thread-local buffer pointers) can name them.
  struct ThreadBuffer;
  struct Registry;

  static Trace& instance();

  /// Enable recording. Idempotent; `opts.path` (or TT_TRACE) is flushed at
  /// process exit. Thread-safe against concurrent span recording. Throws
  /// tt::Error, before enabling anything, when `opts.path` cannot be opened
  /// for writing.
  void start(const TraceOptions& opts = {});

  /// Disable recording and, when an export path is set, flush to it.
  void stop();

  bool enabled() const { return trace_enabled(); }

  /// steady_clock nanoseconds (shared epoch across fork — see file header).
  static std::int64_t now_ns();

  /// Append one completed span. Callers normally use TT_TRACE_SPAN instead.
  void record_span(const char* name, TraceCat cat, std::int64_t start_ns,
                   std::int64_t dur_ns);

  /// Append one counter sample (Chrome "C" event on this thread's lane).
  void counter(const char* name, double value);

  /// --- rank tagging ---------------------------------------------------------

  /// Must be called in a freshly fork()ed scheduler worker: drops every event
  /// inherited from the parent (the root still owns those) and tags this
  /// process's buffers with `rank`. Marks the process as a shipping worker —
  /// see serialize_and_clear().
  void notify_fork_child(int rank);

  /// Tag the *calling thread*'s events with `rank` (thread-mode scheduler
  /// workers, which share the root's tracer). Must precede the thread's first
  /// recorded event.
  static void set_thread_rank(int rank);

  /// Name the calling thread's lane in the exported trace (metadata event).
  /// Idempotent; later calls win. `label` must outlive the tracer.
  static void set_thread_label(const char* label);

  /// True in a process that entered notify_fork_child() — the worker ships
  /// its events over the transport instead of exporting at exit (it leaves
  /// via _exit(), which skips atexit handlers).
  bool is_forked_child() const { return forked_child_; }

  /// --- cross-rank shipping (wire format, runtime/wire.hpp) ------------------

  /// Serialize every recorded event and clear the buffers (worker side, sent
  /// as one kTagTrace frame at shutdown).
  std::vector<std::byte> serialize_and_clear();

  /// Merge a worker's serialized events, overriding their rank tag with
  /// `rank` (root side). Throws tt::Error on a malformed payload.
  void absorb(const std::vector<std::byte>& payload, int rank);

  /// --- export ---------------------------------------------------------------

  void write_chrome_json(std::ostream& os);
  void write_chrome_json(const std::string& path);

  /// --- introspection (tests) ------------------------------------------------

  std::size_t events_recorded() const;
  std::size_t events_dropped() const;
  void clear();

 private:
  Trace() = default;

  ThreadBuffer* buffer_for_this_thread();

  std::atomic<bool> started_{false};
  bool forked_child_ = false;
  int process_rank_ = 0;

  // Registry of per-thread buffers; mutex-guarded (registration, export,
  // absorb, clear) — never touched on the span hot path after registration.
  Registry& registry();
};

/// RAII span: records [construction, destruction) when tracing was enabled at
/// construction. Trivially destructible no-op otherwise.
class TraceSpan {
 public:
  TraceSpan(const char* name, TraceCat cat) {
    if (trace_enabled()) {
      name_ = name;
      cat_ = cat;
      start_ns_ = Trace::now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr)
      Trace::instance().record_span(name_, cat_, start_ns_,
                                    Trace::now_ns() - start_ns_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  TraceCat cat_ = TraceCat::kOther;
  std::int64_t start_ns_ = 0;
};

#define TT_TRACE_CONCAT_IMPL(a, b) a##b
#define TT_TRACE_CONCAT(a, b) TT_TRACE_CONCAT_IMPL(a, b)

/// Scoped span over the rest of the enclosing block. `name` must be a string
/// literal (or otherwise outlive the tracer).
#define TT_TRACE_SPAN(name, cat) \
  ::tt::rt::TraceSpan TT_TRACE_CONCAT(tt_trace_span_, __LINE__)((name), (cat))

/// One counter sample; no-op while tracing is off.
#define TT_TRACE_COUNTER(name, value)                          \
  do {                                                         \
    if (::tt::rt::trace_enabled())                             \
      ::tt::rt::Trace::instance().counter((name), (value));    \
  } while (0)

}  // namespace tt::rt
