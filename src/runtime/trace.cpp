#include "runtime/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/wire.hpp"
#include "support/error.hpp"

namespace tt::rt {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}

const char* trace_cat_name(TraceCat c) {
  switch (c) {
    case TraceCat::kSweep: return "sweep";
    case TraceCat::kDavidson: return "davidson";
    case TraceCat::kSvd: return "svd";
    case TraceCat::kContract: return "contract";
    case TraceCat::kComm: return "comm";
    case TraceCat::kPrefetch: return "prefetch";
    case TraceCat::kScheduler: return "scheduler";
    case TraceCat::kRecovery: return "recovery";
    case TraceCat::kEnv: return "env";
    case TraceCat::kOther: return "other";
  }
  return "?";
}

// Per-thread event buffer. Recording locks only the owning buffer's mutex
// (uncontended — one writer per buffer); export/absorb/clear lock the
// registry and then each buffer, so readers never observe a torn event.
struct Trace::ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::size_t dropped = 0;
  std::size_t capacity = 0;
  int rank = -1;  // -1: resolve to the process rank at export time
  const char* label = nullptr;
  int tid = 0;  // exported Chrome tid (registration/absorb order)
};

struct Trace::Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::deque<std::string> interned;  // stable storage for absorbed names
  std::size_t capacity = TraceOptions{}.buffer_capacity;
  std::string path;
  int next_tid = 0;
};

namespace {

// The registry pointer and a fork epoch. notify_fork_child() installs a brand
// new registry (deliberately leaking the inherited one: its mutexes may have
// been held by parent threads that do not exist in the child) and bumps the
// epoch, which invalidates every thread-local buffer pointer — the child's
// single surviving thread re-registers cleanly on its next event.
std::atomic<Trace::Registry*> g_registry{nullptr};
std::atomic<std::uint64_t> g_registry_epoch{0};

thread_local Trace::ThreadBuffer* tls_buffer = nullptr;
thread_local std::uint64_t tls_epoch = ~std::uint64_t{0};
thread_local int tls_rank = -1;
thread_local const char* tls_label = nullptr;

void json_escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << ' ';
    else
      os << c;
  }
}

void flush_at_exit() {
  Trace& t = Trace::instance();
  if (t.enabled() && !t.is_forked_child()) t.stop();
}

}  // namespace

Trace::Registry& Trace::registry() {
  Registry* r = g_registry.load(std::memory_order_acquire);
  if (r == nullptr) {
    auto fresh = std::make_unique<Registry>();
    Registry* expected = nullptr;
    if (g_registry.compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel))
      r = fresh.release();
    else
      r = expected;
  }
  return *r;
}

Trace& Trace::instance() {
  static Trace t;
  return t;
}

std::int64_t Trace::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Trace::ThreadBuffer* Trace::buffer_for_this_thread() {
  const std::uint64_t epoch = g_registry_epoch.load(std::memory_order_acquire);
  if (tls_buffer != nullptr && tls_epoch == epoch) return tls_buffer;
  Registry& r = registry();
  auto buf = std::make_unique<ThreadBuffer>();
  ThreadBuffer* raw = buf.get();
  std::lock_guard<std::mutex> lock(r.mu);
  raw->capacity = r.capacity;
  raw->rank = tls_rank;
  raw->label = tls_label;
  raw->tid = r.next_tid++;
  raw->events.reserve(std::min<std::size_t>(raw->capacity, 4096));
  r.buffers.push_back(std::move(buf));
  tls_buffer = raw;
  tls_epoch = epoch;
  return raw;
}

void Trace::record_span(const char* name, TraceCat cat, std::int64_t start_ns,
                        std::int64_t dur_ns) {
  ThreadBuffer* b = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->events.size() < b->capacity) {
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.start_ns = start_ns;
    e.dur_ns = dur_ns;
    b->events.push_back(e);
  } else {
    ++b->dropped;
  }
}

void Trace::counter(const char* name, double value) {
  ThreadBuffer* b = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->events.size() < b->capacity) {
    TraceEvent e;
    e.name = name;
    e.start_ns = now_ns();
    e.value = value;
    e.is_counter = true;
    b->events.push_back(e);
  } else {
    ++b->dropped;
  }
}

void Trace::start(const TraceOptions& opts) {
  if (!opts.path.empty()) {
    // An unwritable export path fails now, not as a lost trace at exit.
    const std::ofstream probe(opts.path);
    TT_CHECK(probe, "cannot open '" << opts.path << "' for writing");
  }
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (!opts.path.empty()) r.path = opts.path;
    if (opts.buffer_capacity > 0) {
      r.capacity = opts.buffer_capacity;
      // Threads registered under an earlier capacity (e.g. a prior
      // start/stop cycle) adopt the new one.
      for (auto& buf : r.buffers) {
        std::lock_guard<std::mutex> bl(buf->mu);
        buf->capacity = r.capacity;
      }
    }
  }
  if (!started_.exchange(true)) std::atexit(flush_at_exit);
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void Trace::stop() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
  std::string path;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    path = r.path;
  }
  if (!path.empty()) write_chrome_json(path);
}

void Trace::notify_fork_child(int rank) {
  // Install a pristine registry: inherited buffer/registry mutexes may be
  // locked by parent threads that do not exist on this side of the fork.
  std::size_t capacity = TraceOptions{}.buffer_capacity;
  if (Registry* old = g_registry.load(std::memory_order_acquire))
    capacity = old->capacity;  // racy read is fine: worst case default size
  auto fresh = std::make_unique<Registry>();
  fresh->capacity = capacity;  // no export path: workers ship, never write
  g_registry.store(fresh.release(), std::memory_order_release);
  g_registry_epoch.fetch_add(1, std::memory_order_acq_rel);
  tls_buffer = nullptr;
  tls_rank = -1;
  process_rank_ = rank;
  forked_child_ = true;
}

void Trace::set_thread_rank(int rank) {
  tls_rank = rank;
  const std::uint64_t epoch = g_registry_epoch.load(std::memory_order_acquire);
  if (tls_buffer != nullptr && tls_epoch == epoch) {
    std::lock_guard<std::mutex> lock(tls_buffer->mu);
    tls_buffer->rank = rank;
  }
}

void Trace::set_thread_label(const char* label) {
  tls_label = label;
  const std::uint64_t epoch = g_registry_epoch.load(std::memory_order_acquire);
  if (tls_buffer != nullptr && tls_epoch == epoch) {
    std::lock_guard<std::mutex> lock(tls_buffer->mu);
    tls_buffer->label = label;
  }
}

std::vector<std::byte> Trace::serialize_and_clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);

  // Intern names into a table so repeated span names ship once.
  std::vector<const char*> names;
  auto name_index = [&names](const char* n) -> std::uint32_t {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == n || std::string(names[i]) == n)
        return static_cast<std::uint32_t>(i);
    names.push_back(n);
    return static_cast<std::uint32_t>(names.size() - 1);
  };

  struct Flat {
    std::uint32_t name_idx, cat, flags, tid;
    std::int64_t start, dur;
    double value;
  };
  std::vector<Flat> flat;
  std::uint64_t dropped = 0;
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    dropped += buf->dropped;
    flat.reserve(flat.size() + buf->events.size());
    for (const TraceEvent& e : buf->events)
      flat.push_back({name_index(e.name), static_cast<std::uint32_t>(e.cat),
                      e.is_counter ? 1u : 0u,
                      static_cast<std::uint32_t>(buf->tid), e.start_ns, e.dur_ns,
                      e.value});
    buf->events.clear();
    buf->dropped = 0;
  }

  WireWriter w;
  w.u32(1);  // format version
  w.u32(static_cast<std::uint32_t>(process_rank_));
  w.u64(dropped);
  w.u64(names.size());
  for (const char* n : names) w.str(n);
  w.u64(flat.size());
  for (const Flat& f : flat) {
    w.u32(f.name_idx);
    w.u32(f.cat);
    w.u32(f.flags);
    w.u32(f.tid);
    w.i64(f.start);
    w.i64(f.dur);
    w.f64(f.value);
  }
  return w.take();
}

void Trace::absorb(const std::vector<std::byte>& payload, int rank) {
  WireReader reader(payload);
  const std::uint32_t version = reader.u32();
  TT_CHECK(version == 1, "trace frame has unknown version " << version);
  (void)reader.u32();  // worker's own rank claim; the root's channel wins
  const std::uint64_t dropped = reader.u64();
  const std::uint64_t nnames = reader.u64();
  // Each interned name costs at least its 8-byte length prefix; bound the
  // count before reserving so a torn trace frame raises instead of OOMing.
  TT_CHECK(nnames <= reader.remaining() / 8,
           "trace frame claims " << nnames << " names in " << reader.remaining()
                                 << " bytes");

  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<const char*> names;
  names.reserve(static_cast<std::size_t>(nnames));
  for (std::uint64_t i = 0; i < nnames; ++i) {
    r.interned.push_back(reader.str());
    names.push_back(r.interned.back().c_str());
  }
  const std::uint64_t nevents = reader.u64();
  // One fresh buffer per remote thread, keyed by the worker-local tid.
  std::vector<std::pair<std::uint32_t, ThreadBuffer*>> remote;
  auto buffer_for_remote = [&](std::uint32_t remote_tid) -> ThreadBuffer* {
    for (auto& [tid, buf] : remote)
      if (tid == remote_tid) return buf;
    auto buf = std::make_unique<ThreadBuffer>();
    buf->capacity = r.capacity;
    buf->rank = rank;
    buf->label = "worker";
    buf->tid = r.next_tid++;
    ThreadBuffer* raw = buf.get();
    r.buffers.push_back(std::move(buf));
    remote.emplace_back(remote_tid, raw);
    return raw;
  };
  for (std::uint64_t i = 0; i < nevents; ++i) {
    const std::uint32_t name_idx = reader.u32();
    const std::uint32_t cat = reader.u32();
    const std::uint32_t flags = reader.u32();
    const std::uint32_t remote_tid = reader.u32();
    TraceEvent e;
    TT_CHECK(name_idx < names.size(),
             "trace frame references name " << name_idx << " of " << names.size());
    e.name = names[name_idx];
    e.cat = static_cast<TraceCat>(
        cat < static_cast<std::uint32_t>(kNumTraceCats) ? cat
                                                        : kNumTraceCats - 1);
    e.is_counter = (flags & 1u) != 0;
    e.start_ns = reader.i64();
    e.dur_ns = reader.i64();
    e.value = reader.f64();
    ThreadBuffer* buf = buffer_for_remote(remote_tid);
    if (buf->events.size() < buf->capacity)
      buf->events.push_back(e);
    else
      ++buf->dropped;
  }
  if (!remote.empty()) remote.front().second->dropped += dropped;
  TT_CHECK(reader.done(),
           "trace frame has " << reader.remaining() << " trailing bytes");
}

void Trace::write_chrome_json(std::ostream& os) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  std::vector<int> named_pids;
  std::uint64_t dropped = 0;
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    dropped += buf->dropped;
    if (buf->events.empty()) continue;
    const int pid = buf->rank >= 0 ? buf->rank : process_rank_;
    bool pid_named = false;
    for (int p : named_pids) pid_named = pid_named || p == pid;
    if (!pid_named) {
      named_pids.push_back(pid);
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid
         << ",\"name\":\"process_name\",\"args\":{\"name\":\"rank " << pid
         << "\"}}";
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid
         << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":" << pid
         << "}}";
    }
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << buf->tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (buf->label != nullptr)
      json_escape(os, buf->label);
    else
      os << "thread-" << buf->tid;
    os << "\"}}";

    os.precision(3);
    os.setf(std::ios::fixed);
    for (const TraceEvent& e : buf->events) {
      sep();
      const double ts_us = static_cast<double>(e.start_ns) / 1000.0;
      if (e.is_counter) {
        os << "{\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":" << buf->tid
           << ",\"name\":\"";
        json_escape(os, e.name);
        os << "\",\"ts\":" << ts_us << ",\"args\":{\"value\":" << e.value
           << "}}";
      } else {
        const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
        os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << buf->tid
           << ",\"name\":\"";
        json_escape(os, e.name);
        os << "\",\"cat\":\"" << trace_cat_name(e.cat) << "\",\"ts\":" << ts_us
           << ",\"dur\":" << dur_us << "}";
      }
    }
  }
  os << "\n],\"otherData\":{\"dropped_events\":" << dropped << "}}\n";
}

void Trace::write_chrome_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "tt trace: cannot open '" << path << "' for writing\n";
    return;
  }
  write_chrome_json(out);
}

std::size_t Trace::events_recorded() const {
  Registry& r = const_cast<Trace*>(this)->registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t n = 0;
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::size_t Trace::events_dropped() const {
  Registry& r = const_cast<Trace*>(this)->registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t n = 0;
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    n += buf->dropped;
  }
  return n;
}

void Trace::clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
  }
}

namespace {

// TT_TRACE=<path> activates tracing before main() (any TU recording spans
// links this object file in, so the initializer always runs). No caller can
// catch an error this early, so a path that cannot be opened exits the way
// every binary does on a tt::Error: a message and code 2.
const bool g_env_activation = [] {
  const char* path = std::getenv("TT_TRACE");
  if (path != nullptr && *path != '\0') {
    TraceOptions opts;
    opts.path = path;
    try {
      Trace::instance().start(opts);
    } catch (const Error& e) {
      std::cerr << "error: TT_TRACE: " << e.what() << "\n";
      std::exit(2);
    }
  }
  return true;
}();

}  // namespace

}  // namespace tt::rt
