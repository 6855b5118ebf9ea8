#include "runtime/transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace tt::rt {

namespace {

// Frame header: magic, tag, payload length, payload checksum. The magic makes
// stream desync (e.g. a reader resuming mid-payload after a peer died) a
// detected error; the checksum makes a corrupted payload a detected error
// instead of garbage tensor data.
constexpr std::uint32_t kFrameMagic = 0x54544652;  // "TTFR"
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;
constexpr std::size_t kHeaderBytes = 24;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  TT_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
           "cannot set O_NONBLOCK on transport fd " << fd);
}

// Remaining milliseconds of a deadline for poll(); >= 1 while time is left so
// we never spin, 0 once expired.
int remaining_ms(const Timer& t, double timeout_seconds) {
  const double left = timeout_seconds - t.seconds();
  if (left <= 0.0) return 0;
  return static_cast<int>(left * 1000.0) + 1;
}

// The frame checksum under its own span, so a traced profile separates
// hashing from socket time inside wire.send / wire.recv.
std::uint64_t traced_checksum(const std::vector<std::byte>& payload) {
  TT_TRACE_SPAN("wire.checksum", TraceCat::kComm);
  return wire_checksum(payload.data(), payload.size());
}

}  // namespace

const char* spawn_mode_name(SpawnMode m) {
  return m == SpawnMode::kProcess ? "process" : "thread";
}

SpawnMode spawn_mode_from_env() {
  const char* env = std::getenv("TT_SCHED_MODE");
  if (env == nullptr || *env == '\0') return SpawnMode::kProcess;
  const std::string v(env);
  if (v == "process") return SpawnMode::kProcess;
  if (v == "thread") return SpawnMode::kThread;
  TT_FAIL("TT_SCHED_MODE must be 'process' or 'thread', got '" << v << "'");
}

Channel::Channel(int fd) : fd_(fd) {}

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept { *this = std::move(other); }

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    fault_rank_ = other.fault_rank_;
    fault_side_ = other.fault_side_;
    bytes_sent_ = other.bytes_sent_;
    bytes_received_ = other.bytes_received_;
    send_seconds_ = other.send_seconds_;
    recv_seconds_ = other.recv_seconds_;
    other.fd_ = -1;
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Channel, Channel> Channel::make_pair() {
  int fds[2];
  TT_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
           "socketpair failed: " << std::strerror(errno));
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  return {Channel(fds[0]), Channel(fds[1])};
}

void Channel::write_all(const std::byte* p, std::size_t n, double timeout_seconds) {
  TT_CHECK(open(), "send on closed channel");
  Timer deadline;
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the process
    // with SIGPIPE — the fault tests rely on a clean throw.
    const ssize_t w = ::send(fd_, p + done, n - done, MSG_NOSIGNAL);
    if (w > 0) {
      done += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET))
      TT_FAIL("transport peer closed during send ("
              << std::strerror(errno) << ") after " << done << "/" << n << " bytes");
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      TT_FAIL("transport send failed: " << std::strerror(errno));
    const int ms = remaining_ms(deadline, timeout_seconds);
    TT_CHECK(ms > 0, "transport send timed out after " << timeout_seconds
                                                       << "s (" << done << "/" << n
                                                       << " bytes written)");
    struct pollfd pfd{fd_, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, ms);
    TT_CHECK(pr >= 0 || errno == EINTR,
             "transport poll failed: " << std::strerror(errno));
    if (pr > 0 && (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) &&
        !(pfd.revents & POLLOUT))
      TT_FAIL("transport peer hung up during send");
  }
}

void Channel::read_all(std::byte* p, std::size_t n, double timeout_seconds,
                       bool eof_is_truncation) {
  TT_CHECK(open(), "recv on closed channel");
  Timer deadline;
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd_, p + done, n - done, 0);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (eof_is_truncation || done > 0)
        TT_FAIL("transport frame truncated: peer closed after " << done << "/" << n
                                                                << " bytes");
      TT_FAIL("transport peer closed the connection");
    }
    if (errno == ECONNRESET)
      TT_FAIL("transport peer died during recv (connection reset) after "
              << done << "/" << n << " bytes");
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      TT_FAIL("transport recv failed: " << std::strerror(errno));
    const int ms = remaining_ms(deadline, timeout_seconds);
    TT_CHECK(ms > 0, "transport recv timed out after " << timeout_seconds
                                                       << "s (" << done << "/" << n
                                                       << " bytes read)");
    struct pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, ms);
    TT_CHECK(pr >= 0 || errno == EINTR,
             "transport poll failed: " << std::strerror(errno));
    // POLLHUP with pending data still reads fine; the next recv() returning 0
    // handles the drained-then-closed case above.
  }
}

void Channel::send_frame(std::uint32_t tag, const std::vector<std::byte>& payload,
                         double timeout_seconds) {
  TT_TRACE_SPAN("wire.send", TraceCat::kComm);
  Timer t;
  FaultInjector& inj = FaultInjector::instance();
  FaultSpec delay;
  if (inj.should_fire("frame.delay", fault_rank_, fault_side_, &delay) &&
      delay.ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay.ms));
  const bool truncate = inj.should_fire("frame.truncate", fault_rank_, fault_side_);
  const bool corrupt =
      !payload.empty() && inj.should_fire("payload.corrupt", fault_rank_, fault_side_);

  std::byte header[kHeaderBytes];
  const std::uint32_t magic = kFrameMagic;
  const std::uint64_t len = payload.size();
  TT_CHECK(len <= kMaxFramePayload, "frame payload " << len << " exceeds limit");
  // Checksum over the *original* payload, so an injected corruption below is
  // exactly what a real bit flip would be: a mismatch the receiver detects.
  const std::uint64_t sum = traced_checksum(payload);
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &tag, 4);
  std::memcpy(header + 8, &len, 8);
  std::memcpy(header + 16, &sum, 8);

  const std::vector<std::byte>* body = &payload;
  std::vector<std::byte> mangled;
  if (corrupt) {
    mangled = payload;
    mangled[mangled.size() / 2] ^= std::byte{0x01};
    body = &mangled;
  }

  write_all(header, kHeaderBytes, timeout_seconds);
  if (truncate) {
    const std::size_t part = body->size() / 2;
    if (part > 0) write_all(body->data(), part, timeout_seconds);
    close();
    TT_FAIL("fault injection: frame truncated after " << part << "/"
                                                      << body->size()
                                                      << " payload bytes");
  }
  if (!body->empty()) write_all(body->data(), body->size(), timeout_seconds);
  bytes_sent_ += static_cast<double>(kHeaderBytes + payload.size());
  send_seconds_ += t.seconds();
}

Frame Channel::recv_frame(double timeout_seconds) {
  TT_TRACE_SPAN("wire.recv", TraceCat::kComm);
  Timer t;
  std::byte header[kHeaderBytes];
  read_all(header, kHeaderBytes, timeout_seconds, /*eof_is_truncation=*/false);
  std::uint32_t magic = 0;
  Frame f;
  std::uint64_t len = 0;
  std::uint64_t sum = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&f.tag, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  std::memcpy(&sum, header + 16, 8);
  TT_CHECK(magic == kFrameMagic,
           "transport stream desynchronized: bad frame magic 0x" << std::hex << magic);
  TT_CHECK(len <= kMaxFramePayload, "frame payload length " << len << " exceeds limit");
  f.payload.resize(static_cast<std::size_t>(len));
  if (len > 0)
    read_all(f.payload.data(), f.payload.size(), timeout_seconds,
             /*eof_is_truncation=*/true);
  TT_CHECK(traced_checksum(f.payload) == sum,
           "transport frame corrupt: payload checksum mismatch ("
               << f.payload.size() << " bytes, tag " << f.tag << ")");
  bytes_received_ += static_cast<double>(kHeaderBytes + f.payload.size());
  recv_seconds_ += t.seconds();
  return f;
}

WorkerGroup::WorkerGroup(int num_ranks, SpawnMode mode, WorkerFn fn)
    : num_ranks_(num_ranks), mode_(mode), fn_(std::move(fn)) {
  TT_CHECK(num_ranks >= 1, "WorkerGroup needs at least one rank, got " << num_ranks);
  root_channels_.resize(static_cast<std::size_t>(num_ranks));
  child_pids_.assign(static_cast<std::size_t>(num_ranks), -1);
  worker_threads_.resize(static_cast<std::size_t>(num_ranks));
  worker_channels_.resize(static_cast<std::size_t>(num_ranks));

  for (int rank = 1; rank < num_ranks; ++rank) spawn_rank(rank);
}

void WorkerGroup::spawn_rank(int rank) {
  auto [root_end, worker_end] = Channel::make_pair();
  root_end.set_fault_peer(rank, FaultSide::kRoot);
  worker_end.set_fault_peer(rank, FaultSide::kWorker);
  if (mode_ == SpawnMode::kProcess) {
    // Child output buffers are duplicated by fork; flush so a worker that
    // aborts cannot replay the parent's pending stdout.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    TT_CHECK(pid >= 0, "fork failed for rank " << rank << ": "
                                               << std::strerror(errno));
    if (pid == 0) {
      // Worker process. Drop every root-side descriptor inherited from the
      // parent (other ranks' channels and our own root end): leaked root
      // fds would keep dead peers looking alive. Then make the inherited
      // pool state safe and serve.
      for (Channel& c : root_channels_) c.close();
      root_end.close();
      support::notify_fork_child();
      Trace::instance().notify_fork_child(rank);
      try {
        fn_(rank, worker_end);
        worker_end.close();
        ::_exit(0);
      } catch (...) {
        ::_exit(1);
      }
    }
    child_pids_[static_cast<std::size_t>(rank)] = pid;
    worker_end.close();  // parent keeps only the root end
    root_channels_[static_cast<std::size_t>(rank)] = std::move(root_end);
  } else {
    auto wc = std::make_unique<Channel>(std::move(worker_end));
    root_channels_[static_cast<std::size_t>(rank)] = std::move(root_end);
    Channel* wc_raw = wc.get();
    worker_channels_[static_cast<std::size_t>(rank)] = std::move(wc);
    const WorkerFn& fn = fn_;
    worker_threads_[static_cast<std::size_t>(rank)] =
        std::thread([fn, rank, wc_raw] {
          // Tag before the first recorded event so this worker's spans land
          // on its own rank lane of the merged trace.
          Trace::set_thread_rank(rank);
          Trace::set_thread_label("sched-worker");
          try {
            fn(rank, *wc_raw);
          } catch (...) {
            // Worker errors surface to the root as closed/failed channels.
          }
          // However the worker stopped, close its end now, as a process
          // exit would: the root then sees EOF at once instead of waiting
          // out its transport deadline before it heals the rank.
          wc_raw->close();
        });
  }
}

void WorkerGroup::retire(int rank) {
  TT_CHECK(rank >= 1 && rank < num_ranks_, "no worker with rank " << rank);
  // Closing the root end first wakes a thread-mode worker blocked in recv and
  // turns any in-flight process-mode send into EPIPE.
  root_channels_[static_cast<std::size_t>(rank)].close();
  if (mode_ == SpawnMode::kProcess) {
    long& pid = child_pids_[static_cast<std::size_t>(rank)];
    if (pid > 0) {
      ::kill(static_cast<pid_t>(pid), SIGKILL);
      int status = 0;
      ::waitpid(static_cast<pid_t>(pid), &status, 0);
      pid = -1;
    }
  } else {
    std::thread& t = worker_threads_[static_cast<std::size_t>(rank)];
    if (t.joinable()) t.join();
    worker_channels_[static_cast<std::size_t>(rank)].reset();
  }
}

void WorkerGroup::respawn(int rank) {
  TT_CHECK(!joined_, "respawn after join()");
  retire(rank);
  spawn_rank(rank);
}

WorkerGroup::~WorkerGroup() {
  if (!joined_) join(/*timeout_seconds=*/0.0);  // immediate hard teardown
}

Channel& WorkerGroup::channel(int rank) {
  TT_CHECK(rank >= 1 && rank < num_ranks_, "no channel for rank " << rank);
  return root_channels_[static_cast<std::size_t>(rank)];
}

void WorkerGroup::kill(int rank) {
  TT_CHECK(mode_ == SpawnMode::kProcess, "kill() requires process spawn mode");
  TT_CHECK(rank >= 1 && rank < num_ranks_, "no worker with rank " << rank);
  const long pid = child_pids_[static_cast<std::size_t>(rank)];
  TT_CHECK(pid > 0, "worker " << rank << " already reaped");
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  int status = 0;
  ::waitpid(static_cast<pid_t>(pid), &status, 0);
  child_pids_[static_cast<std::size_t>(rank)] = -1;
}

void WorkerGroup::join(double timeout_seconds) {
  if (joined_) return;
  joined_ = true;
  if (mode_ == SpawnMode::kProcess) {
    Timer deadline;
    for (int rank = 1; rank < num_ranks_; ++rank) {
      long& pid = child_pids_[static_cast<std::size_t>(rank)];
      if (pid <= 0) continue;
      int status = 0;
      for (;;) {
        const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
        if (r != 0) break;  // reaped (or error: already gone)
        if (deadline.seconds() >= timeout_seconds) {
          ::kill(static_cast<pid_t>(pid), SIGKILL);
          ::waitpid(static_cast<pid_t>(pid), &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pid = -1;
    }
  } else {
    // Wake workers blocked in recv by closing the root ends, then join.
    for (Channel& c : root_channels_) c.close();
    for (std::thread& t : worker_threads_)
      if (t.joinable()) t.join();
    worker_threads_.clear();
  }
  for (Channel& c : root_channels_) c.close();
}

}  // namespace tt::rt
