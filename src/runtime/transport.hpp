// Process-level transport for the distributed block scheduler.
//
// A Channel is one bidirectional point-to-point link carrying length-prefixed
// frames (magic, tag, payload length, payload checksum, payload) over a
// SOCK_STREAM socketpair.
// Every operation is poll()-driven with a deadline, so a dead or wedged peer
// surfaces as tt::Error instead of a hang; a peer that disappears mid-frame
// (EOF inside a payload) is detected by the length prefix and reported as a
// truncation, never returned as partial data. Byte and wall-time counters
// make communication a *measured* quantity for the scheduler's cost
// accounting.
//
// A WorkerGroup owns N-1 worker ranks, each connected to the calling (root)
// process by one Channel. Two spawn modes share the protocol code:
//
//   kProcess  fork()ed child processes — the real multi-process runtime in
//             this container (the MPI slot-in point; see docs/ARCHITECTURE.md).
//             Children call support::notify_fork_child() before any tensor
//             work and never return into the parent's code (exit via _exit).
//   kThread   in-process worker threads over the same socketpairs — identical
//             wire behaviour, fork-free, so the transport and scheduler logic
//             run under ThreadSanitizer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/wire.hpp"
#include "support/types.hpp"

namespace tt::rt {

/// How worker ranks are spawned (see file header).
enum class SpawnMode { kProcess, kThread };

const char* spawn_mode_name(SpawnMode m);

/// TT_SCHED_MODE environment knob: "process" (default) or "thread".
/// Unknown values throw.
SpawnMode spawn_mode_from_env();

/// One received frame.
struct Frame {
  std::uint32_t tag = 0;
  std::vector<std::byte> payload;
};

/// Framed point-to-point link over one socket descriptor (non-blocking,
/// poll()-driven). Move-only; closes the descriptor on destruction.
class Channel {
 public:
  Channel() = default;
  explicit Channel(int fd);
  ~Channel();

  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool open() const { return fd_ >= 0; }
  void close();

  /// Send one frame. Throws tt::Error on peer loss (EPIPE/reset) or when the
  /// peer stops draining for longer than `timeout_seconds`. Fault points
  /// `frame.delay`, `frame.truncate`, and `payload.corrupt` are evaluated
  /// here against the channel's fault context (set_fault_peer).
  void send_frame(std::uint32_t tag, const std::vector<std::byte>& payload,
                  double timeout_seconds);

  /// Receive one frame. Throws tt::Error on EOF (peer closed/died), bad
  /// framing (wrong magic — stream desync), truncation mid-frame, payload
  /// checksum mismatch (corruption), or when no complete frame arrives
  /// within `timeout_seconds`.
  Frame recv_frame(double timeout_seconds);

  /// Fault-injection context: which rank this channel talks for/to and which
  /// side of the link this end is. Channels default to {-1, kAny} (only
  /// unrestricted specs match); the scheduler tags both ends of every
  /// root<->worker link.
  void set_fault_peer(int rank, FaultSide side) {
    fault_rank_ = rank;
    fault_side_ = side;
  }

  /// Connected socketpair (both ends non-blocking).
  static std::pair<Channel, Channel> make_pair();

  // Measured transport quantities, accumulated over the channel lifetime.
  double bytes_sent() const { return bytes_sent_; }
  double bytes_received() const { return bytes_received_; }
  double send_seconds() const { return send_seconds_; }
  double recv_seconds() const { return recv_seconds_; }

 private:
  void write_all(const std::byte* p, std::size_t n, double timeout_seconds);
  void read_all(std::byte* p, std::size_t n, double timeout_seconds,
                bool eof_is_truncation);

  int fd_ = -1;
  int fault_rank_ = -1;
  FaultSide fault_side_ = FaultSide::kAny;
  double bytes_sent_ = 0.0;
  double bytes_received_ = 0.0;
  double send_seconds_ = 0.0;
  double recv_seconds_ = 0.0;
};

/// N-1 worker ranks (1..num_ranks-1), each running `fn(rank, channel)` and
/// connected to the creating process (rank 0) by one Channel. In both spawn
/// modes the worker's end is closed as soon as `fn` returns or throws.
class WorkerGroup {
 public:
  using WorkerFn = std::function<void(int rank, Channel& to_root)>;

  /// Spawns the workers immediately. In process mode the calling thread must
  /// not hold locks that tensor code takes (fork duplicates lock state); the
  /// scheduler constructs groups only from quiescent, non-parallel context.
  WorkerGroup(int num_ranks, SpawnMode mode, WorkerFn fn);

  /// Terminates hard (kill + reap / close + join) if join() was not called.
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  int num_ranks() const { return num_ranks_; }
  SpawnMode mode() const { return mode_; }

  /// Root-side channel to worker `rank` (1 <= rank < num_ranks).
  Channel& channel(int rank);

  /// Fault injection (process mode only): SIGKILL worker `rank` and wait for
  /// it to die, so a subsequent exchange observes a dead peer.
  void kill(int rank);

  /// Tear down one worker without touching the others: close its root-side
  /// channel, then SIGKILL + reap (process mode) or join (thread mode; the
  /// closed channel wakes a blocked worker). Idempotent — retiring an
  /// already-dead or already-retired rank is a no-op beyond the cleanup.
  void retire(int rank);

  /// retire(rank) then spawn a fresh worker on a fresh channel in its place —
  /// the self-healing scheduler's recovery primitive. Throws if spawning
  /// fails; the rank is then retired.
  void respawn(int rank);

  /// Graceful teardown after the protocol-level shutdown message: reap child
  /// processes (escalating to SIGKILL after `timeout_seconds`) or join worker
  /// threads (root channels are closed first so blocked workers wake up).
  void join(double timeout_seconds = 10.0);

 private:
  void spawn_rank(int rank);

  int num_ranks_ = 1;
  SpawnMode mode_ = SpawnMode::kProcess;
  WorkerFn fn_;                            // kept for respawn()
  std::vector<Channel> root_channels_;     // index 0 unused
  std::vector<long> child_pids_;           // process mode; index 0 unused
  std::vector<std::thread> worker_threads_;  // thread mode; index = rank, 0 unused
  std::vector<std::unique_ptr<Channel>> worker_channels_;  // thread mode
  bool joined_ = false;
};

}  // namespace tt::rt
