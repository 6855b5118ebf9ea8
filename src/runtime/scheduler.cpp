#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "tensor/contract.hpp"

namespace tt::rt {

namespace {

// Protocol frame tags. One task frame per contraction per worker, answered by
// exactly one result (or error) frame — the protocol stays frame-aligned even
// across worker-side errors.
constexpr std::uint32_t kTagTask = 1;
constexpr std::uint32_t kTagResult = 2;
constexpr std::uint32_t kTagShutdown = 3;
constexpr std::uint32_t kTagError = 4;
// A fork()ed worker answers the shutdown frame with its recorded trace spans
// (rt::Trace buffers) so rank timelines merge into the root's export. Thread
// workers share the root's tracer and never ship.
constexpr std::uint32_t kTagTrace = 5;

// Workers idle between contractions; a crashed root surfaces as EOF, not a
// timeout, so the idle wait can be far more generous than the per-operation
// kDefaultTimeoutSeconds.
constexpr double kWorkerIdleTimeout = 3600.0;

// Worker-side view of one task: operand block tables plus bins referencing
// them by table index. Tensor storage is owned here; bins point into it.
// The two fault flags are decided by the *root* (fault points
// worker.kill_before_result / worker.fail_task) and shipped in the frame, so
// their nth/count counters are exact in both spawn modes — a fork()ed
// worker's own injector copy would count per-process.
struct WorkerTask {
  std::vector<std::pair<int, int>> pairs;  // contracted (mode of a, mode of b)
  int threads = 1;
  bool kill_before_result = false;
  bool fail_task = false;
  double timeout_seconds = kDefaultTimeoutSeconds;
  std::vector<tensor::DenseTensor> table_a, table_b;
  std::vector<std::uint64_t> bin_index;   // global bin ids, root's order
  std::vector<symm::OutputBin> bins;      // blocks only: no keys, no costs
};

WorkerTask parse_task(const std::vector<std::byte>& payload) {
  WireReader r(payload);
  WorkerTask task;
  task.threads = static_cast<int>(r.u32());
  task.kill_before_result = r.u32() != 0;
  task.fail_task = r.u32() != 0;
  task.timeout_seconds = r.f64();

  // Every element count below sizes an allocation, so bound it by what the
  // frame could possibly hold (each mode pair / table entry / bin / pair
  // costs at least 8 bytes on the wire) before trusting it — a torn length
  // prefix must surface as a clean Error, not a gigabyte reserve.
  const std::uint64_t nmodes = r.u64();
  TT_CHECK(nmodes <= r.remaining() / 8, "task frame claims " << nmodes << " mode pairs in "
                                                             << r.remaining() << " bytes");
  task.pairs.resize(static_cast<std::size_t>(nmodes));
  for (auto& [ma, mb] : task.pairs) {  // contract_layout rejects a bad mode
    ma = static_cast<int>(r.u32());     // (a u32 above INT_MAX reads negative)
    mb = static_cast<int>(r.u32());
  }
  const std::uint64_t na = r.u64();
  TT_CHECK(na <= r.remaining() / 8,
           "task frame claims " << na << " A blocks in " << r.remaining() << " bytes");
  task.table_a.reserve(static_cast<std::size_t>(na));
  for (std::uint64_t i = 0; i < na; ++i) task.table_a.push_back(r.tensor());
  const std::uint64_t nb = r.u64();
  TT_CHECK(nb <= r.remaining() / 8,
           "task frame claims " << nb << " B blocks in " << r.remaining() << " bytes");
  task.table_b.reserve(static_cast<std::size_t>(nb));
  for (std::uint64_t i = 0; i < nb; ++i) task.table_b.push_back(r.tensor());

  const std::uint64_t nbins = r.u64();
  TT_CHECK(nbins <= r.remaining() / 16,
           "task frame claims " << nbins << " bins in " << r.remaining() << " bytes");
  task.bin_index.reserve(static_cast<std::size_t>(nbins));
  task.bins.reserve(static_cast<std::size_t>(nbins));
  for (std::uint64_t i = 0; i < nbins; ++i) {
    task.bin_index.push_back(r.u64());
    symm::OutputBin bin;
    const std::uint64_t npairs = r.u64();
    TT_CHECK(npairs >= 1 && npairs <= r.remaining() / 8,
             "task bin claims " << npairs << " pairs in " << r.remaining() << " bytes");
    bin.pairs.reserve(static_cast<std::size_t>(npairs));
    for (std::uint64_t p = 0; p < npairs; ++p) {
      const std::uint32_t ia = r.u32();
      const std::uint32_t ib = r.u32();
      TT_CHECK(ia < task.table_a.size() && ib < task.table_b.size(),
               "task bin references block (" << ia << "," << ib
                                             << ") outside the shipped tables");
      bin.pairs.push_back({task.table_a[ia], task.table_b[ib], {}});
    }
    task.bins.push_back(std::move(bin));
  }
  TT_CHECK(r.done(), "task payload has " << r.remaining() << " trailing bytes");
  return task;
}

// Executes one parsed task and serializes the reply payload.
std::vector<std::byte> run_task(const WorkerTask& task) {
  TT_TRACE_SPAN("sched.worker_task", TraceCat::kContract);
  Timer busy;
  // One layout per task, as on the root; execute_bin checks every shipped
  // block against it.
  tensor::ContractLayout layout;
  if (!task.bins.empty()) {
    const symm::BinPair& first = task.bins.front().pairs.front();
    layout = tensor::contract_layout(first.ablk.order(), first.bblk.order(), task.pairs);
  }
  std::vector<tensor::DenseTensor> done(task.bins.size());
  support::parallel_for(
      static_cast<index_t>(task.bins.size()),
      [&](index_t i) {
        const symm::OutputBin& bin = task.bins[static_cast<std::size_t>(i)];
        const symm::BinPair& first = bin.pairs.front();
        tensor::DenseTensor& out = done[static_cast<std::size_t>(i)];
        out = tensor::DenseTensor(tensor::contract_shape(layout, first.ablk, first.bblk));
        symm::execute_bin(bin, layout, out);
      },
      task.threads);
  const double busy_seconds = busy.seconds();

  // Results only: the root prices every bin from its own bin list.
  WireWriter w;
  w.f64(busy_seconds);
  w.u64(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    w.u64(task.bin_index[i]);
    w.tensor(done[i]);
  }
  return w.take();
}

// Worker service loop: one task in, one result (or error) out, until the
// shutdown frame or the root disappears. Every return ends the worker, and
// WorkerGroup closes its channel end in both spawn modes, so the root sees
// EOF instead of waiting for a frame that will never come.
void worker_loop(int rank, Channel& ch) {
  for (;;) {
    Frame f;
    try {
      f = ch.recv_frame(kWorkerIdleTimeout);
    } catch (const Error&) {
      return;  // root gone (EOF) or wedged; nothing left to serve
    }
    if (f.tag == kTagShutdown) {
      // Ship recorded spans home before exiting so this rank's timeline joins
      // the root's export. Only fork()ed workers own a private tracer; thread
      // workers already share the root's buffers.
      Trace& trace = Trace::instance();
      if (trace.enabled() && trace.is_forked_child()) {
        try {
          ch.send_frame(kTagTrace, trace.serialize_and_clear(), 2.0);
        } catch (const Error&) {
          // Root gone or not collecting; the spans die with this process.
        }
      }
      return;
    }
    if (f.tag != kTagTask) return;  // protocol violation: stop serving
    double timeout = kDefaultTimeoutSeconds;
    try {
      const WorkerTask task = parse_task(f.payload);
      timeout = task.timeout_seconds;
      if (task.fail_task)
        TT_FAIL("fault injection: worker " << rank << " ordered to fail its task");
      std::vector<std::byte> reply = run_task(task);
      if (task.kill_before_result) {
        // Die after the work, before the result — the root observes EOF where
        // it expected a result frame, exactly like a real mid-contraction
        // crash.
        return;
      }
      ch.send_frame(kTagResult, reply, task.timeout_seconds);
    } catch (const Error&) {
      // Keep the frame protocol aligned: the root gets an (empty) error frame
      // where it expected a result, and re-executes this rank's bins itself.
      try {
        ch.send_frame(kTagError, {}, timeout);
      } catch (const Error&) {
        return;  // cannot even report: root will see EOF on our exit
      }
    }
  }
}

}  // namespace

double DistStats::total_bytes() const {
  double sum = 0.0;
  for (const Rank& r : ranks) sum += r.bytes_sent + r.bytes_received;
  return sum;
}

double DistStats::total_flops() const {
  double sum = 0.0;
  for (const Rank& r : ranks) sum += r.flops;
  return sum;
}

void DistStats::merge(const DistStats& other) {
  if (ranks.size() < other.ranks.size()) ranks.resize(other.ranks.size());
  for (std::size_t i = 0; i < other.ranks.size(); ++i) {
    ranks[i].bins += other.ranks[i].bins;
    ranks[i].flops += other.ranks[i].flops;
    ranks[i].busy_seconds += other.ranks[i].busy_seconds;
    ranks[i].bytes_sent += other.ranks[i].bytes_sent;
    ranks[i].bytes_received += other.ranks[i].bytes_received;
  }
  contractions += other.contractions;
  comm_seconds += other.comm_seconds;
  exchange_words += other.exchange_words;
  critical_busy_seconds += other.critical_busy_seconds;
  imbalance_seconds += other.imbalance_seconds;
  recovery_seconds += other.recovery_seconds;
}

Scheduler::Scheduler(const SchedulerOptions& opts) : opts_(opts) {
  TT_CHECK(opts_.num_ranks >= 1,
           "scheduler needs at least one rank, got " << opts_.num_ranks);
  live_.assign(static_cast<std::size_t>(opts_.num_ranks), 1);
  respawn_attempts_.assign(static_cast<std::size_t>(opts_.num_ranks), 0);
  if (opts_.num_ranks > 1)
    group_ = std::make_unique<WorkerGroup>(opts_.num_ranks, opts_.mode, worker_loop);
}

Scheduler::~Scheduler() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; WorkerGroup teardown hard-kills leftovers.
  }
}

void Scheduler::kill_rank(int rank) {
  TT_CHECK(group_ != nullptr, "kill_rank on a single-rank scheduler");
  group_->kill(rank);
}

int Scheduler::live_workers() const {
  int n = 0;
  for (int r = 1; r < opts_.num_ranks; ++r)
    if (live_[static_cast<std::size_t>(r)]) ++n;
  return n;
}

void Scheduler::heal(const std::vector<int>& dead_ranks, DistStats& d) {
  if (dead_ranks.empty() || group_ == nullptr) return;
  TT_TRACE_SPAN("sched.heal", TraceCat::kRecovery);
  Timer rec;
  for (int r : dead_ranks) {
    if (!live_[static_cast<std::size_t>(r)]) continue;  // duplicate report
    live_[static_cast<std::size_t>(r)] = 0;
    bool revived = false;
    while (respawn_attempts_[static_cast<std::size_t>(r)] < opts_.retry.max_attempts &&
           rec.seconds() <= opts_.retry.deadline_seconds) {
      const int attempt = ++respawn_attempts_[static_cast<std::size_t>(r)];
      const double delay =
          opts_.retry.base_delay_seconds *
          static_cast<double>(1u << static_cast<unsigned>(std::min(attempt - 1, 20)));
      if (delay > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      try {
        group_->respawn(r);
        ++stats_.respawns;
        live_[static_cast<std::size_t>(r)] = 1;
        revived = true;
        break;
      } catch (const Error&) {
        // Spawn itself failed (fd/process pressure); back off and retry
        // while the rank still has attempts and the deadline allows.
      }
    }
    if (!revived) {
      // Out of attempts (or budget): reap whatever is left of the worker and
      // fold its share into the survivors from the next contraction on.
      group_->retire(r);
      ++stats_.ranks_lost;
    }
  }
  if (live_workers() == 0 && opts_.num_ranks > 1) stats_.degraded = true;
  d.recovery_seconds += rec.seconds();
}

void Scheduler::shutdown() {
  if (group_ == nullptr) return;
  for (int r = 1; r < opts_.num_ranks; ++r) {
    try {
      if (group_->channel(r).open())
        group_->channel(r).send_frame(kTagShutdown, {}, 1.0);
    } catch (const Error&) {
      // Dead workers are reaped by join() below.
    }
  }
  // Fork()ed workers answer the shutdown frame with their trace buffers;
  // absorb them so the export holds every rank's timeline. A worker that died
  // or predates tracing simply times out / EOFs — ignore it.
  if (Trace::instance().enabled() && opts_.mode == SpawnMode::kProcess) {
    for (int r = 1; r < opts_.num_ranks; ++r) {
      try {
        if (!group_->channel(r).open()) continue;
        const Frame f = group_->channel(r).recv_frame(2.0);
        if (f.tag == kTagTrace) Trace::instance().absorb(f.payload, r);
      } catch (const Error&) {
      }
    }
  }
  group_->join(/*timeout_seconds=*/5.0);
  group_.reset();
}

symm::BlockTensor Scheduler::contract(const symm::BlockTensor& a,
                                      const symm::BlockTensor& b,
                                      const std::vector<std::pair<int, int>>& pairs,
                                      symm::ContractStats* stats) {
  TT_TRACE_SPAN("sched.contract", TraceCat::kScheduler);
  const symm::ContractPlan plan = symm::make_contract_plan(a, b, pairs);
  const std::vector<symm::OutputBin> bins = symm::enumerate_bins(a, b, plan);
  // The output, laid out once; every bin's result lands in its slot.
  std::vector<tensor::View> slots;
  symm::BlockTensor c = symm::layout_output(plan, bins, slots);
  FaultInjector& inj = FaultInjector::instance();

  // --- placement -------------------------------------------------------------
  // Bins are partitioned over the *live* ranks only: slot 0 is the root,
  // slot s >= 1 maps to the s-th surviving worker. With every worker retired
  // this degenerates to a serial root-only partition — the graceful-
  // degradation endpoint. Placement affects only *where* a bin runs, never
  // the global bin order, so results and ContractStats stay bitwise identical
  // no matter which ranks are alive.
  std::vector<int> slot_rank{0};
  for (int r = 1; r < opts_.num_ranks; ++r)
    if (live_[static_cast<std::size_t>(r)]) slot_rank.push_back(r);
  const int S = static_cast<int>(slot_rank.size());

  std::vector<double> weights(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) weights[i] = bins[i].est_flops;
  const Partition part = partition_bins(weights, S);
  const int replicated = choose_replicated(static_cast<double>(a.num_elements()),
                                           static_cast<double>(b.num_elements()));

  std::vector<std::vector<std::size_t>> slot_bins(static_cast<std::size_t>(S));
  for (std::size_t g = 0; g < bins.size(); ++g)
    slot_bins[static_cast<std::size_t>(part.rank_of[g])].push_back(g);

  DistStats d;
  d.ranks.resize(static_cast<std::size_t>(opts_.num_ranks));
  d.contractions = 1;

  // Failure capture: a failed slot's bins are re-executed on the root; a
  // *dead* rank (EOF, timeout, desync, corrupt frame) is additionally healed
  // afterwards. A worker that merely answered with an error frame is alive
  // and frame-aligned — redistribute only, no respawn.
  std::vector<char> slot_failed(static_cast<std::size_t>(S), 0);
  std::vector<int> dead_ranks;
  auto record_failure = [&](int slot, int rank, bool dead) {
    ++stats_.faults_detected;
    slot_failed[static_cast<std::size_t>(slot)] = 1;
    if (dead) dead_ranks.push_back(rank);
  };

  // --- ship operand slices + bin lists to the workers ------------------------
  if (group_) {
    TT_TRACE_SPAN("sched.ship", TraceCat::kScheduler);
    for (int s = 1; s < S; ++s) {
      const int r = slot_rank[static_cast<std::size_t>(s)];
      Channel& ch = group_->channel(r);
      const double sent0 = ch.bytes_sent(), ss0 = ch.send_seconds();

      // Block tables: the replicated operand ships whole (in key order); the
      // distributed operand ships only blocks this rank's bins reference, in
      // first-touch (bin, pair) order — deterministic either way.
      // A block is interned by its data pointer: blocks are never empty, so
      // no two blocks of one buffer share one.
      std::vector<tensor::ConstView> table_a, table_b;
      // tt-lint: allow(ordered-iteration) lookup-only interning index: never iterated; shipped table order is first-touch insertion order, which is deterministic
      std::unordered_map<const real_t*, std::uint32_t> index_a, index_b;
      auto intern = [](std::vector<tensor::ConstView>& table, auto& index,
                       tensor::ConstView blk) {
        auto [it, fresh] =
            index.try_emplace(blk.data(), static_cast<std::uint32_t>(table.size()));
        if (fresh) table.push_back(blk);
        return it->second;
      };
      if (replicated == 0)
        for (const auto& [key, blk] : a.blocks()) intern(table_a, index_a, blk);
      else
        for (const auto& [key, blk] : b.blocks()) intern(table_b, index_b, blk);

      struct WirePair {
        std::uint32_t ia, ib;
      };
      std::vector<std::vector<WirePair>> wire_bins;
      wire_bins.reserve(slot_bins[static_cast<std::size_t>(s)].size());
      for (std::size_t g : slot_bins[static_cast<std::size_t>(s)]) {
        std::vector<WirePair>& wb = wire_bins.emplace_back();
        wb.reserve(bins[g].pairs.size());
        for (const symm::BinPair& pw : bins[g].pairs)
          wb.push_back({intern(table_a, index_a, pw.ablk),
                        intern(table_b, index_b, pw.bblk)});
      }

      WireWriter w;
      w.u32(static_cast<std::uint32_t>(opts_.worker_threads));
      // Root-decided worker faults travel inside the task frame (see
      // WorkerTask) so their counters are exact in both spawn modes.
      w.u32(inj.should_fire("worker.kill_before_result", r, FaultSide::kWorker) ? 1 : 0);
      w.u32(inj.should_fire("worker.fail_task", r, FaultSide::kWorker) ? 1 : 0);
      w.f64(opts_.timeout_seconds);
      w.u64(pairs.size());
      for (auto [ma, mb] : pairs) {
        w.u32(static_cast<std::uint32_t>(ma));
        w.u32(static_cast<std::uint32_t>(mb));
      }
      w.u64(table_a.size());
      double operand_words = 0.0;
      for (const tensor::ConstView& t : table_a) {
        w.tensor(t);
        operand_words += static_cast<double>(t.size());
      }
      w.u64(table_b.size());
      for (const tensor::ConstView& t : table_b) {
        w.tensor(t);
        operand_words += static_cast<double>(t.size());
      }
      w.u64(wire_bins.size());
      for (std::size_t i = 0; i < wire_bins.size(); ++i) {
        w.u64(slot_bins[static_cast<std::size_t>(s)][i]);
        w.u64(wire_bins[i].size());
        for (const WirePair& p : wire_bins[i]) {
          w.u32(p.ia);
          w.u32(p.ib);
        }
      }

      try {
        ch.send_frame(kTagTask, w.bytes(), opts_.timeout_seconds);
      } catch (const Error&) {
        record_failure(s, r, /*dead=*/true);
        continue;
      }
      d.exchange_words += operand_words;
      d.ranks[static_cast<std::size_t>(r)].bytes_sent = ch.bytes_sent() - sent0;
      d.comm_seconds += ch.send_seconds() - ss0;
    }
  }

  // --- execute the root's own share while the workers run theirs -------------
  {
    TT_TRACE_SPAN("sched.root_bins", TraceCat::kContract);
    const std::vector<std::size_t>& mine = slot_bins[0];
    Timer busy;
    support::parallel_for(
        static_cast<index_t>(mine.size()),
        [&](index_t i) {
          const std::size_t g = mine[static_cast<std::size_t>(i)];
          symm::execute_bin(bins[g], plan.layout, slots[g]);
        },
        opts_.root_threads);
    d.ranks[0].busy_seconds = busy.seconds();
    d.ranks[0].bins = static_cast<int>(mine.size());
    for (std::size_t g : mine) d.ranks[0].flops += bins[g].est_flops;
  }

  // --- gather worker results in fixed slot order -----------------------------
  if (group_) {
    TT_TRACE_SPAN("sched.gather", TraceCat::kScheduler);
    for (int s = 1; s < S; ++s) {
      if (slot_failed[static_cast<std::size_t>(s)]) continue;
      const int r = slot_rank[static_cast<std::size_t>(s)];
      Channel& ch = group_->channel(r);
      const double recv0 = ch.bytes_received(), rs0 = ch.recv_seconds();
      DistStats::Rank& rr = d.ranks[static_cast<std::size_t>(r)];
      Frame f;
      try {
        f = ch.recv_frame(opts_.timeout_seconds);
      } catch (const Error&) {
        // EOF (dead), timeout (wedged), or checksum mismatch (corrupt): the
        // rank's protocol state is unknown — retire/respawn it in heal().
        record_failure(s, r, /*dead=*/true);
        continue;
      }
      rr.bytes_received = ch.bytes_received() - recv0;
      d.comm_seconds += ch.recv_seconds() - rs0;

      if (f.tag == kTagError) {
        // The worker failed its task but stays alive and frame-aligned; its
        // message is not parsed, so a damaged report cannot escape healing.
        record_failure(s, r, /*dead=*/false);
        continue;
      }

      try {
        TT_CHECK(f.tag == kTagResult,
                 "scheduler rank " << r << " sent unexpected frame tag " << f.tag);
        WireReader reader(f.payload);
        rr.busy_seconds = reader.f64();
        const std::uint64_t nbins = reader.u64();
        const std::vector<std::size_t>& expect = slot_bins[static_cast<std::size_t>(s)];
        TT_CHECK(nbins == expect.size(),
                 "scheduler rank " << r << " returned " << nbins
                                   << " bins, expected " << expect.size());
        rr.bins = static_cast<int>(nbins);
        for (std::size_t i = 0; i < expect.size(); ++i) {
          const std::uint64_t g = reader.u64();
          TT_CHECK(g == expect[i], "scheduler rank " << r << " returned bin " << g
                                                     << ", expected " << expect[i]);
          reader.tensor_into(slots[expect[i]]);
          rr.flops += bins[expect[i]].est_flops;
          d.exchange_words += static_cast<double>(slots[expect[i]].size());
        }
      } catch (const Error&) {
        // Unparseable or desynchronized reply. Any partially-parsed bins are
        // recomputed below (deterministically, so still bitwise identical);
        // the rank itself is in unknown protocol state — heal it.
        rr.bins = 0;
        rr.flops = 0.0;
        rr.busy_seconds = 0.0;
        record_failure(s, r, /*dead=*/true);
        continue;
      }
    }
  }

  // --- makeup: re-execute failed slots' bins on the root ---------------------
  {
    std::vector<std::size_t> makeup;
    for (int s = 1; s < S; ++s)
      if (slot_failed[static_cast<std::size_t>(s)]) {
        makeup.insert(makeup.end(), slot_bins[static_cast<std::size_t>(s)].begin(),
                      slot_bins[static_cast<std::size_t>(s)].end());
        ++stats_.retries;
      }
    if (!makeup.empty()) {
      TT_TRACE_SPAN("sched.makeup", TraceCat::kRecovery);
      Timer rec;
      support::parallel_for(
          static_cast<index_t>(makeup.size()),
          [&](index_t i) {
            const std::size_t g = makeup[static_cast<std::size_t>(i)];
            symm::execute_bin(bins[g], plan.layout, slots[g]);
          },
          opts_.root_threads);
      d.recovery_seconds += rec.seconds();
      d.ranks[0].bins += static_cast<int>(makeup.size());
      for (std::size_t g : makeup) d.ranks[0].flops += bins[g].est_flops;
    }
  }

  if (stats) symm::add_bin_stats(bins, *stats);

  // --- measured cost bookkeeping ---------------------------------------------
  double max_busy = 0.0;
  for (const DistStats::Rank& r : d.ranks)
    max_busy = std::max(max_busy, r.busy_seconds);
  d.critical_busy_seconds = max_busy;
  // Idle tails over the ranks that *participated* — retired ranks are no
  // longer part of the machine and must not read as permanent imbalance.
  for (int s = 0; s < S; ++s)
    d.imbalance_seconds +=
        max_busy - d.ranks[static_cast<std::size_t>(slot_rank[static_cast<std::size_t>(s)])]
                       .busy_seconds;

  // --- respawn dead ranks (bounded attempts + backoff) -----------------------
  heal(dead_ranks, d);
  if (!dead_ranks.empty())
    TT_TRACE_COUNTER("live_workers", static_cast<double>(live_workers()));

  last_ = d;
  accumulated_.merge(d);
  return c;
}

}  // namespace tt::rt
