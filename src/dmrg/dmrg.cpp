#include "dmrg/dmrg.hpp"

#include <algorithm>

#include "dmrg/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "support/timer.hpp"

namespace tt::dmrg {

using symm::BlockTensor;

Dmrg::Dmrg(mps::Mps psi, mps::Mpo h, std::unique_ptr<ContractionEngine> engine)
    : psi_(std::move(psi)), h_(std::move(h)), engine_(std::move(engine)) {
  TT_CHECK(engine_ != nullptr, "DMRG needs an engine");
  TT_CHECK(psi_.size() == h_.size(), "MPS/MPO size mismatch");
  TT_CHECK(psi_.size() >= 2, "two-site DMRG needs at least two sites");
  psi_.canonicalize(0);
  psi_.normalize();
  // The initial environment graph is amortized setup (every engine runs the
  // same block-wise kernels): a separate builder keeps it off the main
  // engine's op log and scheduler; all in-sweep production still runs — and
  // is recorded — through the main engine.
  ContractionEngine builder;
  envs_ = std::make_unique<EnvGraph>(*engine_, psi_, h_, &builder);
}

real_t Dmrg::optimize_bond(int j, const SweepParams& params, bool sweep_right) {
  TT_CHECK(j >= 0 && j + 1 < psi_.size(), "bond " << j << " out of range");
  TT_TRACE_SPAN("dmrg.bond", rt::TraceCat::kSweep);

  // Two-site tensor θ(l, s1, s2, r) (paper §II.C).
  BlockTensor theta = engine_->contract(psi_.site(j), Role::kIntermediate,
                                        psi_.site(j + 1), Role::kIntermediate,
                                        {{2, 0}});
  // Demanded after θ on purpose: when the previous bond prefetched this
  // environment, the join lands here — after the theta contraction already
  // overlapped with the in-flight extension.
  const BlockTensor& left = envs_->left(j);
  const BlockTensor& right = envs_->right(j + 2);
  {
    const real_t n = theta.norm2();
    TT_CHECK(n > 0.0, "two-site tensor vanished at bond " << j);
    theta.scale(1.0 / n);
  }

  DavidsonOptions dopts;
  dopts.max_iter = params.davidson_iter;
  dopts.subspace = params.davidson_subspace;
  auto apply = [&](const BlockTensor& x) {
    return apply_two_site(*engine_, left, h_.site(j), h_.site(j + 1), right, x);
  };
  DavidsonResult res = [&] {
    TT_TRACE_SPAN("dmrg.davidson", rt::TraceCat::kDavidson);
    return davidson(apply, std::move(theta), dopts);
  }();

  // Split and truncate (paper fig 1e); singular values move with the sweep.
  symm::TruncParams trunc;
  trunc.cutoff = params.cutoff;
  trunc.max_dim = params.max_m;
  symm::BlockSvd f = [&] {
    TT_TRACE_SPAN("dmrg.svd", rt::TraceCat::kSvd);
    return engine_->svd(res.vector, {0, 1}, trunc);
  }();
  energy_ = res.eigenvalue;
  trunc_err_ = f.truncation_error;
  BlockTensor a, b;
  if (sweep_right) {
    a = std::move(f.u);
    b = f.s_times_vt();
    // Keep the state normalized after truncation.
    const real_t n = b.norm2();
    if (n > 0.0) b.scale(1.0 / n);
  } else {
    b = std::move(f.vt);
    a = f.u_times_s();
    const real_t n = a.norm2();
    if (n > 0.0) a.scale(1.0 / n);
  }

  // site_changed must precede the set_site calls: it joins any in-flight
  // prefetch, and at the sweep turn that future's worker is still reading
  // the old tensor of this very bond (the demand path above never touches
  // the pending node there) — mutating psi first would race with it. The
  // invalidation cones depend only on the index, so the early flip is safe.
  envs_->site_changed(j);
  envs_->site_changed(j + 1);
  psi_.set_site(j, std::move(a));
  psi_.set_site(j + 1, std::move(b));
  psi_.set_center(sweep_right ? j + 1 : j);
  // Refresh the environment the next bond in this direction consumes: async
  // as a future beside the next Davidson, or eagerly — exactly the old
  // update_left(j) / update_right(j+1) — when prefetch is off.
  if (sweep_right) {
    if (params.prefetch)
      envs_->prefetch_left(j + 1);
    else
      (void)envs_->left(j + 1);
  } else {
    if (params.prefetch)
      envs_->prefetch_right(j + 1);
    else
      (void)envs_->right(j + 1);
  }
  return energy_;
}

void Dmrg::maybe_checkpoint(const SweepParams& params, int phase, int bond) {
  // No snapshot after the sweep's final bond: its position would point into
  // the *next* sweep, which run()/resume() already handle via sweep_count.
  const bool last_bond = (phase == 1 && bond == 0);
  if (ckpt_ != nullptr && params.checkpoint_every > 0 && !last_bond &&
      ++bonds_since_ckpt_ >= params.checkpoint_every) {
    bonds_since_ckpt_ = 0;
    SweepPosition pos;
    pos.schedule_pos = schedule_pos_;
    pos.sweep_count = sweep_count_;
    if (phase == 0 && bond + 1 < psi_.size() - 1) {
      pos.phase = 0;
      pos.next_bond = bond + 1;
    } else if (phase == 0) {  // left-to-right pass done; turn around
      pos.phase = 1;
      pos.next_bond = psi_.size() - 2;
    } else {
      pos.phase = 1;
      pos.next_bond = bond - 1;
    }
    pos.center = psi_.center();
    pos.energy = energy_;
    pos.trunc_err = trunc_err_;
    pos.max_trunc_partial = max_trunc_partial_;
    ckpt_->save(psi_, pos, records_);
  }
  // Deterministic mid-sweep crash for the checkpoint/restart tests: `nth`
  // counts completed bonds in sweep order, the exact sites where a snapshot
  // could have been taken.
  if (rt::FaultInjector::instance().should_fire("dmrg.kill_sweep"))
    TT_FAIL("fault injection: dmrg.kill_sweep at sweep " << sweep_count_
                                                         << " phase " << phase
                                                         << " bond " << bond);
}

SweepRecord Dmrg::sweep(const SweepParams& params) {
  return sweep_from(params, /*phase=*/0, /*start_bond=*/0, /*max_trunc0=*/0.0);
}

SweepRecord Dmrg::sweep_from(const SweepParams& params, int phase, int start_bond,
                             real_t max_trunc0) {
  TT_TRACE_SPAN("dmrg.sweep", rt::TraceCat::kSweep);
  Timer timer;
  const EnvGraph::PrefetchStats pf0 = envs_->prefetch_stats();
  max_trunc_partial_ = max_trunc0;

  if (phase == 0) {
    for (int j = start_bond; j + 1 < psi_.size(); ++j) {
      optimize_bond(j, params, /*sweep_right=*/true);
      max_trunc_partial_ = std::max(max_trunc_partial_, trunc_err_);
      maybe_checkpoint(params, 0, j);
    }
  }
  const int rl_start = phase == 0 ? psi_.size() - 2 : start_bond;
  for (int j = rl_start; j >= 0; --j) {
    optimize_bond(j, params, /*sweep_right=*/false);
    max_trunc_partial_ = std::max(max_trunc_partial_, trunc_err_);
    maybe_checkpoint(params, 1, j);
  }
  // Settle any still-flying prefetch so its counters land in this record.
  envs_->sync();

  SweepRecord rec;
  rec.sweep = ++sweep_count_;
  rec.energy = energy_;
  rec.max_bond_dim = psi_.max_bond_dim();
  rec.truncation_error = max_trunc_partial_;
  rec.wall_seconds = timer.seconds();
  const EnvGraph::PrefetchStats& pf = envs_->prefetch_stats();
  rec.prefetch_launched = pf.launched - pf0.launched;
  rec.prefetch_hits = pf.hits - pf0.hits;
  rec.prefetch_wait_seconds = pf.wait_seconds - pf0.wait_seconds;
  records_.push_back(rec);
  return rec;
}

real_t Dmrg::run(const std::vector<SweepParams>& schedule) {
  TT_CHECK(!schedule.empty(), "empty sweep schedule");
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule_pos_ = static_cast<int>(i);
    sweep(schedule[i]);
  }
  return energy_;
}

real_t Dmrg::resume(const std::vector<SweepParams>& schedule) {
  TT_CHECK(!schedule.empty(), "empty sweep schedule");
  TT_CHECK(ckpt_ != nullptr, "resume() needs set_checkpointing() first");
  CheckpointData data = ckpt_->load(psi_.sites());
  TT_CHECK(data.pos.schedule_pos < static_cast<int>(schedule.size()),
           "checkpoint is at sweep " << data.pos.schedule_pos
                                     << " of a longer schedule ("
                                     << schedule.size() << " sweeps given)");
  TT_CHECK(data.pos.next_bond + 1 < psi_.size(),
           "checkpoint bond " << data.pos.next_bond
                              << " out of range for this chain");

  envs_->sync();  // retire any in-flight prefetch before dropping the graph
  psi_ = std::move(data.psi);
  psi_.set_center(data.pos.center);
  psi_.check_consistency();
  records_ = std::move(data.history);
  energy_ = data.pos.energy;
  trunc_err_ = data.pos.trunc_err;
  sweep_count_ = data.pos.sweep_count;
  bonds_since_ckpt_ = 0;

  // Rebuild the whole environment graph from the restored state. A valid
  // node is a deterministic function of its cone's site tensors, and the
  // engines are bit-equivalent, so eager rebuild reproduces the tensors the
  // incremental maintenance held at snapshot time — bitwise.
  ContractionEngine builder;
  envs_ = std::make_unique<EnvGraph>(*engine_, psi_, h_, &builder);

  schedule_pos_ = data.pos.schedule_pos;
  sweep_from(schedule[static_cast<std::size_t>(schedule_pos_)], data.pos.phase,
             data.pos.next_bond, data.pos.max_trunc_partial);
  for (std::size_t i = static_cast<std::size_t>(schedule_pos_) + 1;
       i < schedule.size(); ++i) {
    schedule_pos_ = static_cast<int>(i);
    sweep(schedule[i]);
  }
  return energy_;
}

real_t Dmrg::energy_expectation() {
  // ⟨θ|H_eff|θ⟩ at the current center bond.
  const int c = std::max(0, std::min(psi_.center(), psi_.size() - 2));
  BlockTensor theta = symm::contract(psi_.site(c), psi_.site(c + 1), {{2, 0}});
  BlockTensor htheta = apply_two_site(*engine_, envs_->left(c), h_.site(c),
                                      h_.site(c + 1), envs_->right(c + 2), theta);
  const real_t nn = symm::dot(theta, theta);
  TT_CHECK(nn > 0.0, "state has zero norm");
  return symm::dot(theta, htheta) / nn;
}

}  // namespace tt::dmrg
