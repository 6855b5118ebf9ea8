#include "dmrg/engine.hpp"

#include "dmrg/replay.hpp"
#include "runtime/scheduler.hpp"

namespace tt::dmrg {

namespace {

constexpr EngineKind kAllKinds[] = {EngineKind::kReference, EngineKind::kList,
                                    EngineKind::kSparseDense, EngineKind::kSparseSparse};

}  // namespace

const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::kReference: return "reference";
    case EngineKind::kList: return "list";
    case EngineKind::kSparseDense: return "sparse-dense";
    case EngineKind::kSparseSparse: return "sparse-sparse";
  }
  return "?";
}

EngineKind engine_from_name(const std::string& name) {
  std::string valid;
  for (EngineKind k : kAllKinds) {
    if (name == engine_name(k)) return k;
    valid += (valid.empty() ? "" : "|") + std::string(engine_name(k));
  }
  TT_FAIL("unknown engine '" << name << "' (" << valid << ")");
}

symm::BlockTensor ContractionEngine::contract(
    const symm::BlockTensor& a, Role role_a, const symm::BlockTensor& b, Role role_b,
    const std::vector<std::pair<int, int>>& pairs) {
  // With a multi-rank scheduler the bins execute across its ranks, whose
  // measured exchange stays in Scheduler::last()/accumulated(). Results and
  // ContractStats are bitwise identical either way — the scheduler's
  // rank-parity invariant — so the record is too.
  symm::ContractStats stats;
  symm::BlockTensor c = scheduler_ != nullptr && scheduler_->num_ranks() > 1
                            ? scheduler_->contract(a, b, pairs, &stats)
                            : symm::contract(a, b, pairs, &stats, num_threads_);
  // tt-lint: allow(modelled-time) engine.flops of bench/e2e/bench_e2e.cpp
  tracker_.add_flops(stats.total_flops);
  if (logging_) log_.push_back(record_contraction(a, role_a, b, role_b, pairs, c));
  return c;
}

symm::BlockSvd ContractionEngine::svd(const symm::BlockTensor& a,
                                      const std::vector<int>& row_modes,
                                      const symm::TruncParams& trunc) {
  symm::BlockSvd f = symm::block_svd(a, row_modes, trunc, num_threads_);
  if (logging_) {
    const index_t uv = f.u.num_elements() + f.vt.num_elements();
    log_.push_back(SvdRecord{static_cast<double>(a.num_elements()), f.shapes,
                             static_cast<double>(uv)});
  }
  return f;
}

std::unique_ptr<ContractionEngine> make_engine(EngineKind kind, rt::Cluster cluster,
                                               rt::CostModelParams params) {
  return std::make_unique<ContractionEngine>(cluster, params, kind);
}

}  // namespace tt::dmrg
