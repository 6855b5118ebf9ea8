// Mirrors the replay module's path (src/dmrg/replay.cpp), which is on the
// modelled-time pricing allowlist: pricing a recorded log here must NOT flag.
// Never compiled.
#include "runtime/cost_model.hpp"

namespace fixture {

void price_record(const tt::rt::Cluster& cl, tt::rt::CostTracker& t) {
  tt::rt::charge_contraction(cl, t, {1.0, 1.0, 1.0, 1.0},  // allowlisted: no finding
                             tt::rt::Layout::kBlockDense3D);
  tt::rt::charge_redistribution(cl, t, 8.0);  // allowlisted: no finding
}

}  // namespace fixture
