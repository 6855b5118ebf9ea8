// Mirrors the real cost model's path (src/runtime/cost_model.cpp), which is on
// the modelled-time allowlist: charges here must NOT flag. Never compiled.
#include "runtime/tracker.hpp"

namespace fixture {

void charge_gemm(tt::rt::CostTracker& t, double flops, double rate) {
  t.add_flops(flops);                                 // allowlisted: no finding
  t.add_time(tt::rt::Category::kGemm, flops / rate);  // allowlisted: no finding
}

}  // namespace fixture
