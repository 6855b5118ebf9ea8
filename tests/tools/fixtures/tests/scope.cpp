// Scope fixture: ordered-iteration, no-wallclock-random and modelled-time are
// src/-only contracts — tests may shuffle, sample and build trackers freely,
// so nothing here flags for those rules. check-macro still applies
// everywhere. Never compiled.
#include <random>
#include <unordered_map>

#include "runtime/tracker.hpp"
#include "support/error.hpp"

namespace fixture {

double tests_may_do_this() {
  std::unordered_map<int, double> m;  // no finding: tests scope
  std::random_device rd;              // no finding: tests scope
  double total = static_cast<double>(rd());
  for (const auto& kv : m) total += kv.second;  // no finding: tests scope
  TT_CHECK(total >= 0.0);  // EXPECT(check-macro)
  tt::rt::CostTracker t;
  t.add_time(tt::rt::Category::kGemm, total);  // no finding: tests scope
  return total;
}

}  // namespace fixture
