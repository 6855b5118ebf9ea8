// Scope fixture: ordered-iteration, no-wallclock-random and modelled-time are
// src/-only contracts — tests may shuffle, sample and build trackers freely,
// so nothing here flags for those rules. check-macro and one-thread-runtime
// still apply everywhere. Never compiled.
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
  omp_set_num_threads(1);  // EXPECT(one-thread-runtime)
  return total;
}

}  // namespace fixture
