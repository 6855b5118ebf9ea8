// One properly waived instance of each rule: this file must lint clean, and
// every waiver below must count as used (no unused-waiver findings either).
// Never compiled.
#include <cstdint>
#include <random>
#include <unordered_map>

#include "runtime/tracker.hpp"
#include "runtime/wire.hpp"
#include "support/error.hpp"

namespace fixture {

struct Interner {
  // tt-lint: allow(ordered-iteration) lookup-only: never iterated, order cannot leak
  std::unordered_map<std::uint64_t, int> index;
};

double waived(const Interner& in, const std::uint64_t* bits) {
  // tt-lint: allow(ordered-iteration) drained into a sorted vector by the caller
  for (const auto& kv : in.index) (void)kv;

  // tt-lint: allow(no-wallclock-random) fixture demonstrating the waiver form
  std::mt19937_64 unseeded;

  // tt-lint: allow(raw-cast-audit) fixture demonstrating the waiver form
  const double d = *reinterpret_cast<const double*>(bits);

  // tt-lint: allow(check-macro) fixture demonstrating the waiver form
  TT_CHECK(d > 0.0);
  return d + static_cast<double>(unseeded());
}

void waived_charge(tt::rt::CostTracker& t) {
  // tt-lint: allow(modelled-time) fixture demonstrating the waiver form
  t.add_flops(1.0);
}

}  // namespace fixture
