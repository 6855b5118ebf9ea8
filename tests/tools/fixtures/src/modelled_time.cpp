// Seeded violations for the modelled-time rule: charging a CostTracker
// outside the cost model. Measured seconds poured into the tracker, or a side
// slot of modelled seconds, break "the tracker is the BSP model and nothing
// else". Never compiled.
#include "runtime/scheduler.hpp"
#include "runtime/tracker.hpp"

namespace fixture {

void charge_measured(const tt::rt::DistStats& d, tt::rt::CostTracker& t) {
  t.add_time(tt::rt::Category::kComm, d.comm_seconds);  // EXPECT(modelled-time)
  t.add_words(d.exchange_words);                        // EXPECT(modelled-time)
}

void fold_side_slot(tt::rt::CostTracker* main, const tt::rt::CostTracker& side) {
  // EXPECT-NEXT(modelled-time)
  main->add_flops(side.flops());
  main -> add_supersteps (side.supersteps());  // EXPECT(modelled-time)
  main->merge(side);  // no finding: folding a whole modelled tracker is fine
  // A call in a comment does not count: t.add_time(c, 1.0);
}

}  // namespace fixture
