// Seeded violations for the modelled-time rule: charging a CostTracker
// outside the cost model, or pricing an operation outside the cost model and
// the replay module. Measured seconds poured into the tracker, a side slot of
// modelled seconds, or an executor that prices itself while it runs all break
// "the tracker is the BSP model of a recorded log and nothing else". Never
// compiled.
#include "runtime/cost_model.hpp"
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
  const double total = side.total_time();  // no finding: reading is fine
  (void)total;
  // A call in a comment does not count: t.add_time(c, 1.0);
}

void price_while_executing(const tt::rt::Cluster& cl, tt::rt::CostTracker& t) {
  tt::rt::charge_contraction(cl, t, {1.0, 1.0, 1.0, 1.0},  // EXPECT(modelled-time)
                             tt::rt::Layout::kBlockDense3D);
  tt::rt::charge_svd(cl, t, 4, 4, tt::rt::Layout::kLocal);  // EXPECT(modelled-time)
  // EXPECT-NEXT(modelled-time)
  tt::rt::charge_redistribution(cl, t, 8.0);
  charge_transpose (cl, t, 8.0);  // EXPECT(modelled-time)
  // Nor does a call in a comment: rt::charge_svd(cl, t, 1, 1, layout);
}

}  // namespace fixture
