// Fault-injection overhead: the zero-cost claim, measured. An injection
// site costs one relaxed atomic load while the process is disarmed (the
// same gate discipline as obs::enabled()), and a mutex-guarded registry
// lookup per hit once *any* site is armed. This bench times the same
// engine pass three ways:
//
//   disarmed      nothing armed anywhere (the production default)
//   armed-other   an unrelated site armed — every hit at the measured
//                 sites now pays the registry lookup but never fires
//   armed-never   the kernel's own site armed with after:<huge>, the
//                 worst case that still completes (hit counting + trigger
//                 evaluation on the hot path, no injection)
//
// The interesting sites (kernel.alloc, shard.spill_write) are per-block /
// per-spill, far off the per-event hot path, so all three rows should be
// statistically identical — a visible gap is a regression in the gate.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "fault/fault_injection.hpp"

namespace {

using namespace are;
using Clock = std::chrono::steady_clock;

double measure(const core::Portfolio& portfolio, const yet::YearEventTable& yet_table) {
  // Median-ish of three passes: min is the usual bench convention here
  // (the cleanest pass, least scheduler noise).
  double best = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = Clock::now();
    (void)bench::run(portfolio, yet_table, {.engine = core::EngineKind::kFused});
    best = std::min(best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

}  // namespace

int main() {
  if (!bench::full_scale()) {
    bench::print_note("calibrated sub-scale; set ARE_BENCH_FULL=1 for paper scale");
  }
  const bench::Scale scale = bench::Scale::current();
  const core::Portfolio portfolio = bench::make_portfolio(scale, 4, 3);
  const yet::YearEventTable yet_table =
      bench::make_yet(scale, scale.trials, scale.events_per_trial);

  fault::FaultRegistry::global().disarm_all();
  bench::print_row("fault_overhead", "mode", 0, "seconds",
                   measure(portfolio, yet_table));
  bench::print_note("mode 0 = disarmed, 1 = armed-other, 2 = armed-never");

  {
    const fault::ScopedArm armed("service.socket=after:1000000000");
    bench::print_row("fault_overhead", "mode", 1, "seconds",
                     measure(portfolio, yet_table));
  }
  {
    const fault::ScopedArm armed("kernel.alloc=after:1000000000");
    bench::print_row("fault_overhead", "mode", 2, "seconds",
                     measure(portfolio, yet_table));
  }
  return 0;
}
