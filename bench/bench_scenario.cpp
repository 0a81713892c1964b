// A2: the scenario registry swept end to end.
//
// Every registered instance family (docs/SCENARIOS.md) is swept over its
// own default grid on the global pool, with trials capped at 8 so the
// whole registry stays bench-sized, and reported as one table: n, the
// budgets swept, the threshold budget `thr` (smallest budget at the
// family's target rate) and the success rate one ladder step below it.
//
// The certifications this sweep rests on are ctest cases: bit-identical
// results at 1, 4 and the configured thread count for every registered
// scenario (ScenarioGoldenSweep), and the arena allocation gates on the
// trial path (ArenaAllocation, tests/engine/arena_alloc_test.cpp).
//
//   bench_scenario
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>

#include "core/report.h"
#include "core/sweep.h"
#include "parallel/thread_pool.h"
#include "scenario/registry.h"

namespace {

using ds::core::fmt;

constexpr std::size_t kMaxTrials = 8;

/// "rate at budget" for the ladder step just below the threshold; "—" when
/// the threshold is the first budget or was never reached.
std::string below_threshold(const ds::core::SweepResult& result) {
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    if (result.points[i].budget_bits == result.threshold_budget) {
      const ds::core::SweepPoint& below = result.points[i - 1];
      return fmt(below.rate, 3) + " at " + fmt(below.budget_bits, true);
    }
  }
  return "—";
}

}  // namespace

int main() {
  std::cout << "=== A2: scenario registry sweeps ===\n"
            << "pool threads: "
            << ds::parallel::global_pool().num_threads()
            << ", trials per budget: min(grid trials, " << kMaxTrials
            << ")\n\n";

  ds::core::Table table(
      {"scenario", "n", "budgets swept", "thr", "success at thr-1 step"});
  for (const ds::scenario::Scenario* s : ds::scenario::all()) {
    const ds::scenario::Grid& grid = s->default_grid();
    const ds::core::SweepResult result = ds::core::sweep_budgets(
        *s, grid.budgets, std::min(grid.trials, kMaxTrials), grid.seed,
        grid.target_rate);
    table.add_row({std::string(s->id()), fmt(s->num_vertices(), true),
                   fmt(grid.budgets.front(), true) + ".." +
                       fmt(grid.budgets.back(), true),
                   result.threshold_budget
                       ? fmt(*result.threshold_budget, true)
                       : std::string("none"),
                   below_threshold(result)});
  }
  table.print(std::cout);
  return 0;
}
