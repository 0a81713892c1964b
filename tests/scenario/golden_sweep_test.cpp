// The tentpole's bit-identity pin: D_MM sweep results captured BEFORE
// the scenario refactor (with the legacy three-lambda sweep_budgets)
// must reproduce exactly through the Scenario seam, at 1, 4, and the
// configured thread count.  The fingerprint folds every SweepPoint field
// including the bit-cast doubles, so any drift in sampling, coin keying,
// protocol construction, judging, or fold order fails loudly.  The last
// case extends the thread-count identity to every registered scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/sweep.h"
#include "parallel/thread_pool.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"

namespace ds::scenario {
namespace {

std::uint64_t fingerprint(const core::SweepResult& r) {
  std::uint64_t h = kFnvOffset;
  h = fnv_fold(h, r.threshold_budget.has_value() ? 1u : 0u);
  h = fnv_fold(h, r.threshold_budget.value_or(0));
  for (const core::SweepPoint& p : r.points) {
    h = fnv_fold(h, p.budget_bits);
    h = fnv_fold(h, p.trials);
    h = fnv_fold(h, p.successes);
    h = fnv_fold(h, p.max_bits_seen);
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(p.rate));
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(p.ci.lo));
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(p.ci.hi));
  }
  return h;
}

// Pre-refactor captures (legacy template sweep_budgets, 2026-08):
//   m=8,  trials=12, seed=7, target=0.9, budgets=[7,28,112,224]
//   m=16, trials=24, seed=7, target=0.9, budgets=[9,36,144,576,1152]
constexpr std::uint64_t kGoldenSmall = 0xb2ab548fa3236ea1ull;
constexpr std::uint64_t kGoldenBench = 0xd4d868ab92aed5feull;

TEST(ScenarioGoldenSweep, DmmSmallReproducesPreRefactorBits) {
  const DmmMatchingScenario s(8);
  const std::vector<std::size_t> expected_budgets{7, 28, 112, 224};
  EXPECT_EQ(s.default_grid().budgets, expected_budgets);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, parallel::configured_threads()}) {
    parallel::ThreadPool pool(threads);
    const core::SweepResult result = core::sweep_budgets(
        s, s.default_grid().budgets, /*trials=*/12, /*seed=*/7,
        /*target_rate=*/0.9, &pool);
    EXPECT_EQ(fingerprint(result), kGoldenSmall)
        << "at " << threads << " threads";
    ASSERT_TRUE(result.threshold_budget.has_value());
    EXPECT_EQ(*result.threshold_budget, 28u);
  }
}

TEST(ScenarioGoldenSweep, RegisteredDmmMatchingReproducesPreRefactorBits) {
  // The registry's dmm-matching (m=16) swept over its own default grid
  // must equal the pre-refactor bench configuration bit for bit.
  const Scenario* s = find("dmm-matching");
  ASSERT_NE(s, nullptr);
  const std::vector<std::size_t> expected_budgets{9, 36, 144, 576, 1152};
  EXPECT_EQ(s->default_grid().budgets, expected_budgets);
  EXPECT_EQ(s->default_grid().trials, 24u);
  EXPECT_EQ(s->default_grid().seed, 7u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, parallel::configured_threads()}) {
    parallel::ThreadPool pool(threads);
    const core::SweepResult result = core::sweep_scenario(*s, &pool);
    EXPECT_EQ(fingerprint(result), kGoldenBench)
        << "at " << threads << " threads";
    ASSERT_TRUE(result.threshold_budget.has_value());
    EXPECT_EQ(*result.threshold_budget, 144u);
  }
}

TEST(ScenarioGoldenSweep, EveryRegisteredScenarioIsIdenticalAcrossThreadCounts) {
  // Every registered family over its own default grid (trials capped at
  // 8, as bench_scenario sweeps it): the 4-lane and configured-width
  // pools must reproduce the 1-lane sweep in every SweepPoint field and
  // the threshold.
  for (const Scenario* s : all()) {
    const Grid& grid = s->default_grid();
    const auto sweep = [&](std::size_t threads) {
      parallel::ThreadPool pool(threads);
      return core::sweep_budgets(*s, grid.budgets,
                                 std::min<std::size_t>(grid.trials, 8),
                                 grid.seed, grid.target_rate, &pool);
    };
    const core::SweepResult serial = sweep(1);
    ASSERT_EQ(serial.points.size(), grid.budgets.size()) << s->id();
    for (const std::size_t threads :
         {std::size_t{4}, parallel::configured_threads()}) {
      EXPECT_EQ(fingerprint(sweep(threads)), fingerprint(serial))
          << s->id() << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace ds::scenario
