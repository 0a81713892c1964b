// Arena allocation gates on the sweep's trial path.  core::sweep_budgets
// leases one SketchArena per running trial from an ArenaReservoir, so
// from the second trial on the encode loop must perform no per-vertex
// heap allocation.  Measured with a global operator-new override, which
// is process-wide — that is why this suite is its own executable
// (ds_alloc_tests) rather than part of ds_tests.
//
// Steady-state cost is taken through the sweep itself: a sweep of
// 1 + kRuns trials minus a sweep of 1 trial (the first trial sizes the
// arena; the sweep's own bookkeeping is the same in both).  The
// arena-less reference runs the same trials with a null arena.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/sweep.h"
#include "graph/generators.h"
#include "parallel/thread_pool.h"
#include "protocols/trivial.h"
#include "scenario/registry.h"
#include "scenario/typed.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Kept out of line: GCC's -Wmismatched-new-delete misreads an inlined
// free() as pairing with the operator new above.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ds {
namespace {

constexpr std::uint64_t kSeed = 97;
constexpr std::size_t kRuns = 32;

std::size_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Allocations of trials 1..kRuns through core::sweep_budgets on a
/// one-lane pool, so the count is exact.
std::size_t sweep_steady_state_allocs(const scenario::Scenario& s,
                                      std::size_t budget) {
  parallel::ThreadPool pool(1);
  const std::size_t budgets[] = {budget};
  const auto sweep_allocs = [&](std::size_t trials) {
    const std::size_t before = allocs();
    (void)core::sweep_budgets(s, budgets, trials, kSeed, 0.9, &pool);
    return allocs() - before;
  };
  const std::size_t warmup = sweep_allocs(1);
  return sweep_allocs(1 + kRuns) - warmup;
}

/// Allocations of the same trials run with no arena at all.
std::size_t unpooled_allocs(const scenario::Scenario& s, std::size_t budget) {
  parallel::ThreadPool pool(1);
  (void)s.run_trial(budget, util::derive_seed(kSeed, 0), &pool, nullptr);
  const std::size_t before = allocs();
  for (std::size_t i = 1; i <= kRuns; ++i) {
    (void)s.run_trial(budget, util::derive_seed(kSeed, i), &pool, nullptr);
  }
  return allocs() - before;
}

TEST(ArenaAllocation, EncodeOnlyProbeAllocatesNoBufferPerVertex) {
  // Fixed instance, trivial adjacency-bitmap protocol, constant-alloc
  // decode and judge: the only per-vertex allocations are the encode
  // buffers the arena pools.
  constexpr graph::Vertex kN = 256;
  util::Rng rng(4242);
  const graph::Graph fixed = graph::gnp(kN, 0.05, rng);
  const scenario::InlineScenario<model::MatchingOutput> probe(
      "alloc-probe", "encode-only arena allocation probe", kN,
      scenario::Grid{{kN}, 1, 1, 0.0},
      [&fixed](std::uint64_t) { return scenario::Instance{fixed, nullptr}; },
      [](std::size_t) {
        return std::make_unique<protocols::TrivialMaximalMatching>();
      },
      [](const scenario::Instance&, const model::MatchingOutput&) {
        return true;
      });

  const std::size_t unpooled = unpooled_allocs(probe, kN);
  const std::size_t pooled = sweep_steady_state_allocs(probe, kN);
  // Guard: the probe must still isolate the encode path.
  ASSERT_GE(unpooled / kRuns, kN)
      << "the arena-less probe no longer allocates one encode buffer per"
         " vertex";
  EXPECT_LT(pooled / kRuns, kN)
      << "steady-state sweep trials still allocate per vertex (pooled "
      << pooled / kRuns << ", unpooled " << unpooled / kRuns
      << " allocations per trial)";
}

TEST(ArenaAllocation, EasyCcSweepSavesOneBufferPerVertex) {
  // Decode and judge allocations are protocol-specific and not pooled,
  // so on a real scenario the gate is on the savings: at least one
  // encode buffer per vertex per steady-state trial.
  const scenario::Scenario* s = scenario::find("easy-cc");
  ASSERT_NE(s, nullptr);
  const std::size_t budget = s->default_grid().budgets.back();
  const std::size_t n = s->num_vertices();

  const std::size_t unpooled = unpooled_allocs(*s, budget);
  const std::size_t pooled = sweep_steady_state_allocs(*s, budget);
  EXPECT_LE(pooled + kRuns * n, unpooled)
      << "steady-state sweep trials save fewer than one encode buffer per"
         " vertex (pooled " << pooled << ", unpooled " << unpooled << ")";
}

}  // namespace
}  // namespace ds
