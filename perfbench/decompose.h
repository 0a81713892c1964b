// One simulated trial composed from the public calls Scenario::run_trial
// makes — sample, make_protocol, model::collect_sketches,
// SketchingProtocol::decode, judge, hash_output — with a span around each
// call.  Its output hash must equal run_trial's on the same seed; the
// workloads check that for every traced trial.
#pragma once

#include <cstdint>

#include "model/runner.h"
#include "parallel/thread_pool.h"
#include "scenario/typed.h"
#include "trace.h"

namespace perfbench {

struct DecomposedTrial {
  ds::scenario::TrialOutcome outcome;
  std::size_t total_bits = 0;  // CommStats::total_bits
};

template <typename Output>
[[nodiscard]] DecomposedTrial decomposed_trial(
    const ds::scenario::TypedScenario<Output>& scenario,
    std::size_t budget_bits, std::uint64_t trial_seed,
    ds::parallel::ThreadPool* pool, Tracer* tracer,
    const char* root_name = "trial") {
  const ScopedSpan root(tracer, root_name, trial_seed);
  const std::size_t parent = root.handle();
  ds::scenario::Instance inst;
  {
    const ScopedSpan s(tracer, "scenario.sample", trial_seed, parent);
    inst = scenario.sample(trial_seed);
  }
  const auto protocol = scenario.make_protocol(budget_bits);
  const ds::model::PublicCoins coins = ds::scenario::trial_coins(trial_seed);
  ds::model::CommStats comm;
  std::vector<ds::util::BitString> sketches;
  {
    const ScopedSpan s(tracer, "engine.collect", trial_seed, parent);
    sketches = ds::model::collect_sketches(inst.g, *protocol, coins, comm,
                                           pool);
  }
  Output output;
  {
    const ScopedSpan s(tracer, "engine.decode", trial_seed, parent);
    output = protocol->decode(inst.g.num_vertices(), sketches, coins);
  }
  bool success = false;
  {
    const ScopedSpan s(tracer, "scenario.judge", trial_seed, parent);
    success = scenario.judge(inst, output);
  }
  return {{success, comm.max_bits, ds::scenario::hash_output(output)},
          comm.total_bits};
}

/// Sketch payload MB per second of collect_sketches, from the payload of
/// an average trial and the traced mean collect time.
[[nodiscard]] inline double encode_rate(double payload_mb_per_trial,
                                        const Tracer& tracer) {
  const double collect_ms = tracer.mean_self_ms("engine.collect");
  return collect_ms > 0.0 ? payload_mb_per_trial / (collect_ms / 1e3) : 0.0;
}

}  // namespace perfbench
