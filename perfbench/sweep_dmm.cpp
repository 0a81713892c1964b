// sweep-dmm: core::sweep_budgets over DmmMatchingScenario(64) — the
// Section 3.1 D_MM distribution at n = 2333 — on its default six-budget
// ladder, on a pool of nproc lanes, one sweep after another with
// consecutive sweep seeds (a closed batch).  Bound by scenario sampling
// and greedy decode; sketches are a few hundred bits, so sketch-kernel
// and wire changes predict no change here.
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common.h"
#include "core/sweep.h"
#include "decompose.h"
#include "obs/obs.h"
#include "scenario/builtin.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using ds::scenario::DmmMatchingScenario;
using ds::scenario::Scenario;
using ds::scenario::TrialOutcome;

constexpr std::uint64_t kDmmM = 64;
constexpr int kSetupReps = 5;
constexpr std::uint64_t kWarmupTag = 0x5E7;
constexpr std::uint64_t kSweepTag = 0x5EE9;

struct TrialRecord {
  std::size_t budget = 0;
  std::uint64_t seed = 0;
  std::uint64_t hash = 0;
  double ms = 0.0;
  std::size_t max_bits = 0;
  std::size_t total_bits = 0;
};

/// Forwards every call to the D_MM scenario and records each run_trial
/// the sweep makes.  Untraced, run_trial is the scenario's own; traced,
/// it is the span-instrumented decomposition of the same calls.
class RecordingScenario final : public Scenario {
 public:
  RecordingScenario(const DmmMatchingScenario& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view id() const noexcept override {
    return inner_.id();
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return inner_.description();
  }
  [[nodiscard]] const ds::scenario::Grid& default_grid()
      const noexcept override {
    return inner_.default_grid();
  }
  [[nodiscard]] ds::graph::Vertex num_vertices() const noexcept override {
    return inner_.num_vertices();
  }
  [[nodiscard]] ds::scenario::Instance sample(
      std::uint64_t trial_seed) const override {
    return inner_.sample(trial_seed);
  }

  [[nodiscard]] TrialOutcome run_trial(
      std::size_t budget_bits, std::uint64_t trial_seed,
      ds::parallel::ThreadPool* pool,
      ds::engine::SketchArena* arena) const override {
    const Clock::time_point t0 = Clock::now();
    TrialRecord rec{budget_bits, trial_seed, 0, 0.0, 0, 0};
    TrialOutcome outcome;
    if (tracer_ == nullptr) {
      outcome = inner_.run_trial(budget_bits, trial_seed, pool, arena);
    } else {
      const DecomposedTrial d =
          decomposed_trial(inner_, budget_bits, trial_seed, pool, tracer_);
      outcome = d.outcome;
      rec.total_bits = d.total_bits;
    }
    rec.ms = ms_since(t0);
    rec.hash = outcome.output_hash;
    rec.max_bits = outcome.max_bits;
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(rec);
    return outcome;
  }

  [[nodiscard]] TrialOutcome serve_trial(
      ds::service::RefereeService& referee, std::size_t budget_bits,
      std::uint64_t trial_seed) const override {
    return inner_.serve_trial(referee, budget_bits, trial_seed);
  }
  [[nodiscard]] std::uint64_t play_trial(
      ds::wire::Link& link, std::span<const ds::graph::Vertex> owned,
      std::size_t budget_bits, std::uint64_t trial_seed,
      std::chrono::milliseconds timeout) const override {
    return inner_.play_trial(link, owned, budget_bits, trial_seed, timeout);
  }

  [[nodiscard]] std::vector<TrialRecord> records() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  const DmmMatchingScenario& inner_;
  Tracer* tracer_;
  mutable std::mutex mutex_;
  mutable std::vector<TrialRecord> records_;  // guarded by mutex_
};

struct Sweeper {
  const DmmMatchingScenario& scenario;
  std::vector<std::size_t> budgets;
  std::size_t trials;
  double target;

  [[nodiscard]] ds::core::SweepResult sweep(
      const Scenario& s, std::uint64_t seed,
      ds::parallel::ThreadPool* pool) const {
    return ds::core::sweep_budgets(s, budgets, trials, seed, target, pool);
  }
  [[nodiscard]] std::uint64_t trials_per_sweep() const {
    return budgets.size() * trials;
  }
};

[[nodiscard]] bool same_point(const ds::core::SweepPoint& a,
                              const ds::core::SweepPoint& b) {
  return a.budget_bits == b.budget_bits && a.trials == b.trials &&
         a.successes == b.successes && a.max_bits_seen == b.max_bits_seen &&
         a.rate == b.rate && a.ci.lo == b.ci.lo && a.ci.hi == b.ci.hi;
}

/// One trial of a run: (budget, trial seed).  sweep_budgets derives trial
/// t's seed from its sweep seed, so the key is unique across sweeps.
using TrialKey = std::pair<std::size_t, std::uint64_t>;

[[nodiscard]] std::map<TrialKey, std::uint64_t> output_hashes(
    const std::vector<TrialRecord>& records) {
  std::map<TrialKey, std::uint64_t> hashes;
  for (const TrialRecord& r : records) hashes[{r.budget, r.seed}] = r.hash;
  return hashes;
}

/// Marks as bad every trial of a sweep point of `got` that differs from
/// `want`'s; `sweep_seed` is the seed both sweeps ran on.
void mark_differing_points(const ds::core::SweepResult& got,
                           const ds::core::SweepResult& want,
                           std::uint64_t sweep_seed, std::set<TrialKey>& bad) {
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    if (i < want.points.size() && same_point(got.points[i], want.points[i])) {
      continue;
    }
    for (std::uint64_t t = 0; t < got.points[i].trials; ++t) {
      bad.insert({got.points[i].budget_bits,
                  ds::util::derive_seed(sweep_seed, t)});
    }
  }
}

/// Marks as bad every trial in `got` whose output hash is not `want`'s.
void mark_differing_hashes(const std::vector<TrialRecord>& got,
                           const std::map<TrialKey, std::uint64_t>& want,
                           std::set<TrialKey>& bad) {
  for (const TrialRecord& r : got) {
    const auto it = want.find({r.budget, r.seed});
    if (it == want.end() || it->second != r.hash) {
      bad.insert({r.budget, r.seed});
    }
  }
}

/// The same sweeps on 1-thread pools: `lanes` threads, each with its own
/// single-lane pool, take the seeds in turn.
[[nodiscard]] std::vector<ds::core::SweepResult> serial_reference(
    const Sweeper& sw, const Scenario& s,
    const std::vector<std::uint64_t>& seeds, std::size_t lanes) {
  std::vector<ds::core::SweepResult> ref(seeds.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&] {
      ds::parallel::ThreadPool one(1);
      for (std::size_t k = next++; k < seeds.size(); k = next++) {
        ref[k] = sw.sweep(s, seeds[k], &one);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ref;
}

struct TimedSweeps {
  std::vector<std::uint64_t> seeds;
  std::vector<ds::core::SweepResult> results;
  std::vector<double> sweep_ms;
  std::vector<double> sweep_steal_s;  // host steal per CPU in each sweep
  double wall_s = 0.0;
  Usage start, end;
};

/// Sweeps with consecutive seeds until `seconds` pass (or, with
/// `count` > 0, exactly `count` sweeps).
[[nodiscard]] TimedSweeps run_sweeps(const Sweeper& sw, const Scenario& s,
                                     std::uint64_t sweep_seed,
                                     double seconds, std::size_t count,
                                     ds::parallel::ThreadPool* pool) {
  TimedSweeps out;
  out.start = usage_now();
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (count > 0 ? k >= count : ms_since(t0) >= seconds * 1e3) break;
    const std::uint64_t seed = ds::util::derive_seed(sweep_seed, k);
    const double steal0 = steal_seconds_per_cpu();
    const Clock::time_point s0 = Clock::now();
    out.results.push_back(sw.sweep(s, seed, pool));
    out.sweep_ms.push_back(ms_since(s0));
    out.sweep_steal_s.push_back(steal_seconds_per_cpu() - steal0);
    out.seeds.push_back(seed);
  }
  out.wall_s = ms_since(t0) / 1e3;
  out.end = usage_now();
  return out;
}

[[nodiscard]] std::vector<double> trial_ms(
    const std::vector<TrialRecord>& records) {
  std::vector<double> ms;
  ms.reserve(records.size());
  for (const TrialRecord& r : records) ms.push_back(r.ms);
  return ms;
}

}  // namespace

RunResult run_sweep_dmm(const RunConfig& cfg) {
  RunResult out;
  const Usage run_start = usage_now();
  const Clock::time_point run_t0 = Clock::now();

  // Set-up, several times over: scenario construction, pool start, and
  // one warm-up sweep (the first sweep in a process runs several times
  // slower than the rest).
  std::vector<double> setup_s;
  std::unique_ptr<DmmMatchingScenario> scenario;
  std::unique_ptr<ds::parallel::ThreadPool> pool;
  for (int r = 0; r < kSetupReps; ++r) {
    pool.reset();
    scenario.reset();
    const Clock::time_point t0 = Clock::now();
    scenario = std::make_unique<DmmMatchingScenario>(kDmmM);
    pool = std::make_unique<ds::parallel::ThreadPool>(cfg.pool_width);
    const ds::scenario::Grid& grid = scenario->default_grid();
    (void)ds::core::sweep_budgets(
        *scenario, grid.budgets, grid.trials,
        ds::util::derive_seed(ds::util::derive_seed(cfg.seed, kWarmupTag),
                              static_cast<std::uint64_t>(r)),
        grid.target_rate, pool.get());
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  const ds::scenario::Grid& grid = scenario->default_grid();
  const Sweeper sw{*scenario, grid.budgets, grid.trials, grid.target_rate};
  const std::uint64_t sweep_seed = ds::util::derive_seed(cfg.seed, kSweepTag);
  out.notes.push_back("scenario: " + std::string(scenario->description()));
  out.notes.push_back("shape: closed batch, " +
                      std::to_string(sw.trials_per_sweep()) +
                      " trials per sweep, pool width " +
                      std::to_string(pool->num_threads()));

  if (!cfg.trace) {
    const RecordingScenario timed(*scenario, nullptr);
    const TimedSweeps run =
        run_sweeps(sw, timed, sweep_seed, cfg.seconds, 0, pool.get());
    const std::uint64_t trials = run.results.size() * sw.trials_per_sweep();

    // Correctness: every sweep point, and every trial's output hash,
    // equals the same sweep on a 1-thread pool (computed after the timed
    // region).
    const RecordingScenario reference(*scenario, nullptr);
    const std::vector<ds::core::SweepResult> ref =
        serial_reference(sw, reference, run.seeds, cfg.pool_width);
    std::set<TrialKey> bad;
    for (std::size_t k = 0; k < run.results.size(); ++k) {
      mark_differing_points(run.results[k], ref[k], run.seeds[k], bad);
    }
    mark_differing_hashes(timed.records(), output_hashes(reference.records()),
                          bad);
    out.failed = bad.size();
    out.attempted = trials;

    // One window per sweep: a sweep's trials finish before the next
    // starts, so its records are contiguous.
    const std::vector<double> ms = trial_ms(timed.records());
    const std::size_t per = sw.trials_per_sweep();
    std::vector<Window> windows;
    for (std::size_t k = 0; k < run.results.size(); ++k) {
      const auto first = ms.begin() + static_cast<std::ptrdiff_t>(k * per);
      windows.push_back({static_cast<double>(per), run.sweep_ms[k] / 1e3,
                         run.sweep_steal_s[k],
                         std::vector<double>(
                             first, first + static_cast<std::ptrdiff_t>(per))});
    }
    const std::vector<const Window*> kept = quiet_windows(windows);
    out.add("setup_s", median(setup_s), "s");
    out.add("ops_per_s", median_rate(kept), "ops/s");
    out.add("op_ms_p50", pooled_quantile(kept, 0.5), "ms");
    out.add("op_ms_p90", pooled_quantile(kept, 0.9), "ms");
    out.add("peak_rss_mb", usage_now().max_rss_mb, "MB");
    out.notes.push_back(std::to_string(run.results.size()) + " sweeps, " +
                        std::to_string(ms.size()) + " trials timed");
    out.notes.push_back(quiet_note("sweeps", windows, kept));
    return out;
  }

  // Traced run.  Pass A: the untraced twin (run_trial's own hashes and
  // times); pass B: the same sweeps, every trial decomposed into spans,
  // obs metrics on.
  const RecordingScenario plain(*scenario, nullptr);
  const TimedSweeps a =
      run_sweeps(sw, plain, sweep_seed, cfg.seconds / 2, 0, pool.get());

  Tracer tracer;
  const RecordingScenario traced(*scenario, &tracer);
  ds::obs::reset();
  ds::obs::set_metrics_enabled(true);
  const TimedSweeps b = run_sweeps(sw, traced, sweep_seed, 0.0,
                                   a.results.size(), pool.get());
  ds::obs::set_metrics_enabled(false);
  const ds::obs::Snapshot snap = ds::obs::snapshot();

  // Each traced trial must hash like run_trial on the same seed, and
  // every traced sweep point must equal the untraced one.
  const std::vector<TrialRecord> got = traced.records();
  std::set<TrialKey> bad;
  mark_differing_hashes(got, output_hashes(plain.records()), bad);
  for (std::size_t k = 0; k < b.results.size(); ++k) {
    mark_differing_points(b.results[k], a.results[k], b.seeds[k], bad);
  }
  out.failed = bad.size();
  out.attempted = got.size();

  // The 1-thread-pool twin of one sweep, for the speedup.
  ds::parallel::ThreadPool one(1);
  const Clock::time_point s0 = Clock::now();
  (void)sw.sweep(*scenario, a.seeds.front(), &one);
  const double serial_ms = ms_since(s0);

  const double n_trials = static_cast<double>(got.size());
  const auto self = tracer.self_times();
  std::set<std::uint64_t> seeds;
  double payload_mb = 0.0;
  for (const TrialRecord& r : got) {
    seeds.insert(r.seed);
    payload_mb += static_cast<double>(r.total_bits) / 8e6;
  }
  // Exact counts over the first sweep's trials (fixed by the seed).
  std::size_t bits_max = 0;
  std::size_t bits_total = 0;
  std::set<std::uint64_t> first_seeds;
  for (std::size_t t = 0; t < sw.trials; ++t) {
    first_seeds.insert(ds::util::derive_seed(a.seeds.front(), t));
  }
  for (const TrialRecord& r : got) {
    if (first_seeds.count(r.seed) == 0) continue;
    bits_max = std::max(bits_max, r.max_bits);
    bits_total += r.total_bits;
  }

  out.add("scenario.sample_ms", tracer.mean_self_ms("scenario.sample"), "ms");
  const auto sample = self.find("scenario.sample");
  out.add("scenario.samples_per_instance",
          sample == self.end() ? 0.0
                               : static_cast<double>(sample->second.count) /
                                     static_cast<double>(seeds.size()),
          "count");
  out.add("scenario.judge_ms", tracer.mean_self_ms("scenario.judge"), "ms");
  out.add("engine.collect_ms", tracer.mean_self_ms("engine.collect"), "ms");
  out.add("engine.decode_ms", tracer.mean_self_ms("engine.decode"), "ms");
  out.add("engine.encode_mb_per_s", encode_rate(payload_mb / n_trials, tracer),
          "MB/s");
  out.add("engine.sketch_bits_max", static_cast<double>(bits_max), "bits");
  out.add("engine.sketch_bits_total", static_cast<double>(bits_total), "bits");
  out.add("parallel.busy_ratio",
          busy_ratio(a.start, a.end, a.wall_s, pool->num_threads()),
          "fraction");
  out.add("parallel.speedup", serial_ms / median(a.sweep_ms), "x");
  out.add("parallel.jobs", counter_value(snap, "parallel.jobs") / n_trials,
          "count/op");
  out.add("parallel.inline_loops",
          counter_value(snap, "parallel.inline_loops") / n_trials, "count/op");
  out.add("parallel.queue_wait_us",
          histogram_mean(snap, "parallel.queue_wait_us"), "us");
  out.add("other_ms", tracer.mean_self_ms("trial"), "ms");
  out.add("trace.overhead", b.wall_s / a.wall_s - 1.0, "fraction");
  add_proc_metrics(out, run_start, usage_now(), ms_since(run_t0) / 1e3);
  out.exact.push_back({"engine.sketch_bits_max", std::to_string(bits_max)});
  out.exact.push_back({"engine.sketch_bits_total", std::to_string(bits_total)});
  emit_trace_artifacts(tracer, cfg, out);
  return out;
}

}  // namespace perfbench
