// serve-yu-tcp: ConnectivityYuHardScenario(32, 16) — Yu's tight
// connectivity instance, n = 512 — at its largest grid budget (full AGM
// Boruvka depth).  The referee calls Scenario::serve_trial on a
// RefereeService; three player threads call play_trial over 127.0.0.1
// TCP.  Closed loop: each player plays trial t, waits for its result, and
// goes straight on to t + 1, while the referee serves the trials in order.
// Four threads and three connections in all.  The only workload through
// wire/service; sampling is cheap and the pool idle, so sampling and pool
// changes predict no change here.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "decompose.h"
#include "obs/obs.h"
#include "scenario/builtin.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "util/rng.h"
#include "wire/tcp.h"

namespace perfbench {

namespace {

using ds::scenario::ConnectivityYuHardScenario;
using ds::scenario::TrialOutcome;
using ds::scenario::TypedScenario;
using Output = std::uint32_t;

constexpr ds::graph::Vertex kLevels = 32;
constexpr ds::graph::Vertex kWidth = 16;
constexpr std::size_t kPlayers = 3;
constexpr int kSetupReps = 5;
constexpr int kWarmupTrials = 5;
constexpr std::size_t kExactTrials = 16;  // trials the exact counts cover
constexpr std::size_t kSimTrials = 16;    // simulated decompositions
constexpr std::size_t kWindowTrials = 25;  // trials per measuring window
constexpr std::chrono::milliseconds kTimeout{5000};
constexpr std::uint64_t kTrialTag = 0x7C9;
constexpr std::uint64_t kWarmupTag = 0x7CA;

/// Forwards the three hooks a family defines to the Yu scenario, so the
/// inherited TypedScenario paths (play_trial, serve_trial) run unchanged
/// while every sample() call is counted.
class CountingScenario final : public TypedScenario<Output> {
 public:
  explicit CountingScenario(const ConnectivityYuHardScenario& inner)
      : inner_(inner) {}

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
    ++samples_;
    return inner_.sample(trial_seed);
  }
  [[nodiscard]] std::unique_ptr<ds::model::SketchingProtocol<Output>>
  make_protocol(std::size_t budget_bits) const override {
    return inner_.make_protocol(budget_bits);
  }
  [[nodiscard]] bool judge(const ds::scenario::Instance& inst,
                           const Output& output) const override {
    return inner_.judge(inst, output);
  }

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  const ConnectivityYuHardScenario& inner_;
  mutable std::atomic<std::uint64_t> samples_{0};
};

struct WireTrial {
  std::uint64_t seed = 0;
  TrialOutcome referee;
  double ms = 0.0;           // referee-side serve_trial latency
  double cycle_ms = 0.0;     // since the previous trial was served
  double steal_after = 0.0;  // host steal per CPU when it was served
  bool ok = true;            // no exception on any side
  std::array<std::uint64_t, kPlayers> player_hash{};
};

struct Pass {
  std::vector<WireTrial> trials;
  double wall_s = 0.0;
  Usage start, end;
};

/// One referee (the calling thread) and kPlayers player threads joined by
/// 127.0.0.1 TCP.  In a pass, trial t has seed derive_seed(base, t); each
/// player plays t, waits for its result, and goes straight on to t + 1,
/// while the referee serves the trials in order: a closed loop with no
/// hand-off outside the wire.
class TrialLoop {
 public:
  TrialLoop(const TypedScenario<Output>& scenario, std::size_t budget)
      : scenario_(scenario), budget_(budget) {
    ds::wire::TcpListener listener(0);
    const std::uint16_t port = listener.port();
    for (std::size_t i = 0; i < kPlayers; ++i) {
      players_.emplace_back([this, i, port] { player_loop(i, port); });
    }
    std::vector<std::unique_ptr<ds::wire::Link>> links;
    for (std::size_t i = 0; i < kPlayers; ++i) {
      std::unique_ptr<ds::wire::Link> link = listener.accept(kTimeout);
      if (!link) {
        shutdown();
        throw std::runtime_error("serve-yu-tcp: a player never connected");
      }
      links.push_back(std::move(link));
    }
    referee_ = std::make_unique<ds::service::RefereeService>(
        std::move(links), /*coin_seed=*/0, kTimeout);
  }
  ~TrialLoop() { shutdown(); }
  TrialLoop(const TrialLoop&) = delete;
  TrialLoop& operator=(const TrialLoop&) = delete;

  /// Serve trials until `seconds` pass (or, with `count` > 0, exactly
  /// `count` trials).  With a tracer, the referee side is composed from
  /// the calls serve_trial makes, each under a span, and every play_trial
  /// is a span.  Returns once every player has finished the pass.
  [[nodiscard]] Pass run(std::uint64_t seed_base, double seconds,
                         std::size_t count, Tracer* tracer) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++pass_;
      seed_base_ = seed_base;
      tracer_ = tracer;
      last_trial_ = count > 0 ? count - 1 : UINT64_MAX;
      players_done_ = 0;
      for (auto& results : results_) results.clear();
    }
    pass_cv_.notify_all();
    Pass p;
    p.start = usage_now();
    const Clock::time_point t0 = Clock::now();
    Clock::time_point prev = t0;
    for (std::uint64_t t = 0;; ++t) {
      if (count == 0 && ms_since(t0) >= seconds * 1e3) {
        // Players may already be in trial t: it is the last one.
        const std::lock_guard<std::mutex> lock(mutex_);
        last_trial_ = t;
      }
      WireTrial w;
      w.seed = ds::util::derive_seed(seed_base, t);
      const Clock::time_point s0 = Clock::now();
      try {
        w.referee = tracer == nullptr
                        ? scenario_.serve_trial(*referee_, budget_, w.seed)
                        : traced_serve(w.seed, tracer);
      } catch (const std::exception&) {
        w.ok = false;
      }
      const Clock::time_point s1 = Clock::now();
      w.ms = ms_between(s0, s1);
      w.cycle_ms = ms_between(prev, s1);
      w.steal_after = steal_seconds_per_cpu();
      prev = s1;
      p.trials.push_back(w);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (t >= last_trial_) break;
    }
    p.wall_s = ms_since(t0) / 1e3;
    p.end = usage_now();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return players_done_ == kPlayers; });
    for (std::size_t t = 0; t < p.trials.size(); ++t) {
      for (std::size_t i = 0; i < kPlayers; ++i) {
        const bool played = t < results_[i].size();
        p.trials[t].player_hash[i] = played ? results_[i][t].hash : 0;
        p.trials[t].ok = p.trials[t].ok && played && results_[i][t].ok;
      }
    }
    return p;
  }

 private:
  struct PlayerResult {
    std::uint64_t hash = 0;
    bool ok = false;
  };

  [[nodiscard]] TrialOutcome traced_serve(std::uint64_t seed,
                                          Tracer* tracer) {
    const ScopedSpan root(tracer, "trial", seed);
    ds::scenario::Instance inst;
    {
      const ScopedSpan s(tracer, "scenario.sample", seed, root.handle());
      inst = scenario_.sample(seed);
    }
    const auto protocol = scenario_.make_protocol(budget_);
    ds::service::ServeResult<Output> run;
    {
      const ScopedSpan s(tracer, "service.serve", seed, root.handle());
      run = ds::service::serve_protocol(
          referee_->links(), *protocol, inst.g.num_vertices(),
          ds::scenario::trial_coins(seed), referee_->timeout());
    }
    bool success = false;
    {
      const ScopedSpan s(tracer, "scenario.judge", seed, root.handle());
      success = scenario_.judge(inst, run.output);
    }
    return {success, run.comm.max_bits,
            ds::scenario::hash_output(run.output)};
  }

  void player_loop(std::size_t index, std::uint16_t port) {
    std::unique_ptr<ds::wire::Link> link;
    try {
      link = ds::wire::tcp_connect("127.0.0.1", port, kTimeout);
    } catch (const std::exception&) {
      return;  // the referee's accept times out and reports it
    }
    const std::vector<ds::graph::Vertex> owned =
        ds::service::shard_vertices(scenario_.num_vertices(), kPlayers,
                                    index);
    for (std::uint64_t seen = 0;;) {
      std::uint64_t seed_base = 0;
      Tracer* tracer = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        pass_cv_.wait(lock, [&] { return stop_ || pass_ > seen; });
        if (stop_) return;
        seen = pass_;
        seed_base = seed_base_;
        tracer = tracer_;
      }
      std::vector<PlayerResult> results;
      for (std::uint64_t t = 0;; ++t) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (t > last_trial_) break;
        }
        const std::uint64_t seed = ds::util::derive_seed(seed_base, t);
        PlayerResult r;
        try {
          const ScopedSpan span(tracer, "service.player", seed);
          r.hash = scenario_.play_trial(*link, owned, budget_, seed, kTimeout);
          r.ok = true;
        } catch (const std::exception&) {
          // The referee failed this trial; it reports the failure.
        }
        results.push_back(r);
        if (!r.ok) break;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        results_[index] = std::move(results);
        ++players_done_;
      }
      done_cv_.notify_all();
    }
  }

  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    pass_cv_.notify_all();
    for (std::thread& t : players_) {
      if (t.joinable()) t.join();
    }
  }

  const TypedScenario<Output>& scenario_;
  std::size_t budget_;
  std::unique_ptr<ds::service::RefereeService> referee_;

  std::mutex mutex_;
  std::condition_variable pass_cv_;  // referee -> players: a pass began
  std::condition_variable done_cv_;  // players -> referee: pass played
  std::uint64_t pass_ = 0;           // guarded by mutex_ (and below)
  std::uint64_t seed_base_ = 0;
  Tracer* tracer_ = nullptr;
  std::uint64_t last_trial_ = 0;
  std::size_t players_done_ = 0;
  bool stop_ = false;
  std::array<std::vector<PlayerResult>, kPlayers> results_;
  std::vector<std::thread> players_;  // last: joined before the rest dies
};

/// sim == wire: every trial's referee output hash and max bits, and every
/// player's hash, equal run_trial on the same seed (computed on 1-thread
/// pools across `lanes` threads).  Returns the number of failed trials.
[[nodiscard]] std::uint64_t check_against_sim(
    const ConnectivityYuHardScenario& scenario, std::size_t budget,
    const std::vector<WireTrial>& trials, std::size_t lanes) {
  std::vector<TrialOutcome> sim(trials.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&] {
      ds::parallel::ThreadPool one(1);
      const ds::scenario::Scenario& s = scenario;
      for (std::size_t k = next++; k < trials.size(); k = next++) {
        sim[k] = s.run_trial(budget, trials[k].seed, &one, nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const WireTrial& w = trials[k];
    bool same = w.ok && w.referee.output_hash == sim[k].output_hash &&
                w.referee.max_bits == sim[k].max_bits &&
                w.referee.success == sim[k].success;
    for (const std::uint64_t h : w.player_hash) {
      same = same && h == sim[k].output_hash;
    }
    if (!same) ++failed;
  }
  return failed;
}

/// Consecutive windows of kWindowTrials trials (a trailing partial
/// window is dropped unless it is the only one).
[[nodiscard]] std::vector<Window> trial_windows(const Pass& p) {
  const std::size_t window = std::min(kWindowTrials, p.trials.size());
  std::vector<Window> windows;
  double steal_before = p.start.steal_s;
  for (std::size_t lo = 0; window > 0 && lo + window <= p.trials.size();
       lo += window) {
    Window w;
    w.ops = static_cast<double>(window);
    for (std::size_t k = lo; k < lo + window; ++k) {
      w.wall_s += p.trials[k].cycle_ms / 1e3;
      w.latency_ms.push_back(p.trials[k].ms);
    }
    w.steal_s = p.trials[lo + window - 1].steal_after - steal_before;
    steal_before = p.trials[lo + window - 1].steal_after;
    windows.push_back(std::move(w));
  }
  return windows;
}

}  // namespace

RunResult run_serve_yu_tcp(const RunConfig& cfg) {
  RunResult out;
  const Usage run_start = usage_now();
  const Clock::time_point run_t0 = Clock::now();
  const std::uint64_t trial_seed = ds::util::derive_seed(cfg.seed, kTrialTag);

  // Set-up, several times over: scenario construction, the TCP listener,
  // three player connections, and a few warm-up trials.
  std::vector<double> setup_s;
  std::unique_ptr<ConnectivityYuHardScenario> scenario;
  std::unique_ptr<TrialLoop> trial_loop;
  std::size_t budget = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    trial_loop.reset();
    scenario.reset();
    const Clock::time_point t0 = Clock::now();
    scenario = std::make_unique<ConnectivityYuHardScenario>(kLevels, kWidth);
    budget = scenario->default_grid().budgets.back();
    trial_loop = std::make_unique<TrialLoop>(*scenario, budget);
    const Pass warm = trial_loop->run(
        ds::util::derive_seed(ds::util::derive_seed(cfg.seed, kWarmupTag),
                              static_cast<std::uint64_t>(r)),
        0.0, kWarmupTrials, nullptr);
    for (const WireTrial& t : warm.trials) {
      if (!t.ok) throw std::runtime_error("serve-yu-tcp: warm-up failed");
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  out.notes.push_back("scenario: " + std::string(scenario->description()));
  out.notes.push_back("shape: closed loop, 1 referee + " +
                      std::to_string(kPlayers) +
                      " player threads, " + std::to_string(kPlayers) +
                      " TCP connections, budget " +
                      std::to_string(budget) + " bits");

  if (!cfg.trace) {
    const Pass p = trial_loop->run(trial_seed, cfg.seconds, 0, nullptr);
    trial_loop.reset();
    out.attempted = p.trials.size();
    out.failed = check_against_sim(*scenario, budget, p.trials,
                                   cfg.pool_width);
    const std::vector<Window> windows = trial_windows(p);
    const std::vector<const Window*> kept = quiet_windows(windows);
    out.add("setup_s", median(setup_s), "s");
    out.add("ops_per_s", median_rate(kept), "ops/s");
    out.add("op_ms_p50", pooled_quantile(kept, 0.5), "ms");
    out.add("op_ms_p90", pooled_quantile(kept, 0.9), "ms");
    out.add("peak_rss_mb", usage_now().max_rss_mb, "MB");
    out.notes.push_back(std::to_string(p.trials.size()) + " trials timed");
    out.notes.push_back(quiet_note("trials", windows, kept));
    return out;
  }

  // Traced run.  Pass A: the untraced twin; then the first kExactTrials
  // trials again with obs metrics on, for the exact wire counts (read once
  // the pass has ended, so no later trial's traffic leaks in); pass B: the
  // trials of A with obs metrics on and the referee side decomposed into
  // spans, its players counting samples.
  const Pass a = trial_loop->run(trial_seed, cfg.seconds / 2, 0, nullptr);
  ds::obs::reset();
  ds::obs::set_metrics_enabled(true);
  const Pass e = trial_loop->run(trial_seed, 0.0, kExactTrials, nullptr);
  ds::obs::set_metrics_enabled(false);
  const ds::obs::Snapshot exact_snap = ds::obs::snapshot();
  trial_loop.reset();
  const CountingScenario counting(*scenario);
  trial_loop = std::make_unique<TrialLoop>(counting, budget);
  Tracer tracer;
  ds::obs::reset();
  ds::obs::set_metrics_enabled(true);
  const Pass b = trial_loop->run(trial_seed, 0.0, a.trials.size(), &tracer);
  ds::obs::set_metrics_enabled(false);
  const ds::obs::Snapshot snap = ds::obs::snapshot();
  trial_loop.reset();

  out.attempted = a.trials.size() + e.trials.size() + b.trials.size();
  out.failed = check_against_sim(*scenario, budget, a.trials, cfg.pool_width) +
               check_against_sim(*scenario, budget, e.trials, cfg.pool_width) +
               check_against_sim(*scenario, budget, b.trials, cfg.pool_width);

  // Simulated decompositions of the first trials: the engine layers on
  // the Yu instance, with the same hash check.
  ds::parallel::ThreadPool pool(cfg.pool_width);
  std::size_t bits_max = 0;
  std::size_t bits_total = 0;
  double payload_mb = 0.0;
  for (std::size_t k = 0; k < kSimTrials; ++k) {
    const std::uint64_t seed = ds::util::derive_seed(trial_seed, k);
    const DecomposedTrial d =
        decomposed_trial(*scenario, budget, seed, &pool, &tracer,
                         "sim.trial");
    const ds::scenario::Scenario& s = *scenario;
    const TrialOutcome want = s.run_trial(budget, seed, &pool, nullptr);
    ++out.attempted;
    if (d.outcome.output_hash != want.output_hash ||
        d.outcome.max_bits != want.max_bits) {
      ++out.failed;
    }
    bits_max = std::max(bits_max, d.outcome.max_bits);
    bits_total += d.total_bits;
    payload_mb += static_cast<double>(d.total_bits) / 8e6;
  }

  // Serial per-vertex AGM encode on the first instances.
  double encode_us = 0.0;
  std::size_t encodes = 0;
  std::size_t encoded_bits = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t seed = ds::util::derive_seed(trial_seed, k);
    const ds::scenario::Instance inst = scenario->sample(seed);
    const auto protocol = scenario->make_protocol(budget);
    const ds::model::PublicCoins coins = ds::scenario::trial_coins(seed);
    const Clock::time_point t0 = Clock::now();
    for (ds::graph::Vertex v = 0; v < inst.g.num_vertices(); ++v) {
      ds::util::BitWriter w;
      protocol->encode({inst.g.num_vertices(), v, inst.g.neighbors(v), &coins},
                       w);
      encoded_bits += w.bit_count();
      ++encodes;
    }
    encode_us += ms_since(t0) * 1e3;
  }
  out.notes.push_back("serial AGM encode: " + std::to_string(encodes) +
                      " vertices, " + std::to_string(encoded_bits) + " bits");

  const double n_b = static_cast<double>(b.trials.size());
  const double exact_n = static_cast<double>(kExactTrials);
  const double exact_bytes = counter_value(exact_snap, "wire.tcp.bytes_sent");
  const double transport_bytes = exact_bytes / exact_n;
  const double collect_ms = histogram_mean(snap, "service.collect_us") / 1e3;

  out.add("scenario.sample_ms", tracer.mean_self_ms("scenario.sample"), "ms");
  out.add("scenario.samples_per_instance",
          static_cast<double>(counting.samples()) / n_b, "count");
  out.add("scenario.judge_ms", tracer.mean_self_ms("scenario.judge"), "ms");
  out.add("engine.collect_ms", tracer.mean_self_ms("engine.collect"), "ms");
  out.add("engine.decode_ms", tracer.mean_self_ms("engine.decode"), "ms");
  out.add("engine.encode_mb_per_s",
          encode_rate(payload_mb / static_cast<double>(kSimTrials), tracer),
          "MB/s");
  out.add("engine.sketch_bits_max", static_cast<double>(bits_max), "bits");
  out.add("engine.sketch_bits_total", static_cast<double>(bits_total), "bits");
  out.add("sketch.agm_encode_us",
          encodes > 0 ? encode_us / static_cast<double>(encodes) : 0.0, "us");
  out.add("parallel.busy_ratio",
          busy_ratio(a.start, a.end, a.wall_s, 1 + kPlayers), "fraction");
  out.add("parallel.jobs", counter_value(snap, "parallel.jobs") / n_b,
          "count/op");
  out.add("parallel.inline_loops",
          counter_value(snap, "parallel.inline_loops") / n_b, "count/op");
  out.add("parallel.queue_wait_us",
          histogram_mean(snap, "parallel.queue_wait_us"), "us");
  out.add("service.player_ms", tracer.mean_self_ms("service.player"), "ms");
  out.add("service.collect_ms", collect_ms, "ms");
  out.add("service.decode_ms", histogram_mean(snap, "service.decode_us") / 1e3,
          "ms");
  out.add("service.reply_ms", histogram_mean(snap, "service.reply_us") / 1e3,
          "ms");
  out.add("wire.transport_bytes_per_trial", transport_bytes, "bytes");
  const double payload_bits =
      counter_value(exact_snap, "service.payload_bits");
  out.add("wire.framing_bits_per_trial",
          (8.0 * exact_bytes - payload_bits) / exact_n, "bits");
  out.add("wire.messages_per_trial",
          counter_value(exact_snap, "wire.tcp.messages_sent") / exact_n,
          "count");
  out.add("wire.mb_per_s",
          collect_ms > 0 ? transport_bytes / 1e6 / (collect_ms / 1e3) : 0.0,
          "MB/s");
  out.add("service.rejects", counter_prefix_sum(snap, "service.reject."),
          "count");
  out.add("service.deadline_misses",
          counter_value(snap, "service.deadline_misses"), "count");
  out.add("wire.recv_timeouts", counter_value(snap, "wire.tcp.recv_timeouts"),
          "count");
  out.add("other_ms", tracer.mean_self_ms("trial"), "ms");
  out.add("trace.overhead", b.wall_s / a.wall_s - 1.0, "fraction");
  add_proc_metrics(out, run_start, usage_now(), ms_since(run_t0) / 1e3);

  for (const char* name :
       {"engine.sketch_bits_max", "engine.sketch_bits_total",
        "wire.transport_bytes_per_trial", "wire.framing_bits_per_trial",
        "wire.messages_per_trial"}) {
    for (const Metric& m : out.metrics) {
      if (m.name == name) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", m.value);
        out.exact.push_back({name, buf});
      }
    }
  }
  emit_trace_artifacts(tracer, cfg, out);
  return out;
}

}  // namespace perfbench
