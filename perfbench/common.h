// Shared plumbing for the benchmark workloads: run configuration, the
// result record every workload returns, clocks, order statistics, and the
// getrusage readings.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;         // traced-run artifacts land here
  std::size_t pool_width = 1;  // nproc
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `exact` holds the counts that must
/// repeat bit for bit on the same seed (the schema self-test compares
/// them across two runs); `notes` are human-readable lines.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> exact;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// One measuring window of a run: the operations it completed, its wall,
/// the hypervisor steal (seconds per CPU) that fell inside it, and its
/// operations' latencies.
struct Window {
  double ops = 0.0;
  double wall_s = 0.0;
  double steal_s = 0.0;
  std::vector<double> latency_ms;
};

/// Share of a window's wall the hypervisor may take from this machine's
/// CPUs before the window counts as disturbed by other tenants.
inline constexpr double kQuietSteal = 0.02;

/// The windows a run's figures come from: every window whose steal stays
/// within kQuietSteal of its wall, or, when fewer than half are that
/// quiet, the quieter half.  Steal on a shared host comes in bursts of
/// seconds that slow a closed loop far more than their share of the wall;
/// the figures describe the program, not its neighbours.
[[nodiscard]] inline std::vector<const Window*> quiet_windows(
    const std::vector<Window>& all) {
  std::vector<const Window*> sorted;
  for (const Window& w : all) sorted.push_back(&w);
  const auto ratio = [](const Window* w) {
    return w->wall_s > 0.0 ? w->steal_s / w->wall_s : 0.0;
  };
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const Window* x, const Window* y) {
                     return ratio(x) < ratio(y);
                   });
  std::size_t keep = (sorted.size() + 1) / 2;
  while (keep < sorted.size() && ratio(sorted[keep]) <= kQuietSteal) ++keep;
  sorted.resize(keep);
  return sorted;
}

/// Median of the windows' rates (operations per second of wall).
[[nodiscard]] inline double median_rate(
    const std::vector<const Window*>& windows) {
  std::vector<double> rates;
  for (const Window* w : windows) rates.push_back(w->ops / w->wall_s);
  return median(std::move(rates));
}

/// Quantile of the windows' latencies, pooled.
[[nodiscard]] inline double pooled_quantile(
    const std::vector<const Window*>& windows, double q) {
  std::vector<double> all;
  for (const Window* w : windows) {
    all.insert(all.end(), w->latency_ms.begin(), w->latency_ms.end());
  }
  return quantile(std::move(all), q);
}

/// "K of N windows kept" note, with the steal share over all of them.
[[nodiscard]] inline std::string quiet_note(
    const char* what, const std::vector<Window>& all,
    const std::vector<const Window*>& kept) {
  double wall = 0.0;
  double steal = 0.0;
  for (const Window& w : all) {
    wall += w.wall_s;
    steal += w.steal_s;
  }
  std::vector<double> rates;
  for (const Window* w : kept) rates.push_back(w->ops / w->wall_s);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: %zu of %zu windows kept (host steal <= %.0f%%); "
                "steal over all windows %.1f%% of wall; kept rates "
                "min %.4g, median %.4g, max %.4g per s",
                what, kept.size(), all.size(), kQuietSteal * 100,
                wall > 0.0 ? steal / wall * 100 : 0.0, quantile(rates, 0.0),
                quantile(rates, 0.5), quantile(rates, 1.0));
  return buf;
}

/// Readers over an obs snapshot taken after a traced pass.
[[nodiscard]] inline double counter_value(const ds::obs::Snapshot& snap,
                                          std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}
[[nodiscard]] inline double counter_prefix_sum(const ds::obs::Snapshot& snap,
                                               std::string_view prefix) {
  double sum = 0.0;
  for (const auto& c : snap.counters) {
    if (c.name.rfind(prefix, 0) == 0) sum += static_cast<double>(c.value);
  }
  return sum;
}
/// Mean recorded value, in the histogram's own unit; 0 when empty.
[[nodiscard]] inline double histogram_mean(const ds::obs::Snapshot& snap,
                                           std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name && h.count > 0) {
      return static_cast<double>(h.sum) / static_cast<double>(h.count);
    }
  }
  return 0.0;
}

/// getrusage(RUSAGE_SELF) readings the records carry.
struct Usage {
  double cpu_s = 0.0;  // user + system
  double max_rss_mb = 0.0;
  long vol_switches = 0;
  long invol_switches = 0;
  /// Host-wide hypervisor steal, seconds per CPU (/proc/stat), since boot.
  double steal_s = 0.0;
};

/// Time the hypervisor kept this machine's CPUs from running, in seconds
/// averaged over the CPUs; 0 where /proc/stat has no steal column.
[[nodiscard]] inline double steal_seconds_per_cpu() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (got < 8 || hz <= 0 || cpus <= 0) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(hz) /
         static_cast<double>(cpus);
}

[[nodiscard]] inline Usage usage_now() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  // ru_maxrss is in kilobytes on Linux.
  return {secs(r.ru_utime) + secs(r.ru_stime),
          static_cast<double>(r.ru_maxrss) / 1024.0, r.ru_nvcsw,
          r.ru_nivcsw, steal_seconds_per_cpu()};
}

/// The per-layer host diagnostics every traced run reports: context
/// switches per second of the run, and the share of the run's wall the
/// hypervisor kept the CPUs from running (other tenants' load).
inline void add_proc_metrics(RunResult& out, const Usage& start,
                             const Usage& end, double wall_s) {
  const double w = wall_s > 0.0 ? wall_s : 1.0;
  out.add("proc.ctx_switches_vol",
          static_cast<double>(end.vol_switches - start.vol_switches) / w,
          "1/s");
  out.add("proc.ctx_switches_invol",
          static_cast<double>(end.invol_switches - start.invol_switches) / w,
          "1/s");
  out.add("proc.steal_ratio", (end.steal_s - start.steal_s) / w, "fraction");
}

/// (user + sys CPU) / (wall * lanes) between two readings.
[[nodiscard]] inline double busy_ratio(const Usage& start, const Usage& end,
                                       double wall_s, std::size_t lanes) {
  if (wall_s <= 0.0 || lanes == 0) return 0.0;
  return (end.cpu_s - start.cpu_s) / (wall_s * static_cast<double>(lanes));
}

RunResult run_sweep_dmm(const RunConfig& cfg);
RunResult run_serve_yu_tcp(const RunConfig& cfg);
RunResult run_ingest_rmat(const RunConfig& cfg);

}  // namespace perfbench
