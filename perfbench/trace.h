// Span recorder for the traced runs.  Spans are recorded by the benchmark
// around its own calls into each layer (nothing inside the library is
// instrumented): name, start, end, parent, and the trial id every span of
// one trial shares.  They stay in memory and are written out when the run
// ends, as Chrome trace-event JSON and as a per-name self-time table.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

inline constexpr std::size_t kNoParent = SIZE_MAX;

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;  // trial id shared by one trial's spans
    std::size_t parent = kNoParent;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;
  };

  /// Self time of every span name: its spans' durations minus the part
  /// their child spans cover.
  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  Tracer();

  /// Open a span and return its handle (the parent argument of its
  /// children).  Thread-safe.
  [[nodiscard]] std::size_t open(const char* name, std::uint64_t id,
                                 std::size_t parent = kNoParent);
  void close(std::size_t span);

  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// Mean self time of the spans named `name` (for a trial's root span:
  /// the part of the trial no layer span covers); 0 when there are none.
  [[nodiscard]] double mean_self_ms(const char* name) const;

  /// Chrome trace-event JSON (complete "X" events), viewable in Perfetto.
  void write_chrome_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] std::vector<double> child_ms_locked() const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id,
             std::size_t parent = kNoParent)
      : tracer_(tracer),
        handle_(tracer != nullptr ? tracer->open(name, id, parent)
                                  : kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t handle() const noexcept { return handle_; }

 private:
  Tracer* tracer_;
  std::size_t handle_;
};

/// Print the self-time table as notes and write both artifacts under
/// cfg.out_dir.
void emit_trace_artifacts(const Tracer& tracer, const RunConfig& cfg,
                          RunResult& out);

}  // namespace perfbench
