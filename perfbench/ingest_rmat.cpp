// ingest-rmat: one R-MAT turnstile stream (GeneratorStream, n = 2^18,
// 1M inserted edges, 15% re-deleted) drained by streamio::ingest on a pool
// of nproc lanes into DynamicConnectivity with rounds = 2, each pass into
// fresh state.  A cycle is one pass that takes a component snapshot every
// 2^18 updates and then kWritePasses write-only passes; cycles repeat
// until the run's time is spent.  The only workload through
// stream/streamio; the sketch state (~451 MB) exceeds the L3.  Its
// figures are the write-only update rate and the snapshot decode time, so
// a snapshot change shows in the decode time and the peak RSS, and its
// tax on writes in the snapshot passes' update rate (per layer).
//
// The timed snapshot passes decode inline on the driver thread, with the
// pool idle: a background decode beside nproc busy lanes would time the
// scheduler's share of the cores, not the decode.  The traced run's
// snapshot pass keeps the background decode, so the per-layer update rate
// beside snapshots is the one a user of ingest() sees.
#include <cstdio>
#include <memory>

#include "common.h"
#include "obs/obs.h"
#include "stream/dynamic_stream.h"
#include "streamio/generator_stream.h"
#include "streamio/ingestor.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using ds::stream::DynamicConnectivity;
using ds::streamio::GeneratorConfig;
using ds::streamio::GeneratorStream;
using ds::streamio::IngestOptions;
using ds::streamio::IngestReport;

constexpr ds::graph::Vertex kN = ds::graph::Vertex{1} << 18;
constexpr std::uint64_t kEdges = 1'000'000;
constexpr double kDeleteFraction = 0.15;
constexpr unsigned kRounds = 2;
constexpr std::uint64_t kQueryInterval = std::uint64_t{1} << 18;
constexpr std::size_t kUpdateSample = std::size_t{1} << 16;
constexpr int kSetupReps = 9;
constexpr std::size_t kWritePasses = 2;  // write-only passes per cycle
constexpr std::size_t kWindowBatches = 6;  // batches per write window
constexpr std::uint64_t kWarmupEdges = std::uint64_t{1} << 16;
constexpr std::uint64_t kStreamTag = 0x57E;
constexpr std::uint64_t kSketchTag = 0x5EE;

/// One next_batch call: when it began, the host steal (seconds per CPU)
/// then, and the updates it returned.
struct BatchMark {
  Clock::time_point enter;
  double steal_s = 0.0;
  std::size_t updates = 0;
};

/// Forwards to a GeneratorStream and times how long each next_batch call
/// takes (generation).  Every call is also marked with its start, the
/// host steal then, and the updates it returned, so a pass can be cut
/// into windows of batches.  With a tracer, every next_batch call is a
/// span.
class TimedSource final : public ds::streamio::UpdateSource {
 public:
  TimedSource(const GeneratorConfig& config, Tracer* tracer,
              std::size_t parent)
      : inner_(config), tracer_(tracer), parent_(parent) {}

  [[nodiscard]] ds::graph::Vertex num_vertices() const noexcept override {
    return inner_.num_vertices();
  }
  [[nodiscard]] std::size_t next_batch(
      std::span<ds::stream::EdgeUpdate> out) override {
    const Clock::time_point enter = Clock::now();
    marks_.push_back({enter, steal_seconds_per_cpu(), 0});
    std::size_t got = 0;
    {
      const ScopedSpan span(tracer_, "streamio.generate", 0, parent_);
      got = inner_.next_batch(out);
    }
    marks_.back().updates = got;
    generate_ms_ += ms_since(enter);
    return got;
  }
  [[nodiscard]] ds::streamio::ReadStatus status() const noexcept override {
    return inner_.status();
  }

  [[nodiscard]] double generate_ms() const noexcept { return generate_ms_; }
  [[nodiscard]] const std::vector<BatchMark>& marks() const noexcept {
    return marks_;
  }

 private:
  GeneratorStream inner_;
  Tracer* tracer_;
  std::size_t parent_;
  double generate_ms_ = 0.0;
  std::vector<BatchMark> marks_;
};

struct Pass {
  IngestReport report;
  std::uint64_t state_hash = 0;
  double generate_ms = 0.0;
  std::vector<BatchMark> marks;
  Usage start, end;
};

struct Stream {
  GeneratorConfig config;
  std::uint64_t sketch_seed = 0;
};

/// One pass into fresh state.  The state is allocated before the clock
/// starts; `keep` (if given) receives the final state.  Snapshots (if
/// `query_interval` is nonzero) decode in the background unless
/// `inline_decode`.
[[nodiscard]] Pass ingest_pass(const Stream& s,
                               ds::parallel::ThreadPool* pool,
                               std::uint64_t query_interval, Tracer* tracer,
                               std::unique_ptr<DynamicConnectivity>* keep =
                                   nullptr,
                               bool inline_decode = false) {
  auto state =
      std::make_unique<DynamicConnectivity>(kN, s.sketch_seed, kRounds);
  Pass p;
  const ScopedSpan root(tracer, "pass", 0);
  {
    const ScopedSpan span(tracer, "streamio.ingest", 0, root.handle());
    TimedSource source(s.config, tracer, span.handle());
    IngestOptions options;
    options.pool = pool;
    options.query_interval = query_interval;
    options.async_queries = !inline_decode;
    p.start = usage_now();
    p.report = ds::streamio::ingest(source, *state, options);
    p.end = usage_now();
    p.generate_ms = source.generate_ms();
    p.marks = source.marks();
  }
  {
    const ScopedSpan span(tracer, "stream.state_hash", 0, root.handle());
    p.state_hash = state->state_hash();
  }
  if (keep != nullptr) *keep = std::move(state);
  return p;
}

/// The serial DynamicConnectivity::apply reference state's hash.
[[nodiscard]] std::uint64_t reference_hash(const Stream& s) {
  DynamicConnectivity state(kN, s.sketch_seed, kRounds);
  GeneratorStream source(s.config);
  std::vector<ds::stream::EdgeUpdate> batch(std::size_t{1} << 16);
  for (std::size_t got; (got = source.next_batch(batch)) > 0;) {
    for (std::size_t i = 0; i < got; ++i) state.apply(batch[i]);
  }
  return state.state_hash();
}

/// Checks one pass against the reference; returns its failed updates.
[[nodiscard]] std::uint64_t pass_failures(const Pass& p,
                                          std::uint64_t want_hash) {
  const bool ok = p.report.status == ds::streamio::ReadStatus::kEnd &&
                  p.state_hash == want_hash;
  return ok ? 0 : p.report.updates;
}

[[nodiscard]] std::vector<std::uint32_t> components(const Pass& p) {
  std::vector<std::uint32_t> c;
  for (const auto& snap : p.report.snapshots) c.push_back(snap.components);
  return c;
}

/// A write-only pass cut into windows of kWindowBatches consecutive
/// batches, each timed from the start of its first next_batch call to the
/// start of the call after its last; a trailing short window joins the
/// one before it.
[[nodiscard]] std::vector<Window> batch_windows(const Pass& p) {
  const std::vector<BatchMark>& m = p.marks;
  // The last mark is the closing call that returned no updates.
  const std::size_t batches = m.empty() ? 0 : m.size() - 1;
  std::vector<Window> windows;
  for (std::size_t lo = 0; lo < batches;) {
    std::size_t hi = lo + kWindowBatches;
    if (hi + kWindowBatches > batches) hi = batches;
    Window w;
    for (std::size_t k = lo; k < hi; ++k) {
      w.ops += static_cast<double>(m[k].updates);
    }
    w.wall_s = ms_between(m[lo].enter, m[hi].enter) / 1e3;
    w.steal_s = m[hi].steal_s - m[lo].steal_s;
    windows.push_back(std::move(w));
    lo = hi;
  }
  return windows;
}

}  // namespace

RunResult run_ingest_rmat(const RunConfig& cfg) {
  RunResult out;
  const Usage run_start = usage_now();
  const Clock::time_point run_t0 = Clock::now();

  Stream s;
  s.config.family = ds::streamio::Family::kRmat;
  s.config.n = kN;
  s.config.edges = kEdges;
  s.config.delete_fraction = kDeleteFraction;
  s.config.seed = ds::util::derive_seed(cfg.seed, kStreamTag);
  s.sketch_seed = ds::util::derive_seed(cfg.seed, kSketchTag);

  // Set-up, several times over: pool start, stream construction, the
  // sketch-state allocation, and a short warm-up ingest.
  std::vector<double> setup_s;
  std::unique_ptr<ds::parallel::ThreadPool> pool;
  for (int r = 0; r < kSetupReps; ++r) {
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    pool = std::make_unique<ds::parallel::ThreadPool>(cfg.pool_width);
    GeneratorConfig warm = s.config;
    warm.edges = kWarmupEdges;
    GeneratorStream source(warm);
    DynamicConnectivity state(kN, s.sketch_seed, kRounds);
    IngestOptions options;
    options.pool = pool.get();
    (void)ds::streamio::ingest(source, state, options);
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  // The serial reference, once per invocation, outside the timed region.
  const std::uint64_t want_hash = reference_hash(s);
  out.notes.push_back("shape: closed batch, n=" + std::to_string(kN) +
                      ", " + std::to_string(kEdges) +
                      " inserted edges, rounds=" + std::to_string(kRounds) +
                      ", pool width " + std::to_string(pool->num_threads()));
  char hash_text[32];
  std::snprintf(hash_text, sizeof hash_text, "%016llx",
                static_cast<unsigned long long>(want_hash));
  out.exact.push_back({"stream.state_hash", hash_text});

  if (!cfg.trace) {
    std::vector<Window> write_windows;  // kWindowBatches batches each
    std::vector<double> decode_ms;      // every snapshot of the run
    std::vector<std::uint32_t> want_components;
    // One untimed write-only pass first, checked like the others: the
    // first write-only pass of a process could run at half the rate of
    // the later ones, with no steal to mark it.
    {
      const Pass w = ingest_pass(s, pool.get(), 0, nullptr);
      out.attempted += w.report.updates;
      out.failed += pass_failures(w, want_hash);
    }
    std::size_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    // At least two snapshot passes, however short the run.
    for (; passes < kWritePasses + 2 || ms_since(t0) < cfg.seconds * 1e3;
         ++passes) {
      if (passes % (kWritePasses + 1) != 0) {
        const Pass w = ingest_pass(s, pool.get(), 0, nullptr);
        for (Window& win : batch_windows(w)) {
          write_windows.push_back(std::move(win));
        }
        out.attempted += w.report.updates;
        out.failed += pass_failures(w, want_hash);
        continue;
      }
      const Pass q = ingest_pass(s, pool.get(), kQueryInterval, nullptr,
                                 nullptr, true);
      for (const auto& snap : q.report.snapshots) {
        decode_ms.push_back(snap.decode_ms);
      }
      out.attempted += q.report.updates;
      out.failed += pass_failures(q, want_hash);
      // Every pass snapshots at the same stream positions, so the
      // component counts must repeat.
      if (passes == 0) want_components = components(q);
      if (components(q) != want_components || want_components.empty()) {
        out.failed += q.report.updates;
      }
    }
    out.add("setup_s", median(setup_s), "s");
    const std::vector<const Window*> writes = quiet_windows(write_windows);
    out.add("ops_per_s", median_rate(writes), "ops/s");
    out.add("op_ms_p50", quantile(decode_ms, 0.5), "ms");
    out.add("op_ms_p90", quantile(decode_ms, 0.9), "ms");
    out.add("peak_rss_mb", usage_now().max_rss_mb, "MB");
    out.notes.push_back(std::to_string(passes) + " passes");
    out.notes.push_back(quiet_note("write-only passes", write_windows,
                                   writes));
    out.notes.push_back(std::to_string(decode_ms.size()) +
                        " snapshots decoded inline");
    return out;
  }

  // Traced run.  Pass A: the untraced write-only twin; pass B: the same
  // pass with obs metrics on and spans around each layer call; then the
  // 1-thread-pool twin, one snapshot pass, and the layer probes on the
  // live state pass B leaves behind.
  const Pass a = ingest_pass(s, pool.get(), 0, nullptr);
  Tracer tracer;
  ds::obs::reset();
  ds::obs::set_metrics_enabled(true);
  std::unique_ptr<DynamicConnectivity> live;
  const Pass b = ingest_pass(s, pool.get(), 0, &tracer, &live);
  ds::obs::set_metrics_enabled(false);
  const ds::obs::Snapshot snap = ds::obs::snapshot();
  const Pass q = ingest_pass(s, pool.get(), kQueryInterval, nullptr);
  ds::parallel::ThreadPool one(1);
  const Pass serial = ingest_pass(s, &one, 0, nullptr);
  out.attempted = a.report.updates + b.report.updates + q.report.updates +
                  serial.report.updates;
  out.failed = pass_failures(a, want_hash) + pass_failures(b, want_hash) +
               pass_failures(q, want_hash) + pass_failures(serial, want_hash);

  std::vector<double> copy_ms;
  double query_ms = 0.0;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point c0 = Clock::now();
    std::unique_ptr<DynamicConnectivity> copy;
    {
      const ScopedSpan span(&tracer, "stream.snapshot_copy", 1);
      copy = std::make_unique<DynamicConnectivity>(*live);
    }
    copy_ms.push_back(ms_since(c0));
    if (r == 0) {
      const Clock::time_point q0 = Clock::now();
      std::uint32_t c = 0;
      {
        const ScopedSpan span(&tracer, "stream.query", 1);
        c = copy->query_components();
      }
      query_ms = ms_since(q0);
      out.notes.push_back("components at end of stream: " +
                          std::to_string(c));
    }
  }

  // Serial add_half_edge over the first updates of the stream.
  double update_ns = 0.0;
  {
    GeneratorStream source(s.config);
    std::vector<ds::stream::EdgeUpdate> sample(kUpdateSample);
    const std::size_t got = source.next_batch(sample);
    const ScopedSpan span(&tracer, "sketch.update", 2);
    const Clock::time_point u0 = Clock::now();
    for (std::size_t i = 0; i < got; ++i) {
      const ds::stream::EdgeUpdate& u = sample[i];
      const std::int64_t scale = u.insert ? 1 : -1;
      live->add_half_edge(u.edge.u, u.edge.v, scale);
      live->add_half_edge(u.edge.v, u.edge.u, scale);
    }
    update_ns = ms_since(u0) * 1e6 / static_cast<double>(2 * got);
  }

  const double batches = static_cast<double>(b.report.batches);
  const double state_mb = static_cast<double>(live->state_bits()) / 8e6;
  double decode_ms_total = 0.0;
  for (const auto& sq : q.report.snapshots) decode_ms_total += sq.decode_ms;
  out.add("streamio.generate_ms", b.generate_ms, "ms");
  out.add("stream.apply_ms", b.report.wall_ms - b.generate_ms, "ms");
  out.add("stream.snapshot_copy_ms", median(copy_ms), "ms");
  out.add("stream.query_ms", query_ms, "ms");
  out.add("stream.state_mb", state_mb, "MB");
  out.add("stream.queried_updates_per_s", q.report.updates_per_sec(),
          "updates/s");
  out.add("sketch.update_ns", update_ns, "ns");
  out.add("parallel.busy_ratio",
          busy_ratio(a.start, a.end, a.report.wall_ms / 1e3,
                     pool->num_threads()),
          "fraction");
  out.add("parallel.speedup", serial.report.wall_ms / a.report.wall_ms, "x");
  out.add("parallel.jobs", counter_value(snap, "parallel.jobs") / batches,
          "count/op");
  out.add("parallel.inline_loops",
          counter_value(snap, "parallel.inline_loops") / batches, "count/op");
  out.add("parallel.queue_wait_us",
          histogram_mean(snap, "parallel.queue_wait_us"), "us");
  out.add("other_ms", tracer.mean_self_ms("pass"), "ms");
  out.add("trace.overhead", b.report.wall_ms / a.report.wall_ms - 1.0,
          "fraction");
  add_proc_metrics(out, run_start, usage_now(), ms_since(run_t0) / 1e3);
  char mb_text[32];
  std::snprintf(mb_text, sizeof mb_text, "%.6f", state_mb);
  out.exact.push_back({"stream.state_mb", mb_text});
  out.notes.push_back("snapshot pass: " +
                      std::to_string(q.report.snapshots.size()) +
                      " snapshots, decode " +
                      std::to_string(decode_ms_total) + " ms in all");
  emit_trace_artifacts(tracer, cfg, out);
  return out;
}

}  // namespace perfbench
