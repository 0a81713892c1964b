#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::size_t Tracer::open(const char* name, std::uint64_t id,
                         std::size_t parent) {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, parent, now, now, thread_tag()});
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(span).end_ns = now;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<double> Tracer::child_ms_locked() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return child;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> child = child_ms_locked();
  std::map<std::string, SelfTime> table;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    SelfTime& row = table[s.name];
    ++row.count;
    row.total_ms += dur;
    row.self_ms += dur - child[i];
  }
  return table;
}

double Tracer::mean_self_ms(const char* name) const {
  const std::map<std::string, SelfTime> table = self_times();
  const auto it = table.find(name);
  if (it == table.end() || it->second.count == 0) return 0.0;
  return it->second.self_ms / static_cast<double>(it->second.count);
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"id\":\"%016" PRIx64 "\"}}\n",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  parent, s.id);
    out << line;
  }
  out << "]}\n";
}

void emit_trace_artifacts(const Tracer& tracer, const RunConfig& cfg,
                          RunResult& out) {
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);
  tracer.write_chrome_json(stem + ".trace.json");

  std::ostringstream table;
  table << "span\tcount\ttotal_ms\tself_ms\tself_ms_per_span\n";
  for (const auto& [name, row] : tracer.self_times()) {
    char line[256];
    std::snprintf(line, sizeof line, "%s\t%" PRIu64 "\t%.3f\t%.3f\t%.4f\n",
                  name.c_str(), row.count, row.total_ms, row.self_ms,
                  row.self_ms / static_cast<double>(row.count));
    table << line;
  }
  std::ofstream file(stem + ".selftime.tsv");
  file << table.str();
  out.notes.push_back("self-time table (" + std::to_string(tracer.size()) +
                      " spans; trace written to " + stem + ".trace.json):");
  std::istringstream rows(table.str());
  for (std::string row; std::getline(rows, row);) {
    out.notes.push_back("  " + row);
  }
}

}  // namespace perfbench
