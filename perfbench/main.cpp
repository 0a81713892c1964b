// The repo benchmark's measuring binary.
//
//   perfbench --workload <sweep-dmm|serve-yu-tcp|ingest-rmat> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a fingerprint line, notes, and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics with obs metrics off; --trace 1 is the
// separate traced run that reports the per-layer metrics and writes the
// Chrome trace and self-time table under --out-dir.  Exits nonzero when
// any correctness check fails.  perfbench/run.py builds and drives it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "obs/obs.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// A timing from an unoptimised or sanitised build measures a different
// program; such a build refuses to run.
#if !defined(__OPTIMIZE__)
constexpr const char* kUntimeableBuild = "compiled without optimisation";
#elif defined(__SANITIZE_ADDRESS__)
constexpr const char* kUntimeableBuild = "compiled with AddressSanitizer";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kUntimeableBuild = "compiled with ThreadSanitizer";
#else
constexpr const char* kUntimeableBuild = nullptr;
#endif

/// Every per-layer metric and its unit.  A traced run reports all of
/// them; a layer the workload does not reach reads 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"scenario.sample_ms", "ms"},
    {"scenario.samples_per_instance", "count"},
    {"scenario.judge_ms", "ms"},
    {"engine.collect_ms", "ms"},
    {"engine.decode_ms", "ms"},
    {"engine.encode_mb_per_s", "MB/s"},
    {"engine.sketch_bits_max", "bits"},
    {"engine.sketch_bits_total", "bits"},
    {"sketch.agm_encode_us", "us"},
    {"sketch.update_ns", "ns"},
    {"parallel.busy_ratio", "fraction"},
    {"parallel.speedup", "x"},
    {"parallel.jobs", "count/op"},
    {"parallel.inline_loops", "count/op"},
    {"parallel.queue_wait_us", "us"},
    {"service.player_ms", "ms"},
    {"service.collect_ms", "ms"},
    {"service.decode_ms", "ms"},
    {"service.reply_ms", "ms"},
    {"wire.transport_bytes_per_trial", "bytes"},
    {"wire.framing_bits_per_trial", "bits"},
    {"wire.messages_per_trial", "count"},
    {"wire.mb_per_s", "MB/s"},
    {"service.rejects", "count"},
    {"service.deadline_misses", "count"},
    {"wire.recv_timeouts", "count"},
    {"streamio.generate_ms", "ms"},
    {"stream.apply_ms", "ms"},
    {"stream.snapshot_copy_ms", "ms"},
    {"stream.query_ms", "ms"},
    {"stream.state_mb", "MB"},
    {"stream.queried_updates_per_s", "updates/s"},
    {"proc.ctx_switches_invol", "1/s"},
    {"proc.ctx_switches_vol", "1/s"},
    {"proc.steal_ratio", "fraction"},
    {"error_rate", "fraction"},
    {"other_ms", "ms"},
    {"trace.overhead", "fraction"},
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <sweep-dmm|serve-yu-tcp|"
               "ingest-rmat> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  std::exit(2);
}

[[nodiscard]] RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  try {
    cfg.workload = args.at("workload");
    cfg.seed = std::stoull(args.at("seed"));
    cfg.seconds = std::stod(args.at("seconds"));
    cfg.trace = std::stoi(args.at("trace")) != 0;
  } catch (const std::exception&) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    usage_error("--seconds must lie in (0, 600]");
  }
  cfg.out_dir = args.count("out-dir") != 0 ? args["out-dir"] : ".";
  cfg.pool_width = std::max(1u, std::thread::hardware_concurrency());
  return cfg;
}

[[nodiscard]] std::string read_first_line(const std::string& path,
                                          const std::string& prefix) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      std::string value =
          colon == std::string::npos ? line : line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "unknown";
}

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_fingerprint(const RunConfig& cfg) {
  std::ostringstream o;
  o << "{\"fingerprint\":{\"workload\":" << json_string(cfg.workload)
    << ",\"seed\":" << cfg.seed << ",\"seconds\":" << number(cfg.seconds)
    << ",\"trace\":" << (cfg.trace ? 1 : 0)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"pool_width\":" << cfg.pool_width << ",\"cpu_model\":"
    << json_string(read_first_line("/proc/cpuinfo", "model name"))
    << ",\"l3\":"
    << json_string(read_first_line(
           "/sys/devices/system/cpu/cpu0/cache/index3/size", ""))
    << ",\"compiler\":" << json_string(__VERSION__)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << "}}";
  std::cout << o.str() << "\n";
}

void print_result(const RunConfig& cfg, RunResult& r, const Usage& end) {
  if (cfg.trace) {
    const double rate = r.attempted == 0
                            ? 1.0
                            : static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted);
    r.add("error_rate", rate, "fraction");
    for (const auto& [name, unit] : kPerLayer) {
      bool present = false;
      for (const Metric& m : r.metrics) present = present || m.name == name;
      if (!present) r.add(name, 0.0, unit);
    }
  }
  for (const std::string& note : r.notes) std::cout << "# " << note << "\n";
  std::ostringstream usage;
  usage << "{\"usage\":{\"max_rss_mb\":" << number(end.max_rss_mb)
        << ",\"cpu_s\":" << number(end.cpu_s)
        << ",\"ctx_switches_vol\":" << end.vol_switches
        << ",\"ctx_switches_invol\":" << end.invol_switches << "}}";
  std::cout << usage.str() << "\n";
  if (!r.exact.empty()) {
    std::cout << "{\"exact\":{";
    for (std::size_t i = 0; i < r.exact.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << json_string(r.exact[i].first)
                << ":" << json_string(r.exact[i].second);
    }
    std::cout << "}}\n";
  }
  std::cout << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i == 0 ? "" : ",") << json_string(m.name)
              << ":{\"value\":" << number(m.value)
              << ",\"unit\":" << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig cfg = parse_args(argc, argv);
  if (kUntimeableBuild != nullptr) {
    std::cerr << "perfbench: refusing to time a build " << kUntimeableBuild
              << "\n";
    return 3;
  }
  // Keep freed memory in the heap for the whole run.  By default glibc
  // hands freed sketch state (hundreds of MB per ingest pass) back to the
  // kernel, and the next pass faults it in again; in a VM whose freed
  // pages go back to the hypervisor, the cost of those faults follows the
  // host's load, not the program.  Allocations up to 32 MB come from the
  // heap, so they are kept too.
  mallopt(M_TRIM_THRESHOLD, -1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ds::obs::set_metrics_enabled(false);
  ds::obs::set_trace_enabled(false);
  print_fingerprint(cfg);

  RunResult result;
  try {
    if (cfg.workload == "sweep-dmm") {
      result = run_sweep_dmm(cfg);
    } else if (cfg.workload == "serve-yu-tcp") {
      result = run_serve_yu_tcp(cfg);
    } else if (cfg.workload == "ingest-rmat") {
      result = run_ingest_rmat(cfg);
    } else {
      usage_error("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "perfbench: " << cfg.workload << " attempted nothing\n";
    return 1;
  }
  print_result(cfg, result, usage_now());
  return result.failed == 0 ? 0 : 1;
}
