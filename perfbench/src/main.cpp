// perfbench: drives the rollout service as shipped through one seeded
// workload, checks every output, and prints the workload's metrics.
//
// Usage (normally through perfbench/run.py, which builds this binary and
// passes the workload's parameters from perfbench/workloads.json):
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--fixture <checkpoint>] [--workdir <dir>] [--commit <id>]
//             [--param key=value ...]
//
// Output: a fingerprint line, one `metric <name> <value> <unit>` line per
// figure, and as the last line one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end set untraced, the
// per-layer set with --trace 1). Exits 1 when the output gate fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "exec/executor.hpp"
#include "util/simd.hpp"

extern char** environ;

using namespace perfbench;

namespace {

/// Every per-layer metric, in report order; a workload that does not
/// exercise a layer reports 0 for it.
const std::vector<Metric> kLayerMetrics = {
    {"ad.mlp_gflops", 0, "GFLOP/s"},
    {"ad.peak_gflops", 0, "GFLOP/s"},
    {"ad.backward_ms_per_step", 0, "ms"},
    {"ad.arena_hit_ratio", 0, "ratio"},
    {"graph.neighbor_ms_per_step", 0, "ms"},
    {"graph.edges_per_particle", 0, "count"},
    {"graph.reuse_ratio", 0, "ratio"},
    {"core.features_ms_per_step", 0, "ms"},
    {"core.gns_forward_ms_per_step", 0, "ms"},
    {"core.integrate_ms_per_step", 0, "ms"},
    {"core.rollout_steps_per_s", 0, "1/s"},
    {"core.batched_steps_per_s", 0, "1/s"},
    {"exec.busy_share", 0, "ratio"},
    {"exec.steal_ratio", 0, "ratio"},
    {"exec.sched_delay_us_p50", 0, "us"},
    {"exec.sched_delay_us_p90", 0, "us"},
    {"serve.queue_ms_p50", 0, "ms"},
    {"serve.queue_ms_p90", 0, "ms"},
    {"serve.batch_wait_ms_p50", 0, "ms"},
    {"serve.compute_ms_per_step_p50", 0, "ms"},
    {"serve.batch_size_mean", 0, "count"},
    {"store.hit_ratio", 0, "ratio"},
    {"store.joined_ratio", 0, "ratio"},
    {"store.lookup_us_p50", 0, "us"},
    {"store.append_ms_p50", 0, "ms"},
    {"net.unaccounted_ms_p50", 0, "ms"},
    {"net.phase_coverage", 0, "ratio"},
    {"net.serialize_us_p50", 0, "us"},
    {"net.chunk_gap_ms_p50", 0, "ms"},
    {"net.busy_refusals", 0, "count"},
    {"router.hop_ms_p50", 0, "ms"},
    {"router.placement_skew", 0, "ratio"},
    {"router.failovers", 0, "count"},
    {"loadgen.lag_p90_ms", 0, "ms"},
    {"loadgen.offered_rps", 0, "1/s"},
    {"trace.overhead_share", 0, "ratio"},
};

std::vector<Metric> canonical_layers(const std::vector<Metric>& measured) {
  std::vector<Metric> out = kLayerMetrics;
  for (Metric& m : out)
    for (const Metric& got : measured)
      if (got.name == m.name) m.value = got.value;
  return out;
}

/// Switches that change which code paths serve a request. The benchmark
/// measures the shipped defaults, so it refuses to run under any of them.
bool shipped_defaults_guard() {
  static const char* const kSwitches[] = {"GNS_FUSED", "GNS_ARENA",
                                          "GNS_SKIN", "GNS_SIMD", "GNS_EXEC"};
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e)
    for (const char* s : kSwitches)
      if (std::strncmp(*e, s, std::strlen(s)) == 0) {
        std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
        clean = false;
      }
  return clean;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--fixture <path>] [--workdir <dir>] "
               "[--commit <id>] [--param key=value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--fixture") opt.fixture = value;
    else if (key == "--workdir") opt.workdir = value;
    else if (key == "--commit") commit = value;
    else if (key == "--param") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) return usage();
      opt.params.values[value.substr(0, eq)] = std::atof(value.c_str() + eq + 1);
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return usage();
  if (!shipped_defaults_guard()) return 2;

  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu\": \"%s\", \"avx2\": %s, "
      "\"executor_workers\": %d, \"commit\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      gns::simd::cpu_has_avx2() ? "true" : "false",
      gns::exec::default_workers(), json_escape(commit).c_str(),
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Result r;
  std::filesystem::create_directories(opt.workdir);
  try {
    r = run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(opt.workdir);
    return 1;
  }
  std::filesystem::remove_all(opt.workdir);
  if (opt.trace) {
    r.per_layer.push_back({"ad.peak_gflops",
                           peak_gflops(gns::exec::default_workers()),
                           "GFLOP/s"});
    r.per_layer = canonical_layers(r.per_layer);
  }

  for (const auto& m : r.end_to_end)
    std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& m : r.extra)
    std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (opt.trace)
    for (const auto& m : r.per_layer)
      std::printf("layer  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  for (const auto& g : r.gate_failures)
    std::printf("GATE FAILURE: %s\n", g.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              json_metrics(opt.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
