#pragma once

/// \file bench.hpp
/// Types shared by the benchmark program's translation units: run options,
/// reported metrics, the serving stacks under test, and the per-layer
/// probes of the traced run.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "harness.hpp"
#include "net/server.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"
#include "wire.hpp"

namespace perfbench {

/// Workload knobs from perfbench/workloads.json, passed as --param k=v.
struct Params {
  std::map<std::string, double> values;
  [[nodiscard]] double get(const std::string& key) const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture = "perfbench/fixture/columns_gns.bin";
  std::string workdir = ".bench_work";
  Params params;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload-specific figures printed in the report but not part of the
  /// end-to-end set (which every workload must report).
  std::vector<Metric> extra;
  std::vector<std::string> gate_failures;
};

Result run_workload(const Options& options);

/// The model name every stack serves.
inline const char* const kModel = "columns";

/// One rollout server as shipped: registry loaded from the checkpoint,
/// batching scheduler, net::Server on an ephemeral loopback port, and an
/// optional RolloutCache in its own directory.
class ServingStack {
 public:
  ServingStack(const std::string& checkpoint, int index,
               const std::string& cache_dir);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  [[nodiscard]] int port() const { return server_->port(); }
  [[nodiscard]] gns::serve::JobScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
  std::shared_ptr<gns::serve::ModelRegistry> registry_;
  std::unique_ptr<gns::serve::JobScheduler> scheduler_;
  std::unique_ptr<gns::net::Server> server_;
};

/// A request of the workload: the in-process form (for the reference
/// rollout) and its wire encoding.
struct Request {
  gns::serve::RolloutRequest request;
  PooledRequest wire;
};

/// Reference outcome of a request, computed by a direct in-process
/// rollout: the digest after every frame (so prefixes check too) and
/// whether every frame stayed finite and inside the feature domain.
struct Reference {
  std::vector<std::uint64_t> digest_after;  ///< [k] = digest of k+1 frames
  bool in_domain = true;
};

// ---- Traced-run probes (layers.cpp) ----------------------------------------

/// Per-layer figures from replaying requests through the public step,
/// feature and forward functions, with the benchmark's own spans.
struct ReplayFigures {
  double neighbor_ms_per_step = 0.0;
  double features_ms_per_step = 0.0;
  double forward_ms_per_step = 0.0;
  double integrate_ms_per_step = 0.0;
  double edges_per_particle = 0.0;
  double reuse_ratio = 0.0;
  double rollout_steps_per_s = 0.0;
  double batched_steps_per_s = 0.0;
  double mlp_gflops = 0.0;
  double backward_ms_per_step = 0.0;  ///< taped rollout + backward probe
  bool matches_served = true;  ///< replayed frames equal the rollout's
};
ReplayFigures replay_requests(const gns::core::LearnedSimulator& sim,
                              const std::vector<const Request*>& requests,
                              SpanLog& log);

/// Peak mul+add rate (no FMA) of the machine across `threads` threads.
double peak_gflops(int threads);

/// Samples Executor::submit -> start delay every `period_ms` until stop()
/// is called.
class SchedProbe {
 public:
  explicit SchedProbe(double period_ms);
  ~SchedProbe();
  SchedProbe(const SchedProbe&) = delete;
  SchedProbe& operator=(const SchedProbe&) = delete;
  std::vector<double> stop();  ///< delays in microseconds

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace perfbench
