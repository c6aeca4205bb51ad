// The four workloads: request generation from the seed, the serving
// stacks they drive, the output gate, and the end-to-end metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "core/datagen.hpp"
#include "core/inverse.hpp"
#include "exec/executor.hpp"
#include "fixture.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gns;

double Params::get(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end())
    throw std::runtime_error("missing workload parameter '" + key + "'");
  return it->second;
}

// ---- Serving stacks ---------------------------------------------------------

ServingStack::ServingStack(const std::string& checkpoint, int index,
                           const std::string& cache_dir)
    : prefix_("pb" + std::to_string(index)),
      registry_(std::make_shared<serve::ModelRegistry>()) {
  if (!registry_->load(kModel, checkpoint))
    throw std::runtime_error("registry failed to load " + checkpoint);
  serve::SchedulerConfig sc;
  sc.workers = 4;
  sc.queue_capacity = 256;
  sc.max_batch = 4;
  sc.batch_window_us = 200.0;
  sc.stats_prefix = prefix_ + ".serve";
  if (!cache_dir.empty()) {
    store::CacheConfig cc;
    cc.dir = cache_dir;
    cc.metrics_prefix = prefix_ + ".cache";
    sc.cache = std::make_shared<store::RolloutCache>(cc);
  }
  scheduler_ = std::make_unique<serve::JobScheduler>(registry_, sc);
  net::ServerConfig nc;
  // Open-loop ladders may hold more than the default four requests on one
  // connection; the global cap still bounds the server.
  nc.max_inflight_per_connection = 16;
  nc.metrics_prefix = prefix_ + ".net";
  server_ = std::make_unique<net::Server>(*scheduler_, nc);
  if (!server_->start()) throw std::runtime_error("net::Server failed to start");
}

ServingStack::~ServingStack() {
  server_->stop();
  scheduler_->shutdown(true);
}

namespace {

constexpr int kDim = 2;

Domain feature_domain(const core::FeatureConfig& fc) {
  const double margin = 0.5 * fc.connectivity_radius;
  Domain d;
  for (int i = 0; i < kDim; ++i) {
    d.lo[i] = fc.domain_lo[static_cast<std::size_t>(i)] - margin;
    d.hi[i] = fc.domain_hi[static_cast<std::size_t>(i)] + margin;
  }
  return d;
}

// ---- Scenes and requests ----------------------------------------------------

/// A request before materialization: which column, from which frame, how
/// many steps, conditioned on which friction angle.
struct SceneSpec {
  ColumnSpec column;
  int start_frame = 0;
  int steps = 8;
  double material_deg = 30.0;
};

/// MPM trajectories by (nx, ny, φ), shared by every request cut from them.
class SceneLibrary {
 public:
  const io::Trajectory& get(const ColumnSpec& c, int frames) {
    const auto key = std::make_tuple(c.nx, c.ny, c.friction_deg);
    auto it = cache_.find(key);
    if (it == cache_.end() || it->second.num_frames() < frames)
      it = cache_.insert_or_assign(key, column_trajectory(c, frames)).first;
    return it->second;
  }

 private:
  std::map<std::tuple<int, int, double>, io::Trajectory> cache_;
};

double limit_ms(const Params& p, int steps, int particles) {
  return p.get("limit_base_ms") +
         p.get("limit_ms_per_kpstep") * steps * particles / 1000.0;
}

Request make_request(SceneLibrary& library, const SceneSpec& spec,
                     int window, const Params& params) {
  const io::Trajectory& traj =
      library.get(spec.column, spec.start_frame + window);
  Request r;
  r.request.model = kModel;
  r.request.steps = spec.steps;
  r.request.material = core::material_param_from_friction(spec.material_deg);
  for (int t = spec.start_frame; t < spec.start_frame + window; ++t)
    r.request.window.push_back(traj.frames[static_cast<std::size_t>(t)]);
  r.wire.frame = net::encode_rollout_request(0, r.request);
  r.wire.steps = spec.steps;
  r.wire.particles = traj.num_particles;
  r.wire.limit_ms = limit_ms(params, spec.steps, traj.num_particles);
  return r;
}

int uniform_int(Rng& rng, double lo, double hi) {
  return static_cast<int>(lo) +
         static_cast<int>(rng.uniform_index(
             static_cast<std::uint64_t>(hi - lo + 1.0)));
}

/// A seeded permutation of 0..n-1.
std::vector<int> shuffled(Rng& rng, int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(v[static_cast<std::size_t>(i)],
              v[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
  return v;
}

/// `count` scenes from the workload's ranges, as a Latin hypercube over
/// (particle count, steps): every seed covers the size and length ranges
/// evenly, so the work per run does not drift with the seed; the column
/// shape, friction angle and start frame vary freely.
std::vector<SceneSpec> draw_scenes(Rng& rng, const Params& p, int count) {
  const double nx_min = p.get("nx_min"), nx_max = p.get("nx_max");
  const double lo = nx_min * p.get("ny_min");
  const double hi = nx_max * p.get("ny_max");
  const double steps_min = p.get("steps_min");
  const double steps_span = p.get("steps_max") - steps_min + 1;
  const std::vector<int> steps_stratum = shuffled(rng, count);
  std::vector<SceneSpec> scenes;
  for (int i = 0; i < count; ++i) {
    SceneSpec s;
    s.column.ny = uniform_int(rng, p.get("ny_min"), p.get("ny_max"));
    const double target = lo + (i + rng.uniform()) / count * (hi - lo);
    s.column.nx = static_cast<int>(
        std::clamp(std::round(target / s.column.ny), nx_min, nx_max));
    // MPM runs at one of a few friction angles so requests share
    // trajectories; the served material varies continuously.
    s.column.friction_deg = 20.0 + 5.0 * uniform_int(rng, 0, 5);
    s.start_frame = uniform_int(rng, 0, p.get("start_max"));
    s.steps = static_cast<int>(
        steps_min +
        std::floor((steps_stratum[static_cast<std::size_t>(i)] +
                    rng.uniform()) /
                   count * steps_span));
    s.material_deg = rng.uniform(p.get("phi_min"), p.get("phi_max"));
    scenes.push_back(s);
  }
  return scenes;
}

std::vector<Request> make_pool(SceneLibrary& library, Rng& rng,
                               const Params& p, int count, int window) {
  std::vector<Request> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (const SceneSpec& s : draw_scenes(rng, p, count))
    pool.push_back(make_request(library, s, window, p));
  return pool;
}

/// Pool indices for `n` arrivals: successive seeded shuffles of the pool,
/// so every entry is used equally often.
std::vector<int> balanced_order(Rng& rng, std::size_t n, int pool_size) {
  std::vector<int> order;
  while (order.size() < n)
    for (int i : shuffled(rng, pool_size))
      if (order.size() < n) order.push_back(i);
  return order;
}

/// A fixed request outside every pool, used to warm each stack up.
SceneSpec warmup_scene() {
  SceneSpec s;
  s.column = {9, 13, 30.0};
  s.steps = 8;
  s.material_deg = 31.0;
  return s;
}

// ---- Output gate ------------------------------------------------------------

Reference reference_rollout(const core::LearnedSimulator& sim,
                            const serve::RolloutRequest& req,
                            const Domain& domain) {
  core::Window window;
  for (const auto& frame : req.window)
    window.push_back(core::frame_to_tensor(frame, kDim));
  core::SceneContext ctx;
  ctx.material = ad::Tensor::scalar(req.material);
  Reference ref;
  Fnv1a digest;
  for (const auto& frame : sim.rollout(window, req.steps, ctx)) {
    digest.update(frame.data(), frame.size() * sizeof(double));
    ref.digest_after.push_back(digest.digest());
    ref.in_domain = ref.in_domain && domain.contains(frame.data(), frame.size());
  }
  return ref;
}

/// References for the listed pool entries, computed on four threads.
std::map<int, Reference> references_for(const core::LearnedSimulator& sim,
                                        const std::vector<Request>& pool,
                                        std::vector<int> used,
                                        const Domain& domain) {
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  const std::int64_t t0 = now_ns();
  std::vector<Reference> refs(used.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < used.size();)
        refs[i] = reference_rollout(
            sim, pool[static_cast<std::size_t>(used[i])].request, domain);
    });
  for (auto& t : threads) t.join();
  std::fprintf(stderr, "perfbench: gate computed %zu reference rollouts in %.1f s\n",
               used.size(), static_cast<double>(now_ns() - t0) * 1e-9);
  std::map<int, Reference> out;
  for (std::size_t i = 0; i < used.size(); ++i)
    out.emplace(used[i], std::move(refs[i]));
  return out;
}

/// Marks each outcome ok iff it was served Ok and its frames equal the
/// reference bitwise, finite and in-domain. A served-Ok reply that fails
/// the comparison is a gate failure; refusals and transport errors are
/// failures without being wrong outputs.
void apply_gate(std::vector<WireOutcome>& outcomes,
                const std::map<int, Reference>& refs, Result& result) {
  for (WireOutcome& o : outcomes) {
    const bool served_ok = o.transport_ok && !o.is_net_error &&
                           o.status == serve::JobStatus::Ok;
    const Reference& ref = refs.at(o.pool_index);
    const int frames = o.timing.frames;
    const bool equal = o.stream_ok && ref.in_domain && frames >= 1 &&
                       frames <= static_cast<int>(ref.digest_after.size()) &&
                       ref.digest_after[static_cast<std::size_t>(frames - 1)] ==
                           o.digest.digest();
    o.timing.ok = served_ok && equal;
    if (served_ok && !equal) {
      result.correct = false;
      if (result.gate_failures.size() < 8)
        result.gate_failures.push_back(
            "request from pool entry " + std::to_string(o.pool_index) +
            (ref.in_domain ? " differs from the in-process rollout"
                           : " left the feature domain"));
    }
  }
}

std::vector<int> used_pool_entries(const std::vector<WireOutcome>& outcomes) {
  std::vector<int> used;
  for (const auto& o : outcomes) used.push_back(o.pool_index);
  return used;
}

// ---- Metrics ----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The end-to-end set every workload reports, from the measured pass.
void end_to_end(Result& r, const std::vector<double>& setup_s,
                const std::vector<Outcome>& outcomes, double elapsed_s,
                double rss_mb) {
  std::vector<double> latency, first_ms;
  for (const Outcome& o : outcomes)
    if (o.ok) {
      latency.push_back(latency_ms(o));
      first_ms.push_back(first_result_ms(o));
    }
  const Summary s = summarize(outcomes);
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"rtt_p50_ms", percentile(latency, 50), "ms"},
      {"rtt_p90_ms", percentile(latency, 90), "ms"},
      {"ttff_p50_ms", percentile(first_ms, 50), "ms"},
      {"ttff_p90_ms", percentile(first_ms, 90), "ms"},
      {"slo_share", s.slo_share, "ratio"},
      {"ok_share", s.ok_share, "ratio"},
      {"steps_per_s", static_cast<double>(s.good_frames) / elapsed_s, "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  r.extra.push_back(
      {"failed_share",
       s.attempted ? static_cast<double>(s.failed) / s.attempted : 0.0,
       "ratio"});
  r.extra.push_back({"requests", static_cast<double>(s.attempted), "count"});
  r.extra.push_back({"tail_percentile_supported",
                     static_cast<double>(
                         supported_tail_percentile(latency.size())),
                     "pct"});
  r.attempted += s.attempted;
  r.failed += s.failed;
}

/// Adds a pass outside the measured one (the untraced pass of a traced
/// run, a ladder rung) to the run's attempted and failed counts.
void count_pass(Result& r, const std::vector<Outcome>& outcomes) {
  const Summary s = summarize(outcomes);
  r.attempted += s.attempted;
  r.failed += s.failed;
}

/// trace.overhead_share: the traced pass's median latency of ok requests
/// over the untraced pass's, minus one.
double overhead_share(const std::vector<Outcome>& traced,
                      const std::vector<Outcome>& untraced) {
  auto p50 = [](const std::vector<Outcome>& v) {
    std::vector<double> l;
    for (const Outcome& o : v)
      if (o.ok) l.push_back(latency_ms(o));
    return median(l);
  };
  const double base = p50(untraced);
  return base > 0 ? p50(traced) / base - 1.0 : 0.0;
}

std::vector<Outcome> timings(const std::vector<WireOutcome>& outcomes) {
  std::vector<Outcome> t;
  for (const auto& o : outcomes) t.push_back(o.timing);
  return t;
}

/// Counters the traced run differences across the measured pass.
struct Counters {
  exec::ExecutorStats exec;
  std::uint64_t arena_hit = 0;
  std::uint64_t arena_miss = 0;
  std::int64_t t_ns = 0;

  static Counters now() {
    auto& reg = obs::MetricsRegistry::global();
    return {exec::Executor::global().stats(), reg.counter("ad.arena.hit").value(),
            reg.counter("ad.arena.miss").value(), now_ns()};
  }
};

void layer_metrics_from_pass(Result& r, const Counters& a, const Counters& b,
                             const std::vector<WireOutcome>& outcomes,
                             std::vector<double> sched_delay_us) {
  const double wall = static_cast<double>(b.t_ns - a.t_ns) * 1e-9;
  const double busy = b.exec.busy_seconds - a.exec.busy_seconds;
  const double executed =
      static_cast<double>(b.exec.executed - a.exec.executed);
  const double hits = static_cast<double>(b.arena_hit - a.arena_hit);
  const double misses = static_cast<double>(b.arena_miss - a.arena_miss);
  std::vector<double> queue, batch_wait, compute_per_step, unaccounted,
      coverage, serialize, gaps, lag;
  std::size_t busy_refusals = 0;
  for (const auto& o : outcomes) {
    lag.push_back(send_lag_ms(o.timing));
    if (o.is_net_error && o.net_error == net::NetError::Busy) ++busy_refusals;
    if (!o.timing.ok) continue;
    const auto& ph = o.phases;
    queue.push_back(ph.queue_us * 1e-3);
    batch_wait.push_back(ph.batch_wait_us * 1e-3);
    if (ph.compute_us > 0 && o.timing.frames > 0)
      compute_per_step.push_back(ph.compute_us * 1e-3 / o.timing.frames);
    const double rtt =
        static_cast<double>(o.timing.done_ns - o.timing.sent_ns) * 1e-6;
    unaccounted.push_back(rtt - ph.total_us() * 1e-3);
    coverage.push_back(rtt > 0 ? ph.total_us() * 1e-3 / rtt : 0.0);
    serialize.push_back(ph.serialize_us);
    gaps.insert(gaps.end(), o.chunk_gaps_ms.begin(), o.chunk_gaps_ms.end());
  }
  const std::vector<Metric> m = {
      {"ad.arena_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"exec.busy_share",
       wall > 0 ? busy / (wall * std::max(1, b.exec.workers)) : 0.0, "ratio"},
      {"exec.steal_ratio",
       executed > 0
           ? static_cast<double>(b.exec.stolen - a.exec.stolen) / executed
           : 0.0,
       "ratio"},
      {"exec.sched_delay_us_p50", percentile(sched_delay_us, 50), "us"},
      {"exec.sched_delay_us_p90", percentile(sched_delay_us, 90), "us"},
      {"serve.queue_ms_p50", percentile(queue, 50), "ms"},
      {"serve.queue_ms_p90", percentile(queue, 90), "ms"},
      {"serve.batch_wait_ms_p50", percentile(batch_wait, 50), "ms"},
      {"serve.compute_ms_per_step_p50", percentile(compute_per_step, 50),
       "ms"},
      {"net.unaccounted_ms_p50", percentile(unaccounted, 50), "ms"},
      {"net.phase_coverage", median(coverage), "ratio"},
      {"net.serialize_us_p50", percentile(serialize, 50), "us"},
      {"net.chunk_gap_ms_p50", percentile(gaps, 50), "ms"},
      {"net.busy_refusals", static_cast<double>(busy_refusals), "count"},
      {"loadgen.lag_p90_ms", percentile(lag, 90), "ms"},
  };
  r.per_layer.insert(r.per_layer.end(), m.begin(), m.end());
}

void set_layer(Result& r, const std::string& name, double value,
               const std::string& unit) {
  for (Metric& m : r.per_layer)
    if (m.name == name) {
      m.value = value;
      return;
    }
  r.per_layer.push_back({name, value, unit});
}

/// Replays `requests` through the public step functions and records the
/// graph/core/ad figures; a replay that disagrees with the rollout fails
/// the gate.
void replay_into(Result& result, const core::LearnedSimulator& sim,
                 const std::vector<const Request*>& requests) {
  SpanLog log;
  const ReplayFigures f = replay_requests(sim, requests, log);
  if (!f.matches_served) {
    result.correct = false;
    result.gate_failures.push_back(
        "replayed steps differ from LearnedSimulator::rollout");
  }
  set_layer(result, "graph.neighbor_ms_per_step", f.neighbor_ms_per_step, "ms");
  set_layer(result, "graph.edges_per_particle", f.edges_per_particle, "count");
  set_layer(result, "graph.reuse_ratio", f.reuse_ratio, "ratio");
  set_layer(result, "core.features_ms_per_step", f.features_ms_per_step, "ms");
  set_layer(result, "core.gns_forward_ms_per_step", f.forward_ms_per_step, "ms");
  set_layer(result, "core.integrate_ms_per_step", f.integrate_ms_per_step, "ms");
  set_layer(result, "core.rollout_steps_per_s", f.rollout_steps_per_s, "1/s");
  set_layer(result, "core.batched_steps_per_s", f.batched_steps_per_s, "1/s");
  set_layer(result, "ad.mlp_gflops", f.mlp_gflops, "GFLOP/s");
  set_layer(result, "ad.backward_ms_per_step", f.backward_ms_per_step, "ms");
}

/// Serves `spec` through a blocking client; throws unless it is ok.
void warm_up(int port, const Request& warm) {
  net::ClientConfig cc;
  cc.port = port;
  net::Client client(cc);
  const net::ClientResult res = client.rollout(warm.request);
  if (!res.ok())
    throw std::runtime_error("warm-up request failed: " +
                             (res.transport_ok ? res.error
                                               : res.transport_error));
}

/// Times `build` (which must leave a warmed-up stack behind) `repeats`
/// times, keeping only the last stack.
template <typename Stack, typename Build>
std::vector<double> timed_setups(int repeats, std::unique_ptr<Stack>& keep,
                                 Build build) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    keep.reset();
    const std::int64_t t0 = now_ns();
    keep = build(i);
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return seconds;
}

// ---- wire_light / wire_heavy ------------------------------------------------

Result run_wire(const Options& opt, bool heavy) {
  const Params& p = opt.params;
  Result result;
  auto sim = load_fixture(opt.fixture);
  const int window = sim->features().window_size();
  const Domain domain = feature_domain(sim->features());
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + (heavy ? 2 : 1));
  SceneLibrary library;
  const std::vector<Request> pool = make_pool(
      library, rng, p, static_cast<int>(p.get("pool")), window);
  std::vector<PooledRequest> wire_pool;
  for (const auto& r : pool) wire_pool.push_back(r.wire);
  const Request warm = make_request(library, warmup_scene(), window, p);

  std::unique_ptr<ServingStack> stack;
  const auto setup_s = timed_setups(
      static_cast<int>(p.get("setup_repeats")), stack, [&](int) {
        verify_fixture(opt.fixture);
        auto s = std::make_unique<ServingStack>(opt.fixture, 0, "");
        warm_up(s->port(), warm);
        return s;
      });

  const double rate = p.get("rate_rps");
  const double fixed_s =
      opt.seconds * (heavy ? p.get("fixed_share") : 1.0);
  auto schedule = [&](double r, double seconds) {
    std::pair<std::vector<std::int64_t>, std::vector<int>> s;
    const std::int64_t start = now_ns() + 20'000'000;
    s.first = p.get("poisson") != 0.0
                  ? poisson_schedule(start, r, seconds,
                                     [&] { return rng.uniform(); })
                  : open_loop_schedule(start, r, seconds);
    s.second = balanced_order(rng, s.first.size(),
                              static_cast<int>(pool.size()));
    return s;
  };

  WireLoad load(stack->port(), 4, wire_pool, domain);
  if (!load.connect()) throw std::runtime_error("load generator connect failed");

  // The traced run first repeats the pass untraced, so the difference
  // between the two is the tracing overhead.
  std::vector<WireOutcome> untraced;
  const double pass_s = opt.trace ? fixed_s / 2 : fixed_s;
  if (opt.trace) {
    auto [due, reqs] = schedule(rate, pass_s);
    untraced = load.run_open(due, reqs);
  }
  std::unique_ptr<SchedProbe> probe;
  const Counters before = Counters::now();
  if (opt.trace) probe = std::make_unique<SchedProbe>(5.0);
  auto [due, reqs] = schedule(rate, pass_s);
  const std::int64_t start = due.empty() ? now_ns() : due.front();
  std::vector<WireOutcome> outcomes = load.run_open(due, reqs);
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  const double rss_mb = peak_rss_mb();  // before the gate's own rollouts
  std::vector<double> sched_delay = probe ? probe->stop() : std::vector<double>{};
  const Counters after = Counters::now();

  // Rate ladder (wire_heavy): the highest offered rate at which at least
  // `ladder_slo` of the requests meet their limit, interpolated between
  // the last passing and the first failing step. The fixed-rate pass is
  // the ladder's first rung; each further rung multiplies the rate.
  double max_rate = 0.0;
  std::vector<std::vector<WireOutcome>> ladder;
  if (heavy) {
    // Served ok within the limit; the gate below re-judges correctness.
    auto served_share = [](const std::vector<WireOutcome>& v) {
      std::size_t within = 0;
      for (const auto& o : v)
        within += o.transport_ok && !o.is_net_error &&
                  o.status == serve::JobStatus::Ok &&
                  latency_ms(o.timing) <= o.timing.limit_ms;
      return v.empty() ? 0.0 : static_cast<double>(within) / v.size();
    };
    const double step_s = p.get("ladder_step_s");
    const double target = p.get("ladder_slo");
    double prev_rate = rate, prev_share = served_share(outcomes);
    max_rate = prev_share >= target ? rate : 0.0;
    double r = rate;
    for (double left = opt.seconds - fixed_s; prev_share >= target &&
                                             left >= step_s * 0.99;
         left -= step_s) {
      r *= p.get("ladder_factor");
      auto [ld, lr] = schedule(r, step_s);
      ladder.push_back(load.run_open(ld, lr));
      const double share = served_share(ladder.back());
      if (share < target) {
        max_rate = prev_rate + (r - prev_rate) * (prev_share - target) /
                                   std::max(1e-9, prev_share - share);
        break;
      }
      prev_rate = max_rate = r;
      prev_share = share;
    }
  }

  // Output gate over everything served in this run.
  std::vector<int> used = used_pool_entries(outcomes);
  for (int i : used_pool_entries(untraced)) used.push_back(i);
  for (const auto& l : ladder)
    for (int i : used_pool_entries(l)) used.push_back(i);
  const auto refs = references_for(*sim, pool, used, domain);
  apply_gate(outcomes, refs, result);
  apply_gate(untraced, refs, result);
  for (auto& l : ladder) apply_gate(l, refs, result);

  end_to_end(result, setup_s, timings(outcomes), elapsed_s, rss_mb);
  count_pass(result, timings(untraced));
  for (const auto& l : ladder) count_pass(result, timings(l));
  if (heavy) result.extra.push_back({"max_rate_rps", max_rate, "1/s"});
  result.extra.push_back(
      {"offered_rps", static_cast<double>(outcomes.size()) / pass_s, "1/s"});

  if (opt.trace) {
    layer_metrics_from_pass(result, before, after, outcomes, sched_delay);
    set_layer(result, "trace.overhead_share",
              overhead_share(timings(outcomes), timings(untraced)), "ratio");
    set_layer(result, "loadgen.offered_rps",
              static_cast<double>(outcomes.size()) / pass_s, "1/s");
    const auto snap = stack->scheduler().stats().snapshot();
    set_layer(result, "serve.batch_size_mean", snap.batch_size.mean(), "count");
    // Replay the served requests through the public step functions.
    std::vector<const Request*> replay;
    for (std::size_t i = 0; i < std::min<std::size_t>(outcomes.size(), 24);
         ++i)
      replay.push_back(&pool[static_cast<std::size_t>(outcomes[i].pool_index)]);
    replay_into(result, *sim, replay);
  }
  return result;
}

// ---- fleet_repeat -----------------------------------------------------------

/// Two backends, each with its own RolloutCache in a fresh directory,
/// behind an in-process router.
struct Fleet {
  std::vector<std::unique_ptr<ServingStack>> backends;
  std::unique_ptr<router::Router> router;  ///< destroyed first: drains first
};

/// Samples recorded so far in the global histogram `name`.
double histogram_count(const std::string& name) {
  return static_cast<double>(
      obs::MetricsRegistry::global().histogram(name).snapshot().count());
}

Result run_fleet(const Options& opt) {
  const Params& p = opt.params;
  Result result;
  auto sim = load_fixture(opt.fixture);
  const int window = sim->features().window_size();
  const Domain domain = feature_domain(sim->features());
  SceneLibrary library;
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 3);

  // The skewed pool of hot requests, each as a full rollout and as a
  // prefix of it; then per-caller sequences of new requests (hot windows
  // under fresh friction angles, so each is a distinct cache key).
  const int hot = static_cast<int>(p.get("hot"));
  const int per_caller = static_cast<int>(p.get("new_per_caller"));
  const int callers = 4;
  std::vector<Request> pool;
  const std::vector<SceneSpec> hot_specs = draw_scenes(rng, p, hot);
  for (const SceneSpec& h : hot_specs)
    pool.push_back(make_request(library, h, window, p));
  for (SceneSpec h : hot_specs) {
    h.steps = std::max(1, h.steps / 2);
    pool.push_back(make_request(library, h, window, p));
  }
  const std::size_t first_new = pool.size();
  for (int c = 0; c < callers; ++c)
    for (int i = 0; i < per_caller; ++i) {
      SceneSpec s = hot_specs[rng.uniform_index(hot_specs.size())];
      s.material_deg = rng.uniform(p.get("phi_min"), p.get("phi_max"));
      s.steps = uniform_int(rng, p.get("steps_min"), p.get("steps_max"));
      pool.push_back(make_request(library, s, window, p));
    }
  std::vector<PooledRequest> wire_pool;
  for (const auto& r : pool) wire_pool.push_back(r.wire);
  const Request warm = make_request(library, warmup_scene(), window, p);

  std::vector<Rng> caller_rng;
  for (int c = 0; c < callers; ++c)
    caller_rng.emplace_back(opt.seed * 0x9E3779B97F4A7C15ull + 100 + c);
  std::vector<int> next_new(callers, 0);
  std::vector<double> zipf;  // cumulative 1/(i+1) weights over hot entries
  for (int i = 0; i < hot; ++i)
    zipf.push_back((zipf.empty() ? 0.0 : zipf.back()) + 1.0 / (i + 1));
  int wrapped = 0;
  const double repeat_share = p.get("repeat_share");
  auto next = [&](int c) {
    Rng& r = caller_rng[static_cast<std::size_t>(c)];
    if (r.uniform() < repeat_share) {
      const double u = r.uniform() * zipf.back();
      const int i = static_cast<int>(
          std::lower_bound(zipf.begin(), zipf.end(), u) - zipf.begin());
      return std::min(i, hot - 1) + (r.uniform() < 0.5 ? 0 : hot);
    }
    int& k = next_new[static_cast<std::size_t>(c)];
    if (k == per_caller) {
      k = 0;
      ++wrapped;
    }
    return static_cast<int>(first_new) + c * per_caller + k++;
  };

  std::unique_ptr<Fleet> fleet;
  const auto setup_s = timed_setups(
      static_cast<int>(p.get("setup_repeats")), fleet, [&](int rep) {
        verify_fixture(opt.fixture);
        auto f = std::make_unique<Fleet>();
        router::RouterConfig rc;
        for (int b = 0; b < 2; ++b) {
          const std::string dir = opt.workdir + "/setup" +
                                  std::to_string(rep) + "/cache" +
                                  std::to_string(b);
          f->backends.push_back(std::make_unique<ServingStack>(
              opt.fixture, b, dir));
          rc.backends.push_back({"127.0.0.1", f->backends.back()->port()});
        }
        f->router = std::make_unique<router::Router>(rc);
        if (!f->router->start()) throw std::runtime_error("router failed to start");
        warm_up(f->router->port(), warm);
        return f;
      });

  WireLoad load(fleet->router->port(), callers, wire_pool, domain);
  if (!load.connect()) throw std::runtime_error("load generator connect failed");
  std::vector<WireOutcome> untraced;
  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  if (opt.trace) untraced = load.run_closed(pass_s, next);
  auto& reg = obs::MetricsRegistry::global();
  const double failovers0 = static_cast<double>(reg.counter("router.failovers").value());
  const double served0[2] = {histogram_count("pb0.net.request_ms"),
                             histogram_count("pb1.net.request_ms")};
  std::unique_ptr<SchedProbe> probe;
  const Counters before = Counters::now();
  if (opt.trace) probe = std::make_unique<SchedProbe>(5.0);
  const std::int64_t start = now_ns();
  std::vector<WireOutcome> outcomes = load.run_closed(pass_s, next);
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  const double rss_mb = peak_rss_mb();  // before the gate's own rollouts
  std::vector<double> sched_delay = probe ? probe->stop() : std::vector<double>{};
  const Counters after = Counters::now();
  if (wrapped > 0)
    result.extra.push_back({"new_requests_wrapped", static_cast<double>(wrapped), "count"});

  std::vector<int> used = used_pool_entries(outcomes);
  for (int i : used_pool_entries(untraced)) used.push_back(i);
  const auto refs = references_for(*sim, pool, used, domain);
  apply_gate(outcomes, refs, result);
  apply_gate(untraced, refs, result);
  end_to_end(result, setup_s, timings(outcomes), elapsed_s, rss_mb);
  count_pass(result, timings(untraced));

  if (opt.trace) {
    layer_metrics_from_pass(result, before, after, outcomes, sched_delay);
    std::size_t hits = 0, joined = 0, ok = 0;
    for (const auto& o : outcomes) {
      if (!o.timing.ok) continue;
      ++ok;
      hits += o.cache_outcome == serve::CacheOutcome::Hit;
      joined += o.cache_outcome == serve::CacheOutcome::Joined;
    }
    set_layer(result, "store.hit_ratio", ok ? double(hits) / ok : 0.0, "ratio");
    set_layer(result, "store.joined_ratio", ok ? double(joined) / ok : 0.0, "ratio");
    double lookup = 0.0, lookups = 0.0;
    for (const char* prefix : {"pb0", "pb1"}) {
      const auto h = reg.histogram(std::string(prefix) + ".cache.lookup_us").snapshot();
      lookup += h.quantile(0.5) * static_cast<double>(h.count());
      lookups += static_cast<double>(h.count());
    }
    set_layer(result, "store.lookup_us_p50", lookups > 0 ? lookup / lookups : 0.0, "us");
    const double served[2] = {histogram_count("pb0.net.request_ms") - served0[0],
                              histogram_count("pb1.net.request_ms") - served0[1]};
    const double mean = (served[0] + served[1]) / 2;
    set_layer(result, "router.placement_skew",
              mean > 0 ? std::max(served[0], served[1]) / mean : 0.0, "ratio");
    set_layer(result, "router.failovers",
              static_cast<double>(reg.counter("router.failovers").value()) - failovers0,
              "count");
    // Cache warmth differs between the two passes, so the overhead is
    // judged on computed (missed) requests only.
    auto misses = [](const std::vector<WireOutcome>& v) {
      std::vector<Outcome> m;
      for (const auto& o : v)
        if (o.cache_outcome == serve::CacheOutcome::Miss) m.push_back(o.timing);
      return m;
    };
    set_layer(result, "trace.overhead_share",
              overhead_share(misses(outcomes), misses(untraced)), "ratio");
    set_layer(result, "loadgen.offered_rps",
              static_cast<double>(outcomes.size()) / elapsed_s, "1/s");

    // Router hop: the same cached request, direct to a backend and through
    // the router, alternating.
    SpanLog log;
    const Request& probe_req = pool[0];
    std::vector<double> direct_ms, routed_ms;
    {
      net::ClientConfig cd, cr;
      cd.port = fleet->backends[0]->port();
      cr.port = fleet->router->port();
      net::Client direct(cd), routed(cr);
      net::ClientConfig c1;
      c1.port = fleet->backends[1]->port();
      net::Client other(c1);
      (void)direct.rollout(probe_req.request);  // cached on both backends
      (void)other.rollout(probe_req.request);
      for (int i = 0; i < static_cast<int>(p.get("hop_pairs")); ++i) {
        {
          ScopedSpan span(&log, "router.direct");
          const auto r = direct.rollout(probe_req.request);
          if (r.ok()) direct_ms.push_back(r.rtt_ms);
        }
        {
          ScopedSpan span(&log, "router.routed");
          const auto r = routed.rollout(probe_req.request);
          if (r.ok()) routed_ms.push_back(r.rtt_ms);
        }
      }
    }
    set_layer(result, "router.hop_ms_p50", median(routed_ms) - median(direct_ms), "ms");

    // Store append: the workload's own rollouts inserted into a fresh
    // cache, one append + fsync each.
    {
      store::CacheConfig cc;
      cc.dir = opt.workdir + "/append_probe";
      cc.metrics_prefix = "pbprobe.cache";
      store::RolloutCache cache(cc);
      std::vector<double> append_ms;
      for (std::size_t i = 0; i < std::min<std::size_t>(outcomes.size(), 16); ++i) {
        const Request& r = pool[static_cast<std::size_t>(outcomes[i].pool_index)];
        core::Window w;
        for (const auto& f : r.request.window) w.push_back(core::frame_to_tensor(f, kDim));
        core::SceneContext ctx;
        ctx.material = ad::Tensor::scalar(r.request.material);
        const auto frames = sim->rollout(w, r.request.steps, ctx);
        ScopedSpan span(&log, "store.append");
        const std::int64_t t0 = now_ns();
        (void)cache.insert(1000 + i, frames);
        append_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
      set_layer(result, "store.append_ms_p50", percentile(append_ms, 50), "ms");
    }

    std::vector<const Request*> replay;
    for (std::size_t i = 0; i < std::min<std::size_t>(outcomes.size(), 24); ++i)
      replay.push_back(&pool[static_cast<std::size_t>(outcomes[i].pool_index)]);
    replay_into(result, *sim, replay);
    const auto snap = fleet->backends[0]->scheduler().stats().snapshot();
    set_layer(result, "serve.batch_size_mean", snap.batch_size.mean(), "count");
  }
  return result;
}

// ---- inverse_fit ------------------------------------------------------------

/// One gradient-descent solve of the Fig-5 problem, driven through the
/// public AD entry points: rollout_diff (k steps, taped), smooth_runout,
/// backward. Mirrors core::solve_friction_angle, which is the reference.
struct InverseVariant {
  core::Window window;
  double target_runout = 0.0;
};

Result run_inverse(const Options& opt) {
  const Params& p = opt.params;
  Result result;
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 4);
  core::InverseConfig ic;
  ic.rollout_steps = static_cast<int>(p.get("k"));
  ic.lr = p.get("lr");
  ic.max_iterations = static_cast<int>(p.get("iterations"));
  ic.loss_tol = 0.0;  // a fixed iteration count
  ic.smooth_temp = p.get("smooth_temp");
  const double target_deg = p.get("target_deg");
  const double initial_deg = p.get("initial_deg");
  const ColumnSpec column{static_cast<int>(p.get("nx")),
                          static_cast<int>(p.get("ny")), target_deg};
  const int variants = static_cast<int>(p.get("start_max")) + 1;
  const io::Trajectory traj = column_trajectory(column, variants + 6);

  std::shared_ptr<const core::LearnedSimulator> sim;
  std::vector<InverseVariant> cases;
  // Set-up: verify and load the checkpoint, then build each variant's seed
  // window and its target runout (a k-step rollout at the target angle).
  std::vector<double> setup_s;
  for (int rep = 0; rep < static_cast<int>(p.get("setup_repeats")); ++rep) {
    const std::int64_t t0 = now_ns();
    sim = load_fixture(opt.fixture);
    cases.clear();
    for (int v = 0; v < variants; ++v) {
      InverseVariant c;
      c.window = sim->window_from_trajectory(traj, v);
      core::SceneContext ctx;
      ctx.material = ad::Tensor::scalar(core::material_param_from_friction(target_deg));
      const auto frames = sim->rollout(c.window, ic.rollout_steps, ctx);
      c.target_runout = core::smooth_runout_value(frames.back(), kDim, ic.smooth_temp);
      cases.push_back(std::move(c));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const double limit = limit_ms(p, ic.rollout_steps, traj.num_particles);

  struct Solve {
    int variant = 0;
    std::vector<core::InverseIterate> iterates;
    std::vector<Outcome> timing;
    double seconds = 0.0;
  };
  const double min_mat = std::tan(ic.min_friction_deg * M_PI / 180.0);
  const double max_mat = std::tan(ic.max_friction_deg * M_PI / 180.0);
  auto solve = [&](int variant, SpanLog* log) {
    Solve s;
    s.variant = variant;
    const InverseVariant& c = cases[static_cast<std::size_t>(variant)];
    double material = std::tan(initial_deg * M_PI / 180.0);
    const std::int64_t t_solve = now_ns();
    for (int iter = 0; iter < ic.max_iterations; ++iter) {
      Outcome o;
      o.due_ns = o.sent_ns = now_ns();
      o.limit_ms = limit;
      o.frames = ic.rollout_steps;
      ScopedSpan it_span(log, "inverse.iteration");
      ad::Tensor theta = ad::Tensor::scalar(material, /*requires_grad=*/true);
      core::SceneContext ctx;
      ctx.material = theta;
      core::Window seed;
      for (const auto& t : c.window) seed.push_back(t.detach());
      std::vector<ad::Tensor> frames;
      {
        ScopedSpan span(log, "ad.forward", it_span.id());
        frames = sim->rollout_diff(seed, ic.rollout_steps, ctx);
      }
      o.first_ns = now_ns();
      ad::Tensor loss = ad::square(ad::add_scalar(
          core::smooth_runout(frames.back(), ic.smooth_temp), -c.target_runout));
      {
        ScopedSpan span(log, "ad.backward", it_span.id());
        loss.backward();
      }
      core::InverseIterate it;
      it.iteration = iter;
      it.material_param = material;
      it.friction_deg = std::atan(material) * 180.0 / M_PI;
      it.loss = loss.item();
      it.gradient = theta.grad().empty() ? 0.0 : theta.grad()[0];
      s.iterates.push_back(it);
      material = std::clamp(material - ic.lr * it.gradient, min_mat, max_mat);
      o.done_ns = now_ns();
      s.timing.push_back(o);
    }
    s.seconds = static_cast<double>(now_ns() - t_solve) * 1e-9;
    return s;
  };
  // Whole solves only, started while the pass lasts, over the variants in
  // balanced seeded order, so every pass has the same iteration mix.
  auto run_pass = [&](double seconds, SpanLog* log) {
    std::vector<Solve> solves;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<int> order;
    while (now_ns() < deadline) {
      if (order.empty()) order = shuffled(rng, static_cast<int>(cases.size()));
      solves.push_back(solve(order.back(), log));
      order.pop_back();
    }
    return solves;
  };

  std::vector<Solve> untraced;
  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  if (opt.trace) untraced = run_pass(pass_s, nullptr);
  SpanLog log;
  std::unique_ptr<SchedProbe> probe;
  const Counters before = Counters::now();
  if (opt.trace) probe = std::make_unique<SchedProbe>(5.0);
  const std::int64_t start = now_ns();
  std::vector<Solve> solves = run_pass(pass_s, opt.trace ? &log : nullptr);
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  const double rss_mb = peak_rss_mb();  // before the gate's own rollouts
  std::vector<double> sched_delay = probe ? probe->stop() : std::vector<double>{};
  const Counters after = Counters::now();

  // Output gate: every iterate equals core::solve_friction_angle's, bit for
  // bit, and every solve ends within tolerance of the target angle.
  auto final_deg = [&](const core::InverseIterate& last) {
    return std::atan(std::clamp(last.material_param - ic.lr * last.gradient,
                                min_mat, max_mat)) *
           180.0 / M_PI;
  };
  std::map<int, core::InverseResult> refs;
  auto gate = [&](std::vector<Solve>& list) {
    for (Solve& s : list) {
      const InverseVariant& c = cases[static_cast<std::size_t>(s.variant)];
      if (!refs.count(s.variant))
        refs[s.variant] = core::solve_friction_angle(
            *sim, c.window, c.target_runout, initial_deg, ic);
      const auto& ref = refs[s.variant].iterates;
      for (std::size_t i = 0; i < s.iterates.size(); ++i) {
        const auto& a = s.iterates[i];
        const bool same = i < ref.size() &&
                          a.material_param == ref[i].material_param &&
                          a.loss == ref[i].loss && a.gradient == ref[i].gradient;
        s.timing[i].ok = same;
        if (!same) {
          result.correct = false;
          if (result.gate_failures.size() < 8)
            result.gate_failures.push_back(
                "iterate " + std::to_string(i) + " of variant " +
                std::to_string(s.variant) + " differs from solve_friction_angle");
        }
      }
      const double last = final_deg(s.iterates.back());
      if (std::abs(last - target_deg) > p.get("tolerance_deg")) {
        result.correct = false;
        result.gate_failures.push_back("solve ended at " + std::to_string(last) +
                                       " deg, target " + std::to_string(target_deg));
      }
    }
  };
  gate(solves);
  gate(untraced);

  std::vector<Outcome> all;
  std::vector<double> solve_s, final_phi;
  for (const Solve& s : solves) {
    all.insert(all.end(), s.timing.begin(), s.timing.end());
    solve_s.push_back(s.seconds);
    final_phi.push_back(final_deg(s.iterates.back()));
  }
  end_to_end(result, setup_s, all, elapsed_s, rss_mb);
  for (const Solve& u : untraced) count_pass(result, u.timing);
  result.extra.push_back({"solve_s", median(solve_s), "s"});
  result.extra.push_back({"solves", static_cast<double>(solves.size()), "count"});
  result.extra.push_back({"final_phi_deg", median(final_phi), "deg"});

  if (opt.trace) {
    layer_metrics_from_pass(result, before, after, {}, sched_delay);
    std::vector<Outcome> base;
    for (const Solve& u : untraced)
      base.insert(base.end(), u.timing.begin(), u.timing.end());
    set_layer(result, "trace.overhead_share", overhead_share(all, base), "ratio");
    set_layer(result, "loadgen.offered_rps", static_cast<double>(all.size()) / elapsed_s, "1/s");
    // Replay the solve's forward rollouts (untaped) through the step layers.
    std::vector<Request> replay_reqs;
    for (int v = 0; v < std::min<int>(variants, 4); ++v) {
      Request r;
      r.request.model = kModel;
      r.request.steps = ic.rollout_steps;
      r.request.material = std::tan(initial_deg * M_PI / 180.0);
      for (const auto& t : cases[static_cast<std::size_t>(v)].window)
        r.request.window.push_back(core::tensor_to_frame(t));
      replay_reqs.push_back(std::move(r));
    }
    std::vector<const Request*> replay;
    for (const auto& r : replay_reqs) replay.push_back(&r);
    replay_into(result, *sim, replay);
    // The solve's own backward spans override the replay's probe.
    const auto totals = log.totals();
    const double steps = static_cast<double>(all.size()) * ic.rollout_steps;
    set_layer(result, "ad.backward_ms_per_step",
              steps > 0 ? totals.at("ad.backward").self_ms / steps : 0.0, "ms");
  }
  return result;
}

}  // namespace

Result run_workload(const Options& opt) {
  if (opt.workload == "wire_light") return run_wire(opt, false);
  if (opt.workload == "wire_heavy") return run_wire(opt, true);
  if (opt.workload == "fleet_repeat") return run_fleet(opt);
  if (opt.workload == "inverse_fit") return run_inverse(opt);
  throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
