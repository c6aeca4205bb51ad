// Per-layer probes of the traced run. Every figure here is measured by the
// benchmark's own spans around calls into the layers' public functions:
// the rollout step is replayed as graph build -> features -> GNS forward
// -> integrate, exactly the sequence LearnedSimulator::step runs, and the
// replayed frames must equal LearnedSimulator::rollout's bitwise.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "ad/arena.hpp"
#include "ad/nn.hpp"
#include "bench.hpp"
#include "core/batched_simulator.hpp"
#include "core/features.hpp"
#include "core/graph_index.hpp"
#include "exec/executor.hpp"
#include "graph/neighbor_search.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

using namespace gns;

namespace {

core::Window window_of(const serve::RolloutRequest& req) {
  core::Window w;
  for (const auto& frame : req.window)
    w.push_back(core::frame_to_tensor(frame, 2));
  return w;
}

core::SceneContext context_of(const serve::RolloutRequest& req) {
  core::SceneContext ctx;
  ctx.material = ad::Tensor::scalar(req.material);
  return ctx;
}

/// Flops of one Mlp::forward on `rows` rows (two per multiply-add).
double mlp_flops(int rows, int in, int hidden, int layers, int out) {
  double per_row = 0.0;
  int prev = in;
  for (int i = 0; i < layers; ++i) {
    per_row += static_cast<double>(prev) * hidden;
    prev = hidden;
  }
  per_row += static_cast<double>(prev) * out;
  return 2.0 * rows * per_row;
}

/// Rate of Mlp::forward at the model's widths and the replayed steps'
/// node and edge counts: one step's worth of MLP calls per sample.
double mlp_rate(const core::GnsConfig& c,
                const std::vector<std::pair<int, int>>& node_edge_counts,
                SpanLog& log) {
  Rng rng(7);
  const int h = c.mlp_hidden, l = c.mlp_layers, lat = c.latent;
  ad::Mlp node_enc(c.node_in, h, l, lat, rng, true);
  ad::Mlp edge_enc(c.edge_in, h, l, lat, rng, true);
  ad::Mlp edge_mlp(3 * lat, h, l, lat, rng, true);
  ad::Mlp node_mlp(2 * lat, h, l, lat, rng, true);
  ad::Mlp decoder(lat, h, l, c.out_dim, rng, false);
  ad::NoGradGuard no_grad;
  double flops = 0.0, seconds = 0.0;
  for (const auto& [n, e] : node_edge_counts) {
    const ad::Tensor xn = ad::Tensor::full(n, c.node_in, 0.5);
    const ad::Tensor xe = ad::Tensor::full(std::max(e, 1), c.edge_in, 0.25);
    const ad::Tensor hn = ad::Tensor::full(n, 2 * lat, 0.1);
    const ad::Tensor he = ad::Tensor::full(std::max(e, 1), 3 * lat, 0.1);
    const ad::Tensor ln = ad::Tensor::full(n, lat, 0.1);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(&log, "ad.mlp_forward");
      ad::ArenaScope arena;
      (void)node_enc.forward(xn);
      (void)edge_enc.forward(xe);
      for (int m = 0; m < c.message_passing_steps; ++m) {
        (void)edge_mlp.forward(he);
        (void)node_mlp.forward(hn);
      }
      (void)decoder.forward(ln);
    }
    seconds += static_cast<double>(now_ns() - t0) * 1e-9;
    const int ee = std::max(e, 1);
    flops += mlp_flops(n, c.node_in, h, l, lat) +
             mlp_flops(ee, c.edge_in, h, l, lat) +
             c.message_passing_steps * (mlp_flops(ee, 3 * lat, h, l, lat) +
                                        mlp_flops(n, 2 * lat, h, l, lat)) +
             mlp_flops(n, lat, h, l, c.out_dim);
  }
  return seconds > 0 ? flops / seconds * 1e-9 : 0.0;
}

}  // namespace

ReplayFigures replay_requests(const core::LearnedSimulator& sim,
                              const std::vector<const Request*>& requests,
                              SpanLog& log) {
  ReplayFigures f;
  const core::FeatureConfig& fc = sim.features();
  const core::Normalizer& norm = sim.normalizer();
  const double skin = graph::default_skin_fraction() * fc.connectivity_radius;
  std::size_t steps = 0, rebuilds = 0;
  double edges = 0.0, nodes = 0.0;
  std::vector<std::pair<int, int>> counts;
  double rollout_s = 0.0;

  for (const Request* r : requests) {
    const serve::RolloutRequest& req = r->request;
    const core::SceneContext ctx = context_of(req);
    std::vector<std::vector<double>> frames;
    {
      ad::NoGradGuard no_grad;
      core::Window window = window_of(req);
      graph::CellList cells = core::make_rollout_cells(fc, skin);
      std::vector<graph::Vec2> pts;
      for (int s = 0; s < req.steps; ++s) {
        ad::ArenaScope arena;
        const ad::Tensor& newest = window.back();
        ScopedSpan step(&log, "core.step");
        graph::Graph g;
        core::GraphIndex index;
        {
          ScopedSpan span(&log, "graph.neighbor", step.id());
          pts.resize(static_cast<std::size_t>(newest.rows()));
          for (int i = 0; i < newest.rows(); ++i)
            pts[static_cast<std::size_t>(i)] = {newest.at(i, 0),
                                                newest.at(i, 1)};
          // maybe_rebuild reports whether the Verlet list had to be
          // rebuilt; build_graph_cached then reuses it (identical edges).
          if (cells.maybe_rebuild(pts)) ++rebuilds;
          g = core::build_graph_cached(fc, newest, cells);
          index = core::GraphIndex(g);
        }
        ad::Tensor node_feats, edge_feats;
        {
          ScopedSpan span(&log, "core.features", step.id());
          node_feats = core::build_node_features(fc, norm, window, ctx);
          edge_feats = core::build_edge_features(fc, newest, g, index);
        }
        core::GnsOutput out;
        {
          ScopedSpan span(&log, "core.gns_forward", step.id());
          out = sim.model().forward(node_feats, edge_feats, g, index);
        }
        ad::Tensor next;
        {
          ScopedSpan span(&log, "core.integrate", step.id());
          const ad::Tensor accel =
              norm.denormalize_acceleration(out.acceleration);
          const ad::Tensor& xprev = window[window.size() - 2];
          next = ad::add(newest, ad::add(ad::sub(newest, xprev), accel));
        }
        frames.push_back(core::tensor_to_frame(next));
        counts.emplace_back(g.num_nodes, g.num_edges());
        edges += g.num_edges();
        nodes += g.num_nodes;
        ++steps;
        window.erase(window.begin());
        window.push_back(next);
      }
    }
    // The whole-rollout path, timed, and checked against the replay.
    const std::int64_t t0 = now_ns();
    std::vector<std::vector<double>> served;
    {
      ScopedSpan span(&log, "core.rollout");
      served = sim.rollout(window_of(req), req.steps, ctx);
    }
    rollout_s += static_cast<double>(now_ns() - t0) * 1e-9;
    if (served != frames) f.matches_served = false;
  }

  // Batched rollouts of the same requests, four members per batch.
  auto shared = std::make_shared<const core::LearnedSimulator>(sim);
  const core::BatchedSimulator batched(shared);
  double batched_s = 0.0;
  std::size_t batched_steps = 0;
  for (std::size_t i = 0; i < requests.size(); i += 4) {
    std::vector<core::Window> windows;
    std::vector<int> member_steps;
    std::vector<core::SceneContext> contexts;
    for (std::size_t j = i; j < std::min(requests.size(), i + 4); ++j) {
      windows.push_back(window_of(requests[j]->request));
      member_steps.push_back(requests[j]->request.steps);
      contexts.push_back(context_of(requests[j]->request));
      batched_steps += static_cast<std::size_t>(requests[j]->request.steps);
    }
    const std::int64_t t0 = now_ns();
    ScopedSpan span(&log, "core.batched_rollout");
    (void)batched.rollout(windows, member_steps, contexts);
    batched_s += static_cast<double>(now_ns() - t0) * 1e-9;
  }

  const auto totals = log.totals();
  auto per_step = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || steps == 0 ? 0.0
                                            : it->second.self_ms / steps;
  };
  f.neighbor_ms_per_step = per_step("graph.neighbor");
  f.features_ms_per_step = per_step("core.features");
  f.forward_ms_per_step = per_step("core.gns_forward");
  f.integrate_ms_per_step = per_step("core.integrate");
  f.edges_per_particle = nodes > 0 ? edges / nodes : 0.0;
  f.reuse_ratio =
      steps > 0 ? 1.0 - static_cast<double>(rebuilds) / steps : 0.0;
  f.rollout_steps_per_s = rollout_s > 0 ? steps / rollout_s : 0.0;
  f.batched_steps_per_s =
      batched_s > 0 ? static_cast<double>(batched_steps) / batched_s : 0.0;
  f.mlp_gflops = mlp_rate(sim.model().config(), counts, log);

  // The taped path on the same requests: a differentiable rollout with
  // respect to the material parameter, then backward (the inverse
  // problem's kernels).
  double backward_ms = 0.0;
  std::size_t taped_steps = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(requests.size(), 2); ++i) {
    const serve::RolloutRequest& req = requests[i]->request;
    core::SceneContext ctx;
    ctx.material = ad::Tensor::scalar(req.material, /*requires_grad=*/true);
    const auto frames = sim.rollout_diff(window_of(req), req.steps, ctx);
    ad::Tensor loss = ad::sum(frames.back());
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(&log, "ad.backward");
      loss.backward();
    }
    backward_ms += static_cast<double>(now_ns() - t0) * 1e-6;
    taped_steps += static_cast<std::size_t>(req.steps);
  }
  f.backward_ms_per_step = taped_steps ? backward_ms / taped_steps : 0.0;
  return f;
}

// ---- Peak probe -------------------------------------------------------------

namespace {

constexpr int kChains = 10;

#if defined(__x86_64__) && defined(__GNUC__)
/// kChains independent 4-lane mul-then-add chains: the same separate
/// _mm256_mul_pd / _mm256_add_pd pair the fused linear kernel issues.
__attribute__((target("avx2"))) double muladd_avx2(long iterations,
                                                   double seed) {
  __m256d acc[kChains];
  for (int u = 0; u < kChains; ++u) acc[u] = _mm256_set1_pd(seed + u);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d c = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iterations; ++i)
    for (int u = 0; u < kChains; ++u)
      acc[u] = _mm256_add_pd(_mm256_mul_pd(acc[u], m), c);
  double lanes[4];
  __m256d sum = acc[0];
  for (int u = 1; u < kChains; ++u) sum = _mm256_add_pd(sum, acc[u]);
  _mm256_storeu_pd(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
#endif

double muladd_scalar(long iterations, double seed) {
  double acc[kChains * 4];
  for (int u = 0; u < kChains * 4; ++u) acc[u] = seed + u;
  for (long i = 0; i < iterations; ++i)
    for (double& a : acc) a = a * 0.999999 + 1e-7;
  double sum = 0.0;
  for (double a : acc) sum += a;
  return sum;
}

}  // namespace

double peak_gflops(int threads) {
  const long iterations = 20'000'000;
  std::atomic<double> sink{0.0};
  std::vector<std::thread> pool;
  const std::int64_t t0 = now_ns();
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      double r;
#if defined(__x86_64__) && defined(__GNUC__)
      if (simd::cpu_has_avx2())
        r = muladd_avx2(iterations, 1.0 + t);
      else
#endif
        r = muladd_scalar(iterations, 1.0 + t);
      double cur = sink.load();
      while (!sink.compare_exchange_weak(cur, cur + r)) {
      }
    });
  for (auto& th : pool) th.join();
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  const double flops = 2.0 * 4.0 * kChains * static_cast<double>(iterations) *
                       threads;
  return sink.load() != 0.0 && seconds > 0 ? flops / seconds * 1e-9 : 0.0;
}

// ---- Scheduling-delay probe -------------------------------------------------

struct SchedProbe::State {
  std::mutex m;
  std::condition_variable cv;
  std::vector<double> delays_us;
  int outstanding = 0;
  bool stop = false;
  std::thread thread;
};

SchedProbe::SchedProbe(double period_ms) : state_(std::make_shared<State>()) {
  auto st = state_;
  st->thread = std::thread([st, period_ms] {
    std::unique_lock<std::mutex> lock(st->m);
    while (!st->stop) {
      ++st->outstanding;
      const std::int64_t submitted = now_ns();
      lock.unlock();
      exec::Executor::global().submit([st, submitted] {
        const double us = static_cast<double>(now_ns() - submitted) * 1e-3;
        std::lock_guard<std::mutex> g(st->m);
        st->delays_us.push_back(us);
        --st->outstanding;
        st->cv.notify_all();
      });
      lock.lock();
      st->cv.wait_for(lock, std::chrono::duration<double, std::milli>(
                                period_ms),
                      [&] { return st->stop; });
    }
  });
}

SchedProbe::~SchedProbe() { (void)stop(); }

std::vector<double> SchedProbe::stop() {
  {
    std::lock_guard<std::mutex> lock(state_->m);
    state_->stop = true;
  }
  state_->cv.notify_all();
  if (state_->thread.joinable()) state_->thread.join();
  std::unique_lock<std::mutex> lock(state_->m);
  state_->cv.wait(lock, [&] { return state_->outstanding == 0; });
  return state_->delays_us;
}

}  // namespace perfbench
