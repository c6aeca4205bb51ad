#include "core/trainer.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace gns::core {

LearnedSimulator make_simulator(const io::Dataset& dataset,
                                FeatureConfig features,
                                GnsConfig model_config, std::uint64_t seed) {
  GNS_CHECK_MSG(dataset.size() > 0, "make_simulator on empty dataset");
  const io::Trajectory& first = dataset.trajectories.front();
  GNS_CHECK_MSG(first.dim == features.dim,
                "dataset dim " << first.dim << " vs feature dim "
                               << features.dim);
  // Default domain bounds from the data when the caller left them empty.
  if (static_cast<int>(features.domain_lo.size()) < features.dim &&
      !first.domain_lo.empty()) {
    features.domain_lo = first.domain_lo;
    features.domain_hi = first.domain_hi;
  }
  Normalizer norm(io::compute_stats(dataset));
  model_config.node_in = features.node_feature_count();
  model_config.edge_in = features.edge_feature_count();
  model_config.out_dim = features.dim;
  Rng rng(seed);
  auto model = std::make_shared<GnsModel>(model_config, rng);
  return LearnedSimulator(std::move(model), std::move(features),
                          std::move(norm));
}

TrainReport train_gns(LearnedSimulator& sim, const io::Dataset& dataset,
                      const TrainConfig& config,
                      const std::function<void(int, double)>& progress) {
  GNS_CHECK_MSG(dataset.size() > 0, "train_gns on empty dataset");
  const FeatureConfig& feats = sim.features();
  const int window = feats.window_size();
  for (const auto& traj : dataset.trajectories) {
    GNS_CHECK_MSG(traj.num_frames() >= window + 1,
                  "trajectory too short to train on (needs "
                      << window + 1 << " frames)");
  }

  Rng rng(config.seed);
  ad::Adam opt(sim.model().parameters(), config.lr);
  const double lr_decay =
      (config.steps > 1)
          ? std::pow(config.lr_final / config.lr,
                     1.0 / static_cast<double>(config.steps - 1))
          : 1.0;

  TrainReport report;
  report.loss_history.reserve(config.steps);
  double ema = 0.0;
  bool ema_init = false;

  static auto& forward_ms =
      obs::MetricsRegistry::global().histogram("core.trainer.forward_ms");
  static auto& backward_ms =
      obs::MetricsRegistry::global().histogram("core.trainer.backward_ms");
  static auto& optimizer_ms =
      obs::MetricsRegistry::global().histogram("core.trainer.optimizer_ms");
  static auto& step_count =
      obs::MetricsRegistry::global().counter("core.trainer.steps");

  for (int step = 0; step < config.steps; ++step) {
    GNS_TRACE_SCOPE_I("core.trainer.step", step);
    step_count.add();
    const auto& traj = dataset.trajectories[rng.uniform_index(
        dataset.trajectories.size())];
    // Sample t so frames [t, t+window] exist: window positions + target.
    const int t0 = static_cast<int>(
        rng.uniform_index(traj.num_frames() - window));
    const int n = traj.num_particles;
    const int dim = traj.dim;

    // Random-walk noise: per-frame velocity noise accumulates into the
    // position window; the last window position's accumulated noise also
    // perturbs the target acceleration so the model learns to pull the
    // system back toward the data manifold.
    std::vector<std::vector<double>> noisy(window);
    std::vector<double> walk(n * dim, 0.0);
    const double step_std =
        config.noise_std / std::sqrt(static_cast<double>(feats.history));
    for (int w = 0; w < window; ++w) {
      noisy[w] = traj.frames[t0 + w];
      if (w > 0 && config.noise_std > 0.0) {
        for (int i = 0; i < n * dim; ++i)
          walk[i] += rng.gauss(0.0, step_std);
      }
      for (int i = 0; i < n * dim; ++i) noisy[w][i] += walk[i];
    }

    Window win;
    win.reserve(window);
    for (const auto& frame : noisy) win.push_back(frame_to_tensor(frame, dim));

    const SceneContext context = SceneContext::from_trajectory(feats, traj);

    // Target acceleration adjusted for the injected noise: the model should
    // predict the acceleration that lands the *clean* next frame from the
    // *noisy* current state: a = x_clean(t+1) − 2 x_noisy(t) + x_noisy(t−1).
    std::vector<ad::Real> target(n * dim);
    const auto& clean_next = traj.frames[t0 + window];
    for (int i = 0; i < n * dim; ++i) {
      target[i] = clean_next[i] - 2.0 * noisy[window - 1][i] +
                  noisy[window - 2][i];
    }
    ad::Tensor target_acc =
        ad::Tensor::from_vector(n, dim, std::move(target));

    // Forward in normalized space.
    ad::Tensor loss;
    {
      GNS_TRACE_SCOPE("core.trainer.forward");
      const obs::ScopedHistogramTimer phase_timer(forward_ms);
      const ad::Tensor& newest = win.back();
      const graph::Graph graph = build_graph(feats, newest);
      const GraphIndex graph_index(graph);
      ad::Tensor node_feats =
          build_node_features(feats, sim.normalizer(), win, context);
      ad::Tensor edge_feats =
          build_edge_features(feats, newest, graph, graph_index);
      GnsOutput out =
          sim.model().forward(node_feats, edge_feats, graph, graph_index);
      ad::Tensor target_norm =
          sim.normalizer().normalize_acceleration(target_acc);
      loss = ad::mse_loss(out.acceleration, target_norm);
      if (config.l1_message_weight > 0.0) {
        loss = ad::add(loss, ad::mul_scalar(ad::l1_norm(out.messages),
                                            config.l1_message_weight));
      }
    }

    {
      GNS_TRACE_SCOPE("core.trainer.backward");
      const obs::ScopedHistogramTimer phase_timer(backward_ms);
      opt.zero_grad();
      loss.backward();
    }

    {
      GNS_TRACE_SCOPE("core.trainer.optimizer");
      const obs::ScopedHistogramTimer phase_timer(optimizer_ms);
      if (config.grad_clip > 0.0) opt.clip_grad_norm(config.grad_clip);
      opt.set_lr(config.lr * std::pow(lr_decay, step));
      opt.step();
    }

    const double l = loss.item();
    report.loss_history.push_back(l);
    ema = ema_init ? 0.98 * ema + 0.02 * l : l;
    ema_init = true;
    if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
      GNS_INFO("train step " << step + 1 << "/" << config.steps
                             << " loss_ema=" << ema);
      if (progress) progress(step + 1, ema);
    }
  }
  report.final_loss_ema = ema;
  report.steps = config.steps;
  return report;
}

}  // namespace gns::core
