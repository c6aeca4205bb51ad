// Perf — steady-state rollout throughput with Verlet-skin neighbor reuse
// (GNS_SKIN) off and on. The fused MLP and SIMD graph/MPM kernels are
// always on.
//
// Runs both settings on the Fig-3 columns configuration (held-out friction
// angle), reports steps/sec and the neighbor-list reuse share for each,
// and verifies that both produce bitwise-identical rollout frames — skin
// reuse trades neighbor rebuilds for speed, never results.
//
// `--small` runs a scaled-down fixture (tiny model trained in seconds,
// cached) for CI perf-smoke; the JSON then carries small=1.
//
// Output: BENCH_rollout.json in the bench cache with
// skin{0,1}_steps_per_sec, skin{0,1}_reuse, speedup_skin and
// identical_outputs.

#include <array>
#include <cstring>
#include <string>

#include "bench_common.hpp"

using namespace gns;
using namespace gns::bench;

namespace {

constexpr double kSkinFraction = 0.25;

/// Tiny fixture for --small: one short column collapse, a 16-latent model
/// trained for a few seconds, cached like the big models.
FeatureConfig small_features() {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.05;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 0.5};
  fc.material_feature = false;
  return fc;
}

mpm::GranularSceneParams small_scene() {
  mpm::GranularSceneParams params;
  params.cells_x = 16;
  params.cells_y = 8;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.particles_per_cell_dim = 2;
  return params;
}

io::Dataset small_dataset() {
  return generate_column_dataset(small_scene(), {30.0}, kColumnWidth,
                                 kColumnAspect, /*frames=*/30,
                                 /*substeps=*/10);
}

LearnedSimulator small_simulator(const io::Dataset& ds) {
  const std::string path = cache_dir() + "/gns_rollout_small_v1.bin";
  if (auto sim = load_simulator(path)) {
    std::printf("[cache] loaded small model from %s\n", path.c_str());
    return std::move(*sim);
  }
  std::printf("[train] small rollout model...\n");
  GnsConfig gc;
  gc.latent = 16;
  gc.mlp_hidden = 16;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 2;
  LearnedSimulator sim = make_simulator(ds, small_features(), gc);
  TrainConfig tc;
  tc.steps = 120;
  tc.lr = 2e-3;
  tc.noise_std = 3e-4;
  tc.log_every = 60;
  train_gns(sim, ds, tc);
  save_simulator(sim, path);
  return sim;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small =
      argc > 1 && std::strcmp(argv[1], "--small") == 0;
  print_header(
      "Rollout perf: Verlet-skin neighbor reuse off / on",
      "skin reuse changes cost, not results (bitwise-identical frames)");
  configured_threads();

  io::Dataset test;
  LearnedSimulator sim = [&]() -> LearnedSimulator {
    if (small) {
      test = small_dataset();
      return small_simulator(test);
    }
    LearnedSimulator columns = columns_simulator();
    test = generate_column_dataset(granular_scene(), {30.0}, kColumnWidth,
                                   kColumnAspect, kFrames, kSubsteps);
    return columns;
  }();

  const io::Trajectory& traj = test.trajectories[0];
  const Window win = sim.window_from_trajectory(traj);
  SceneContext ctx;
  if (sim.features().material_feature)
    ctx.material = ad::Tensor::scalar(core::material_param_from_friction(30.0));
  const int steps = traj.num_frames() - sim.features().window_size();
  const int reps = small ? 2 : 5;
  std::printf("\n%d particles, %d rollout steps, best of %d reps\n",
              traj.num_particles, steps, reps);
  std::printf("%12s %14s %12s %10s\n", "skin", "steps/sec", "nbr reuse",
              "identical");

  auto& rebuilds =
      obs::MetricsRegistry::global().counter("graph.neighbor.rebuild");
  auto& reuses =
      obs::MetricsRegistry::global().counter("graph.neighbor.reuse");

  // Reps alternate skin off / on (rather than timing each setting's reps
  // back to back) so slow phases of a shared machine penalize both
  // equally; best-of-reps then discards the noise floor.
  std::vector<std::vector<double>> baseline_frames;
  std::array<double, 2> best{};
  std::array<double, 2> reuse_frac{};
  std::array<bool, 2> same{};
  bool identical = true;
  graph::set_default_skin_fraction(0.0);
  (void)sim.rollout(win, steps, ctx);  // page in weights before timing
  for (int rep = 0; rep < reps; ++rep) {
    for (int skin = 0; skin < 2; ++skin) {
      graph::set_default_skin_fraction(skin ? kSkinFraction : 0.0);
      const std::uint64_t rb0 = rebuilds.value(), ru0 = reuses.value();
      Timer timer;
      const std::vector<std::vector<double>> frames =
          sim.rollout(win, steps, ctx);
      best[skin] = std::max(best[skin], steps / timer.seconds());
      const std::uint64_t rb = rebuilds.value() - rb0;
      const std::uint64_t ru = reuses.value() - ru0;
      reuse_frac[skin] =
          rb + ru > 0
              ? static_cast<double>(ru) / static_cast<double>(rb + ru)
              : 0.0;
      if (rep == 0 && skin == 0) baseline_frames = frames;
      same[skin] = frames == baseline_frames;
      identical = identical && same[skin];
    }
  }
  graph::set_default_skin_fraction(0.0);

  std::vector<std::pair<std::string, double>> fields;
  for (int skin = 0; skin < 2; ++skin) {
    const std::string key = "skin" + std::to_string(skin);
    std::printf("%12s %14.2f %11.0f%% %10s\n", skin ? "on" : "off",
                best[skin], 100.0 * reuse_frac[skin],
                same[skin] ? "yes" : "NO");
    fields.emplace_back(key + "_steps_per_sec", best[skin]);
    fields.emplace_back(key + "_reuse", reuse_frac[skin]);
  }
  const double speedup = best[0] > 0.0 ? best[1] / best[0] : 0.0;
  print_rule();
  std::printf("skin on/off speedup: %.2fx   outputs %s\n", speedup,
              identical ? "bitwise identical"
                        : "DIVERGED — skin reuse bug");
  fields.emplace_back("speedup_skin", speedup);
  fields.emplace_back("identical_outputs", identical ? 1.0 : 0.0);
  fields.emplace_back("particles", static_cast<double>(traj.num_particles));
  fields.emplace_back("rollout_steps", static_cast<double>(steps));
  fields.emplace_back("small", small ? 1.0 : 0.0);
  write_json("rollout", fields);
  return identical ? 0 : 1;
}
