// Bitwise reproducibility across reruns and executor worker counts.
//
// Every parallel loop runs on the work-stealing executor with a
// decomposition fixed by the problem size alone (exec/parallel_for.hpp):
//  - GNS / autograd: parallel regions are row-local (matmul rows,
//    layer-norm rows, gather/activation elementwise, scatter_add backward
//    rows). The cross-row reductions — scatter_add forward and gather
//    backward — run as CSR-transpose per-destination loops that accumulate
//    contributions in ascending original-index order whichever worker owns
//    a destination.
//  - MPM: P2G scatters into kP2gLanes fixed lanes reduced in ascending
//    lane order.
//  - SR: sr::evaluate sums serially up to kParallelFitnessSamples samples
//    and over kFitnessLanes fixed lanes, reduced in ascending order, above.
//  - CFD: every row sweep writes disjoint rows.
// No floating-point reassociation depends on the worker count, so results
// must be bitwise identical on rerun and at any GNS_EXEC_WORKERS. One
// process sees one worker count (the global executor is sized once), so
// the tests below check rerun identity and worker-count-free references;
// the `_w1` ctest leg and the CI GNS_EXEC_WORKERS matrix rerun them at
// other worker counts, and test_golden pins the outputs themselves.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ad/ops.hpp"
#include "cfd/cfd.hpp"
#include "core/trainer.hpp"
#include "mpm/scenes.hpp"
#include "mpm/solver.hpp"
#include "sr/genetic.hpp"
#include "util/rng.hpp"

namespace gns {
namespace {

// ---------- GNS rollout: bitwise invariance ----------

io::Trajectory seed_trajectory(int particles, std::uint64_t seed) {
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = particles;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  traj.material_param = 0.5;
  Rng rng(seed);
  std::vector<double> base(static_cast<std::size_t>(particles) * 2);
  for (auto& v : base) v = rng.uniform(0.2, 0.8);
  for (int t = 0; t < 8; ++t) {
    std::vector<double> frame(base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
      frame[i] = base[i] + 0.002 * t * static_cast<double>(i % 2);
    traj.add_frame(std::move(frame));
  }
  return traj;
}

std::vector<std::vector<double>> gns_rollout() {
  io::Dataset ds;
  ds.trajectories.push_back(seed_trajectory(12, 7));
  core::FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.35;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;
  core::GnsConfig gc;
  gc.latent = 16;
  gc.mlp_hidden = 16;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 3;
  gc.attention = true;
  core::LearnedSimulator sim = core::make_simulator(ds, fc, gc, /*seed=*/3);
  const core::Window window =
      sim.window_from_trajectory(ds.trajectories[0]);
  const core::SceneContext ctx =
      core::SceneContext::from_trajectory(fc, ds.trajectories[0]);
  return sim.rollout(window, /*steps=*/10, ctx);
}

TEST(Determinism, GnsRolloutRerunIsBitwise) {
  const auto first = gns_rollout();
  const auto second = gns_rollout();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t t = 0; t < first.size(); ++t) {
    ASSERT_EQ(first[t].size(), second[t].size());
    for (std::size_t k = 0; k < first[t].size(); ++k)
      EXPECT_EQ(first[t][k], second[t][k])
          << "frame " << t << " component " << k << " differs on rerun";
  }
}

TEST(Determinism, ScatterAddForwardAndBackwardBitwise) {
  // Large enough to clear the `if (work > 1<<15)` parallel thresholds.
  const int e = 40000, m = 4, nodes = 512;
  Rng rng(13);
  std::vector<ad::Real> vals(static_cast<std::size_t>(e) * m);
  for (auto& v : vals) v = rng.uniform(-1.0, 1.0);
  std::vector<int> index(e);
  for (auto& i : index) i = static_cast<int>(rng.uniform_index(nodes));

  auto run = [&] {
    ad::Tensor a = ad::Tensor::from_vector(e, m, vals, true);
    ad::Tensor out = ad::scatter_add_rows(a, index, nodes);
    ad::Tensor loss = ad::sum(ad::square(out));
    loss.backward();
    return std::pair{out.vec(), a.grad()};
  };
  const auto [out1, grad1] = run();
  const auto [out8, grad8] = run();
  for (std::size_t i = 0; i < out1.size(); ++i) EXPECT_EQ(out1[i], out8[i]);
  for (std::size_t i = 0; i < grad1.size(); ++i)
    EXPECT_EQ(grad1[i], grad8[i]);
}

TEST(Determinism, GatherBackwardCsrBitwise) {
  // The gather backward parallelizes over destination rows via the CSR
  // transpose; a duplicate-heavy index makes the per-destination
  // accumulation order matter. Reruns must agree bitwise.
  const int e = 40000, m = 4, nodes = 512;
  Rng rng(17);
  std::vector<ad::Real> vals(static_cast<std::size_t>(nodes) * m);
  for (auto& v : vals) v = rng.uniform(-1.0, 1.0);
  std::vector<int> index(e);
  // Half the gathers hit node 7 — one very hot destination.
  for (std::size_t i = 0; i < index.size(); ++i)
    index[i] = (i % 2 == 0) ? 7 : static_cast<int>(rng.uniform_index(nodes));

  auto run = [&] {
    ad::Tensor a = ad::Tensor::from_vector(nodes, m, vals, true);
    ad::Tensor out = ad::gather_rows(a, index);
    ad::Tensor loss = ad::sum(ad::square(out));
    loss.backward();
    return a.grad();
  };
  const auto grad1 = run();
  const auto grad8 = run();
  ASSERT_EQ(grad1.size(), grad8.size());
  for (std::size_t i = 0; i < grad1.size(); ++i)
    EXPECT_EQ(grad1[i], grad8[i]);
}

// ---------- MPM: rerun-bitwise ----------

mpm::MpmSolver column_solver() {
  mpm::GranularSceneParams params;
  params.cells_x = 20;
  params.cells_y = 10;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.material.friction_deg = 30.0;
  return mpm::make_column_collapse(params, 0.15, 1.5).make_solver();
}

std::vector<mpm::Vec2d> mpm_positions(int steps) {
  mpm::MpmSolver solver = column_solver();
  solver.run(steps);
  return solver.particles().position;
}

TEST(Determinism, MpmRerunIsBitwise) {
  const auto a = mpm_positions(50);
  const auto b = mpm_positions(50);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

// ---------- SR fitness: serial below the threshold, fixed lanes above ----------

/// y = 1.5 x0 - x1^2 + noise over n samples.
sr::SrProblem sr_problem(int n) {
  sr::SrProblem problem;
  problem.var_names = {"x0", "x1"};
  problem.var_dims = {sr::Dim{}, sr::Dim{}};
  Rng rng(41);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    problem.X.push_back({x0, x1});
    problem.y.push_back(1.5 * x0 - x1 * x1 + rng.uniform(-0.1, 0.1));
  }
  return problem;
}

/// 1.4 x0 - x1 * x1: close to the law, so every residual is non-trivial.
sr::ExprPtr sr_candidate() {
  return sr::Expr::binary(
      sr::Op::Sub,
      sr::Expr::binary(sr::Op::Mul, sr::Expr::constant(1.4),
                       sr::Expr::variable(0)),
      sr::Expr::binary(sr::Op::Mul, sr::Expr::variable(1),
                       sr::Expr::variable(1)));
}

/// Serial sum over samples [begin, end) in index order.
void serial_sums(const sr::Expr& expr, const sr::SrProblem& problem,
                 int begin, int end, double& abs_sum, double& sq_sum) {
  for (int i = begin; i < end; ++i) {
    const double d = expr.eval(problem.X[i]) - problem.y[i];
    abs_sum += std::abs(d);
    sq_sum += d * d;
  }
}

TEST(Determinism, SrEvaluateSmallIsThePlainSerialLoop) {
  const sr::ExprPtr expr = sr_candidate();
  for (const int n : {1000, sr::kParallelFitnessSamples}) {
    const sr::SrProblem problem = sr_problem(n);
    double abs_sum = 0.0, sq_sum = 0.0;
    serial_sums(*expr, problem, 0, n, abs_sum, sq_sum);
    const sr::FitnessResult fit = sr::evaluate(*expr, problem);
    ASSERT_TRUE(fit.valid);
    EXPECT_EQ(fit.mae, abs_sum / n) << "n " << n;
    EXPECT_EQ(fit.mse, sq_sum / n) << "n " << n;
  }
}

TEST(Determinism, SrEvaluateLargeIsBitwiseAndWorkerCountFree) {
  const int n = 10000;
  const sr::SrProblem problem = sr_problem(n);
  const sr::ExprPtr expr = sr_candidate();
  // Reference: the fixed-lane decomposition computed serially here, lanes
  // summed in ascending order — it has no worker count to depend on.
  double abs_sum = 0.0, sq_sum = 0.0;
  for (int l = 0; l < sr::kFitnessLanes; ++l) {
    double lane_abs = 0.0, lane_sq = 0.0;
    serial_sums(*expr, problem, n * l / sr::kFitnessLanes,
                n * (l + 1) / sr::kFitnessLanes, lane_abs, lane_sq);
    abs_sum += lane_abs;
    sq_sum += lane_sq;
  }
  const sr::FitnessResult first = sr::evaluate(*expr, problem);
  const sr::FitnessResult second = sr::evaluate(*expr, problem);
  ASSERT_TRUE(first.valid);
  EXPECT_EQ(first.mae, second.mae);
  EXPECT_EQ(first.mse, second.mse);
  EXPECT_EQ(first.mae, abs_sum / n);
  EXPECT_EQ(first.mse, sq_sum / n);
}

// ---------- CFD: rerun-bitwise on a grid large enough to run parallel ----------

std::vector<double> cfd_fields_after(int steps) {
  cfd::CfdConfig cfg;
  cfg.nx = 96;  // 96 x 48 cells: above the parallel-sweep threshold
  cfg.ny = 48;
  cfg.pressure_iters = 40;
  cfd::CfdSolver solver(cfg);
  for (int s = 0; s < steps; ++s) solver.step();
  std::vector<double> fields = solver.u();
  fields.insert(fields.end(), solver.v().begin(), solver.v().end());
  fields.insert(fields.end(), solver.pressure().begin(),
                solver.pressure().end());
  return fields;
}

TEST(Determinism, CfdRerunIsBitwise) {
  const auto a = cfd_fields_after(8);
  const auto b = cfd_fields_after(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "field value " << i;
}

}  // namespace
}  // namespace gns
