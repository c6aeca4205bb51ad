// NN modules: Linear, LayerNorm, Mlp — shapes, parameter bookkeeping,
// state round-trips, gradient flow, and a small regression convergence.

#include <gtest/gtest.h>

#include <cmath>

#include "ad/gradcheck.hpp"
#include "ad/nn.hpp"
#include "ad/optim.hpp"

namespace gns::ad {
namespace {

TEST(Linear, ShapesAndParamCount) {
  Rng rng(1);
  Linear lin(4, 3, rng);
  EXPECT_EQ(lin.in_features(), 4);
  EXPECT_EQ(lin.out_features(), 3);
  EXPECT_EQ(lin.num_parameters(), 4 * 3 + 3);
  Tensor y = lin.forward(Tensor::ones(5, 4));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  Linear lin(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(lin.num_parameters(), 12);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(3);
  Linear lin(4, 3, rng);
  EXPECT_THROW(lin.forward(Tensor::ones(5, 5)), CheckError);
}

TEST(Linear, GlorotInitBounded) {
  Rng rng(4);
  Linear lin(10, 10, rng);
  const double limit = std::sqrt(6.0 / 20.0);
  for (Real w : lin.weight().vec()) {
    EXPECT_LE(std::abs(w), limit + 1e-12);
  }
}

TEST(Mlp, DepthAndWidths) {
  Rng rng(5);
  Mlp mlp(6, 16, 2, 3, rng, /*output_layer_norm=*/true);
  EXPECT_EQ(mlp.in_features(), 6);
  EXPECT_EQ(mlp.out_features(), 3);
  // 6->16, 16->16, 16->3 + LN(3)
  const std::int64_t expected =
      (6 * 16 + 16) + (16 * 16 + 16) + (16 * 3 + 3) + 2 * 3;
  EXPECT_EQ(mlp.num_parameters(), expected);
  Tensor y = mlp.forward(Tensor::ones(7, 6));
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Mlp, ZeroHiddenLayersIsAffine) {
  Rng rng(6);
  Mlp mlp(3, 99, 0, 2, rng);
  EXPECT_EQ(mlp.num_parameters(), 3 * 2 + 2);
}

TEST(Mlp, OutputLayerNormRowsAreNormalized) {
  Rng rng(7);
  Mlp mlp(4, 8, 1, 6, rng, /*output_layer_norm=*/true);
  std::vector<Real> data(3 * 4);
  Rng data_rng(8);
  for (auto& v : data) v = data_rng.uniform(-1, 1);
  Tensor y = mlp.forward(Tensor::from_vector(3, 4, std::move(data)));
  for (int r = 0; r < y.rows(); ++r) {
    double mean = 0;
    for (int c = 0; c < y.cols(); ++c) mean += y.at(r, c);
    EXPECT_NEAR(mean / y.cols(), 0.0, 1e-9);
  }
}

TEST(Module, StateRoundTrip) {
  Rng rng(9);
  Mlp a(4, 8, 2, 2, rng, true);
  Mlp b(4, 8, 2, 2, rng, true);
  // Same shape, different weights; loading a's state makes them agree.
  b.load_state(a.state());
  Tensor x = Tensor::ones(2, 4);
  Tensor ya = a.forward(x);
  Tensor yb = b.forward(x);
  for (int i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Module, LoadStateRejectsWrongLength) {
  Rng rng(10);
  Mlp mlp(2, 4, 1, 1, rng);
  std::vector<Real> bad(3, 0.0);
  EXPECT_THROW(mlp.load_state(bad), CheckError);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(11);
  Linear lin(3, 2, rng);
  Tensor loss = sum(square(lin.forward(Tensor::ones(4, 3))));
  loss.backward();
  bool any_nonzero = false;
  for (const auto& p : lin.parameters())
    for (Real g : p.grad()) any_nonzero |= (g != 0.0);
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (const auto& p : lin.parameters())
    for (Real g : p.grad()) EXPECT_EQ(g, 0.0);
}

TEST(Mlp, GradCheckThroughWholeNetwork) {
  Rng rng(12);
  Mlp mlp(3, 6, 1, 2, rng, /*output_layer_norm=*/true, Activation::Tanh);
  std::vector<Real> xdata(2 * 3);
  Rng drng(13);
  for (auto& v : xdata) v = drng.uniform(-1, 1);
  Tensor x = Tensor::from_vector(2, 3, std::move(xdata));
  auto params = mlp.parameters();
  auto result = grad_check(
      [&](const std::vector<Tensor>&) {
        return mean(square(mlp.forward(x)));
      },
      params, /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(Mlp, LearnsLinearMap) {
  // y = 2 x0 − x1 + 0.5; an MLP + Adam should fit this quickly.
  Rng rng(14);
  Mlp mlp(2, 16, 1, 1, rng);
  Adam opt(mlp.parameters(), 1e-2);
  Rng data_rng(15);
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    std::vector<Real> x(16 * 2), y(16);
    for (int i = 0; i < 16; ++i) {
      x[2 * i] = data_rng.uniform(-1, 1);
      x[2 * i + 1] = data_rng.uniform(-1, 1);
      y[i] = 2.0 * x[2 * i] - x[2 * i + 1] + 0.5;
    }
    Tensor loss =
        mse_loss(mlp.forward(Tensor::from_vector(16, 2, std::move(x))),
                 Tensor::from_vector(16, 1, std::move(y)));
    opt.zero_grad();
    loss.backward();
    opt.step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 1e-3);
}

// ---- Fused linear kernels ---------------------------------------------------

Tensor random_input(int rows, int cols, unsigned seed) {
  Rng rng(seed);
  std::vector<Real> data(static_cast<std::size_t>(rows) * cols);
  for (auto& v : data) v = rng.uniform(-1, 1);
  return Tensor::from_vector(rows, cols, std::move(data));
}

TEST(FusedLinear, MatchesUnfusedChainBitwise) {
  // The fused kernel replicates matmul -> +bias -> activation's exact FP
  // operation sequence, so forward values must be equal, not just close.
  Rng rng(40);
  Linear lin(7, 5, rng);
  const Tensor x = random_input(9, 7, 41);
  const Tensor ref_relu = relu(lin.forward(x));
  const Tensor ref_tanh = tanh_op(lin.forward(x));
  const Tensor ref_id = lin.forward(x);
  EXPECT_EQ(linear_act(x, lin.weight(), lin.bias(), FusedAct::ReLU).vec(),
            ref_relu.vec());
  EXPECT_EQ(linear_act(x, lin.weight(), lin.bias(), FusedAct::Tanh).vec(),
            ref_tanh.vec());
  EXPECT_EQ(linear_act(x, lin.weight(), lin.bias(), FusedAct::Identity).vec(),
            ref_id.vec());
}

TEST(FusedLinear, NoBiasVariant) {
  Rng rng(42);
  Linear lin(4, 3, rng, /*bias=*/false);
  const Tensor x = random_input(6, 4, 43);
  const Tensor fused = linear_act(x, lin.weight(), Tensor{}, FusedAct::ReLU);
  EXPECT_EQ(fused.vec(), relu(matmul(x, lin.weight())).vec());
}

TEST(FusedLinear, RejectsBadShapes) {
  Rng rng(44);
  Linear lin(4, 3, rng);
  EXPECT_THROW(
      linear_act(Tensor::ones(2, 5), lin.weight(), lin.bias(), FusedAct::ReLU),
      CheckError);
  EXPECT_THROW(
      linear_act(Tensor::ones(2, 4), lin.weight(), Tensor::ones(1, 2),
                 FusedAct::ReLU),
      CheckError);
}

TEST(FusedLinear, GradCheckAllActivations) {
  for (FusedAct act :
       {FusedAct::Identity, FusedAct::ReLU, FusedAct::Tanh}) {
    Rng rng(45);
    Linear lin(3, 4, rng);
    Tensor x = random_input(5, 3, 46).set_requires_grad();
    std::vector<Tensor> params = lin.parameters();
    params.push_back(x);
    auto result = grad_check(
        [&](const std::vector<Tensor>&) {
          return mean(square(
              linear_act(x, lin.weight(), lin.bias(), act)));
        },
        params, /*eps=*/1e-6, /*tolerance=*/1e-5);
    EXPECT_TRUE(result.ok) << "act=" << static_cast<int>(act)
                           << " rel=" << result.max_rel_error;
  }
}

TEST(FusedLinear, GradientsMatchUnfusedBitwise) {
  // Same accumulation order in the backward kernels too: parameter and
  // input grads of the fused op equal the unfused chain's exactly.
  Rng rng(47);
  Linear lin(6, 4, rng);
  auto grads = [&](bool fused) {
    Tensor x = random_input(8, 6, 48).set_requires_grad();
    lin.zero_grad();
    Tensor y = fused
                   ? linear_act(x, lin.weight(), lin.bias(), FusedAct::Tanh)
                   : tanh_op(lin.forward(x));
    mean(square(y)).backward();
    std::vector<Real> flat = x.grad();
    for (const auto& p : lin.parameters())
      flat.insert(flat.end(), p.grad().begin(), p.grad().end());
    return flat;
  };
  EXPECT_EQ(grads(true), grads(false));
}

TEST(FusedLinear, MlpForwardMatchesLinearChain) {
  // Mlp::forward always runs the fused kernel. The oracle is the same net
  // built by hand from Linear::forward (matmul + add) and relu/tanh_op,
  // with weights drawn from an identically seeded Rng: outputs and
  // gradients must be equal bitwise (ReLU and Tanh nets, with and without
  // the output LayerNorm).
  for (bool layer_norm : {false, true}) {
    for (Activation act : {Activation::ReLU, Activation::Tanh}) {
      Rng rng(49);
      Mlp mlp(5, 12, 2, 3, rng, layer_norm, act);
      Rng ref_rng(49);
      const std::vector<Linear> layers{Linear(5, 12, ref_rng),
                                       Linear(12, 12, ref_rng),
                                       Linear(12, 3, ref_rng)};
      const LayerNorm norm(3);
      const Tensor x = random_input(7, 5, 50);

      auto flatten = [](const Tensor& y, const std::vector<Tensor>& params) {
        std::vector<Real> flat = y.vec();
        for (const auto& p : params)
          flat.insert(flat.end(), p.grad().begin(), p.grad().end());
        return flat;
      };
      Tensor y = mlp.forward(x);
      mean(square(y)).backward();

      std::vector<Tensor> ref_params;
      Tensor h = x;
      for (std::size_t i = 0; i < layers.size(); ++i) {
        h = layers[i].forward(h);
        if (i + 1 < layers.size())
          h = act == Activation::ReLU ? relu(h) : tanh_op(h);
        for (const auto& p : layers[i].parameters()) ref_params.push_back(p);
      }
      if (layer_norm) {
        h = norm.forward(h);
        for (const auto& p : norm.parameters()) ref_params.push_back(p);
      }
      mean(square(h)).backward();

      EXPECT_EQ(flatten(y, mlp.parameters()), flatten(h, ref_params))
          << "layer_norm=" << layer_norm << " act=" << static_cast<int>(act);
    }
  }
}

TEST(FusedLinear, MlpGradCheck) {
  Rng rng(51);
  Mlp mlp(3, 6, 1, 2, rng, /*output_layer_norm=*/true, Activation::Tanh);
  const Tensor x = random_input(2, 3, 52);
  auto params = mlp.parameters();
  auto result = grad_check(
      [&](const std::vector<Tensor>&) {
        return mean(square(mlp.forward(x)));
      },
      params, /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

}  // namespace
}  // namespace gns::ad
