#pragma once

/// \file nn.hpp
/// Neural-network building blocks on top of the autograd engine: Linear,
/// LayerNorm, and the MLP used uniformly by the GNS encoder, processor and
/// decoder (per Sanchez-Gonzalez et al. 2020: hidden layers with ReLU, an
/// optional LayerNorm on the output).

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ad/ops.hpp"
#include "ad/tensor.hpp"
#include "util/rng.hpp"

namespace gns::ad {

/// Base class for anything owning trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameter tensors (leaf tensors with requires_grad).
  [[nodiscard]] virtual std::vector<Tensor> parameters() const = 0;

  /// Total scalar parameter count.
  [[nodiscard]] std::int64_t num_parameters() const {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.size();
    return n;
  }

  /// Zeroes gradients of all parameters.
  void zero_grad() const {
    for (auto p : parameters()) p.zero_grad();
  }

  /// Serializes all parameter values in `parameters()` order.
  [[nodiscard]] std::vector<Real> state() const;
  /// Restores parameter values from `state()` output.
  void load_state(const std::vector<Real>& values) const;
};

/// Affine map y = x·W + b with Glorot-uniform initialization.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }

 private:
  int in_;
  int out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [1, out]; undefined when bias=false
};

/// Per-row layer normalization with learnable gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int features, Real eps = Real(1e-5));

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

  [[nodiscard]] const Tensor& gamma() const { return gamma_; }
  [[nodiscard]] const Tensor& beta() const { return beta_; }
  [[nodiscard]] Real eps() const { return eps_; }

 private:
  Tensor gamma_;
  Tensor beta_;
  Real eps_;
};

/// Activation used between MLP layers.
enum class Activation { ReLU, Tanh };

/// One column block of an MLP's input rows: `tensor` read row for row, or
/// gathered through `rows` (input row i is tensor row rows->index()[i]).
/// The map is borrowed and must outlive the MlpInput.
struct RowPart {
  RowPart(Tensor t) : tensor(std::move(t)) {}
  RowPart(Tensor t, const IndexMap& index)
      : tensor(std::move(t)), rows(&index) {}

  Tensor tensor;
  const IndexMap* rows = nullptr;
};

/// The input rows of an MLP: the column-wise concatenation of its parts,
/// e.g. a GNS edge update's [e | v[senders] | v[receivers]]. The tape-free
/// pass reads the parts in place. The taped path joins them into one
/// tensor on first use, so every MLP fed the same MlpInput shares one tape
/// node.
class MlpInput {
 public:
  MlpInput(std::initializer_list<RowPart> parts);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  /// Copies input rows [begin, begin + count) into `dst` (row stride
  /// cols()).
  void read_rows(int begin, int count, Real* dst) const;

  /// The concatenation as one taped tensor: gather_rows for each indexed
  /// part, then concat_cols (a lone unindexed part is returned as is).
  /// Built once and cached.
  [[nodiscard]] const Tensor& joined() const;

 private:
  std::vector<RowPart> parts_;
  int rows_ = 0;
  int cols_ = 0;
  mutable Tensor joined_;
};

/// Multilayer perceptron: `hidden_layers` hidden layers of `hidden_size`
/// with the chosen activation, a linear output layer, and an optional
/// LayerNorm on the output (GNS normalizes every latent MLP's output but
/// not the decoder's).
class Mlp : public Module {
 public:
  Mlp(int in_features, int hidden_size, int hidden_layers, int out_features,
      Rng& rng, bool output_layer_norm = false,
      Activation activation = Activation::ReLU);

  /// forward_rows({x}, nullptr).
  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// Row i of the result is the MLP of input row i, plus `residual` row i
  /// when one is given ([rows, out_features]).
  ///  * Tape on (grad_enabled()): the op chain input.joined() ->
  ///    linear_act per layer -> layer_norm -> add, taped as ops.
  ///  * Tape off: one parallel pass over tiles of kRowTile rows. Each tile
  ///    reads its input rows into a per-worker scratch buffer, runs every
  ///    layer, the LayerNorm and the residual add on them, and writes its
  ///    output rows; the output is the only tensor allocated.
  /// Both run the same row kernels (ad/kernels.hpp), so the results are
  /// bitwise equal.
  [[nodiscard]] Tensor forward_rows(const MlpInput& input,
                                    const Tensor* residual = nullptr) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }

 private:
  int in_;
  int out_;
  Activation activation_;
  std::vector<Linear> layers_;
  std::unique_ptr<LayerNorm> norm_;  // null unless output_layer_norm
};

}  // namespace gns::ad
