#include "ad/nn.hpp"

#include <algorithm>
#include <cmath>

#include "ad/kernels.hpp"
#include "exec/parallel_for.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace gns::ad {

namespace {

/// Per-worker scratch of the tape-free MLP pass. It grows to the largest
/// tile this thread has run and is reused by every later call.
Real* tile_scratch(std::size_t size) {
  thread_local std::vector<Real> buffer;
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

}  // namespace

std::vector<Real> Module::state() const {
  std::vector<Real> out;
  for (const auto& p : parameters()) {
    const auto& v = p.vec();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void Module::load_state(const std::vector<Real>& values) const {
  std::size_t offset = 0;
  for (auto p : parameters()) {
    GNS_CHECK_MSG(offset + p.vec().size() <= values.size(),
                  "load_state: state vector too short");
    std::copy(values.begin() + offset,
              values.begin() + offset + p.vec().size(), p.vec().begin());
    offset += p.vec().size();
  }
  GNS_CHECK_MSG(offset == values.size(),
                "load_state: state vector too long (" << values.size()
                                                      << " vs " << offset
                                                      << " expected)");
}

Linear::Linear(int in_features, int out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  GNS_CHECK(in_features > 0 && out_features > 0);
  const Real limit =
      std::sqrt(Real(6) / static_cast<Real>(in_features + out_features));
  std::vector<Real> w(static_cast<std::size_t>(in_features) * out_features);
  for (auto& v : w) v = static_cast<Real>(rng.uniform(-limit, limit));
  weight_ = Tensor::from_vector(in_features, out_features, std::move(w),
                                /*requires_grad=*/true);
  if (bias) {
    bias_ = Tensor::zeros(1, out_features, /*requires_grad=*/true);
  }
}

Tensor Linear::forward(const Tensor& x) const {
  GNS_CHECK_MSG(x.cols() == in_, "Linear expects " << in_ << " features, got "
                                                   << x.cols());
  Tensor y = matmul(x, weight_);
  if (bias_.defined()) y = add(y, bias_);
  return y;
}

std::vector<Tensor> Linear::parameters() const {
  std::vector<Tensor> out{weight_};
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

LayerNorm::LayerNorm(int features, Real eps)
    : gamma_(Tensor::ones(1, features, /*requires_grad=*/true)),
      beta_(Tensor::zeros(1, features, /*requires_grad=*/true)),
      eps_(eps) {}

Tensor LayerNorm::forward(const Tensor& x) const {
  return layer_norm(x, gamma_, beta_, eps_);
}

std::vector<Tensor> LayerNorm::parameters() const { return {gamma_, beta_}; }

Mlp::Mlp(int in_features, int hidden_size, int hidden_layers,
         int out_features, Rng& rng, bool output_layer_norm,
         Activation activation)
    : in_(in_features), out_(out_features), activation_(activation) {
  GNS_CHECK(hidden_layers >= 0);
  int prev = in_features;
  for (int i = 0; i < hidden_layers; ++i) {
    layers_.emplace_back(prev, hidden_size, rng);
    prev = hidden_size;
  }
  layers_.emplace_back(prev, out_features, rng);
  if (output_layer_norm) norm_ = std::make_unique<LayerNorm>(out_features);
}

MlpInput::MlpInput(std::initializer_list<RowPart> parts) : parts_(parts) {
  GNS_CHECK_MSG(!parts_.empty(), "MlpInput of zero parts");
  for (std::size_t k = 0; k < parts_.size(); ++k) {
    const RowPart& part = parts_[k];
    int n = part.tensor.rows();
    if (part.rows != nullptr) {
      GNS_CHECK_MSG(part.rows->defined(), "MlpInput with undefined IndexMap");
      GNS_CHECK_MSG(part.rows->num_buckets() == n,
                    "MlpInput IndexMap built for " << part.rows->num_buckets()
                                                   << " rows, tensor has "
                                                   << n);
      part.rows->dcheck_valid();
      n = part.rows->size();
    }
    GNS_CHECK_MSG(k == 0 || n == rows_,
                  "MlpInput row mismatch: " << n << " vs " << rows_);
    rows_ = n;
    cols_ += part.tensor.cols();
  }
  GNS_CHECK_MSG(rows_ > 0, "MlpInput with no rows");
}

void MlpInput::read_rows(int begin, int count, Real* dst) const {
  for (int i = begin; i < begin + count; ++i) {
    for (const RowPart& part : parts_) {
      const int c = part.tensor.cols();
      const int src = part.rows != nullptr ? part.rows->index()[i] : i;
      simd::copy(dst, part.tensor.data() + static_cast<std::size_t>(src) * c,
                 static_cast<std::size_t>(c));
      dst += c;
    }
  }
}

const Tensor& MlpInput::joined() const {
  if (joined_.defined()) return joined_;
  if (parts_.size() == 1 && parts_[0].rows == nullptr) {
    joined_ = parts_[0].tensor;
    return joined_;
  }
  std::vector<Tensor> cols;
  cols.reserve(parts_.size());
  for (const RowPart& part : parts_)
    cols.push_back(part.rows != nullptr ? gather_rows(part.tensor, *part.rows)
                                        : part.tensor);
  joined_ = concat_cols(cols);
  return joined_;
}

Tensor Mlp::forward(const Tensor& x) const { return forward_rows({x}, nullptr); }

Tensor Mlp::forward_rows(const MlpInput& input, const Tensor* residual) const {
  GNS_CHECK_MSG(input.cols() == in_, "Mlp expects " << in_
                                                    << " input features, got "
                                                    << input.cols());
  const int n = input.rows();
  if (residual != nullptr) {
    GNS_CHECK_MSG(residual->rows() == n && residual->cols() == out_,
                  "Mlp residual must be [" << n << "," << out_ << "], got "
                                           << residual->rows() << "x"
                                           << residual->cols());
  }
  const FusedAct hidden_act =
      (activation_ == Activation::ReLU) ? FusedAct::ReLU : FusedAct::Tanh;

  if (grad_enabled()) {
    Tensor h = input.joined();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      const bool last = i + 1 == layers_.size();
      h = linear_act(h, layers_[i].weight(), layers_[i].bias(),
                     last ? FusedAct::Identity : hidden_act);
    }
    if (norm_) h = norm_->forward(h);
    if (residual != nullptr) h = add(h, *residual);
    return h;
  }

  GNS_TRACE_SCOPE("ad.mlp.forward_rows");
  int width = 0;
  std::int64_t macs_per_row = 0;
  for (const Linear& layer : layers_) {
    width = std::max(width, layer.out_features());
    macs_per_row +=
        static_cast<std::int64_t>(layer.in_features()) * layer.out_features();
  }
  Tensor out = Tensor::zeros(n, out_);
  Real* ov = out.data();
  const Real* rv = residual != nullptr ? residual->data() : nullptr;
  const int tiles = (n + kRowTile - 1) / kRowTile;
  exec::parallel_for(tiles, n * macs_per_row > 1 << 16, [&](std::int64_t t) {
    const int i0 = static_cast<int>(t) * kRowTile;
    const int rows = std::min(kRowTile, n - i0);
    Real* x = tile_scratch(static_cast<std::size_t>(kRowTile) *
                           (in_ + 2 * width));
    Real* ping = x + static_cast<std::size_t>(kRowTile) * in_;
    Real* pong = ping + static_cast<std::size_t>(kRowTile) * width;
    Real* y = ov + static_cast<std::size_t>(i0) * out_;
    input.read_rows(i0, rows, x);
    const Real* h = x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      const Linear& layer = layers_[i];
      const bool last = i + 1 == layers_.size();
      Real* dst = (last && !norm_) ? y : (i % 2 == 0 ? ping : pong);
      linear_act_rows(h, layer.weight().data(),
                      layer.bias().defined() ? layer.bias().data() : nullptr,
                      dst, rows, layer.in_features(), layer.out_features(),
                      last ? FusedAct::Identity : hidden_act);
      h = dst;
    }
    if (norm_) {
      for (int r = 0; r < rows; ++r)
        layer_norm_row(h + static_cast<std::size_t>(r) * out_,
                       norm_->gamma().data(), norm_->beta().data(),
                       norm_->eps(), y + static_cast<std::size_t>(r) * out_,
                       out_);
    }
    // y + residual, the add() of the taped chain.
    if (rv != nullptr)
      simd::accumulate(y, rv + static_cast<std::size_t>(i0) * out_,
                       static_cast<std::size_t>(rows) * out_);
  });
  return out;
}

std::vector<Tensor> Mlp::parameters() const {
  std::vector<Tensor> out;
  for (const auto& layer : layers_) {
    auto p = layer.parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  if (norm_) {
    auto p = norm_->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace gns::ad
