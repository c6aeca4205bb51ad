// Graph / shape ops: gather, scatter-add, segment softmax, layer norm,
// concat, slice — semantics and gradient checks. These ops carry all
// message passing, so their gradients must be exact. The production
// kernels (AVX2 row kernels + CSR-transpose reductions) must additionally
// be bitwise identical to plain serial loops on every index pattern —
// verified here against test-local oracles on adversarial patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ad/gradcheck.hpp"
#include "ad/index_map.hpp"
#include "ad/ops.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace gns::ad {
namespace {

Tensor random_tensor(int r, int c, Rng& rng) {
  std::vector<Real> v(static_cast<std::size_t>(r) * c);
  for (auto& x : v) x = rng.uniform(-1.5, 1.5);
  return Tensor::from_vector(r, c, std::move(v));
}

TEST(ConcatCols, ValuesAndShapes) {
  Tensor a = Tensor::from_vector(2, 1, {1, 2});
  Tensor b = Tensor::from_vector(2, 2, {3, 4, 5, 6});
  Tensor c = concat_cols({a, b});
  EXPECT_EQ(c.cols(), 3);
  EXPECT_EQ(c.at(0, 0), 1.0);
  EXPECT_EQ(c.at(0, 2), 4.0);
  EXPECT_EQ(c.at(1, 1), 5.0);
}

TEST(ConcatCols, RowMismatchThrows) {
  EXPECT_THROW(concat_cols({Tensor::zeros(2, 1), Tensor::zeros(3, 1)}),
               CheckError);
}

TEST(SliceCols, ValuesAndBounds) {
  Tensor a = Tensor::from_vector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor s = slice_cols(a, 1, 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_EQ(s.at(1, 0), 5.0);
  EXPECT_THROW(slice_cols(a, 2, 2), CheckError);
}

TEST(GatherRows, ValuesAndRepeats) {
  Tensor a = Tensor::from_vector(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = gather_rows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.at(0, 0), 5.0);
  EXPECT_EQ(g.at(1, 1), 2.0);
  EXPECT_EQ(g.at(2, 0), 5.0);
  EXPECT_THROW(gather_rows(a, {3}), CheckError);
}

TEST(ScatterAddRows, AccumulatesDuplicates) {
  Tensor a = Tensor::from_vector(3, 2, {1, 1, 2, 2, 3, 3});
  Tensor s = scatter_add_rows(a, {1, 1, 0}, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.at(0, 0), 3.0);
  EXPECT_EQ(s.at(1, 0), 3.0);  // 1 + 2
  EXPECT_THROW(scatter_add_rows(a, {0, 1}, 2), CheckError);
}

TEST(ScatterGather, AreAdjoint) {
  // <scatter(a), b> == <a, gather(b)> for all index maps: the defining
  // property that makes their gradients each other's transpose.
  Rng rng(5);
  const std::vector<int> idx = {0, 2, 2, 1, 0};
  Tensor a = random_tensor(5, 3, rng);
  Tensor b = random_tensor(3, 3, rng);
  Tensor lhs = sum(mul(scatter_add_rows(a, idx, 3), b));
  Tensor rhs = sum(mul(a, gather_rows(b, idx)));
  EXPECT_NEAR(lhs.item(), rhs.item(), 1e-10);
}

TEST(SegmentSoftmax, NormalizesPerSegment) {
  Tensor scores = Tensor::from_vector(4, 1, {1.0, 2.0, 3.0, -1.0});
  const std::vector<int> seg = {0, 0, 1, 1};
  Tensor p = segment_softmax(scores, seg, 2);
  EXPECT_NEAR(p.at(0, 0) + p.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(p.at(2, 0) + p.at(3, 0), 1.0, 1e-12);
  EXPECT_GT(p.at(1, 0), p.at(0, 0));
}

TEST(SegmentSoftmax, SingleEdgeSegmentsGetWeightOne) {
  Tensor scores = Tensor::from_vector(2, 1, {5.0, -7.0});
  Tensor p = segment_softmax(scores, {0, 1}, 2);
  EXPECT_NEAR(p.at(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(p.at(1, 0), 1.0, 1e-12);
}

TEST(SegmentSoftmax, StableUnderLargeScores) {
  Tensor scores = Tensor::from_vector(2, 1, {1000.0, 999.0});
  Tensor p = segment_softmax(scores, {0, 0}, 1);
  EXPECT_TRUE(std::isfinite(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0) + p.at(1, 0), 1.0, 1e-12);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(7);
  Tensor x = random_tensor(4, 6, rng);
  Tensor gamma = Tensor::ones(1, 6);
  Tensor beta = Tensor::zeros(1, 6);
  Tensor y = layer_norm(x, gamma, beta);
  for (int r = 0; r < y.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (int c = 0; c < y.cols(); ++c) mean += y.at(r, c);
    mean /= y.cols();
    for (int c = 0; c < y.cols(); ++c) {
      var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    }
    var /= y.cols();
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-4);
  }
}

TEST(LayerNorm, AffineParamsApply) {
  Tensor x = Tensor::from_vector(1, 2, {-1.0, 1.0});
  Tensor gamma = Tensor::from_vector(1, 2, {2.0, 2.0});
  Tensor beta = Tensor::from_vector(1, 2, {1.0, 1.0});
  Tensor y = layer_norm(x, gamma, beta);
  EXPECT_NEAR(y.at(0, 0), 1.0 - 2.0, 1e-4);
  EXPECT_NEAR(y.at(0, 1), 1.0 + 2.0, 1e-4);
}

// ---------- Gradient checks ----------

TEST(GraphOpsGrad, ConcatAndSlice) {
  Rng rng(11);
  auto result = grad_check(
      [](const std::vector<Tensor>& in) {
        Tensor c = concat_cols({in[0], in[1]});
        return sum(square(slice_cols(c, 1, 2)));
      },
      {random_tensor(3, 2, rng), random_tensor(3, 2, rng)});
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(GraphOpsGrad, GatherWithRepeats) {
  Rng rng(13);
  const std::vector<int> idx = {0, 1, 1, 2, 0};
  auto result = grad_check(
      [&idx](const std::vector<Tensor>& in) {
        return sum(square(gather_rows(in[0], idx)));
      },
      {random_tensor(3, 2, rng)});
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(GraphOpsGrad, ScatterAdd) {
  Rng rng(17);
  const std::vector<int> idx = {2, 0, 2, 1};
  auto result = grad_check(
      [&idx](const std::vector<Tensor>& in) {
        return sum(square(scatter_add_rows(in[0], idx, 3)));
      },
      {random_tensor(4, 3, rng)});
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(GraphOpsGrad, SegmentSoftmax) {
  Rng rng(19);
  const std::vector<int> seg = {0, 0, 0, 1, 1, 2};
  auto result = grad_check(
      [&seg](const std::vector<Tensor>& in) {
        Tensor p = segment_softmax(in[0], seg, 3);
        return sum(mul(p, in[1]));
      },
      {random_tensor(6, 1, rng), random_tensor(6, 1, rng)},
      /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(GraphOpsGrad, LayerNormAllInputs) {
  Rng rng(23);
  auto result = grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(layer_norm(in[0], in[1], in[2])));
      },
      {random_tensor(3, 5, rng), random_tensor(1, 5, rng),
       random_tensor(1, 5, rng)},
      /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

// ---------- IndexMap (CSR transpose) ----------

TEST(IndexMap, StructureGroupsPositionsAscending) {
  const std::vector<int> idx = {2, 0, 2, 1, 0, 2};
  IndexMap map(idx, 3);
  EXPECT_TRUE(map.defined());
  EXPECT_EQ(map.size(), 6);
  EXPECT_EQ(map.num_buckets(), 3);
  const std::vector<int> want_offsets = {0, 2, 3, 6};
  EXPECT_EQ(std::vector<int>(map.offsets(), map.offsets() + 4),
            want_offsets);
  // Positions grouped by bucket, ascending within each bucket — the
  // property the fixed-accumulation-order backward relies on.
  const std::vector<int> want_positions = {1, 4, 3, 0, 2, 5};
  EXPECT_EQ(std::vector<int>(map.positions(), map.positions() + 6),
            want_positions);
}

TEST(IndexMap, ValidatesAtConstruction) {
  EXPECT_THROW(IndexMap({0, 3}, 3), CheckError);
  EXPECT_THROW(IndexMap({-1}, 3), CheckError);
  EXPECT_NO_THROW(IndexMap({}, 3));
  EXPECT_FALSE(IndexMap().defined());
}

TEST(IndexMap, OpsAcceptPrebuiltMap) {
  Rng rng(31);
  Tensor a = random_tensor(4, 3, rng);
  const std::vector<int> idx = {3, 0, 3, 1};
  const IndexMap map(idx, 4);
  Tensor g1 = gather_rows(a, idx);
  Tensor g2 = gather_rows(a, map);
  EXPECT_EQ(g1.vec(), g2.vec());
  Tensor e = random_tensor(4, 3, rng);
  Tensor s1 = scatter_add_rows(e, idx, 4);
  Tensor s2 = scatter_add_rows(e, map);
  EXPECT_EQ(s1.vec(), s2.vec());
  // A map sized for a different tensor is rejected.
  EXPECT_THROW(gather_rows(random_tensor(5, 3, rng), map), CheckError);
}

// ---------- Production kernels vs serial oracles, bitwise ----------

/// Adversarial index patterns for n entries into b buckets: uniform
/// random, all-duplicates, sorted, reversed, and duplicate-heavy (hot
/// buckets) — the cases where a reordered reduction would diverge.
std::vector<std::vector<int>> index_patterns(int n, int b, Rng& rng) {
  std::vector<std::vector<int>> patterns;
  std::vector<int> uniform(n);
  for (auto& i : uniform) i = static_cast<int>(rng.uniform_index(b));
  patterns.push_back(uniform);
  patterns.emplace_back(n, b / 2);  // every entry hits one bucket
  std::vector<int> sorted(n);
  for (int i = 0; i < n; ++i) sorted[i] = (i * b) / n;
  patterns.push_back(sorted);
  std::vector<int> reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  patterns.push_back(reversed);
  std::vector<int> hot(n);
  for (int i = 0; i < n; ++i)
    hot[i] = (i % 3 == 0) ? static_cast<int>(rng.uniform_index(b)) : 0;
  patterns.push_back(hot);
  return patterns;
}

/// Forward values of `op` on a leaf copy of `x`, then that leaf's gradient
/// under the loss sum(op(x) ⊙ w) — so the op's upstream gradient is
/// exactly `w` and the oracles below can take it as input.
template <typename Op>
std::pair<std::vector<Real>, std::vector<Real>> forward_and_grad(
    const Tensor& x, const Tensor& w, Op&& op) {
  Tensor leaf = Tensor::from_vector(x.rows(), x.cols(), x.vec(), true);
  Tensor y = op(leaf);
  sum(mul(y, w)).backward();
  return {y.vec(), leaf.grad()};
}

// Serial oracles: one pass over edges in original order, the reference
// accumulation order the CSR-parallel kernels must reproduce.

/// out[idx[i]] += rows[i] for i ascending: scatter_add_rows forward and
/// gather_rows backward.
std::vector<Real> serial_scatter_add(const std::vector<Real>& rows,
                                     const std::vector<int>& idx,
                                     int num_rows, int m) {
  std::vector<Real> out(static_cast<std::size_t>(num_rows) * m, Real(0));
  for (std::size_t i = 0; i < idx.size(); ++i)
    for (int j = 0; j < m; ++j)
      out[static_cast<std::size_t>(idx[i]) * m + j] += rows[i * m + j];
  return out;
}

/// Gathers rows: out[i] = a[idx[i]] (gather forward, scatter backward).
std::vector<Real> plain_gather(const std::vector<Real>& a,
                               const std::vector<int>& idx, int m) {
  std::vector<Real> out;
  for (const int r : idx)
    out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(r) * m,
               a.begin() + static_cast<std::ptrdiff_t>(r + 1) * m);
  return out;
}

/// segment_softmax forward: per-segment max, exp-sum, normalize.
std::vector<Real> serial_segment_softmax(const std::vector<Real>& scores,
                                         const std::vector<int>& seg,
                                         int num_segments) {
  const std::size_t e = scores.size();
  std::vector<Real> seg_max(num_segments,
                            -std::numeric_limits<Real>::infinity());
  for (std::size_t i = 0; i < e; ++i)
    seg_max[seg[i]] = std::max(seg_max[seg[i]], scores[i]);
  std::vector<Real> out(e), seg_sum(num_segments, Real(0));
  for (std::size_t i = 0; i < e; ++i) {
    out[i] = std::exp(scores[i] - seg_max[seg[i]]);
    seg_sum[seg[i]] += out[i];
  }
  for (std::size_t i = 0; i < e; ++i) out[i] /= seg_sum[seg[i]];
  return out;
}

/// segment_softmax backward: grad_i = y_i (g_i − Σ_seg g_j y_j).
std::vector<Real> serial_segment_softmax_backward(
    const std::vector<Real>& y, const std::vector<Real>& upstream,
    const std::vector<int>& seg, int num_segments) {
  const std::size_t e = y.size();
  std::vector<Real> dot(num_segments, Real(0));
  for (std::size_t i = 0; i < e; ++i) dot[seg[i]] += upstream[i] * y[i];
  std::vector<Real> grad(e, Real(0));
  for (std::size_t i = 0; i < e; ++i)
    grad[i] += y[i] * (upstream[i] - dot[seg[i]]);
  return grad;
}

TEST(SimdBitwise, GatherForwardAndBackward) {
  Rng rng(37);
  // Odd column counts exercise the vector-kernel tails.
  for (const int cols : {1, 3, 8, 17}) {
    Tensor a = random_tensor(23, cols, rng);
    for (const auto& idx : index_patterns(57, 23, rng)) {
      const Tensor w = random_tensor(57, cols, rng);
      const auto [out, grad] = forward_and_grad(
          a, w, [&](const Tensor& x) { return gather_rows(x, idx); });
      EXPECT_EQ(out, plain_gather(a.vec(), idx, cols));
      EXPECT_EQ(grad, serial_scatter_add(w.vec(), idx, 23, cols));
    }
  }
}

TEST(SimdBitwise, ScatterAddForwardAndBackward) {
  Rng rng(41);
  for (const int cols : {1, 5, 16, 19}) {
    Tensor a = random_tensor(57, cols, rng);
    for (const auto& idx : index_patterns(57, 23, rng)) {
      const Tensor w = random_tensor(23, cols, rng);
      const auto [out, grad] = forward_and_grad(
          a, w, [&](const Tensor& x) { return scatter_add_rows(x, idx, 23); });
      EXPECT_EQ(out, serial_scatter_add(a.vec(), idx, 23, cols));
      EXPECT_EQ(grad, plain_gather(w.vec(), idx, cols));
    }
  }
}

TEST(SimdBitwise, SegmentSoftmaxForwardAndBackward) {
  Rng rng(43);
  for (const auto& idx : index_patterns(57, 23, rng)) {
    Rng local(91);
    std::vector<Real> sv(57);
    for (auto& v : sv) v = local.uniform(-3.0, 3.0);
    const Tensor x = Tensor::from_vector(57, 1, sv);
    const Tensor w = random_tensor(57, 1, rng);
    const auto [out, grad] = forward_and_grad(
        x, w, [&](const Tensor& t) { return segment_softmax(t, idx, 23); });
    const std::vector<Real> y = serial_segment_softmax(sv, idx, 23);
    EXPECT_EQ(out, y);
    EXPECT_EQ(grad, serial_segment_softmax_backward(y, w.vec(), idx, 23));
  }
}

TEST(SimdBitwise, LayerNormAndConcat) {
  Rng rng(47);
  for (const int cols : {2, 7, 12, 33}) {
    const int rows = 9;
    Tensor x = random_tensor(rows, cols, rng);
    Tensor gamma = random_tensor(1, cols, rng);
    Tensor beta = random_tensor(1, cols, rng);
    const Real eps = Real(1e-5);
    std::vector<Real> ref(x.vec().size());
    for (int i = 0; i < rows; ++i) {
      const Real* xr = x.data() + static_cast<std::size_t>(i) * cols;
      Real mu = Real(0);
      for (int j = 0; j < cols; ++j) mu += xr[j];
      mu /= cols;
      Real var = Real(0);
      for (int j = 0; j < cols; ++j) var += (xr[j] - mu) * (xr[j] - mu);
      var /= cols;
      const Real inv_s = Real(1) / std::sqrt(var + eps);
      for (int j = 0; j < cols; ++j)
        ref[static_cast<std::size_t>(i) * cols + j] =
            gamma.vec()[j] * (xr[j] - mu) * inv_s + beta.vec()[j];
    }
    EXPECT_EQ(layer_norm(x, gamma, beta, eps).vec(), ref);

    // concat_cols({x, b, x}): rows are copied part by part, and x's
    // gradient is its two upstream slices added in part order.
    Tensor b = random_tensor(rows, cols + 1, rng);
    const int m = 3 * cols + 1;
    const Tensor w = random_tensor(rows, m, rng);
    const auto [out, grad] = forward_and_grad(
        x, w, [&](const Tensor& t) { return concat_cols({t, b, t}); });
    std::vector<Real> ref_out, ref_grad(x.vec().size(), Real(0));
    for (int i = 0; i < rows; ++i) {
      for (const Tensor* part : {&x, &b, &x}) {
        const int pc = part->cols();
        const auto row = part->vec().begin() +
                         static_cast<std::ptrdiff_t>(i) * pc;
        ref_out.insert(ref_out.end(), row, row + pc);
      }
      for (const int offset : {0, 2 * cols + 1})
        for (int j = 0; j < cols; ++j)
          ref_grad[static_cast<std::size_t>(i) * cols + j] +=
              w.vec()[static_cast<std::size_t>(i) * m + offset + j];
    }
    EXPECT_EQ(out, ref_out);
    EXPECT_EQ(grad, ref_grad);
  }
}

TEST(SimdBitwise, RowKernelsMatchPlainLoops) {
  // Lengths around the 4- and 16-wide vector blocks, plus 0 and a long
  // odd tail. On a CPU without AVX2 this compares the scalar bodies.
  Rng rng(49);
  for (const std::size_t n : {0, 1, 3, 4, 15, 16, 17, 129}) {
    std::vector<double> src(n), dst0(n), x(n), gamma(n), beta(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = rng.uniform(-2, 2);
      dst0[i] = rng.uniform(-2, 2);
      x[i] = rng.uniform(-2, 2);
      gamma[i] = rng.uniform(-2, 2);
      beta[i] = rng.uniform(-2, 2);
    }
    const double scale = 0.37, mu = 0.11, inv_s = 1.93;

    std::vector<double> got(n, -1.0), ref(n, -1.0);
    simd::copy(got.data(), src.data(), n);
    for (std::size_t i = 0; i < n; ++i) ref[i] = src[i];
    EXPECT_EQ(got, ref) << "copy n=" << n;

    got = dst0;
    ref = dst0;
    simd::accumulate(got.data(), src.data(), n);
    for (std::size_t i = 0; i < n; ++i) ref[i] += src[i];
    EXPECT_EQ(got, ref) << "accumulate n=" << n;

    got = dst0;
    ref = dst0;
    simd::accumulate_scaled(got.data(), src.data(), scale, n);
    for (std::size_t i = 0; i < n; ++i) ref[i] += scale * src[i];
    EXPECT_EQ(got, ref) << "accumulate_scaled n=" << n;

    got.assign(n, -1.0);
    simd::norm_affine(got.data(), x.data(), gamma.data(), beta.data(), mu,
                      inv_s, n);
    for (std::size_t i = 0; i < n; ++i)
      ref[i] = gamma[i] * (x[i] - mu) * inv_s + beta[i];
    EXPECT_EQ(got, ref) << "norm_affine n=" << n;
  }
}

// ---------- Gradchecks through the CSR backward ----------

TEST(GraphOpsGrad, GatherCsrBackwardDuplicateHeavy) {
  Rng rng(53);
  const std::vector<int> idx = {0, 2, 2, 2, 1, 2, 0, 2};
  auto result = grad_check(
      [&idx](const std::vector<Tensor>& in) {
        return sum(square(gather_rows(in[0], idx)));
      },
      {random_tensor(3, 4, rng)});
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(GraphOpsGrad, ScatterCsrForwardGradcheck) {
  Rng rng(59);
  const std::vector<int> idx = {1, 1, 1, 0, 2, 1};
  auto result = grad_check(
      [&idx](const std::vector<Tensor>& in) {
        return sum(square(scatter_add_rows(in[0], idx, 3)));
      },
      {random_tensor(6, 3, rng)});
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

// ---------- Fused radius_edge_features ----------

/// The exact op chain radius_edge_features replaces; kept here as the
/// bitwise reference.
Tensor edge_features_reference(const Tensor& positions,
                               const std::vector<int>& senders,
                               const std::vector<int>& receivers,
                               Real inv_radius) {
  Tensor xs = gather_rows(positions, senders);
  Tensor xr = gather_rows(positions, receivers);
  Tensor disp = mul_scalar(sub(xr, xs), inv_radius);
  Tensor dist = sqrt_op(add_scalar(sum_cols(square(disp)), Real(1e-12)));
  return concat_cols({disp, dist});
}

TEST(RadiusEdgeFeatures, BitwiseMatchesOpChain) {
  Rng rng(61);
  Tensor pos = random_tensor(11, 2, rng);
  std::vector<int> senders(29), receivers(29);
  for (auto& s : senders) s = static_cast<int>(rng.uniform_index(11));
  for (auto& r : receivers) r = static_cast<int>(rng.uniform_index(11));
  const IndexMap smap(senders, 11);
  const IndexMap rmap(receivers, 11);
  const Real inv_r = Real(1.0) / Real(0.13);
  Tensor fused = radius_edge_features(pos, smap, rmap, inv_r);
  EXPECT_EQ(fused.vec(),
            edge_features_reference(pos, senders, receivers, inv_r).vec());

  // The same features as one serial loop over edges.
  std::vector<Real> serial;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    Real acc = Real(0);
    for (int j = 0; j < 2; ++j) {
      const Real t = (pos.at(receivers[i], j) - pos.at(senders[i], j)) * inv_r;
      serial.push_back(t);
      acc += t * t;
    }
    serial.push_back(std::sqrt(acc + Real(1e-12)));
  }
  EXPECT_EQ(fused.vec(), serial);
}

TEST(RadiusEdgeFeatures, CoincidentParticlesFiniteGradient) {
  // Two particles at the same position: the 1e-12 epsilon keeps the
  // sqrt gradient finite instead of dividing by zero.
  Tensor pos = Tensor::from_vector(2, 2, {0.5, 0.5, 0.5, 0.5}, true);
  const IndexMap smap({0, 1}, 2);
  const IndexMap rmap({1, 0}, 2);
  Tensor f = radius_edge_features(pos, smap, rmap, Real(10.0));
  Tensor loss = sum(f);
  loss.backward();
  for (const Real g : pos.grad()) EXPECT_TRUE(std::isfinite(g));
}

TEST(GraphOpsGrad, RadiusEdgeFeatures) {
  Rng rng(67);
  std::vector<int> senders = {0, 1, 2, 2, 3, 0};
  std::vector<int> receivers = {1, 0, 3, 1, 2, 2};
  const IndexMap smap(senders, 4);
  const IndexMap rmap(receivers, 4);
  auto result = grad_check(
      [&](const std::vector<Tensor>& in) {
        return sum(square(radius_edge_features(in[0], smap, rmap, Real(5.0))));
      },
      {random_tensor(4, 2, rng)},
      /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(GraphOpsGrad, MessagePassingComposite) {
  // One full interaction-network block: the integration test for the
  // gradient path every GNS layer uses.
  Rng rng(29);
  const std::vector<int> senders = {0, 1, 2, 2, 3};
  const std::vector<int> receivers = {1, 0, 1, 3, 2};
  auto result = grad_check(
      [&](const std::vector<Tensor>& in) {
        const Tensor& nodes = in[0];
        const Tensor& edges = in[1];
        Tensor vs = gather_rows(nodes, senders);
        Tensor vr = gather_rows(nodes, receivers);
        Tensor msg = tanh_op(concat_cols({edges, vs, vr}));
        Tensor score = sum_cols(msg);
        Tensor alpha = segment_softmax(score, receivers, 4);
        Tensor agg = scatter_add_rows(mul(msg, alpha), receivers, 4);
        return mean(square(agg));
      },
      {random_tensor(4, 3, rng), random_tensor(5, 2, rng)},
      /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

}  // namespace
}  // namespace gns::ad
