#include <algorithm>
#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "ad/kernels.hpp"
#include "ad/ops.hpp"
#include "exec/parallel_for.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace gns::ad {

namespace {

/// Straightforward cache-friendly (i,k,j) GEMM: C += A[NxK] * B[KxM].
/// Parallel over output rows when the problem is large enough to amortize
/// the fork/join.
void gemm_acc(const Real* a, const Real* b, Real* c, int n, int k, int m) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
    const int i = static_cast<int>(row);
    Real* crow = c + static_cast<std::size_t>(i) * m;
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Real av = arow[p];
      if (av == Real(0)) continue;
      const Real* brow = b + static_cast<std::size_t>(p) * m;
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  });
}

/// C += A^T[KxN]^T... specifically: grad_a[NxK] += grad_out[NxM] * B^T[MxK].
void gemm_nt_acc(const Real* go, const Real* b, Real* ga, int n, int m,
                 int k) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
    const int i = static_cast<int>(row);
    const Real* grow = go + static_cast<std::size_t>(i) * m;
    Real* garow = ga + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Real* brow = b + static_cast<std::size_t>(p) * m;
      Real acc = Real(0);
      for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
      garow[p] += acc;
    }
  });
}

/// grad_b[KxM] += A^T[KxN] * grad_out[NxM]. Serial over k-rows inside, but
/// parallelized over K with per-row ownership (no write conflicts).
void gemm_tn_acc(const Real* a, const Real* go, Real* gb, int n, int k,
                 int m) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(k, work > 1 << 16, [&](std::int64_t krow) {
    const int p = static_cast<int>(krow);
    Real* gbrow = gb + static_cast<std::size_t>(p) * m;
    for (int i = 0; i < n; ++i) {
      const Real av = a[static_cast<std::size_t>(i) * k + p];
      if (av == Real(0)) continue;
      const Real* grow = go + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) gbrow[j] += av * grow[j];
    }
  });
}

/// One fused output row, portable path (CPUs without AVX2): the exact
/// gemm_acc accumulation (same ascending-p order, same zero-skip) from a
/// zeroed row, followed by bias add and activation while the row is still
/// cache-hot. Element-for-element this performs the identical FP operation
/// sequence as matmul -> add -> act, so results are bitwise equal to the
/// unfused chain.
void fused_row_scalar(const Real* arow, const Real* w, const Real* bias,
                      Real* crow, int k, int m, FusedAct act) {
  std::fill(crow, crow + m, Real(0));
  for (int p = 0; p < k; ++p) {
    const Real av = arow[p];
    if (av == Real(0)) continue;
    const Real* wrow = w + static_cast<std::size_t>(p) * m;
    for (int j = 0; j < m; ++j) crow[j] += av * wrow[j];
  }
  switch (act) {
    case FusedAct::Identity:
      if (bias != nullptr)
        for (int j = 0; j < m; ++j) crow[j] = crow[j] + bias[j];
      break;
    case FusedAct::ReLU:
      for (int j = 0; j < m; ++j) {
        const Real v = bias != nullptr ? crow[j] + bias[j] : crow[j];
        crow[j] = v > 0 ? v : Real(0);
      }
      break;
    case FusedAct::Tanh:
      for (int j = 0; j < m; ++j) {
        const Real v = bias != nullptr ? crow[j] + bias[j] : crow[j];
        crow[j] = std::tanh(v);
      }
      break;
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define GNS_AVX2_KERNELS 1

/// R rows × 4·NV columns of act(x·W + b), AVX2: the register tile. The
/// R·NV ymm accumulators stay live across the whole p loop — independent
/// dependency chains that hide addpd latency — and each weight vector
/// loaded for p serves all R rows.
///
/// Bitwise identical to fused_row_scalar, lane for lane:
///  * separate _mm256_mul_pd / _mm256_add_pd, never FMA (a fused
///    multiply-add would skip the intermediate rounding), in the same
///    ascending-p order;
///  * the scalar zero-skip `if (av == 0) continue` becomes a mask: the
///    product is and-ed with `av != 0`, so a skipped term adds +0.0. That
///    changes nothing because the accumulator is never −0.0: it starts at
///    +0.0, and a round-to-nearest sum is −0.0 only when both addends are
///    −0.0. The mask also drops the NaN that 0·Inf or 0·NaN weights would
///    give, as the skip does. The compare is unordered (_CMP_NEQ_UQ), so a
///    NaN input keeps its product, as it does in the scalar loop;
///  * _mm256_max_pd(v, 0) matches `v > 0 ? v : 0` exactly (both return
///    +0.0 for v == −0.0 and the second operand, 0, for NaN).
/// Tanh stays scalar libm so transcendentals match the unfused op.
template <int R, int NV>
__attribute__((target("avx2"))) void fused_tile_block(const Real* a,
                                                      const Real* wblk,
                                                      const Real* bias,
                                                      Real* cblk, int k,
                                                      int m, FusedAct act) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc[R][NV];
  for (int r = 0; r < R; ++r)
    for (int u = 0; u < NV; ++u) acc[r][u] = zero;
  for (int p = 0; p < k; ++p) {
    const Real* wrow = wblk + static_cast<std::size_t>(p) * m;
    __m256d wv[NV];
    for (int u = 0; u < NV; ++u) wv[u] = _mm256_loadu_pd(wrow + 4 * u);
    for (int r = 0; r < R; ++r) {
      const __m256d av =
          _mm256_broadcast_sd(a + static_cast<std::size_t>(r) * k + p);
      const __m256d live = _mm256_cmp_pd(av, zero, _CMP_NEQ_UQ);
      for (int u = 0; u < NV; ++u)
        acc[r][u] = _mm256_add_pd(
            acc[r][u], _mm256_and_pd(_mm256_mul_pd(av, wv[u]), live));
    }
  }
  for (int r = 0; r < R; ++r) {
    Real* crow = cblk + static_cast<std::size_t>(r) * m;
    for (int u = 0; u < NV; ++u) {
      __m256d v = acc[r][u];
      if (bias != nullptr) v = _mm256_add_pd(v, _mm256_loadu_pd(bias + 4 * u));
      if (act == FusedAct::ReLU) v = _mm256_max_pd(v, zero);
      _mm256_storeu_pd(crow + 4 * u, v);
    }
    if (act == FusedAct::Tanh)
      for (int u = 0; u < 4 * NV; ++u) crow[u] = std::tanh(crow[u]);
  }
}

/// R rows of act(x·W + b), AVX2: 8-column tiles, then one 4-column tile,
/// then a scalar column tail (e.g. the dim-2 decoder head).
template <int R>
__attribute__((target("avx2"))) void fused_tile_avx2(const Real* a,
                                                     const Real* w,
                                                     const Real* bias,
                                                     Real* c, int k, int m,
                                                     FusedAct act) {
  int j = 0;
  for (; j + 8 <= m; j += 8)
    fused_tile_block<R, 2>(a, w + j, bias != nullptr ? bias + j : nullptr,
                           c + j, k, m, act);
  if (j + 4 <= m) {
    fused_tile_block<R, 1>(a, w + j, bias != nullptr ? bias + j : nullptr,
                           c + j, k, m, act);
    j += 4;
  }
  // Columns past the last multiple of 4: scalar, one accumulator per
  // column, the zero-skip as a branch, same op order as above.
  for (; j < m; ++j) {
    for (int r = 0; r < R; ++r) {
      const Real* arow = a + static_cast<std::size_t>(r) * k;
      Real acc = Real(0);
      for (int p = 0; p < k; ++p) {
        const Real av = arow[p];
        if (av == Real(0)) continue;
        acc += av * w[static_cast<std::size_t>(p) * m + j];
      }
      Real v = bias != nullptr ? acc + bias[j] : acc;
      if (act == FusedAct::ReLU)
        v = v > 0 ? v : Real(0);
      else if (act == FusedAct::Tanh)
        v = std::tanh(v);
      c[static_cast<std::size_t>(r) * m + j] = v;
    }
  }
}
#endif  // GNS_AVX2_KERNELS

/// Fused forward for linear_act: row tiles of kRowTile in parallel, each
/// through linear_act_rows. The output needs no zeroing: every kernel
/// starts its accumulators at +0.0 and overwrites its rows (the +0.0 start
/// is what makes the AVX2 zero-skip mask bitwise invisible, see
/// fused_tile_block).
void fused_linear_fwd(const Real* a, const Real* w, const Real* bias, Real* c,
                      int n, int k, int m, FusedAct act) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  const int tiles = (n + kRowTile - 1) / kRowTile;
  exec::parallel_for(tiles, work > 1 << 16, [&](std::int64_t t) {
    const int i0 = static_cast<int>(t) * kRowTile;
    linear_act_rows(a + static_cast<std::size_t>(i0) * k, w, bias,
                    c + static_cast<std::size_t>(i0) * m,
                    std::min(kRowTile, n - i0), k, m, act);
  });
}

/// d(act)/d(pre-activation) recovered from the *output* value (valid for
/// ReLU: out > 0 <=> pre > 0; for Tanh: 1 - out^2 — both match the unfused
/// elementwise backward exactly).
Real act_grad_from_output(FusedAct act, Real out) {
  switch (act) {
    case FusedAct::ReLU:
      return out > 0 ? Real(1) : Real(0);
    case FusedAct::Tanh:
      return Real(1) - out * out;
    case FusedAct::Identity:
      break;
  }
  return Real(1);
}

}  // namespace

void linear_act_rows(const Real* x, const Real* w, const Real* bias, Real* y,
                     int n, int k, int m, FusedAct act) {
#ifdef GNS_AVX2_KERNELS
  if (simd::cpu_has_avx2()) {
    int i = 0;
    for (; i + 4 <= n; i += 4)
      fused_tile_avx2<4>(x + static_cast<std::size_t>(i) * k, w, bias,
                         y + static_cast<std::size_t>(i) * m, k, m, act);
    const Real* xt = x + static_cast<std::size_t>(i) * k;
    Real* yt = y + static_cast<std::size_t>(i) * m;
    switch (n - i) {
      case 3:
        fused_tile_avx2<3>(xt, w, bias, yt, k, m, act);
        break;
      case 2:
        fused_tile_avx2<2>(xt, w, bias, yt, k, m, act);
        break;
      case 1:
        fused_tile_avx2<1>(xt, w, bias, yt, k, m, act);
        break;
      default:
        break;
    }
    return;
  }
#endif
  for (int i = 0; i < n; ++i)
    fused_row_scalar(x + static_cast<std::size_t>(i) * k, w, bias,
                     y + static_cast<std::size_t>(i) * m, k, m, act);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  GNS_TRACE_SCOPE("ad.ops.matmul");
  GNS_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: "
                                          << a.rows() << "x" << a.cols()
                                          << " * " << b.rows() << "x"
                                          << b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  auto pa = a.ptr();
  auto pb = b.ptr();
  Tensor out = make_op_result(
      n, m, {pa, pb}, [pa, pb, n, k, m](TensorImpl& self) {
        if (pa->requires_grad) {
          pa->ensure_grad();
          gemm_nt_acc(self.grad.data(), pb->data.data(), pa->grad.data(), n,
                      m, k);
        }
        if (pb->requires_grad) {
          pb->ensure_grad();
          gemm_tn_acc(pa->data.data(), self.grad.data(), pb->grad.data(), n,
                      k, m);
        }
      });
  std::fill(out.vec().begin(), out.vec().end(), Real(0));
  gemm_acc(a.data(), b.data(), out.data(), n, k, m);
  return out;
}

Tensor transpose(const Tensor& a) {
  GNS_TRACE_SCOPE("ad.ops.transpose");
  const int n = a.rows(), m = a.cols();
  const std::int64_t work = static_cast<std::int64_t>(n) * m;
  auto pa = a.ptr();
  Tensor out = make_op_result(m, n, {pa}, [pa, n, m, work](TensorImpl& self) {
    if (!pa->requires_grad) return;
    pa->ensure_grad();
    // Parallel over input rows: each i owns grad row i (no write races).
    exec::parallel_for(n, work > 1 << 16, [&](std::int64_t i)  {
      for (int j = 0; j < m; ++j)
        pa->grad[static_cast<std::size_t>(i) * m + j] +=
            self.grad[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)];
    });
  });
  const Real* av = a.data();
  Real* ov = out.data();
  // Parallel over output rows j; pure copies, so any order is bitwise
  // identical to the serial loop.
  exec::parallel_for(m, work > 1 << 16, [&](std::int64_t j) {
    for (int i = 0; i < n; ++i)
      ov[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)] =
          av[static_cast<std::size_t>(i) * m + static_cast<std::size_t>(j)];
  });
  return out;
}

Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  FusedAct act) {
  GNS_TRACE_SCOPE("ad.ops.linear_act");
  GNS_CHECK_MSG(x.cols() == w.rows(), "linear_act shape mismatch: "
                                          << x.rows() << "x" << x.cols()
                                          << " * " << w.rows() << "x"
                                          << w.cols());
  const bool has_bias = b.defined();
  if (has_bias) {
    GNS_CHECK_MSG(b.rows() == 1 && b.cols() == w.cols(),
                  "linear_act bias must be [1," << w.cols() << "], got "
                                                << b.rows() << "x"
                                                << b.cols());
  }
  const int n = x.rows(), k = x.cols(), m = w.cols();
  auto px = x.ptr();
  auto pw = w.ptr();
  auto pb = has_bias ? b.ptr() : TensorImplPtr{};
  std::vector<TensorImplPtr> parents{px, pw};
  if (has_bias) parents.push_back(pb);
  Tensor out = make_op_result(
      n, m, std::move(parents), [px, pw, pb, n, k, m, act](TensorImpl& self) {
        // dpre = upstream grad * act'(output); for Identity it aliases the
        // upstream grad directly (no copy).
        const Real* go = self.grad.data();
        std::vector<Real> dpre_store;
        const Real* dpre = go;
        if (act != FusedAct::Identity) {
          dpre_store.resize(static_cast<std::size_t>(n) * m);
          const Real* ov = self.data.data();
          const std::int64_t total = static_cast<std::int64_t>(n) * m;
          for (std::int64_t i = 0; i < total; ++i)
            dpre_store[i] = go[i] * act_grad_from_output(act, ov[i]);
          dpre = dpre_store.data();
        }
        if (px->requires_grad) {
          px->ensure_grad();
          gemm_nt_acc(dpre, pw->data.data(), px->grad.data(), n, m, k);
        }
        if (pw->requires_grad) {
          pw->ensure_grad();
          gemm_tn_acc(px->data.data(), dpre, pw->grad.data(), n, k, m);
        }
        if (pb && pb->requires_grad) {
          pb->ensure_grad();
          // Same accumulation order as add()'s broadcast backward
          // (rows outer, cols inner) for bitwise-equal bias grads.
          for (int r = 0; r < n; ++r)
            for (int c = 0; c < m; ++c)
              pb->grad[c] += dpre[static_cast<std::size_t>(r) * m + c];
        }
      });
  fused_linear_fwd(x.data(), w.data(), has_bias ? b.data() : nullptr,
                   out.data(), n, k, m, act);
  return out;
}

}  // namespace gns::ad
