#include "mpm/shape.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GNS_MPM_AVX2_KERNEL 1
#endif

#include "util/simd.hpp"

namespace gns::mpm {

namespace {

/// Scalar reference: one shape_weights call per coordinate, transposed
/// into the SoA layout.
void batch_scalar(ShapeKind kind, const double* x, int count, double h,
                  ShapeWeightsBatch& out) {
  for (int i = 0; i < count; ++i) {
    const ShapeWeights1D s = shape_weights(kind, x[i], h);
    out.base[i] = s.base;
    for (int k = 0; k < 3; ++k) {
      out.w[k][i] = s.w[k];
      out.dw[k][i] = s.dw[k];
    }
  }
}

#ifdef GNS_MPM_AVX2_KERNEL

/// Quadratic B-spline weights, 4 coordinates per iteration. Bitwise equal
/// to bspline_weights + the /h of the dispatcher: _mm256_div_pd and
/// _mm256_floor_pd are the same correctly-rounded ops as `/` and
/// std::floor, fx = x/h - floor(x/h + 0.5) subtracts the exact
/// integer-valued double, and every product keeps the scalar association
/// (0.5*(0.5∓fx))*(0.5∓fx). The truncating int conversion is exact
/// because its input is already an integer-valued double.
__attribute__((target("avx2"))) void batch_bspline_avx2(
    const double* x, int count, double h, ShapeWeightsBatch& out) {
  const __m256d vh = _mm256_set1_pd(h);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d three_q = _mm256_set1_pd(0.75);
  const __m256d neg_two = _mm256_set1_pd(-2.0);
  int i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d xo = _mm256_div_pd(_mm256_loadu_pd(x + i), vh);
    const __m256d d = _mm256_floor_pd(_mm256_add_pd(xo, half));
    const __m256d fx = _mm256_sub_pd(xo, d);
    const __m128i base =
        _mm_sub_epi32(_mm256_cvttpd_epi32(d), _mm_set1_epi32(1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.base + i), base);
    const __m256d lo = _mm256_sub_pd(half, fx);  // 0.5 - fx
    const __m256d hi = _mm256_add_pd(half, fx);  // 0.5 + fx
    _mm256_store_pd(out.w[0] + i,
                    _mm256_mul_pd(_mm256_mul_pd(half, lo), lo));
    _mm256_store_pd(out.w[1] + i,
                    _mm256_sub_pd(three_q, _mm256_mul_pd(fx, fx)));
    _mm256_store_pd(out.w[2] + i,
                    _mm256_mul_pd(_mm256_mul_pd(half, hi), hi));
    _mm256_store_pd(out.dw[0] + i,
                    _mm256_div_pd(_mm256_sub_pd(fx, half), vh));
    _mm256_store_pd(out.dw[1] + i,
                    _mm256_div_pd(_mm256_mul_pd(neg_two, fx), vh));
    _mm256_store_pd(out.dw[2] + i,
                    _mm256_div_pd(_mm256_add_pd(fx, half), vh));
  }
  for (; i < count; ++i) {
    const ShapeWeights1D s =
        shape_weights(ShapeKind::QuadraticBSpline, x[i], h);
    out.base[i] = s.base;
    for (int k = 0; k < 3; ++k) {
      out.w[k][i] = s.w[k];
      out.dw[k][i] = s.dw[k];
    }
  }
}

#endif  // GNS_MPM_AVX2_KERNEL

}  // namespace

void shape_weights_batch(ShapeKind kind, const double* x, int count, double h,
                         ShapeWeightsBatch& out) {
  GNS_DCHECK(count >= 0 && count <= kShapeBatch);
#ifdef GNS_MPM_AVX2_KERNEL
  if (kind == ShapeKind::QuadraticBSpline && simd::cpu_has_avx2()) {
    batch_bspline_avx2(x, count, h, out);
    return;
  }
#endif
  batch_scalar(kind, x, count, h, out);
}

}  // namespace gns::mpm
