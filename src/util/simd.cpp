#include "util/simd.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GNS_AVX2_KERNELS 1
#endif

namespace gns::simd {

namespace {

#ifdef GNS_AVX2_KERNELS

__attribute__((target("avx2"))) void copy_avx2(double* dst, const double* src,
                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d a = _mm256_loadu_pd(src + i);
    const __m256d b = _mm256_loadu_pd(src + i + 4);
    const __m256d c = _mm256_loadu_pd(src + i + 8);
    const __m256d d = _mm256_loadu_pd(src + i + 12);
    _mm256_storeu_pd(dst + i, a);
    _mm256_storeu_pd(dst + i + 4, b);
    _mm256_storeu_pd(dst + i + 8, c);
    _mm256_storeu_pd(dst + i + 12, d);
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_loadu_pd(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

__attribute__((target("avx2"))) void accumulate_avx2(double* dst,
                                                     const double* src,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a =
        _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i));
    const __m256d b = _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                    _mm256_loadu_pd(src + i + 4));
    _mm256_storeu_pd(dst + i, a);
    _mm256_storeu_pd(dst + i + 4, b);
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void accumulate_scaled_avx2(
    double* dst, const double* src, double scale, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(scale);
  std::size_t i = 0;
  // mul then add, never FMA: matches `dst[i] += scale * src[i]` exactly.
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_loadu_pd(dst + i),
                      _mm256_mul_pd(vs, _mm256_loadu_pd(src + i))));
  for (; i < n; ++i) dst[i] += scale * src[i];
}

__attribute__((target("avx2"))) void norm_affine_avx2(
    double* y, const double* x, const double* gamma, const double* beta,
    double mu, double inv_s, std::size_t n) {
  const __m256d vmu = _mm256_set1_pd(mu);
  const __m256d vis = _mm256_set1_pd(inv_s);
  std::size_t i = 0;
  // ((gamma * (x - mu)) * inv_s) + beta — same association as the scalar
  // expression `gamma[i] * (x[i] - mu) * inv_s + beta[i]`.
  for (; i + 4 <= n; i += 4) {
    const __m256d centered = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmu);
    const __m256d scaled = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_loadu_pd(gamma + i), centered), vis);
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(scaled, _mm256_loadu_pd(beta + i)));
  }
  for (; i < n; ++i) y[i] = gamma[i] * (x[i] - mu) * inv_s + beta[i];
}

#endif  // GNS_AVX2_KERNELS

}  // namespace

bool cpu_has_avx2() {
#ifdef GNS_AVX2_KERNELS
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

void copy(double* dst, const double* src, std::size_t n) {
#ifdef GNS_AVX2_KERNELS
  if (cpu_has_avx2()) {
    copy_avx2(dst, src, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

void accumulate(double* dst, const double* src, std::size_t n) {
#ifdef GNS_AVX2_KERNELS
  if (cpu_has_avx2()) {
    accumulate_avx2(dst, src, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void accumulate_scaled(double* dst, const double* src, double scale,
                       std::size_t n) {
#ifdef GNS_AVX2_KERNELS
  if (cpu_has_avx2()) {
    accumulate_scaled_avx2(dst, src, scale, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void norm_affine(double* y, const double* x, const double* gamma,
                 const double* beta, double mu, double inv_s, std::size_t n) {
#ifdef GNS_AVX2_KERNELS
  if (cpu_has_avx2()) {
    norm_affine_avx2(y, x, gamma, beta, mu, inv_s, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    y[i] = gamma[i] * (x[i] - mu) * inv_s + beta[i];
}

}  // namespace gns::simd
