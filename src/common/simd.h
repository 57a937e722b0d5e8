// Portable SIMD micro-kernel cores for the float hot paths.
//
// Two compile-time tiers — AVX2 (8-wide) and scalar — selected by what the
// translation unit was compiled for.  The root CMakeLists turns the
// SHMCAFFE_SIMD option into `-mavx2` (when the compiler supports it);
// -DSHMCAFFE_SIMD=OFF defines SHMCAFFE_FORCE_SCALAR and every core is the
// plain loop (the `simd` stage of tools/check.sh builds this configuration
// and re-runs the kernel-equivalence tests against it).
//
// Only `axpy`, the conv GEMM inner loop, carries AVX2 intrinsics: it is the
// one core where hand-written vectors measure faster end to end.  The
// streaming cores (add/sub, the SEASGD exchange algebra) are plain loops:
// in the Release trees (perfbench, the tools/check.sh `bench` stage) GCC
// -O3 -mavx2 vectorises each with 32-byte vectors behind a runtime alias
// check, and intrinsics measured no faster there.  GCC's -O2 (the default
// RelWithDebInfo tree) leaves them scalar.
//
// Bitwise-identity contract (the reason these kernels are safe to adopt
// under the determinism story of common/parallel.h):
//
//   * Only *lane-independent elementwise* operations are vectorised —
//     axpy, add/sub, the SEASGD exchange algebra.  Each output element is
//     a fixed expression of same-index inputs, so lane width cannot change
//     results: an 8-wide lane computes exactly the scalar expression.
//   * Multiplies and adds stay *separate* instructions (no FMA
//     intrinsics, and the build never passes -mfma): a fused
//     multiply-add skips the intermediate rounding and would make the
//     AVX2 build diverge from the scalar one.  With the FMA ISA absent
//     the compiler cannot contract the plain loops either, so SIMD and
//     scalar builds, at any thread count, produce bit-identical floats
//     (asserted by tests/simd_test.cc and the BENCH_kernels.json checksum
//     fields).
//   * Reductions (dot products, checksums over doubles) are NOT offered
//     here on purpose: any widened reduction reorders the summation.
//     Callers keep those loops scalar (see dl/layers.cc backward_gemm).
//
// The FNV-1a word hash lives here too: it is the integrity layer's
// per-chunk checksum core, processing 8 bytes per multiply instead of one.
// It is plain scalar uint64 code — identical on every tier — but it is a
// data-plane inner loop and versioned with the rest of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(SHMCAFFE_FORCE_SCALAR) && defined(__AVX2__)
#define SHMCAFFE_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace shmcaffe::common::simd {

/// Tier name for bench/test labels.
inline constexpr const char* dispatch_name() {
#if defined(SHMCAFFE_SIMD_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

/// y[i] += a * x[i].  The conv GEMM tile accumulator core (dl/layers.cc):
/// one weight broadcast against a row of the im2col matrix.
inline void axpy(std::size_t n, float a, const float* x, float* y) {
#if defined(SHMCAFFE_SIMD_AVX2)
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 y0 = _mm256_loadu_ps(y + i);
    const __m256 y1 = _mm256_loadu_ps(y + i + 8);
    const __m256 p0 = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    const __m256 p1 = _mm256_mul_ps(av, _mm256_loadu_ps(x + i + 8));
    _mm256_storeu_ps(y + i, _mm256_add_ps(y0, p0));
    _mm256_storeu_ps(y + i + 8, _mm256_add_ps(y1, p1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 p = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), p));
  }
  for (; i < n; ++i) y[i] += a * x[i];
#else
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
#endif
}

/// dst[i] += src[i].  The SMB server-side accumulate core (eq. 7).
inline void add_inplace(std::size_t n, float* dst, const float* src) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// dst[i] -= src[i].  Eq. (6) half of the exchange.
inline void sub_inplace(std::size_t n, float* dst, const float* src) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

/// delta[i] = alpha * (local[i] - global[i]) — eq. (5), the SEASGD weight
/// increment.  mul after sub, never fused.
inline void weight_increment_core(std::size_t n, const float* local, const float* global,
                                  float alpha, float* delta) {
  for (std::size_t i = 0; i < n; ++i) delta[i] = alpha * (local[i] - global[i]);
}

/// Fused eqs. (5)+(6): delta[i] = alpha*(local[i]-global[i]);
/// local[i] -= delta[i].  One pass over the three spans — the T1 exchange
/// inner loop (core/seasgd_math.h), including its zero-copy pinned-read
/// form where `global` is a span directly into SMB segment storage.
inline void elastic_exchange_core(std::size_t n, float* local, const float* global,
                                  float alpha, float* delta) {
  for (std::size_t i = 0; i < n; ++i) {
    const float d = alpha * (local[i] - global[i]);
    delta[i] = d;
    local[i] -= d;
  }
}

/// FNV-1a over `bytes` of `data`, folding 8 bytes per multiply with a
/// byte-wise tail.  NOT the byte-serial FNV-1a value — a distinct,
/// self-consistent hash family used only where writer and verifier share
/// the function (the SMB per-chunk checksums; persisted checkpoint hashes
/// keep their own byte-serial FNV in recovery/checkpoint.cc).  Identical
/// output on every SIMD tier and thread count: it is sequential uint64
/// arithmetic over a fixed byte order.
inline std::uint64_t fnv1a_words(const void* data, std::size_t bytes,
                                 std::uint64_t seed = 0xcbf29ce484222325ULL) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    hash = (hash ^ word) * kPrime;
  }
  for (; i < bytes; ++i) hash = (hash ^ p[i]) * kPrime;
  return hash;
}

}  // namespace shmcaffe::common::simd
