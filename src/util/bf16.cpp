#include "dlscale/util/bf16.hpp"

#include <cstring>

#include "dlscale/util/simd.hpp"

#if DLSCALE_SIMD_X86
#include <immintrin.h>
#endif

namespace dlscale::util {

std::uint16_t float_to_bf16(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof bits);

  if ((bits & 0x7F800000u) == 0x7F800000u && (bits & 0x7FFFFFu) != 0u) {
    // NaN: truncate the payload, but force it nonzero — a NaN whose
    // payload lives entirely in the discarded low 16 bits would otherwise
    // truncate to an infinity pattern.
    std::uint16_t narrowed = static_cast<std::uint16_t>(bits >> 16);
    if ((narrowed & 0x7Fu) == 0u) narrowed |= 0x40u;
    return narrowed;
  }

  // Round-to-nearest-even by bias-add: 0x7FFF plus the round-to-even tie
  // breaker. A carry out of the mantissa increments the exponent, which is
  // exactly RNE's behaviour at binade boundaries; inf stays inf because
  // its low 16 bits are zero, so the bias never carries into bit 16.
  const std::uint32_t rounding_bias = 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>((bits + rounding_bias) >> 16);
}

float bf16_to_float(std::uint16_t bf16) noexcept {
  const std::uint32_t bits = static_cast<std::uint32_t>(bf16) << 16;
  float value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

// ---- array sweeps ---------------------------------------------------------

namespace {

void floats_to_bf16s_scalar(const float* src, std::uint16_t* dst,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_bf16(src[i]);
}

void bf16s_to_floats_scalar(const std::uint16_t* src, float* dst,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bf16_to_float(src[i]);
}

#if DLSCALE_SIMD_X86

#define DLSCALE_BF16_AVX2 __attribute__((target("avx2")))

// The narrow sweep is pure integer arithmetic, so the vector path can
// reproduce the scalar twin exactly on every input — including NaNs.
// Per-lane it computes the same two branches: the RNE bias-add for
// non-NaN lanes and the payload-preserving truncation for NaN lanes,
// blended by a NaN mask.
DLSCALE_BF16_AVX2 void floats_to_bf16s_avx2(const float* src,
                                            std::uint16_t* dst,
                                            std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i inf_bits = _mm256_set1_epi32(0x7F800000);
  const __m256i bias_base = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i low7 = _mm256_set1_epi32(0x7F);
  const __m256i quiet_bit = _mm256_set1_epi32(0x40);
  const __m256i zero = _mm256_setzero_si256();

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i abs = _mm256_and_si256(bits, abs_mask);
    // NaN <=> magnitude bits strictly above the infinity pattern.
    const __m256i is_nan = _mm256_cmpgt_epi32(abs, inf_bits);

    // Non-NaN lanes: (bits + 0x7FFF + lsb(bits >> 16)) >> 16.
    const __m256i lsb =
        _mm256_and_si256(_mm256_srli_epi32(bits, 16), one);
    const __m256i rounded = _mm256_srli_epi32(
        _mm256_add_epi32(bits, _mm256_add_epi32(bias_base, lsb)), 16);

    // NaN lanes: truncate and force the 7-bit payload nonzero.
    __m256i truncated = _mm256_srli_epi32(bits, 16);
    const __m256i payload_zero =
        _mm256_cmpeq_epi32(_mm256_and_si256(truncated, low7), zero);
    truncated = _mm256_or_si256(
        truncated, _mm256_and_si256(payload_zero, quiet_bit));

    const __m256i narrowed = _mm256_blendv_epi8(rounded, truncated, is_nan);

    // 8 x u32 (each <= 0xFFFF) -> 8 x u16. packus interleaves the 128-bit
    // lanes, so permute them back into order before the 128-bit store.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(narrowed, narrowed), 0xD8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) dst[i] = float_to_bf16(src[i]);
}

DLSCALE_BF16_AVX2 void bf16s_to_floats_avx2(const std::uint16_t* src,
                                            float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i halves =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256i widened =
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(halves), 16);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), widened);
  }
  for (; i < n; ++i) dst[i] = bf16_to_float(src[i]);
}

#undef DLSCALE_BF16_AVX2

#endif  // DLSCALE_SIMD_X86

}  // namespace

void floats_to_bf16s(const float* src, std::uint16_t* dst, std::size_t n) {
#if DLSCALE_SIMD_X86
  if (simd_avx2()) return floats_to_bf16s_avx2(src, dst, n);
#endif
  floats_to_bf16s_scalar(src, dst, n);
}

void bf16s_to_floats(const std::uint16_t* src, float* dst, std::size_t n) {
#if DLSCALE_SIMD_X86
  if (simd_avx2()) return bf16s_to_floats_avx2(src, dst, n);
#endif
  bf16s_to_floats_scalar(src, dst, n);
}

}  // namespace dlscale::util
