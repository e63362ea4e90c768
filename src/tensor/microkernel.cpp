#include "dlscale/tensor/microkernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dlscale/util/simd.hpp"

#if DLSCALE_SIMD_X86
#include <immintrin.h>
#endif

namespace dlscale::tensor::micro {

namespace {

/// k-block length: kKC rows of B stay cache resident across the row loop.
/// Shared by every path — the block boundaries are part of the
/// per-element accumulation order for gemm_nn, so the scalar twin and the
/// vector kernels must agree on them.
constexpr int kKC = 128;

#if DLSCALE_SIMD_X86
/// Register row-block of the vector GEMM and int8 kernels.
constexpr int kMR = 4;
#endif

/// Per-thread scratch for gemm_nt_acc's whole-B pack, grown monotonically
/// and reused across calls. Callers that share one pack across row chunks
/// pack into their own buffer and call gemm_nt_acc_packed instead.
float* pack_scratch(std::size_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// ---- scalar twins ---------------------------------------------------------
//
// These are the seed kernels, unchanged: they define the reference
// accumulation order (k ascending per output element, zeros in A
// skipped) that the vector paths reproduce bit for bit. The GEMM twins
// are kept out of line so their loops are laid out on their own rather
// than inside the three-way dispatcher (inlined there, the gemm_nn inner
// loop picked up a spill and straddled a fetch boundary, ~1.3x slower).

namespace scalar {

[[gnu::noinline]] void gemm_nn(const float* a, const float* b, float* c, int rows, int k,
                               int n) {
  for (int kb = 0; kb < k; kb += kKC) {
    const int kend = std::min(k, kb + kKC);
    for (int i = 0; i < rows; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int kk = kb; kk < kend; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n;
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

[[gnu::noinline]] void gemm_tn(const float* a, const float* b, float* c, int i0, int i1,
                               int m, int k, int n) {
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    const float* brow = b + static_cast<std::size_t>(kk) * n;
    for (int i = i0; i < i1; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i - i0) * n;
      for (int j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

[[gnu::noinline]] void gemm_nt_acc(const float* a, const float* b, float* c, int rows,
                                   int k, int n) {
  for (int i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[static_cast<std::size_t>(i) * n + j] += acc;
    }
  }
}

// The scalar twin reads B in place, so it packs nothing and its packed
// product is gemm_nt_acc itself.
void gemm_nt_pack_b(const float* /*b*/, int /*k*/, int /*n*/, float* /*packed*/) {}

void gemm_nt_acc_packed(const float* a, const float* b, const float* /*packed*/, float* c,
                        int rows, int k, int n) {
  gemm_nt_acc(a, b, c, rows, k, n);
}

void add_inplace(float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] += b[i];
}

void add_scalar_inplace(float* p, float v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) p[i] += v;
}

void scale_inplace(float* p, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) p[i] *= s;
}

void relu_inplace(float* p, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) p[i] = std::max(0.0f, p[i]);
}

void relu_zero_where_nonpositive(const float* x, float* g, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
}

void sgd_momentum_update(float* value, float* velocity, const float* grad,
                         float clip_scale, float weight_decay, float momentum,
                         float lr, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float g = clip_scale * grad[i] + weight_decay * value[i];
    velocity[i] = momentum * velocity[i] + g;
    value[i] -= lr * velocity[i];
  }
}

/// i16 saturation — the scalar model of maddubs' per-pair clamp.
inline std::int32_t sat16(std::int32_t v) {
  return std::min(32767, std::max(-32768, v));
}

/// CVTPS2DQ twin: round to nearest even; NaN and results outside i32
/// range become INT32_MIN (the instruction's "integer indefinite").
inline std::int32_t cvtps_i32(float v) {
  const float r = std::nearbyintf(v);
  if (r >= -2147483648.0f && r < 2147483648.0f) {
    return static_cast<std::int32_t>(r);
  }
  return std::numeric_limits<std::int32_t>::min();
}

void gemm_s8u8(const std::uint8_t* a, int lda, const std::int8_t* packed_b,
               std::int32_t* c, int rows, int k, int n) {
  const int kq = (k + 3) / 4;
  const int np = (n + 7) / 8;
  for (int i = 0; i < rows; ++i) {
    const std::uint8_t* arow = a + static_cast<std::size_t>(i) * lda;
    std::int32_t* crow = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < np; ++p) {
      const std::int8_t* panel =
          packed_b + static_cast<std::size_t>(p) * kq * 32;
      const int jn = std::min(8, n - p * 8);
      for (int j = 0; j < jn; ++j) {
        std::int32_t acc = 0;
        const std::int8_t* pq = panel + j * 4;
        for (int q = 0; q < kq; ++q, pq += 32) {
          const std::uint8_t* aq = arow + 4 * q;
          const std::int32_t p0 = static_cast<std::int32_t>(aq[0]) * pq[0] +
                                  static_cast<std::int32_t>(aq[1]) * pq[1];
          const std::int32_t p1 = static_cast<std::int32_t>(aq[2]) * pq[2] +
                                  static_cast<std::int32_t>(aq[3]) * pq[3];
          acc += sat16(p0) + sat16(p1);
        }
        crow[p * 8 + j] = acc;
      }
    }
  }
}

void quantize_u8(const float* src, std::uint8_t* dst, std::int64_t n,
                 float inv_scale, std::int32_t zero_point) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t q = cvtps_i32(src[i] * inv_scale);
    // Wrapping add, matching _mm256_add_epi32 on the vector path (the
    // zero-point shift can wrap when the conversion pegged at INT32_MIN
    // or near INT32_MAX; both paths must wrap identically).
    const std::int32_t shifted = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(q) + static_cast<std::uint32_t>(zero_point));
    dst[i] = static_cast<std::uint8_t>(std::min(255, std::max(0, shifted)));
  }
}

void transpose_u8(const std::uint8_t* src, int rows, int cols,
                  std::uint8_t* dst, int dst_stride) {
  // Tiled so both the contiguous reads and the strided writes stay
  // L1-resident (a flat loop would touch `cols` cache lines per row).
  constexpr int kTile = 64;
  for (int c0 = 0; c0 < cols; c0 += kTile) {
    const int c1 = std::min(c0 + kTile, cols);
    for (int r0 = 0; r0 < rows; r0 += kTile) {
      const int r1 = std::min(r0 + kTile, rows);
      for (int r = r0; r < r1; ++r) {
        const std::uint8_t* s = src + static_cast<std::size_t>(r) * cols;
        std::uint8_t* d = dst + r;
        for (int c = c0; c < c1; ++c) {
          d[static_cast<std::size_t>(c) * dst_stride] = s[c];
        }
      }
    }
  }
}

}  // namespace scalar

// ---- vector GEMM panels ---------------------------------------------------
//
// Each panel body is written once over GCC vector types and instantiated
// at two widths: 8 lanes (YMM) inside the target("avx2") entry points and
// 16 lanes (ZMM) inside the target("avx512f") ones. The bodies carry no
// target of their own; being always_inline, every instantiation is
// compiled with the ISA of the entry point it lands in, so the TU itself
// stays executable on any x86-64 and only the dispatcher reaches vector
// code, after CPUID confirms it. GEMM terms are a vector mul followed by
// a vector add: -ffp-contract=off keeps them unfused even under avx512f,
// which permits FMA, so every rounding matches the scalar twin.

#if DLSCALE_SIMD_X86

namespace vec {

typedef float F8 __attribute__((vector_size(32)));
typedef float F16 __attribute__((vector_size(64)));

template <class V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));

#define DLSCALE_VEC_INLINE [[gnu::always_inline]] inline

template <class V>
DLSCALE_VEC_INLINE void load(V& v, const float* p) {
  __builtin_memcpy(&v, p, sizeof v);
}

template <class V>
DLSCALE_VEC_INLINE void store(float* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// R rows x NV vectors of C accumulate kc terms, k ascending, skipping
/// zero A elements. A element (row r, step kk) sits at
/// akk[kk * astride + r * arow_stride] (astride 1 for nn rows, m for tn
/// columns); B step kk is the strip at bk + kk * ldb. B is not packed:
/// within one kKC block the strip touches at most kKC cache lines, which
/// stay L1-resident across the row loop, and skipping the pack keeps
/// single-digit-row calls (small parallel_for chunks) profitable. Each
/// broadcast A element feeds all NV vectors, amortising the zero branch
/// over the panel width. The non-zero side is marked likely (A is the
/// weight matrix in every conv GEMM): left to itself GCC laid the skips
/// out as a chain of taken jumps, and gemm_tn ran ~1.5x slower.
template <class V, int R, int NV>
DLSCALE_VEC_INLINE void panel(const float* akk, std::ptrdiff_t astride,
                              std::ptrdiff_t arow_stride, const float* bk, int ldb,
                              float* crow, std::ptrdiff_t crow_stride, int kc) {
  constexpr int L = kLanes<V>;
  V acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) load(acc[r][v], crow + r * crow_stride + v * L);
  }
  for (int kk = 0; kk < kc; ++kk, bk += ldb) {
    V bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) load(bv[v], bk + v * L);
    const float* ak = akk + static_cast<std::ptrdiff_t>(kk) * astride;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float a = ak[r * arow_stride];
      if (__builtin_expect(a != 0.0f, 1)) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + bv[v] * a;
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) store(crow + r * crow_stride + v * L, acc[r][v]);
  }
}

/// kMR-row blocks of one NV-vector column strip, then single leftover
/// rows. B strip and C start at the strip's first column.
template <class V, int NV>
DLSCALE_VEC_INLINE void strip(const float* a_base, std::ptrdiff_t astride,
                              std::ptrdiff_t arow_stride, const float* bk, float* c, int rows,
                              int n, int kc) {
  int i = 0;
  for (; i + kMR <= rows; i += kMR) {
    panel<V, kMR, NV>(a_base + i * arow_stride, astride, arow_stride, bk, n,
                      c + static_cast<std::size_t>(i) * n, n, kc);
  }
  for (; i < rows; ++i) {
    panel<V, 1, NV>(a_base + i * arow_stride, astride, arow_stride, bk, n,
                    c + static_cast<std::size_t>(i) * n, n, kc);
  }
}

/// Shared nn/tn loop over one kKC block, from column jp on: strips of
/// 2L columns, then one of L if that many remain. Returns the first
/// column not covered (the next narrower width, or the scalar tail,
/// starts there). A addressing as in panel(), with row i at
/// a_base + i * arow_stride.
template <class V>
DLSCALE_VEC_INLINE int block_panels(const float* a_base, std::ptrdiff_t astride,
                                    std::ptrdiff_t arow_stride, const float* bk, float* c,
                                    int rows, int n, int kc, int jp) {
  constexpr int L = kLanes<V>;
  for (; jp + 2 * L <= n; jp += 2 * L) {
    strip<V, 2>(a_base, astride, arow_stride, bk + jp, c + jp, rows, n, kc);
  }
  for (; jp + L <= n; jp += L) {
    strip<V, 1>(a_base, astride, arow_stride, bk + jp, c + jp, rows, n, kc);
  }
  return jp;
}

/// Column tail [jp, n) of one kKC block: the scalar twin restricted to
/// those columns, same per-element k order, so identity is preserved.
DLSCALE_VEC_INLINE void block_tail(const float* a_base, std::ptrdiff_t astride,
                                   std::ptrdiff_t arow_stride, const float* bk, float* c,
                                   int rows, int n, int kc, int jp) {
  for (int i = 0; i < rows; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < kc; ++kk) {
      const float aik = a_base[i * arow_stride + static_cast<std::ptrdiff_t>(kk) * astride];
      if (aik == 0.0f) continue;
      const float* brow = bk + static_cast<std::size_t>(kk) * n;
      for (int j = jp; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

/// One kKC block through the panel widths Vs (widest first), then the
/// scalar tail.
template <class... Vs>
DLSCALE_VEC_INLINE void gemm_block(const float* a_base, std::ptrdiff_t astride,
                                   std::ptrdiff_t arow_stride, const float* bk, float* c,
                                   int rows, int n, int kc) {
  int jp = 0;
  ((jp = block_panels<Vs>(a_base, astride, arow_stride, bk, c, rows, n, kc, jp)), ...);
  if (jp < n) block_tail(a_base, astride, arow_stride, bk, c, rows, n, kc, jp);
}

template <class... Vs>
DLSCALE_VEC_INLINE void gemm_nn(const float* a, const float* b, float* c, int rows, int k,
                                int n) {
  for (int kb = 0; kb < k; kb += kKC) {
    gemm_block<Vs...>(a + kb, 1, k, b + static_cast<std::size_t>(kb) * n, c, rows, n,
                      std::min(k - kb, kKC));
  }
}

template <class... Vs>
DLSCALE_VEC_INLINE void gemm_tn(const float* a, const float* b, float* c, int i0, int i1,
                                int m, int k, int n) {
  // Restructured from the scalar twin's kk-outer nest to panel form; each
  // c element still accumulates with kk strictly ascending (kb blocks in
  // order, kk in order inside a block), so results are bitwise equal.
  for (int kb = 0; kb < k; kb += kKC) {
    gemm_block<Vs...>(a + static_cast<std::size_t>(kb) * m + i0, m, 1,
                      b + static_cast<std::size_t>(kb) * n, c, i1 - i0, n,
                      std::min(k - kb, kKC));
  }
}

/// R rows of C times one transpose-packed L-column strip of B^T: each
/// lane runs the scalar kernel's exact local k-ascending dot product,
/// then lands in c with one add — identical to the scalar `c += acc`.
template <class V, int R>
DLSCALE_VEC_INLINE void nt_panel(const float* a, int k, const float* bp, float* c, int ldc) {
  constexpr int L = kLanes<V>;
  V acc[R] = {};
  for (int kk = 0; kk < k; ++kk) {
    V bv;
    load(bv, bp + static_cast<std::size_t>(kk) * L);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r] = acc[r] + bv * a[static_cast<std::size_t>(r) * k + kk];
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    V cv;
    load(cv, c + static_cast<std::size_t>(r) * ldc);
    store(c + static_cast<std::size_t>(r) * ldc, cv + acc[r]);
  }
}

/// Transpose-packs gemm_nt_acc's L-column panels of b(n x k) from column
/// jp on: the panel at column j lands at packed + j * k as bp[kk][lane] =
/// b[j + lane][kk], so panels of mixed widths tile one buffer in column
/// order. Returns the first column not covered.
template <class V>
DLSCALE_VEC_INLINE int nt_pack(const float* b, int k, int n, int jp, float* packed) {
  constexpr int L = kLanes<V>;
  for (; jp + L <= n; jp += L) {
    // kk outermost: each packed step is one contiguous L-float store, read
    // from L row streams (~2x faster than lane-outer strided stores).
    float* bp = packed + static_cast<std::size_t>(jp) * k;
    const float* b0 = b + static_cast<std::size_t>(jp) * k;
    for (int kk = 0; kk < k; ++kk, bp += L) {
#pragma GCC unroll 16
      for (int lane = 0; lane < L; ++lane) bp[lane] = b0[static_cast<std::size_t>(lane) * k + kk];
    }
  }
  return jp;
}

/// Every row of A against the packed L-column panels from column jp on:
/// kMR-row blocks, then single rows. Returns the first column not covered.
template <class V>
DLSCALE_VEC_INLINE int nt_panels(const float* a, const float* packed, float* c, int rows, int k,
                                 int n, int jp) {
  constexpr int L = kLanes<V>;
  for (; jp + L <= n; jp += L) {
    const float* bp = packed + static_cast<std::size_t>(jp) * k;
    int i = 0;
    for (; i + kMR <= rows; i += kMR) {
      nt_panel<V, kMR>(a + static_cast<std::size_t>(i) * k, k, bp,
                       c + static_cast<std::size_t>(i) * n + jp, n);
    }
    for (; i < rows; ++i) {
      nt_panel<V, 1>(a + static_cast<std::size_t>(i) * k, k, bp,
                     c + static_cast<std::size_t>(i) * n + jp, n);
    }
  }
  return jp;
}

template <class... Vs>
DLSCALE_VEC_INLINE void gemm_nt_pack_b(const float* b, int k, int n, float* packed) {
  int jp = 0;
  ((jp = nt_pack<Vs>(b, k, n, jp, packed)), ...);
}

/// Packed panels first, then the column tail [jp, n) straight from b: the
/// scalar twin restricted to those columns.
template <class... Vs>
DLSCALE_VEC_INLINE void gemm_nt_acc_packed(const float* a, const float* b, const float* packed,
                                           float* c, int rows, int k, int n) {
  int jp = 0;
  ((jp = nt_panels<Vs>(a, packed, c, rows, k, n, jp)), ...);
  for (int i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int j = jp; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[static_cast<std::size_t>(i) * n + j] += acc;
    }
  }
}

#undef DLSCALE_VEC_INLINE

}  // namespace vec

// ---- AVX-512 path ---------------------------------------------------------
//
// The fp32 GEMMs only: 4x32 and 4x16 register blocks of ZMM columns, with
// 8-lane panels for a remaining 8..15 columns. Everything else runs the
// AVX2 kernels at this level.

namespace avx512 {

#define DLSCALE_AVX512 __attribute__((target("avx512f")))

DLSCALE_AVX512 void gemm_nn(const float* a, const float* b, float* c, int rows, int k,
                            int n) {
  vec::gemm_nn<vec::F16, vec::F8>(a, b, c, rows, k, n);
}

DLSCALE_AVX512 void gemm_tn(const float* a, const float* b, float* c, int i0, int i1, int m,
                            int k, int n) {
  vec::gemm_tn<vec::F16, vec::F8>(a, b, c, i0, i1, m, k, n);
}

DLSCALE_AVX512 void gemm_nt_pack_b(const float* b, int k, int n, float* packed) {
  vec::gemm_nt_pack_b<vec::F16, vec::F8>(b, k, n, packed);
}

DLSCALE_AVX512 void gemm_nt_acc_packed(const float* a, const float* b, const float* packed,
                                       float* c, int rows, int k, int n) {
  vec::gemm_nt_acc_packed<vec::F16, vec::F8>(a, b, packed, c, rows, k, n);
}

#undef DLSCALE_AVX512

}  // namespace avx512

// ---- AVX2 path ------------------------------------------------------------
//
// 4x16 and 4x8 register blocks of YMM columns for the GEMMs, hand-written
// intrinsics for the rest. No FMA: target("avx2") excludes it, and every
// term is a mul followed by an add.

namespace avx2 {

#define DLSCALE_AVX2 __attribute__((target("avx2")))

DLSCALE_AVX2 void gemm_nn(const float* a, const float* b, float* c, int rows, int k, int n) {
  vec::gemm_nn<vec::F8>(a, b, c, rows, k, n);
}

DLSCALE_AVX2 void gemm_tn(const float* a, const float* b, float* c, int i0, int i1, int m,
                          int k, int n) {
  vec::gemm_tn<vec::F8>(a, b, c, i0, i1, m, k, n);
}

DLSCALE_AVX2 void gemm_nt_pack_b(const float* b, int k, int n, float* packed) {
  vec::gemm_nt_pack_b<vec::F8>(b, k, n, packed);
}

DLSCALE_AVX2 void gemm_nt_acc_packed(const float* a, const float* b, const float* packed,
                                     float* c, int rows, int k, int n) {
  vec::gemm_nt_acc_packed<vec::F8>(a, b, packed, c, rows, k, n);
}

DLSCALE_AVX2 void add_inplace(float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

DLSCALE_AVX2 void add_scalar_inplace(float* p, float v, std::int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(p + i, _mm256_add_ps(_mm256_loadu_ps(p + i), vv));
  }
  for (; i < n; ++i) p[i] += v;
}

DLSCALE_AVX2 void scale_inplace(float* p, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(p + i, _mm256_mul_ps(_mm256_loadu_ps(p + i), vs));
  }
  for (; i < n; ++i) p[i] *= s;
}

DLSCALE_AVX2 void relu_inplace(float* p, std::int64_t n) {
  // maxps returns the *second* operand on equal-zeros or unordered, so
  // max_ps(x, 0) reproduces std::max(0.0f, x) exactly: -0.0 -> +0.0 and
  // NaN -> +0.0.
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(p + i, _mm256_max_ps(_mm256_loadu_ps(p + i), zero));
  }
  for (; i < n; ++i) p[i] = std::max(0.0f, p[i]);
}

DLSCALE_AVX2 void relu_zero_where_nonpositive(const float* x, float* g,
                                              std::int64_t n) {
  // Ordered compare: NaN x keeps g, matching `if (x <= 0) g = 0`.
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(g + i, _mm256_andnot_ps(mask, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
}

DLSCALE_AVX2 void sgd_momentum_update(float* value, float* velocity,
                                      const float* grad, float clip_scale,
                                      float weight_decay, float momentum,
                                      float lr, std::int64_t n) {
  const __m256 cs = _mm256_set1_ps(clip_scale);
  const __m256 wd = _mm256_set1_ps(weight_decay);
  const __m256 mu = _mm256_set1_ps(momentum);
  const __m256 eta = _mm256_set1_ps(lr);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 val = _mm256_loadu_ps(value + i);
    const __m256 g = _mm256_add_ps(_mm256_mul_ps(cs, _mm256_loadu_ps(grad + i)),
                                   _mm256_mul_ps(wd, val));
    const __m256 vel = _mm256_add_ps(_mm256_mul_ps(mu, _mm256_loadu_ps(velocity + i)), g);
    _mm256_storeu_ps(velocity + i, vel);
    _mm256_storeu_ps(value + i, _mm256_sub_ps(val, _mm256_mul_ps(eta, vel)));
  }
  for (; i < n; ++i) {
    const float g = clip_scale * grad[i] + weight_decay * value[i];
    velocity[i] = momentum * velocity[i] + g;
    value[i] -= lr * velocity[i];
  }
}

/// Broadcast one 4-byte activation quad to all eight 32-bit lanes.
DLSCALE_AVX2 inline __m256i broadcast_quad(const std::uint8_t* p) {
  std::int32_t quad;
  std::memcpy(&quad, p, sizeof quad);
  return _mm256_set1_epi32(quad);
}

/// acc[j] += sat16(a0*b0j + a1*b1j) + sat16(a2*b2j + a3*b3j) for the
/// eight panel columns: maddubs produces the two saturated pair products
/// as i16, madd-with-ones sums them into i32 (exact: i16 + i16).
DLSCALE_AVX2 inline __m256i quad_madd(__m256i acc, __m256i va, __m256i vb,
                                      __m256i ones) {
  return _mm256_add_epi32(
      acc, _mm256_madd_epi16(_mm256_maddubs_epi16(va, vb), ones));
}

DLSCALE_AVX2 inline void store_i32_lanes(std::int32_t* dst, __m256i v,
                                         int lanes) {
  if (lanes == 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  } else {
    alignas(32) std::int32_t tmp[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    std::memcpy(dst, tmp, static_cast<std::size_t>(lanes) * sizeof(std::int32_t));
  }
}

DLSCALE_AVX2 void gemm_s8u8(const std::uint8_t* a, int lda,
                            const std::int8_t* packed_b, std::int32_t* c,
                            int rows, int k, int n) {
  const int kq = (k + 3) / 4;
  const int np = (n + 7) / 8;
  const __m256i ones = _mm256_set1_epi16(1);
  for (int p = 0; p < np; ++p) {
    const std::int8_t* panel = packed_b + static_cast<std::size_t>(p) * kq * 32;
    const int jn = std::min(8, n - p * 8);
    std::int32_t* cp = c + p * 8;
    int i = 0;
    for (; i + kMR <= rows; i += kMR) {
      const std::uint8_t* a0 = a + static_cast<std::size_t>(i) * lda;
      const std::uint8_t* a1 = a0 + lda;
      const std::uint8_t* a2 = a1 + lda;
      const std::uint8_t* a3 = a2 + lda;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      const std::int8_t* pq = panel;
      for (int q = 0; q < kq; ++q, pq += 32) {
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pq));
        acc0 = quad_madd(acc0, broadcast_quad(a0 + 4 * q), vb, ones);
        acc1 = quad_madd(acc1, broadcast_quad(a1 + 4 * q), vb, ones);
        acc2 = quad_madd(acc2, broadcast_quad(a2 + 4 * q), vb, ones);
        acc3 = quad_madd(acc3, broadcast_quad(a3 + 4 * q), vb, ones);
      }
      std::int32_t* crow = cp + static_cast<std::size_t>(i) * n;
      store_i32_lanes(crow, acc0, jn);
      store_i32_lanes(crow + n, acc1, jn);
      store_i32_lanes(crow + 2 * static_cast<std::size_t>(n), acc2, jn);
      store_i32_lanes(crow + 3 * static_cast<std::size_t>(n), acc3, jn);
    }
    for (; i < rows; ++i) {
      const std::uint8_t* arow = a + static_cast<std::size_t>(i) * lda;
      __m256i acc = _mm256_setzero_si256();
      const std::int8_t* pq = panel;
      for (int q = 0; q < kq; ++q, pq += 32) {
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pq));
        acc = quad_madd(acc, broadcast_quad(arow + 4 * q), vb, ones);
      }
      store_i32_lanes(cp + static_cast<std::size_t>(i) * n, acc, jn);
    }
  }
}

DLSCALE_AVX2 void quantize_u8(const float* src, std::uint8_t* dst,
                              std::int64_t n, float inv_scale,
                              std::int32_t zero_point) {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256i zp = _mm256_set1_epi32(zero_point);
  const __m256i lo = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(255);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(src + i), inv));
    const __m256i clamped = _mm256_min_epi32(
        _mm256_max_epi32(_mm256_add_epi32(q, zp), lo), hi);
    // 8 x i32 in [0,255] -> 8 x u8: pack through u16 (packus interleaves
    // the 128-bit lanes; permute restores order before the final pack).
    const __m256i as16 = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(clamped, clamped), 0xD8);
    const __m128i as8 = _mm_packus_epi16(_mm256_castsi256_si128(as16),
                                         _mm256_castsi256_si128(as16));
    std::memcpy(dst + i, &as8, 8);
  }
  for (; i < n; ++i) {
    const std::int32_t q = scalar::cvtps_i32(src[i] * inv_scale);
    const std::int32_t shifted = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(q) + static_cast<std::uint32_t>(zero_point));
    dst[i] = static_cast<std::uint8_t>(std::min(255, std::max(0, shifted)));
  }
}

/// 16x16 byte block transpose through the classic 4-stage SSE unpack
/// network (epi8 -> epi16 -> epi32 -> epi64). After the four stages
/// register c holds source column c, so stores land in order. Pure byte
/// movement — bitwise identical to the scalar loops by construction.
DLSCALE_AVX2 inline void transpose_16x16_u8(const std::uint8_t* src,
                                            std::size_t src_stride,
                                            std::uint8_t* dst,
                                            std::size_t dst_stride) {
  __m128i x[16], t[16], u[16], v[16], w[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + static_cast<std::size_t>(i) * src_stride));
  }
  for (int g = 0; g < 8; ++g) {  // pairs of adjacent rows
    t[2 * g] = _mm_unpacklo_epi8(x[2 * g], x[2 * g + 1]);
    t[2 * g + 1] = _mm_unpackhi_epi8(x[2 * g], x[2 * g + 1]);
  }
  for (int h = 0; h < 4; ++h) {  // 4-row groups
    const int b = 4 * h;
    u[b + 0] = _mm_unpacklo_epi16(t[b + 0], t[b + 2]);
    u[b + 1] = _mm_unpackhi_epi16(t[b + 0], t[b + 2]);
    u[b + 2] = _mm_unpacklo_epi16(t[b + 1], t[b + 3]);
    u[b + 3] = _mm_unpackhi_epi16(t[b + 1], t[b + 3]);
  }
  for (int h = 0; h < 2; ++h) {  // 8-row halves
    const int b = 8 * h;
    for (int j = 0; j < 4; ++j) {
      v[b + 2 * j] = _mm_unpacklo_epi32(u[b + j], u[b + j + 4]);
      v[b + 2 * j + 1] = _mm_unpackhi_epi32(u[b + j], u[b + j + 4]);
    }
  }
  for (int j = 0; j < 8; ++j) {  // join the two 8-row halves
    w[2 * j] = _mm_unpacklo_epi64(v[j], v[j + 8]);
    w[2 * j + 1] = _mm_unpackhi_epi64(v[j], v[j + 8]);
  }
  for (int c = 0; c < 16; ++c) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + static_cast<std::size_t>(c) * dst_stride), w[c]);
  }
}

DLSCALE_AVX2 void transpose_u8(const std::uint8_t* src, int rows, int cols,
                               std::uint8_t* dst, int dst_stride) {
  const int rb = rows & ~15;
  const int cb = cols & ~15;
  for (int c0 = 0; c0 < cb; c0 += 16) {
    for (int r0 = 0; r0 < rb; r0 += 16) {
      transpose_16x16_u8(src + static_cast<std::size_t>(r0) * cols + c0,
                         static_cast<std::size_t>(cols),
                         dst + static_cast<std::size_t>(c0) * dst_stride + r0,
                         static_cast<std::size_t>(dst_stride));
    }
    // Row remainder under the full column blocks.
    for (int r = rb; r < rows; ++r) {
      const std::uint8_t* s = src + static_cast<std::size_t>(r) * cols;
      std::uint8_t* d = dst + r;
      for (int c = c0; c < c0 + 16; ++c) {
        d[static_cast<std::size_t>(c) * dst_stride] = s[c];
      }
    }
  }
  // Column remainder, all rows.
  for (int r = 0; r < rows; ++r) {
    const std::uint8_t* s = src + static_cast<std::size_t>(r) * cols;
    std::uint8_t* d = dst + r;
    for (int c = cb; c < cols; ++c) {
      d[static_cast<std::size_t>(c) * dst_stride] = s[c];
    }
  }
}

#undef DLSCALE_AVX2

}  // namespace avx2

#endif  // DLSCALE_SIMD_X86


}  // namespace

// ---- dispatchers ----------------------------------------------------------

// The fp32 GEMMs are the only kernels with a tier per SIMD level; this
// is the one place that maps the active level to the namespace that
// serves it.
#if DLSCALE_SIMD_X86
#define DLSCALE_GEMM_DISPATCH(fn, ...)                  \
  switch (util::simd_level()) {                         \
    case util::SimdLevel::kAvx512:                      \
      return avx512::fn(__VA_ARGS__);                   \
    case util::SimdLevel::kAvx2:                        \
      return avx2::fn(__VA_ARGS__);                     \
    case util::SimdLevel::kScalar:                      \
      break;                                            \
  }                                                     \
  scalar::fn(__VA_ARGS__)
#else
#define DLSCALE_GEMM_DISPATCH(fn, ...) scalar::fn(__VA_ARGS__)
#endif

void gemm_nn(const float* a, const float* b, float* c, int rows, int k, int n) {
  DLSCALE_GEMM_DISPATCH(gemm_nn, a, b, c, rows, k, n);
}

void gemm_tn(const float* a, const float* b, float* c, int i0, int i1, int m,
             int k, int n) {
  DLSCALE_GEMM_DISPATCH(gemm_tn, a, b, c, i0, i1, m, k, n);
}

std::size_t gemm_nt_packed_size(int k, int n) {
  return static_cast<std::size_t>(std::max(k, 0)) * static_cast<std::size_t>(std::max(n, 0));
}

void gemm_nt_pack_b(const float* b, int k, int n, float* packed) {
  DLSCALE_GEMM_DISPATCH(gemm_nt_pack_b, b, k, n, packed);
}

void gemm_nt_acc_packed(const float* a, const float* b, const float* packed, float* c, int rows,
                        int k, int n) {
  DLSCALE_GEMM_DISPATCH(gemm_nt_acc_packed, a, b, packed, c, rows, k, n);
}

void gemm_nt_acc(const float* a, const float* b, float* c, int rows, int k,
                 int n) {
  float* packed = pack_scratch(gemm_nt_packed_size(k, n));
  gemm_nt_pack_b(b, k, n, packed);
  gemm_nt_acc_packed(a, b, packed, c, rows, k, n);
}

#undef DLSCALE_GEMM_DISPATCH

std::size_t gemm_s8u8_packed_size(int k, int n) {
  const std::size_t kq = (static_cast<std::size_t>(std::max(k, 0)) + 3) / 4;
  const std::size_t np = (static_cast<std::size_t>(std::max(n, 0)) + 7) / 8;
  return np * kq * 32;
}

void gemm_s8u8_pack_b(const std::int8_t* b, int k, int n, std::int8_t* packed) {
  // Pure data movement shared by both dispatch paths: the packed image is
  // part of the kernel's ABI, not a per-path optimization.
  const int kq = (k + 3) / 4;
  const int np = (n + 7) / 8;
  for (int p = 0; p < np; ++p) {
    for (int q = 0; q < kq; ++q) {
      std::int8_t* quad = packed + (static_cast<std::size_t>(p) * kq + q) * 32;
      for (int j = 0; j < 8; ++j) {
        const int col = 8 * p + j;
        for (int t = 0; t < 4; ++t) {
          const int kk = 4 * q + t;
          quad[j * 4 + t] = (kk < k && col < n)
                                ? b[static_cast<std::size_t>(kk) * n + col]
                                : std::int8_t{0};
        }
      }
    }
  }
}

void gemm_s8u8(const std::uint8_t* a, int lda, const std::int8_t* packed_b,
               std::int32_t* c, int rows, int k, int n) {
  if (k > kGemmS8U8MaxK) {
    throw std::invalid_argument(
        "gemm_s8u8: k=" + std::to_string(k) + " exceeds kGemmS8U8MaxK=" +
        std::to_string(kGemmS8U8MaxK) + " (i32 accumulator could overflow)");
  }
  if (lda < ((k + 3) & ~3)) {
    throw std::invalid_argument(
        "gemm_s8u8: lda=" + std::to_string(lda) +
        " is below the quad-padded depth " + std::to_string((k + 3) & ~3));
  }
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::gemm_s8u8(a, lda, packed_b, c, rows, k, n);
#endif
  scalar::gemm_s8u8(a, lda, packed_b, c, rows, k, n);
}

void quantize_u8(const float* src, std::uint8_t* dst, std::int64_t n,
                 float inv_scale, std::int32_t zero_point) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::quantize_u8(src, dst, n, inv_scale, zero_point);
#endif
  scalar::quantize_u8(src, dst, n, inv_scale, zero_point);
}

void transpose_u8(const std::uint8_t* src, int rows, int cols,
                  std::uint8_t* dst, int dst_stride) {
  if (rows < 0 || cols < 0 || dst_stride < rows) {
    throw std::invalid_argument(
        "transpose_u8: need rows, cols >= 0 and dst_stride >= rows");
  }
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::transpose_u8(src, rows, cols, dst, dst_stride);
#endif
  scalar::transpose_u8(src, rows, cols, dst, dst_stride);
}

void add_inplace(float* a, const float* b, std::int64_t n) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::add_inplace(a, b, n);
#endif
  scalar::add_inplace(a, b, n);
}

void add_scalar_inplace(float* p, float v, std::int64_t n) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::add_scalar_inplace(p, v, n);
#endif
  scalar::add_scalar_inplace(p, v, n);
}

void scale_inplace(float* p, float s, std::int64_t n) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::scale_inplace(p, s, n);
#endif
  scalar::scale_inplace(p, s, n);
}

void relu_inplace(float* p, std::int64_t n) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::relu_inplace(p, n);
#endif
  scalar::relu_inplace(p, n);
}

void relu_zero_where_nonpositive(const float* x, float* g, std::int64_t n) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) return avx2::relu_zero_where_nonpositive(x, g, n);
#endif
  scalar::relu_zero_where_nonpositive(x, g, n);
}

void sgd_momentum_update(float* value, float* velocity, const float* grad,
                         float clip_scale, float weight_decay, float momentum,
                         float lr, std::int64_t n) {
#if DLSCALE_SIMD_X86
  if (util::simd_avx2()) {
    return avx2::sgd_momentum_update(value, velocity, grad, clip_scale,
                                     weight_decay, momentum, lr, n);
  }
#endif
  scalar::sgd_momentum_update(value, velocity, grad, clip_scale, weight_decay,
                              momentum, lr, n);
}

const char* active_path() { return util::simd_level_name(util::simd_level()); }

}  // namespace dlscale::tensor::micro
