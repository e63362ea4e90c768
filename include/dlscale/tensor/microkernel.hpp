// SIMD micro-kernels under the blocked GEMM wrappers (DESIGN.md §6,
// "SIMD dispatch").
//
// Every entry point has two implementations selected at runtime via
// util::simd_level(): a portable scalar twin (the seed kernels, verbatim)
// and an AVX2 path that is **bitwise identical** to it. Identity holds
// because the AVX2 kernels
//   - vectorize across output *columns*, so each c[i][j] accumulator
//     still sees its product terms in the exact serial k-order, and
//   - use separate mul/add intrinsics (never FMA contraction), so each
//     term is rounded exactly like the scalar expression.
// The GEMMs stream B through kNR-wide panels packed into reusable
// per-thread scratch, register-blocked over kMR rows of A.
//
// Callers (src/tensor/ops.cpp, src/nn/optimizer.cpp) keep owning the
// thread-pool partitioning; these kernels are the serial per-chunk inner
// loops, so the thread-count-determinism invariant is untouched.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dlscale::tensor::micro {

// ---- GEMM family (k-blocked; semantics match the seed kernels) ------------

/// c(rows x n) += a(rows x k) * b(k x n); zeros in A are skipped.
void gemm_nn(const float* a, const float* b, float* c, int rows, int k, int n);

/// Rows [i0, i1) of A^T * B for a(k x m), b(k x n), written to
/// c((i1-i0) x n); zeros in A are skipped.
void gemm_tn(const float* a, const float* b, float* c, int i0, int i1, int m,
             int k, int n);

/// c(rows x n) += a(rows x k) * b(n x k)^T — dot-product form, each
/// c[i][j] accumulated locally over k then added once. Packs all of B
/// into thread scratch per call; a caller that splits the rows into
/// chunks packs once with gemm_nt_pack_b and calls gemm_nt_acc_packed.
void gemm_nt_acc(const float* a, const float* b, float* c, int rows, int k,
                 int n);

/// Floats gemm_nt_pack_b may write for b(n x k), at every SIMD level.
std::size_t gemm_nt_packed_size(int k, int n);

/// Transpose-packs b(n x k) into the column panels gemm_nt_acc_packed
/// sweeps at the active SIMD level (a no-op for the scalar twin). Pack a
/// B once, then let every row chunk of one product read it: row chunks
/// on pool threads share the panel instead of each re-packing B. Pack and
/// product must run at the same level, which set_simd_level()'s rule (no
/// re-selection while kernels are in flight) guarantees within one op.
void gemm_nt_pack_b(const float* b, int k, int n, float* packed);

/// gemm_nt_acc with B already packed by gemm_nt_pack_b; bitwise equal to
/// it. `b` is still read for the columns past the last full panel.
void gemm_nt_acc_packed(const float* a, const float* b, const float* packed,
                        float* c, int rows, int k, int n);

// ---- int8 quantized GEMM (DESIGN.md §9, "Reduced-precision serving") ------
//
// u8 activations (asymmetric: scale + zero-point) times s8 weights
// (symmetric, per-output-channel scales), accumulated in i32. The kernel
// models `_mm256_maddubs_epi16`: products are taken over *pairs* of
// adjacent k positions and each pair sum saturates to i16 before joining
// the i32 accumulator. Both dispatch paths implement that exact integer
// recurrence —
//
//   c[i][j] = sum over quads q of
//             sat16(a[i][4q]*b[4q][j]   + a[i][4q+1]*b[4q+1][j]) +
//             sat16(a[i][4q+2]*b[4q+2][j] + a[i][4q+3]*b[4q+3][j])
//
// — so scalar/AVX2 bitwise identity is automatic (integer math has no
// rounding freedom). Model conversion sidesteps the saturation entirely
// by quantizing weights to [-63, 63]: max |pair| = 2*255*63 = 32130 <
// 32767, so for converted models the sat16 is the identity and the GEMM
// is an exact integer dot product. The kernel-level semantics still
// define (and tests still exercise) the saturating case for direct
// callers.
//
// Accumulator overflow guard: each quad contributes at most 2*32767 in
// magnitude, so k must satisfy ceil(k/4) * 65534 < 2^31 — enforced as
// k <= kGemmS8U8MaxK. Serve-time im2col depths are orders of magnitude
// below this.

/// Largest k gemm_s8u8 accepts without risking i32 accumulator overflow.
inline constexpr int kGemmS8U8MaxK = 1 << 16;

/// Bytes required by gemm_s8u8_pack_b for a (k x n) weight matrix.
std::size_t gemm_s8u8_packed_size(int k, int n);

/// Pack row-major b(k x n, s8) into the panel layout gemm_s8u8 consumes:
/// ceil(n/8) panels of 8 columns, each panel ceil(k/4) quads of 4 k-steps,
/// 32 bytes per quad laid out column-major within the quad
/// (byte[j*4 + t] = b[4q + t][8p + j]). Out-of-range k/n positions are
/// zero-padded, which keeps the pad inert under the pair-saturation
/// semantics above.
void gemm_s8u8_pack_b(const std::int8_t* b, int k, int n, std::int8_t* packed);

/// c(rows x n, i32) = a * b using the packed B from gemm_s8u8_pack_b.
/// A is row-major u8 with row stride `lda`, which must be at least
/// round_up(k, 4); bytes in [k, lda) may hold anything (B's zero pad
/// nullifies them). Plain store, not accumulate. Requires k <=
/// kGemmS8U8MaxK.
void gemm_s8u8(const std::uint8_t* a, int lda, const std::int8_t* packed_b,
               std::int32_t* c, int rows, int k, int n);

/// Asymmetric u8 quantization sweep:
///   dst[i] = clamp(rne(src[i] * inv_scale) + zero_point, 0, 255)
/// with CVTPS2DQ semantics for the float->i32 step (round to nearest
/// even; NaN and out-of-range round results become INT32_MIN, which the
/// clamp maps to 0). The scalar twin replicates those semantics exactly,
/// so both paths are bitwise identical on every input.
void quantize_u8(const float* src, std::uint8_t* dst, std::int64_t n,
                 float inv_scale, std::int32_t zero_point);

/// Byte-matrix transpose: dst[c * dst_stride + r] = src[r * cols + c] for
/// r < rows, c < cols. Requires dst_stride >= rows; dst bytes in
/// [rows, dst_stride) of each row are left untouched. This is how the
/// quantized conv forward turns the k-major im2col image into the
/// pixel-major u8 rows gemm_s8u8 consumes — a flat scalar loop touches
/// one cache line per k step per column and dominates the int8 GEMM
/// itself, so the AVX2 path moves 16x16 blocks through SSE byte
/// unpacks. Pure data movement: bitwise identity across paths is
/// trivial.
void transpose_u8(const std::uint8_t* src, int rows, int cols,
                  std::uint8_t* dst, int dst_stride);

// ---- elementwise sweeps (lane-parallel, trivially order-preserving) -------

/// a[i] += b[i]
void add_inplace(float* a, const float* b, std::int64_t n);

/// p[i] += v
void add_scalar_inplace(float* p, float v, std::int64_t n);

/// p[i] *= s
void scale_inplace(float* p, float s, std::int64_t n);

/// p[i] = max(0, p[i]) with std::max(0.0f, x) semantics (NaN and -0.0
/// both map to +0.0, matching the scalar seed kernel).
void relu_inplace(float* p, std::int64_t n);

/// g[i] = 0 where x[i] <= 0 (relu backward mask; NaN x keeps g).
void relu_zero_where_nonpositive(const float* x, float* g, std::int64_t n);

/// SGD-with-momentum update, matching nn::SgdMomentum::step's inner loop:
///   g        = clip_scale * grad[i] + weight_decay * value[i]
///   velocity = momentum * velocity[i] + g
///   value   -= lr * velocity
void sgd_momentum_update(float* value, float* velocity, const float* grad,
                         float clip_scale, float weight_decay, float momentum,
                         float lr, std::int64_t n);

/// Name of the path the dispatcher currently selects ("avx2"/"scalar") —
/// for bench tables and run_all.sh logging.
const char* active_path();

}  // namespace dlscale::tensor::micro
