#include "dlscale/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dlscale/tensor/microkernel.hpp"
#include "dlscale/util/arena.hpp"
#include "dlscale/util/thread_pool.hpp"

// Threading model (see DESIGN.md §6): every hot kernel fans out over the
// shared util::ThreadPool via parallel_for. Work is partitioned so that
// each output element is produced by exactly one chunk with a serial
// reduction order fixed by the data layout — chunk boundaries depend only
// on shapes and grain constants, never on the thread count — so results
// are bitwise identical at any DLSCALE_NUM_THREADS setting (the property
// the E6 gradient-parity experiment relies on). Kernels invoked from
// inside a pool worker (nested calls) run inline and serial.
//
// The serial per-chunk inner loops live in tensor::micro
// (src/tensor/microkernel.cpp): runtime-dispatched SIMD micro-kernels
// whose scalar and AVX2 paths are bitwise identical, so neither the
// thread count nor the DLSCALE_SIMD setting changes any result.

namespace dlscale::tensor {

namespace {

void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

/// Chunk length for parallelising `rows` units of `work_per_row` fused
/// mul-adds each: targets ~64k ops per chunk so pool dispatch overhead is
/// amortised. Pure function of the shape — never of the thread count.
inline std::int64_t row_grain(std::int64_t rows, std::int64_t work_per_row) {
  constexpr std::int64_t kTargetOps = 1 << 16;
  if (rows <= 1) return 1;
  const std::int64_t grain =
      work_per_row > 0 ? (kTargetOps + work_per_row - 1) / work_per_row : rows;
  return std::clamp<std::int64_t>(grain, 1, rows);
}

/// Chunk length for the GEMM micro-kernel call sites. The register-blocked
/// kernel runs rows in blocks of four with the B strip shared across the
/// block, so chunks below a few rows forfeit the blocking entirely (a
/// one-row chunk degenerates to the single-row kernel). Target more ops
/// per chunk than the generic row_grain, never split below 16 rows, and
/// round to whole 4-row blocks so only the last chunk can have a ragged
/// tail. Like row_grain this is a pure function of the shape, and GEMM
/// output rows are computed independently, so chunking cannot change
/// results.
inline std::int64_t gemm_row_grain(std::int64_t rows, std::int64_t work_per_row) {
  constexpr std::int64_t kTargetOps = 1 << 20;
  constexpr std::int64_t kMinRows = 16;
  constexpr std::int64_t kRowBlock = 4;
  if (rows <= kMinRows) return std::max<std::int64_t>(rows, 1);
  const std::int64_t grain =
      work_per_row > 0 ? (kTargetOps + work_per_row - 1) / work_per_row : rows;
  const std::int64_t blocked = (std::max(grain, kMinRows) + kRowBlock - 1) / kRowBlock * kRowBlock;
  return std::min(blocked, rows);
}

/// Grain for elementwise sweeps.
constexpr std::int64_t kElemGrain = 1 << 15;

// Kernel scratch (im2col panels, per-sample dcols, softmax partials)
// comes from the per-thread bump arena as LIFO frames: a caller-side
// frame spans the whole kernel call, worker-side frames span one chunk.
// The arena keeps its high-water block across calls, so the steady state
// is heap-free — the property the zero-allocation tests assert.
using ScratchFrame = util::Arena::Frame;

util::Arena& scratch() { return util::thread_scratch_arena(); }

}  // namespace

// ---------------------------------------------------------------------------
// matmul family
// ---------------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  require(a.ndim() == 2 && b.ndim() == 2, "matmul: 2D operands required");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimensions differ");
  Tensor c({m, n});
  const float* pa = a.ptr();
  const float* pb = b.ptr();
  float* pc = c.ptr();
  util::parallel_for(0, m, gemm_row_grain(m, static_cast<std::int64_t>(k) * n),
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::gemm_nn(pa + i0 * k, pb, pc + i0 * n, static_cast<int>(i1 - i0), k,
                                      n);
                     });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  require(a.ndim() == 2 && b.ndim() == 2, "matmul_tn: 2D operands required");
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_tn: inner dimensions differ");
  Tensor c({m, n});
  const float* pa = a.ptr();
  const float* pb = b.ptr();
  float* pc = c.ptr();
  util::parallel_for(0, m, gemm_row_grain(m, static_cast<std::int64_t>(k) * n),
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::gemm_tn(pa, pb, pc + i0 * n, static_cast<int>(i0),
                                      static_cast<int>(i1), m, k, n);
                     });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require(a.ndim() == 2 && b.ndim() == 2, "matmul_nt: 2D operands required");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "matmul_nt: inner dimensions differ");
  Tensor c({m, n});
  const float* pa = a.ptr();
  const float* pb = b.ptr();
  float* pc = c.ptr();
  // B is packed once; every row chunk sweeps the same panels.
  ScratchFrame frame(scratch());
  float* packed = scratch().alloc<float>(micro::gemm_nt_packed_size(k, n));
  micro::gemm_nt_pack_b(pb, k, n, packed);
  util::parallel_for(0, m, gemm_row_grain(m, static_cast<std::int64_t>(k) * n),
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::gemm_nt_acc_packed(pa + i0 * k, pb, packed, pc + i0 * n,
                                                 static_cast<int>(i1 - i0), k, n);
                     });
  return c;
}

// ---------------------------------------------------------------------------
// convolution
// ---------------------------------------------------------------------------

// Both directions work on a zero-padded copy of one input plane, so every
// (ky, kx) tap is a branch-free strided walk: tap (ky, kx) of output
// (oy, ox) is padded pixel (oy*stride + ky*dilation, ox*stride +
// kx*dilation), always in range by the definition of out_extent (which
// is 0, an empty patch, when the dilated kernel does not fit). With
// pad == 0 the plane itself is the padded plane and no copy is made.
//
// Every walk is a sequence of short row moves (4-32 floats at the model's
// shapes). The row width and the stride reach the loops as compile-time
// constants for the widths and strides the model lowers, so a row becomes
// straight-line vector loads and stores instead of a libc call or a
// scalar loop; any other shape runs the same loop with run-time bounds.
// Each element still takes exactly one store (or one add, in the same
// per-element order), so the fixed and generic forms are bitwise equal.

namespace {

template <int N>
using Fixed = std::integral_constant<int, N>;

/// Calls body(width) with a Fixed width for 4, 8, 16 and 32, and with the
/// plain int otherwise.
template <class Body>
void with_width(int width, Body&& body) {
  switch (width) {
    case 4: return body(Fixed<4>{});
    case 8: return body(Fixed<8>{});
    case 16: return body(Fixed<16>{});
    case 32: return body(Fixed<32>{});
    default: return body(width);
  }
}

/// Calls body(width, stride) with each Fixed where with_width and strides
/// 1 and 2 allow it.
template <class Body>
void with_row_shape(int width, int stride, Body&& body) {
  const auto by_width = [&](auto s) { with_width(width, [&](auto w) { body(w, s); }); };
  switch (stride) {
    case 1: return by_width(Fixed<1>{});
    case 2: return by_width(Fixed<2>{});
    default: return by_width(stride);
  }
}

/// dst[x] = src[x * stride] for x < width.
template <class W, class S>
[[gnu::always_inline]] inline void gather_row(float* __restrict dst,
                                              const float* __restrict src, W width, S stride) {
  for (int x = 0; x < width; ++x) dst[x] = src[x * stride];
}

/// dst[x * stride] += src[x] for x < width.
template <class W, class S>
[[gnu::always_inline]] inline void scatter_add_row(float* __restrict dst,
                                                   const float* __restrict src, W width,
                                                   S stride) {
  for (int x = 0; x < width; ++x) dst[x * stride] += src[x];
}

/// Geometry of the padded plane walk for one (input plane, kernel, spec).
struct PaddedPlane {
  int h, w, out_h, out_w, pw;
  int stride, dilation, pad;

  PaddedPlane(int in_h, int in_w, int kh, int kw, const Conv2dSpec& spec)
      : h(in_h),
        w(in_w),
        out_h(spec.out_extent(in_h, kh)),
        out_w(spec.out_extent(in_w, kw)),
        pw(in_w + 2 * spec.pad),
        stride(spec.stride),
        dilation(spec.dilation),
        pad(spec.pad) {}

  [[nodiscard]] std::size_t padded_size() const {
    return static_cast<std::size_t>(h + 2 * pad) * pw;
  }
  /// First padded pixel tap (ky, kx) reads; output row oy starts at
  /// tap + oy * row_step().
  [[nodiscard]] std::size_t tap(int ky, int kx) const {
    return static_cast<std::size_t>(ky) * dilation * pw + static_cast<std::size_t>(kx) * dilation;
  }
  [[nodiscard]] std::size_t row_step() const { return static_cast<std::size_t>(stride) * pw; }
  [[nodiscard]] bool empty() const { return out_h == 0 || out_w == 0; }
  /// Copies plane (h x w) into the interior of padded (border untouched).
  void fill_interior(float* padded, const float* plane) const {
    float* dst = padded + static_cast<std::size_t>(pad) * pw + pad;
    with_width(w, [&](auto width) {
      for (int y = 0; y < h; ++y) {
        gather_row(dst + static_cast<std::size_t>(y) * pw, plane + static_cast<std::size_t>(y) * w,
                   width, Fixed<1>{});
      }
    });
  }
  /// Copies the interior of padded back out to plane (h x w).
  void copy_interior(float* plane, const float* padded) const {
    const float* src = padded + static_cast<std::size_t>(pad) * pw + pad;
    with_width(w, [&](auto width) {
      for (int y = 0; y < h; ++y) {
        gather_row(plane + static_cast<std::size_t>(y) * w, src + static_cast<std::size_t>(y) * pw,
                   width, Fixed<1>{});
      }
    });
  }
};

}  // namespace

void im2col(const Tensor& input, int sample, int kh, int kw, const Conv2dSpec& spec,
            float* cols, std::size_t row_stride) {
  const int channels = input.dim(1);
  const PaddedPlane g(input.dim(2), input.dim(3), kh, kw, spec);
  const std::size_t plane = static_cast<std::size_t>(g.h) * g.w;
  if (g.empty()) return;
  const float* base = input.ptr() + static_cast<std::size_t>(sample) * channels * plane;
  ScratchFrame frame(scratch());
  float* padded = nullptr;
  if (g.pad > 0) {
    // The border is zeroed once; each channel overwrites only the interior.
    padded = scratch().alloc<float>(g.padded_size());
    std::fill(padded, padded + g.padded_size(), 0.0f);
  }
  with_row_shape(g.out_w, g.stride, [&](auto out_w, auto stride) {
    for (int c = 0; c < channels; ++c) {
      const float* src = base + static_cast<std::size_t>(c) * plane;
      if (padded != nullptr) {
        g.fill_interior(padded, src);
        src = padded;
      }
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          const int row = (c * kh + ky) * kw + kx;
          float* dst = cols + static_cast<std::size_t>(row) * row_stride;
          const float* tap = src + g.tap(ky, kx);
          for (int oy = 0; oy < g.out_h; ++oy, dst += out_w, tap += g.row_step()) {
            gather_row(dst, tap, out_w, stride);
          }
        }
      }
    }
  });
}

void im2col(const Tensor& input, int sample, int kh, int kw, const Conv2dSpec& spec,
            float* cols) {
  const int out_h = spec.out_extent(input.dim(2), kh);
  const int out_w = spec.out_extent(input.dim(3), kw);
  im2col(input, sample, kh, kw, spec, cols, static_cast<std::size_t>(out_h) * out_w);
}

Tensor im2col(const Tensor& input, int sample, int kh, int kw, const Conv2dSpec& spec) {
  require(input.ndim() == 4, "im2col: input must be (N,C,H,W)");
  const int channels = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int out_h = spec.out_extent(h, kh);
  const int out_w = spec.out_extent(w, kw);
  require(out_h > 0 && out_w > 0, "im2col: empty output");
  Tensor cols({channels * kh * kw, out_h * out_w});
  im2col(input, sample, kh, kw, spec, cols.ptr());
  return cols;
}

void col2im(const float* cols, Tensor& grad_input, int sample, int kh, int kw,
            const Conv2dSpec& spec) {
  const int channels = grad_input.dim(1);
  const PaddedPlane g(grad_input.dim(2), grad_input.dim(3), kh, kw, spec);
  const std::size_t plane = static_cast<std::size_t>(g.h) * g.w;
  const std::size_t patch = static_cast<std::size_t>(g.out_h) * g.out_w;
  if (g.empty()) return;
  float* base = grad_input.ptr() + static_cast<std::size_t>(sample) * channels * plane;
  ScratchFrame frame(scratch());
  // The mirror of im2col: each channel's interior is seeded with its
  // current grad_input plane, every tap adds into the padded plane in
  // the same per-element (ky, kx, oy, ox) order as a clipped walk would,
  // and the interior is copied back. Border cells absorb the taps that
  // land in padding and are never read.
  float* padded = nullptr;
  if (g.pad > 0) {
    padded = scratch().alloc<float>(g.padded_size());
    std::fill(padded, padded + g.padded_size(), 0.0f);
  }
  with_row_shape(g.out_w, g.stride, [&](auto out_w, auto stride) {
    for (int c = 0; c < channels; ++c) {
      float* dst_plane = base + static_cast<std::size_t>(c) * plane;
      float* acc = dst_plane;
      if (padded != nullptr) {
        g.fill_interior(padded, dst_plane);
        acc = padded;
      }
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          const int row = (c * kh + ky) * kw + kx;
          const float* src = cols + static_cast<std::size_t>(row) * patch;
          float* tap = acc + g.tap(ky, kx);
          for (int oy = 0; oy < g.out_h; ++oy, src += out_w, tap += g.row_step()) {
            scatter_add_row(tap, src, out_w, stride);
          }
        }
      }
      if (padded != nullptr) g.copy_interior(dst_plane, padded);
    }
  });
}

void col2im(const Tensor& cols, Tensor& grad_input, int sample, int kh, int kw,
            const Conv2dSpec& spec) {
  const int channels = grad_input.dim(1), h = grad_input.dim(2), w = grad_input.dim(3);
  const int out_h = spec.out_extent(h, kh);
  const int out_w = spec.out_extent(w, kw);
  require(out_h > 0 && out_w > 0, "col2im: empty output");
  require(cols.dim(0) == channels * kh * kw && cols.dim(1) == out_h * out_w,
          "col2im: shape mismatch");
  col2im(cols.ptr(), grad_input, sample, kh, kw, spec);
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec) {
  require(input.ndim() == 4 && weight.ndim() == 4, "conv2d: 4D input/weight required");
  const int batch = input.dim(0), in_c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int out_c = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  require(weight.dim(1) == in_c, "conv2d: channel mismatch");
  if (bias != nullptr) require(static_cast<int>(bias->numel()) == out_c, "conv2d: bias size");
  const int out_h = spec.out_extent(h, kh);
  const int out_w = spec.out_extent(w, kw);
  require(out_h > 0 && out_w > 0, "conv2d: empty output");

  const int kdim = in_c * kh * kw;
  const int patch = out_h * out_w;
  // Samples per GEMM. Small-spatial convolutions (ASPP at /8, the pooled
  // 1x1 branch) produce so few output columns that a per-sample GEMM runs
  // almost entirely in the micro-kernel's ragged column tail; coalescing
  // the columns of several samples into one GEMM fills the 16-wide vector
  // panels (measured ~14x per-column at 4 -> 32 columns). Past ~64 columns
  // the B strip outgrows L1 and per-column cost creeps back up, so wide
  // patches keep the classic one-sample-per-GEMM shape (group == 1, which
  // also writes the output in place with no scatter). gemm_nn treats every
  // column independently with an identical per-element k order, so the
  // grouping — like the batch composition itself — cannot change any bit
  // of any sample's output: the invariant the serving layer's dynamic
  // batcher is built on.
  constexpr int kTargetGemmCols = 64;
  const int group = std::clamp(kTargetGemmCols / patch, 1, batch);
  const int ngroups = (batch + group - 1) / group;
  const std::size_t group_stride = static_cast<std::size_t>(kdim) * patch * group;
  ScratchFrame frame(scratch());
  float* cols = scratch().alloc<float>(static_cast<std::size_t>(kdim) * patch * batch);

  // Phase 1: batched im2col, parallel over samples. The samples of one
  // group share a (kdim x group*patch) column matrix — member m owns
  // columns [m*patch, (m+1)*patch) of every row — and the groups' matrices
  // sit consecutively in the scratch arena.
  util::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      const std::int64_t g = n / group;
      const int members = std::min(group, batch - static_cast<int>(g) * group);
      im2col(input, static_cast<int>(n), kh, kw, spec,
             cols + group_stride * g + static_cast<std::size_t>(n % group) * patch,
             static_cast<std::size_t>(members) * patch);
    }
  });

  const Tensor w2d = weight.reshaped({out_c, kdim});
  Tensor output({batch, out_c, out_h, out_w});
  const float* pw = w2d.ptr();
  const float* pbias = bias != nullptr ? bias->ptr() : nullptr;
  float* pout = output.ptr();

  // Phase 2: one GEMM per (group, output-channel block), parallel over
  // both. For group == 1 the (out_c x patch) result IS the sample's output
  // layout and is written in place; otherwise GEMM lands in scratch and a
  // row scatter (~1/kdim of the GEMM work) restores NCHW.
  const std::size_t out_group_stride = static_cast<std::size_t>(out_c) * patch * group;
  float* gscratch =
      group > 1 ? scratch().alloc<float>(out_group_stride * static_cast<std::size_t>(ngroups))
                : nullptr;
  const std::int64_t ocb = gemm_row_grain(
      out_c, static_cast<std::int64_t>(kdim) * patch * group);
  const std::int64_t blocks = (out_c + ocb - 1) / ocb;
  util::parallel_for(0, ngroups * blocks, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t g = t / blocks;
      const int o0 = static_cast<int>((t % blocks) * ocb);
      const int o1 = std::min(out_c, o0 + static_cast<int>(ocb));
      const int first = static_cast<int>(g) * group;
      const int members = std::min(group, batch - first);
      const int gcols = members * patch;
      float* dst;
      if (group == 1) {
        dst = pout + (static_cast<std::size_t>(first) * out_c + o0) * patch;
      } else {
        // gemm_nn accumulates; the output tensor is born zeroed but the
        // scratch is reused and must be cleared. Each (group, block) task
        // owns a disjoint scratch slice, so clearing races nothing.
        dst = gscratch + out_group_stride * g + static_cast<std::size_t>(o0) * gcols;
        std::fill(dst, dst + static_cast<std::size_t>(o1 - o0) * gcols, 0.0f);
      }
      micro::gemm_nn(pw + static_cast<std::size_t>(o0) * kdim, cols + group_stride * g, dst,
                     o1 - o0, kdim, gcols);
      if (pbias != nullptr) {
        for (int o = o0; o < o1; ++o) {
          micro::add_scalar_inplace(dst + static_cast<std::size_t>(o - o0) * gcols, pbias[o],
                                    gcols);
        }
      }
      if (group > 1) {
        for (int m = 0; m < members; ++m) {
          for (int o = o0; o < o1; ++o) {
            const float* src = dst + static_cast<std::size_t>(o - o0) * gcols +
                               static_cast<std::size_t>(m) * patch;
            std::copy(src, src + patch,
                      pout + (static_cast<std::size_t>(first + m) * out_c + o) * patch);
          }
        }
      }
    }
  });
  return output;
}

Tensor conv2d_backward(const Tensor& input, const Tensor& weight, const Tensor& grad_out,
                       const Conv2dSpec& spec, Tensor& grad_weight, Tensor* grad_bias) {
  require(input.ndim() == 4 && weight.ndim() == 4 && grad_out.ndim() == 4,
          "conv2d_backward: 4D input/weight/grad_out required");
  const int batch = input.dim(0), in_c = input.dim(1);
  const int out_c = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  require(weight.dim(1) == in_c, "conv2d_backward: channel mismatch");
  // im2col writes the spec's patch, so a grad_out of any other extent
  // would size the column buffers wrong; reject it before touching memory.
  const int out_h = spec.out_extent(input.dim(2), kh);
  const int out_w = spec.out_extent(input.dim(3), kw);
  require(out_h > 0 && out_w > 0, "conv2d_backward: empty output");
  require(grad_out.dim(0) == batch && grad_out.dim(1) == out_c && grad_out.dim(2) == out_h &&
              grad_out.dim(3) == out_w,
          "conv2d_backward: grad_out must be (N, out_c, outH, outW) of the forward");
  require(same_shape(grad_weight, weight), "conv2d_backward: grad_weight shape");
  const int patch = out_h * out_w;
  const int kdim = in_c * kh * kw;
  const std::size_t cols_stride = static_cast<std::size_t>(kdim) * patch;

  const Tensor w2d = weight.reshaped({out_c, kdim});
  Tensor grad_input({batch, in_c, input.dim(2), input.dim(3)});
  const float* pw = w2d.ptr();
  const float* pgo = grad_out.ptr();
  ScratchFrame frame(scratch());
  float* cols = scratch().alloc<float>(cols_stride * static_cast<std::size_t>(batch));

  // Phase 1: batched im2col, parallel over samples.
  util::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      im2col(input, static_cast<int>(n), kh, kw, spec, cols + cols_stride * n);
    }
  });

  // Phase 2: dW += sum_n go_n * cols_n^T, samples in ascending order so
  // the result matches the serial per-sample add_ exactly. Each sample's
  // columns are transpose-packed once, then the output-channel row chunks
  // run in parallel over that one shared panel set.
  float* pgw = grad_weight.ptr();  // (out_c, kdim) view of the 4D tensor
  float* packed = scratch().alloc<float>(micro::gemm_nt_packed_size(patch, kdim));
  const std::int64_t grain = gemm_row_grain(out_c, static_cast<std::int64_t>(kdim) * patch);
  for (int n = 0; n < batch; ++n) {
    const float* cols_n = cols + cols_stride * n;
    micro::gemm_nt_pack_b(cols_n, patch, kdim, packed);
    util::parallel_for(0, out_c, grain, [&](std::int64_t o0, std::int64_t o1) {
      micro::gemm_nt_acc_packed(pgo + (static_cast<std::size_t>(n) * out_c + o0) * patch, cols_n,
                                packed, pgw + static_cast<std::size_t>(o0) * kdim,
                                static_cast<int>(o1 - o0), patch, kdim);
    });
  }

  // Phase 3: dX = col2im(W^T * go_n), parallel over samples with a
  // per-worker dcols frame reused across the chunk's samples.
  util::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    ScratchFrame chunk_frame(scratch());
    float* dcols = scratch().alloc<float>(cols_stride);
    for (std::int64_t n = n0; n < n1; ++n) {
      std::fill(dcols, dcols + cols_stride, 0.0f);
      micro::gemm_tn(pw, pgo + static_cast<std::size_t>(n) * out_c * patch, dcols, 0, kdim, kdim,
                     out_c, patch);
      col2im(dcols, grad_input, static_cast<int>(n), kh, kw, spec);
    }
  });

  if (grad_bias != nullptr) {
    float* pgb = grad_bias->ptr();
    util::parallel_for(0, out_c, row_grain(out_c, static_cast<std::int64_t>(batch) * patch),
                       [&](std::int64_t o0, std::int64_t o1) {
                         for (std::int64_t o = o0; o < o1; ++o) {
                           for (int n = 0; n < batch; ++n) {
                             const float* src =
                                 pgo + (static_cast<std::size_t>(n) * out_c + o) * patch;
                             float acc = 0.0f;
                             for (int i = 0; i < patch; ++i) acc += src[i];
                             pgb[o] += acc;
                           }
                         }
                       });
  }
  return grad_input;
}

Tensor depthwise_conv2d(const Tensor& input, const Tensor& weight, const Conv2dSpec& spec) {
  require(input.ndim() == 4 && weight.ndim() == 4, "depthwise_conv2d: 4D input/weight required");
  const int batch = input.dim(0), channels = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int kh = weight.dim(2), kw = weight.dim(3);
  require(weight.dim(0) == channels && weight.dim(1) == 1,
          "depthwise_conv2d: weight must be (C,1,kh,kw)");
  const int out_h = spec.out_extent(h, kh);
  const int out_w = spec.out_extent(w, kw);
  require(out_h > 0 && out_w > 0, "depthwise_conv2d: empty output");

  Tensor out({batch, channels, out_h, out_w});
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const float* pin = input.ptr();
  const float* pwt = weight.ptr();
  float* pout = out.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(
      0, planes, row_grain(planes, static_cast<std::int64_t>(out_plane) * kh * kw),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const int c = static_cast<int>(p % channels);
          const float* src = pin + static_cast<std::size_t>(p) * in_plane;
          const float* wt = pwt + static_cast<std::size_t>(c) * kh * kw;
          float* dst = pout + static_cast<std::size_t>(p) * out_plane;
          for (int oy = 0; oy < out_h; ++oy)
            for (int ox = 0; ox < out_w; ++ox) {
              float acc = 0.0f;
              for (int ky = 0; ky < kh; ++ky) {
                const int iy = oy * spec.stride - spec.pad + ky * spec.dilation;
                if (iy < 0 || iy >= h) continue;
                for (int kx = 0; kx < kw; ++kx) {
                  const int ix = ox * spec.stride - spec.pad + kx * spec.dilation;
                  if (ix < 0 || ix >= w) continue;
                  acc += src[static_cast<std::size_t>(iy) * w + ix] * wt[ky * kw + kx];
                }
              }
              dst[static_cast<std::size_t>(oy) * out_w + ox] = acc;
            }
        }
      });
  return out;
}

Tensor depthwise_conv2d_backward(const Tensor& input, const Tensor& weight,
                                 const Tensor& grad_out, const Conv2dSpec& spec,
                                 Tensor& grad_weight) {
  require(input.ndim() == 4 && weight.ndim() == 4 && grad_out.ndim() == 4,
          "depthwise_conv2d_backward: 4D input/weight/grad_out required");
  const int batch = input.dim(0), channels = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int kh = weight.dim(2), kw = weight.dim(3);
  require(weight.dim(0) == channels && weight.dim(1) == 1,
          "depthwise_conv2d_backward: weight must be (C,1,kh,kw)");
  const int out_h = spec.out_extent(h, kh);
  const int out_w = spec.out_extent(w, kw);
  require(grad_out.dim(0) == batch && grad_out.dim(1) == channels && grad_out.dim(2) == out_h &&
              grad_out.dim(3) == out_w,
          "depthwise_conv2d_backward: grad_out must be (N, C, outH, outW) of the forward");
  require(same_shape(grad_weight, weight), "depthwise_conv2d_backward: grad_weight shape");

  Tensor grad_input(input.shape());
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const float* pin = input.ptr();
  const float* pwt = weight.ptr();
  const float* pgo = grad_out.ptr();
  float* pgi = grad_input.ptr();
  float* pgw = grad_weight.ptr();
  // Parallel over channels: each chunk owns its channels' grad_weight
  // filters and grad_input planes; samples accumulate in ascending order.
  util::parallel_for(
      0, channels,
      row_grain(channels, static_cast<std::int64_t>(batch) * out_plane * kh * kw),
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          const float* wt = pwt + static_cast<std::size_t>(c) * kh * kw;
          float* gw = pgw + static_cast<std::size_t>(c) * kh * kw;
          for (int n = 0; n < batch; ++n) {
            const std::size_t plane_idx = static_cast<std::size_t>(n) * channels + c;
            const float* src = pin + plane_idx * in_plane;
            const float* go = pgo + plane_idx * out_plane;
            float* gi = pgi + plane_idx * in_plane;
            for (int oy = 0; oy < out_h; ++oy)
              for (int ox = 0; ox < out_w; ++ox) {
                const float g = go[static_cast<std::size_t>(oy) * out_w + ox];
                if (g == 0.0f) continue;
                for (int ky = 0; ky < kh; ++ky) {
                  const int iy = oy * spec.stride - spec.pad + ky * spec.dilation;
                  if (iy < 0 || iy >= h) continue;
                  for (int kx = 0; kx < kw; ++kx) {
                    const int ix = ox * spec.stride - spec.pad + kx * spec.dilation;
                    if (ix < 0 || ix >= w) continue;
                    gi[static_cast<std::size_t>(iy) * w + ix] += g * wt[ky * kw + kx];
                    gw[ky * kw + kx] += g * src[static_cast<std::size_t>(iy) * w + ix];
                  }
                }
              }
          }
        }
      });
  return grad_input;
}

// ---------------------------------------------------------------------------
// activations / normalisation
// ---------------------------------------------------------------------------

Tensor relu(const Tensor& x) {
  Tensor out = x;
  float* p = out.ptr();
  util::parallel_for(0, static_cast<std::int64_t>(out.numel()), kElemGrain,
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::relu_inplace(p + i0, i1 - i0);
                     });
  return out;
}

Tensor relu_backward(const Tensor& x, const Tensor& grad_out) {
  require(same_shape(x, grad_out), "relu_backward: shape mismatch");
  Tensor grad = grad_out;
  const float* px = x.ptr();
  float* pg = grad.ptr();
  util::parallel_for(0, static_cast<std::int64_t>(grad.numel()), kElemGrain,
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::relu_zero_where_nonpositive(px + i0, pg + i0, i1 - i0);
                     });
  return grad;
}

Tensor batchnorm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta, Tensor& running_mean,
                   Tensor& running_var, bool train, float momentum, float eps,
                   BatchNormCache* cache) {
  require(x.ndim() == 4, "batchnorm2d: input must be (N,C,H,W)");
  const int batch = x.dim(0), channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  require(static_cast<int>(gamma.numel()) == channels, "batchnorm2d: gamma size");
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const std::size_t per_channel = static_cast<std::size_t>(batch) * hw;

  Tensor out(x.shape());
  // Train writes the statistics straight into the cache's resize-once
  // vectors (stable capacity across steps); eval borrows frame scratch.
  ScratchFrame frame(scratch());
  float* mean = nullptr;
  float* inv_std = nullptr;
  if (cache != nullptr) {
    cache->mean.resize(static_cast<std::size_t>(channels));
    cache->inv_std.resize(static_cast<std::size_t>(channels));
    mean = cache->mean.data();
    inv_std = cache->inv_std.data();
  } else {
    mean = scratch().alloc<float>(static_cast<std::size_t>(channels));
    inv_std = scratch().alloc<float>(static_cast<std::size_t>(channels));
  }
  const float* px = x.ptr();

  // Per-channel statistics: each channel is reduced serially inside one
  // chunk (sample-major order, matching the serial kernel bit for bit).
  util::parallel_for(
      0, channels, row_grain(channels, static_cast<std::int64_t>(per_channel) * 2),
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          double m = 0.0, v = 0.0;
          if (train) {
            for (int n = 0; n < batch; ++n) {
              const float* p = px + (static_cast<std::size_t>(n) * channels + c) * hw;
              for (std::size_t i = 0; i < hw; ++i) m += p[i];
            }
            m /= static_cast<double>(per_channel);
            for (int n = 0; n < batch; ++n) {
              const float* p = px + (static_cast<std::size_t>(n) * channels + c) * hw;
              for (std::size_t i = 0; i < hw; ++i) {
                const double d = p[i] - m;
                v += d * d;
              }
            }
            v /= static_cast<double>(per_channel);
            running_mean[static_cast<std::size_t>(c)] =
                (1.0f - momentum) * running_mean[static_cast<std::size_t>(c)] +
                momentum * static_cast<float>(m);
            running_var[static_cast<std::size_t>(c)] =
                (1.0f - momentum) * running_var[static_cast<std::size_t>(c)] +
                momentum * static_cast<float>(v);
          } else {
            m = running_mean[static_cast<std::size_t>(c)];
            v = running_var[static_cast<std::size_t>(c)];
          }
          mean[static_cast<std::size_t>(c)] = static_cast<float>(m);
          inv_std[static_cast<std::size_t>(c)] = static_cast<float>(1.0 / std::sqrt(v + eps));
        }
      });

  // x_hat is only materialised when a cache wants it for backward (eval
  // forwards skip the store entirely; the arithmetic for `out` is the
  // same either way, so outputs stay bitwise identical).
  float* pxh = nullptr;
  if (cache != nullptr) {
    cache->x_hat = Tensor(x.shape());
    pxh = cache->x_hat.ptr();
  }
  float* pout = out.ptr();
  const float* pg = gamma.ptr();
  const float* pb = beta.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(0, planes, row_grain(planes, static_cast<std::int64_t>(hw)),
                     [&](std::int64_t p0, std::int64_t p1) {
                       for (std::int64_t p = p0; p < p1; ++p) {
                         const auto c = static_cast<std::size_t>(p % channels);
                         const float m = mean[c];
                         const float is = inv_std[c];
                         const float g = pg[c];
                         const float b = pb[c];
                         const float* src = px + static_cast<std::size_t>(p) * hw;
                         float* dst = pout + static_cast<std::size_t>(p) * hw;
                         if (pxh != nullptr) {
                           float* xh = pxh + static_cast<std::size_t>(p) * hw;
                           for (std::size_t i = 0; i < hw; ++i) {
                             const float v = (src[i] - m) * is;
                             xh[i] = v;
                             dst[i] = g * v + b;
                           }
                         } else {
                           for (std::size_t i = 0; i < hw; ++i) {
                             const float v = (src[i] - m) * is;
                             dst[i] = g * v + b;
                           }
                         }
                       }
                     });
  return out;
}

Tensor batchnorm2d_backward(const Tensor& grad_out, const BatchNormCache& cache,
                            const Tensor& gamma, Tensor& grad_gamma, Tensor& grad_beta) {
  const Tensor& x_hat = cache.x_hat;
  require(same_shape(grad_out, x_hat), "batchnorm2d_backward: shape mismatch");
  const int batch = grad_out.dim(0), channels = grad_out.dim(1), h = grad_out.dim(2),
            w = grad_out.dim(3);
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const auto per_channel = static_cast<float>(static_cast<std::size_t>(batch) * hw);

  Tensor grad_in(grad_out.shape());
  const float* pgo = grad_out.ptr();
  const float* pxh = x_hat.ptr();
  float* pgi = grad_in.ptr();
  util::parallel_for(
      0, channels, row_grain(channels, static_cast<std::int64_t>(batch) * hw * 2),
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          double sum_dy = 0.0, sum_dy_xhat = 0.0;
          for (int n = 0; n < batch; ++n) {
            const std::size_t off = (static_cast<std::size_t>(n) * channels + c) * hw;
            const float* dy = pgo + off;
            const float* xh = pxh + off;
            for (std::size_t i = 0; i < hw; ++i) {
              sum_dy += dy[i];
              sum_dy_xhat += dy[i] * xh[i];
            }
          }
          grad_beta[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy);
          grad_gamma[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy_xhat);

          const float g = gamma[static_cast<std::size_t>(c)];
          const float is = cache.inv_std[static_cast<std::size_t>(c)];
          const float mean_dy = static_cast<float>(sum_dy) / per_channel;
          const float mean_dy_xhat = static_cast<float>(sum_dy_xhat) / per_channel;
          for (int n = 0; n < batch; ++n) {
            const std::size_t off = (static_cast<std::size_t>(n) * channels + c) * hw;
            const float* dy = pgo + off;
            const float* xh = pxh + off;
            float* gi = pgi + off;
            for (std::size_t i = 0; i < hw; ++i) {
              gi[i] = g * is * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
            }
          }
        }
      });
  return grad_in;
}

// ---------------------------------------------------------------------------
// pooling / resize
// ---------------------------------------------------------------------------

namespace {

// Shared maxpool kernel; `pargmax` may be null (inference — no backward
// state recorded). Both entry points produce bitwise-identical outputs:
// the scan order over each window is the same either way.
Tensor maxpool2d_impl(const Tensor& x, int kernel, int stride, int* pargmax) {
  require(x.ndim() == 4, "maxpool2d: input must be (N,C,H,W)");
  const int batch = x.dim(0), channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int out_h = (h - kernel) / stride + 1;
  const int out_w = (w - kernel) / stride + 1;
  require(out_h > 0 && out_w > 0, "maxpool2d: empty output");
  Tensor out({batch, channels, out_h, out_w});
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const float* px = x.ptr();
  float* pout = out.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(
      0, planes, row_grain(planes, static_cast<std::int64_t>(out_plane) * kernel * kernel),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const float* src = px + static_cast<std::size_t>(p) * in_plane;
          float* dst = pout + static_cast<std::size_t>(p) * out_plane;
          int* am = pargmax ? pargmax + static_cast<std::size_t>(p) * out_plane : nullptr;
          std::size_t idx = 0;
          for (int oy = 0; oy < out_h; ++oy)
            for (int ox = 0; ox < out_w; ++ox, ++idx) {
              float best = -std::numeric_limits<float>::infinity();
              int best_pos = 0;
              for (int ky = 0; ky < kernel; ++ky) {
                const int iy = oy * stride + ky;
                const float* srow = src + static_cast<std::size_t>(iy) * w;
                for (int kx = 0; kx < kernel; ++kx) {
                  const int ix = ox * stride + kx;
                  const float v = srow[ix];
                  if (v > best) {
                    best = v;
                    best_pos = iy * w + ix;
                  }
                }
              }
              dst[idx] = best;
              if (am) am[idx] = best_pos;
            }
        }
      });
  return out;
}

}  // namespace

Tensor maxpool2d(const Tensor& x, int kernel, int stride, std::vector<int>& argmax) {
  require(x.ndim() == 4, "maxpool2d: input must be (N,C,H,W)");
  const int out_h = (x.dim(2) - kernel) / stride + 1;
  const int out_w = (x.dim(3) - kernel) / stride + 1;
  require(out_h > 0 && out_w > 0, "maxpool2d: empty output");
  argmax.assign(static_cast<std::size_t>(x.dim(0)) * x.dim(1) * out_h * out_w, 0);
  return maxpool2d_impl(x, kernel, stride, argmax.data());
}

Tensor maxpool2d(const Tensor& x, int kernel, int stride) {
  return maxpool2d_impl(x, kernel, stride, nullptr);
}

Tensor maxpool2d_backward(const Tensor& x, const Tensor& grad_out, int kernel, int stride,
                          const std::vector<int>& argmax) {
  (void)kernel;
  (void)stride;
  require(grad_out.numel() == argmax.size(), "maxpool2d_backward: argmax size");
  const int channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor grad_in(x.shape());
  const int batch = grad_out.dim(0);
  const std::size_t out_plane = static_cast<std::size_t>(grad_out.dim(2)) * grad_out.dim(3);
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const float* pgo = grad_out.ptr();
  const int* pargmax = argmax.data();
  float* pgi = grad_in.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(0, planes, row_grain(planes, static_cast<std::int64_t>(out_plane)),
                     [&](std::int64_t p0, std::int64_t p1) {
                       for (std::int64_t p = p0; p < p1; ++p) {
                         const float* go = pgo + static_cast<std::size_t>(p) * out_plane;
                         const int* am = pargmax + static_cast<std::size_t>(p) * out_plane;
                         float* gi = pgi + static_cast<std::size_t>(p) * in_plane;
                         for (std::size_t i = 0; i < out_plane; ++i) gi[am[i]] += go[i];
                       }
                     });
  return grad_in;
}

Tensor global_avg_pool(const Tensor& x) {
  require(x.ndim() == 4, "global_avg_pool: input must be (N,C,H,W)");
  const int batch = x.dim(0), channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out({batch, channels, 1, 1});
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* px = x.ptr();
  float* pout = out.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(0, planes, row_grain(planes, static_cast<std::int64_t>(hw)),
                     [&](std::int64_t p0, std::int64_t p1) {
                       for (std::int64_t p = p0; p < p1; ++p) {
                         const float* src = px + static_cast<std::size_t>(p) * hw;
                         double acc = 0.0;
                         for (std::size_t i = 0; i < hw; ++i) acc += src[i];
                         pout[p] = static_cast<float>(acc) * inv;
                       }
                     });
  return out;
}

Tensor global_avg_pool_backward(const Tensor& x, const Tensor& grad_out) {
  const int batch = x.dim(0), channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor grad_in(x.shape());
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* pgo = grad_out.ptr();
  float* pgi = grad_in.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(0, planes, row_grain(planes, static_cast<std::int64_t>(hw)),
                     [&](std::int64_t p0, std::int64_t p1) {
                       for (std::int64_t p = p0; p < p1; ++p) {
                         const float g = pgo[p] * inv;
                         float* dst = pgi + static_cast<std::size_t>(p) * hw;
                         for (std::size_t i = 0; i < hw; ++i) dst[i] = g;
                       }
                     });
  return grad_in;
}

namespace {

/// Sample position mapping for align_corners=true bilinear resize.
inline float src_pos(int out_idx, int in_extent, int out_extent) {
  if (out_extent == 1) return 0.0f;
  return static_cast<float>(out_idx) * static_cast<float>(in_extent - 1) /
         static_cast<float>(out_extent - 1);
}

/// Per-axis sample tables, carved out of the caller's scratch frame so
/// resize calls in the steady state stay heap-free. Written before the
/// parallel fan-out, read-only inside it.
struct ResizeAxis {
  int* lo;
  int* hi;
  float* frac;
  ResizeAxis(util::Arena& arena, int in_extent, int out_extent)
      : lo(arena.alloc<int>(static_cast<std::size_t>(out_extent))),
        hi(arena.alloc<int>(static_cast<std::size_t>(out_extent))),
        frac(arena.alloc<float>(static_cast<std::size_t>(out_extent))) {
    for (int o = 0; o < out_extent; ++o) {
      const float f = src_pos(o, in_extent, out_extent);
      const int i0 = static_cast<int>(f);
      lo[static_cast<std::size_t>(o)] = i0;
      hi[static_cast<std::size_t>(o)] = std::min(i0 + 1, in_extent - 1);
      frac[static_cast<std::size_t>(o)] = f - static_cast<float>(i0);
    }
  }
};

}  // namespace

Tensor bilinear_resize(const Tensor& x, int out_h, int out_w) {
  require(x.ndim() == 4, "bilinear_resize: input must be (N,C,H,W)");
  const int batch = x.dim(0), channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out({batch, channels, out_h, out_w});
  ScratchFrame frame(scratch());
  const ResizeAxis ay(scratch(), h, out_h), ax(scratch(), w, out_w);
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const float* px = x.ptr();
  float* pout = out.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(
      0, planes, row_grain(planes, static_cast<std::int64_t>(out_plane) * 4),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const float* src = px + static_cast<std::size_t>(p) * in_plane;
          float* dst = pout + static_cast<std::size_t>(p) * out_plane;
          for (int oy = 0; oy < out_h; ++oy) {
            const float* r0 = src + static_cast<std::size_t>(ay.lo[static_cast<std::size_t>(oy)]) * w;
            const float* r1 = src + static_cast<std::size_t>(ay.hi[static_cast<std::size_t>(oy)]) * w;
            const float wy = ay.frac[static_cast<std::size_t>(oy)];
            float* drow = dst + static_cast<std::size_t>(oy) * out_w;
            for (int ox = 0; ox < out_w; ++ox) {
              const int x0 = ax.lo[static_cast<std::size_t>(ox)];
              const int x1 = ax.hi[static_cast<std::size_t>(ox)];
              const float wx = ax.frac[static_cast<std::size_t>(ox)];
              drow[ox] = (1 - wy) * ((1 - wx) * r0[x0] + wx * r0[x1]) +
                         wy * ((1 - wx) * r1[x0] + wx * r1[x1]);
            }
          }
        }
      });
  return out;
}

Tensor bilinear_resize_backward(const Tensor& x, const Tensor& grad_out) {
  const int batch = x.dim(0), channels = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int out_h = grad_out.dim(2), out_w = grad_out.dim(3);
  Tensor grad_in(x.shape());
  ScratchFrame frame(scratch());
  const ResizeAxis ay(scratch(), h, out_h), ax(scratch(), w, out_w);
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const float* pgo = grad_out.ptr();
  float* pgi = grad_in.ptr();
  const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
  util::parallel_for(
      0, planes, row_grain(planes, static_cast<std::int64_t>(out_plane) * 4),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const float* go = pgo + static_cast<std::size_t>(p) * out_plane;
          float* gi = pgi + static_cast<std::size_t>(p) * in_plane;
          for (int oy = 0; oy < out_h; ++oy) {
            float* r0 = gi + static_cast<std::size_t>(ay.lo[static_cast<std::size_t>(oy)]) * w;
            float* r1 = gi + static_cast<std::size_t>(ay.hi[static_cast<std::size_t>(oy)]) * w;
            const float wy = ay.frac[static_cast<std::size_t>(oy)];
            const float* grow = go + static_cast<std::size_t>(oy) * out_w;
            for (int ox = 0; ox < out_w; ++ox) {
              const int x0 = ax.lo[static_cast<std::size_t>(ox)];
              const int x1 = ax.hi[static_cast<std::size_t>(ox)];
              const float wx = ax.frac[static_cast<std::size_t>(ox)];
              const float g = grow[ox];
              r0[x0] += (1 - wy) * (1 - wx) * g;
              r0[x1] += (1 - wy) * wx * g;
              r1[x0] += wy * (1 - wx) * g;
              r1[x1] += wy * wx * g;
            }
          }
        }
      });
  return grad_in;
}

// ---------------------------------------------------------------------------
// structure
// ---------------------------------------------------------------------------

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  require(a.ndim() == 4 && b.ndim() == 4, "concat_channels: 4D inputs required");
  require(a.dim(0) == b.dim(0) && a.dim(2) == b.dim(2) && a.dim(3) == b.dim(3),
          "concat_channels: N/H/W must match");
  const int batch = a.dim(0), ca = a.dim(1), cb = b.dim(1), h = a.dim(2), w = a.dim(3);
  Tensor out({batch, ca + cb, h, w});
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for (int n = 0; n < batch; ++n) {
    std::copy(a.ptr() + static_cast<std::size_t>(n) * ca * plane,
              a.ptr() + static_cast<std::size_t>(n + 1) * ca * plane,
              out.ptr() + static_cast<std::size_t>(n) * (ca + cb) * plane);
    std::copy(b.ptr() + static_cast<std::size_t>(n) * cb * plane,
              b.ptr() + static_cast<std::size_t>(n + 1) * cb * plane,
              out.ptr() + static_cast<std::size_t>(n) * (ca + cb) * plane + ca * plane);
  }
  return out;
}

void split_channels(const Tensor& grad_out, int channels_a, Tensor& grad_a, Tensor& grad_b) {
  const int batch = grad_out.dim(0), total = grad_out.dim(1), h = grad_out.dim(2),
            w = grad_out.dim(3);
  const int channels_b = total - channels_a;
  grad_a = Tensor({batch, channels_a, h, w});
  grad_b = Tensor({batch, channels_b, h, w});
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for (int n = 0; n < batch; ++n) {
    std::copy(grad_out.ptr() + static_cast<std::size_t>(n) * total * plane,
              grad_out.ptr() + static_cast<std::size_t>(n) * total * plane + channels_a * plane,
              grad_a.ptr() + static_cast<std::size_t>(n) * channels_a * plane);
    std::copy(grad_out.ptr() + static_cast<std::size_t>(n) * total * plane + channels_a * plane,
              grad_out.ptr() + static_cast<std::size_t>(n + 1) * total * plane,
              grad_b.ptr() + static_cast<std::size_t>(n) * channels_b * plane);
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  require(same_shape(a, b), "add: shape mismatch");
  Tensor out = a;
  const float* pb = b.ptr();
  float* po = out.ptr();
  util::parallel_for(0, static_cast<std::int64_t>(out.numel()), kElemGrain,
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::add_inplace(po + i0, pb + i0, i1 - i0);
                     });
  return out;
}

// ---------------------------------------------------------------------------
// loss
// ---------------------------------------------------------------------------

float softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                            int ignore_label, Tensor& grad) {
  require(logits.ndim() == 4, "softmax_cross_entropy: logits must be (N,K,H,W)");
  const int batch = logits.dim(0), classes = logits.dim(1), h = logits.dim(2), w = logits.dim(3);
  require(labels.size() == static_cast<std::size_t>(batch) * h * w,
          "softmax_cross_entropy: label count mismatch");
  grad = Tensor(logits.shape());

  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const float* pl = logits.ptr();
  float* pg = grad.ptr();
  // Per-sample partials combined in sample order below: deterministic for
  // any thread count because the chunking is per sample.
  ScratchFrame frame(scratch());
  double* sample_loss = scratch().alloc<double>(static_cast<std::size_t>(batch));
  std::size_t* sample_counted = scratch().alloc<std::size_t>(static_cast<std::size_t>(batch));
  util::parallel_for(
      0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
        // Per-worker probs frame (same mechanism as the conv dcols
        // buffer): no heap allocation inside the loss loop.
        ScratchFrame chunk_frame(scratch());
        float* probs = scratch().alloc<float>(static_cast<std::size_t>(classes));
        for (std::int64_t n = n0; n < n1; ++n) {
          const float* ln = pl + static_cast<std::size_t>(n) * classes * hw;
          float* gn = pg + static_cast<std::size_t>(n) * classes * hw;
          double loss = 0.0;
          std::size_t counted = 0;
          for (std::size_t i = 0; i < hw; ++i) {
            const int label = labels[static_cast<std::size_t>(n) * hw + i];
            if (label == ignore_label) continue;
            require(label >= 0 && label < classes, "softmax_cross_entropy: label out of range");
            float max_logit = -std::numeric_limits<float>::infinity();
            for (int k = 0; k < classes; ++k) {
              max_logit = std::max(max_logit, ln[static_cast<std::size_t>(k) * hw + i]);
            }
            double denom = 0.0;
            for (int k = 0; k < classes; ++k) {
              probs[static_cast<std::size_t>(k)] =
                  std::exp(ln[static_cast<std::size_t>(k) * hw + i] - max_logit);
              denom += probs[static_cast<std::size_t>(k)];
            }
            const double inv = 1.0 / denom;
            loss -= std::log(probs[static_cast<std::size_t>(label)] * inv);
            for (int k = 0; k < classes; ++k) {
              gn[static_cast<std::size_t>(k) * hw + i] =
                  static_cast<float>(probs[static_cast<std::size_t>(k)] * inv) -
                  (k == label ? 1.0f : 0.0f);
            }
            ++counted;
          }
          sample_loss[static_cast<std::size_t>(n)] = loss;
          sample_counted[static_cast<std::size_t>(n)] = counted;
        }
      });

  double loss = 0.0;
  std::size_t counted = 0;
  for (int n = 0; n < batch; ++n) {
    loss += sample_loss[static_cast<std::size_t>(n)];
    counted += sample_counted[static_cast<std::size_t>(n)];
  }
  if (counted == 0) return 0.0f;
  const float scale = 1.0f / static_cast<float>(counted);
  util::parallel_for(0, static_cast<std::int64_t>(grad.numel()), kElemGrain,
                     [&](std::int64_t i0, std::int64_t i1) {
                       micro::scale_inplace(pg + i0, scale, i1 - i0);
                     });
  return static_cast<float>(loss) * scale;
}

void argmax_channels(const Tensor& logits, std::vector<int>& out) {
  const int batch = logits.dim(0), classes = logits.dim(1), h = logits.dim(2), w = logits.dim(3);
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  // Resizes (not reallocates) when the caller reuses the buffer across
  // eval batches — the trainer's confusion-matrix loop passes the same
  // vector every batch.
  out.resize(static_cast<std::size_t>(batch) * hw);
  const float* pl = logits.ptr();
  int* po = out.data();
  util::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      const float* ln = pl + static_cast<std::size_t>(n) * classes * hw;
      int* dst = po + static_cast<std::size_t>(n) * hw;
      for (std::size_t i = 0; i < hw; ++i) {
        int best = 0;
        float best_value = ln[i];
        for (int k = 1; k < classes; ++k) {
          const float v = ln[static_cast<std::size_t>(k) * hw + i];
          if (v > best_value) {
            best_value = v;
            best = k;
          }
        }
        dst[i] = best;
      }
    }
  });
}

std::vector<int> argmax_channels(const Tensor& logits) {
  std::vector<int> out;
  argmax_channels(logits, out);
  return out;
}

}  // namespace dlscale::tensor
