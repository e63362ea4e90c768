// im2col/col2im against naive per-element references, bit for bit. The
// kernels walk a zero-padded copy of each plane; the references clip
// every tap individually, the way the lowering is defined. The shapes
// are the ones where padding and striding interact: stride 2 on odd
// extents, dilation-4 taps that fall wholly into padding on a 4x4 plane
// (the model's aspp.r4 branch), 1x1 kernels, pad > 0 on 1-pixel planes
// and a non-square kernel; then all twelve model convolutions, and every
// row width the lowering compiles a fixed-width body for (4, 8, 16, 32 at
// stride 1 and 2) next to generic widths 5 and 33.
//
// Also here: conv backward entry points must reject a grad_out whose
// shape disagrees with the forward (it sizes the column buffers), and
// every convolution entry point must reject a dilated kernel that does
// not fit in the padded input (the padded walk has no tap to clip).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dlscale/tensor/ops.hpp"
#include "dlscale/tensor/quantize.hpp"
#include "dlscale/util/rng.hpp"

namespace dt = dlscale::tensor;
namespace du = dlscale::util;

namespace {

struct LoweringCase {
  const char* name;
  std::vector<int> input;  ///< N, C, H, W
  int kh, kw;
  dt::Conv2dSpec spec;
};

const LoweringCase kCases[] = {
    {"3x3 s2 p1 odd extents", {2, 3, 7, 9}, 3, 3, {2, 1, 1}},
    {"3x3 s2 p0 odd extents", {1, 2, 9, 7}, 3, 3, {2, 0, 1}},
    {"3x3 d4 p4 on 4x4 (aspp.r4)", {2, 4, 4, 4}, 3, 3, {1, 4, 4}},
    {"3x3 d2 p2 on 4x4", {1, 3, 4, 4}, 3, 3, {1, 2, 2}},
    {"1x1 p0", {2, 5, 6, 6}, 1, 1, {1, 0, 1}},
    {"1x1 s2 p0", {1, 3, 5, 5}, 1, 1, {2, 0, 1}},
    {"3x3 p1 on 1x1", {2, 3, 1, 1}, 3, 3, {1, 1, 1}},
    {"1x1 p1 on 1x1", {1, 2, 1, 1}, 1, 1, {1, 1, 1}},
    {"1x3 s1 p1", {1, 2, 5, 6}, 1, 3, {1, 1, 1}},
    {"3x3 s3 p2 d2", {1, 2, 11, 8}, 3, 3, {3, 2, 2}},
    // The twelve convolutions of the mini DeepLab-v3+ at width 16 on
    // 32x32 inputs, batch 2.
    {"model stem", {2, 3, 32, 32}, 3, 3, {2, 1, 1}},
    {"model block1", {2, 16, 16, 16}, 3, 3, {2, 1, 1}},
    {"model block2", {2, 32, 8, 8}, 3, 3, {2, 1, 1}},
    {"model block3", {2, 64, 4, 4}, 3, 3, {1, 2, 2}},
    {"model aspp.1x1", {2, 64, 4, 4}, 1, 1, {1, 0, 1}},
    {"model aspp.r2", {2, 64, 4, 4}, 3, 3, {1, 2, 2}},
    {"model aspp.r4", {2, 64, 4, 4}, 3, 3, {1, 4, 4}},
    {"model aspp.pool", {2, 64, 1, 1}, 1, 1, {1, 0, 1}},
    {"model aspp.project", {2, 128, 4, 4}, 1, 1, {1, 0, 1}},
    {"model decoder.low_level", {2, 32, 8, 8}, 1, 1, {1, 0, 1}},
    {"model decoder.conv", {2, 80, 8, 8}, 3, 3, {1, 1, 1}},
    {"model classifier", {2, 32, 8, 8}, 1, 1, {1, 0, 1}},
    // Every fixed-width row body (out_w 8, 16, 32 at stride 1 and 2, with
    // and without padding, out_h != out_w) and generic widths beside them.
    {"out_w 8 s1 p1", {1, 2, 5, 8}, 3, 3, {1, 1, 1}},
    {"out_w 16 s1 p1", {1, 2, 16, 16}, 3, 3, {1, 1, 1}},
    {"out_w 32 s1 p1", {1, 2, 32, 32}, 3, 3, {1, 1, 1}},
    {"out_w 32 s1 p0", {1, 2, 10, 34}, 3, 3, {1, 0, 1}},
    {"out_w 8 s2 p1", {1, 2, 16, 16}, 3, 3, {2, 1, 1}},
    {"out_w 16 s2 p1", {1, 2, 9, 32}, 3, 3, {2, 1, 1}},
    {"out_w 32 s2 p1", {1, 2, 64, 64}, 3, 3, {2, 1, 1}},
    {"out_w 32 s2 p0 1x1", {1, 2, 8, 64}, 1, 1, {2, 0, 1}},
    {"out_w 16 s2 p2 d2", {2, 2, 12, 32}, 3, 3, {2, 2, 2}},
    {"generic out_w 5 s1", {1, 2, 5, 5}, 3, 3, {1, 1, 1}},
    {"generic out_w 5 s2", {1, 2, 9, 9}, 3, 3, {2, 1, 1}},
    {"generic out_w 33 s1", {1, 2, 9, 33}, 3, 3, {1, 1, 1}},
    {"generic out_w 33 s2", {1, 2, 9, 65}, 3, 3, {2, 1, 1}},
};

std::string describe(const LoweringCase& c) { return c.name; }

/// Value of tap (ky, kx) at output (oy, ox), or 0 in padding.
float tap_value(const dt::Tensor& x, int n, int c, int oy, int ox, int ky, int kx,
                const dt::Conv2dSpec& spec) {
  const int iy = oy * spec.stride - spec.pad + ky * spec.dilation;
  const int ix = ox * spec.stride - spec.pad + kx * spec.dilation;
  if (iy < 0 || iy >= x.dim(2) || ix < 0 || ix >= x.dim(3)) return 0.0f;
  return x.at(n, c, iy, ix);
}

/// (C*kh*kw) x (out_h*out_w) column matrix of sample n, element by element.
std::vector<float> reference_im2col(const dt::Tensor& x, int n, int kh, int kw,
                                    const dt::Conv2dSpec& spec) {
  const int out_h = spec.out_extent(x.dim(2), kh), out_w = spec.out_extent(x.dim(3), kw);
  std::vector<float> cols;
  for (int c = 0; c < x.dim(1); ++c)
    for (int ky = 0; ky < kh; ++ky)
      for (int kx = 0; kx < kw; ++kx)
        for (int oy = 0; oy < out_h; ++oy)
          for (int ox = 0; ox < out_w; ++ox)
            cols.push_back(tap_value(x, n, c, oy, ox, ky, kx, spec));
  return cols;
}

/// Adds `cols` into sample n of `grad`, in (c, ky, kx, oy, ox) order,
/// skipping taps that land in padding.
void reference_col2im(const std::vector<float>& cols, dt::Tensor& grad, int n, int kh, int kw,
                      const dt::Conv2dSpec& spec) {
  const int h = grad.dim(2), w = grad.dim(3);
  const int out_h = spec.out_extent(h, kh), out_w = spec.out_extent(w, kw);
  std::size_t i = 0;
  for (int c = 0; c < grad.dim(1); ++c)
    for (int ky = 0; ky < kh; ++ky)
      for (int kx = 0; kx < kw; ++kx)
        for (int oy = 0; oy < out_h; ++oy)
          for (int ox = 0; ox < out_w; ++ox, ++i) {
            const int iy = oy * spec.stride - spec.pad + ky * spec.dilation;
            const int ix = ox * spec.stride - spec.pad + kx * spec.dilation;
            if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
            grad.at(n, c, iy, ix) += cols[i];
          }
}

void expect_bitwise_equal(const float* a, const float* b, std::size_t n, const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " at index " << i << " (" << a[i] << " vs " << b[i] << ")";
  }
}

}  // namespace

TEST(Im2colReference, MatchesPerElementReferenceBitwise) {
  du::Rng rng(91);
  for (const LoweringCase& c : kCases) {
    const dt::Tensor x = dt::Tensor::randn(c.input, rng);
    for (int n = 0; n < x.dim(0); ++n) {
      const std::vector<float> want = reference_im2col(x, n, c.kh, c.kw, c.spec);
      const dt::Tensor got = dt::im2col(x, n, c.kh, c.kw, c.spec);
      ASSERT_EQ(got.numel(), want.size()) << describe(c);
      expect_bitwise_equal(got.ptr(), want.data(), want.size(),
                           describe(c) + " sample " + std::to_string(n));
    }
  }
}

TEST(Im2colReference, StridedRowsLeaveGapsUntouched) {
  // The batched forward interleaves samples: row r of sample m lands at
  // cols + r * row_stride + m * patch. Every byte outside the sample's
  // span must keep its previous contents.
  du::Rng rng(92);
  for (const LoweringCase& c : kCases) {
    const dt::Tensor x = dt::Tensor::randn(c.input, rng);
    const int out_h = c.spec.out_extent(x.dim(2), c.kh);
    const int out_w = c.spec.out_extent(x.dim(3), c.kw);
    const std::size_t patch = static_cast<std::size_t>(out_h) * out_w;
    const std::size_t rows = static_cast<std::size_t>(x.dim(1)) * c.kh * c.kw;
    const std::size_t row_stride = 3 * patch;
    const float sentinel = -7.25f;
    std::vector<float> buf(rows * row_stride, sentinel);
    const int n = x.dim(0) - 1;
    dt::im2col(x, n, c.kh, c.kw, c.spec, buf.data() + patch, row_stride);
    const std::vector<float> want = reference_im2col(x, n, c.kh, c.kw, c.spec);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < row_stride; ++j) {
        const float got = buf[r * row_stride + j];
        const float expected =
            (j >= patch && j < 2 * patch) ? want[r * patch + (j - patch)] : sentinel;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(expected))
            << describe(c) << " row " << r << " column " << j;
      }
    }
  }
}

TEST(Col2imReference, MatchesOrderedReferenceBitwise) {
  // grad_input starts non-zero: col2im accumulates into what is there,
  // and each element must see the same ordered sum as the reference.
  du::Rng rng(93);
  for (const LoweringCase& c : kCases) {
    const dt::Tensor x = dt::Tensor::randn(c.input, rng);
    const int out_h = c.spec.out_extent(x.dim(2), c.kh);
    const int out_w = c.spec.out_extent(x.dim(3), c.kw);
    const dt::Tensor cols =
        dt::Tensor::randn({x.dim(1) * c.kh * c.kw, out_h * out_w}, rng);
    const dt::Tensor start = dt::Tensor::randn(x.shape(), rng);
    for (int n = 0; n < x.dim(0); ++n) {
      dt::Tensor got = start;
      dt::col2im(cols, got, n, c.kh, c.kw, c.spec);
      dt::Tensor want = start;
      reference_col2im(std::vector<float>(cols.data().begin(), cols.data().end()), want, n,
                       c.kh, c.kw, c.spec);
      expect_bitwise_equal(got.ptr(), want.ptr(), want.numel(),
                           describe(c) + " sample " + std::to_string(n));
    }
  }
}

TEST(ConvBackwardShape, RejectsGradOutOfTheWrongExtent) {
  // A 4x4 grad_out for a 64x64 same-padded conv used to let im2col write
  // the full 64x64 patch into a buffer sized for 4x4.
  du::Rng rng(94);
  const dt::Tensor x = dt::Tensor::randn({1, 16, 64, 64}, rng);
  const dt::Tensor w = dt::Tensor::randn({3, 16, 3, 3}, rng);
  const dt::Conv2dSpec spec{1, 1, 1};
  dt::Tensor grad_w(w.shape());
  const auto backward = [&](const std::vector<int>& shape) {
    return dt::conv2d_backward(x, w, dt::Tensor::full(shape, 1.0f), spec, grad_w, nullptr);
  };
  EXPECT_THROW(backward({1, 3, 4, 4}), std::invalid_argument);
  EXPECT_THROW(backward({1, 3, 64, 65}), std::invalid_argument);
  EXPECT_THROW(backward({1, 4, 64, 64}), std::invalid_argument);
  EXPECT_THROW(backward({2, 3, 64, 64}), std::invalid_argument);
  EXPECT_THROW(backward({3, 64, 64}), std::invalid_argument);
  EXPECT_NO_THROW(backward({1, 3, 64, 64}));
}

TEST(ConvBackwardShape, DepthwiseRejectsGradOutOfTheWrongExtent) {
  du::Rng rng(95);
  const dt::Tensor x = dt::Tensor::randn({1, 4, 16, 16}, rng);
  const dt::Tensor w = dt::Tensor::randn({4, 1, 3, 3}, rng);
  const dt::Conv2dSpec spec{2, 1, 1};  // 16x16 -> 8x8
  dt::Tensor grad_w(w.shape());
  const auto backward = [&](const std::vector<int>& shape) {
    return dt::depthwise_conv2d_backward(x, w, dt::Tensor::full(shape, 1.0f), spec, grad_w);
  };
  EXPECT_THROW(backward({1, 4, 16, 16}), std::invalid_argument);
  EXPECT_THROW(backward({1, 4, 8, 9}), std::invalid_argument);
  EXPECT_THROW(backward({1, 3, 8, 8}), std::invalid_argument);
  EXPECT_THROW(backward({2, 4, 8, 8}), std::invalid_argument);
  EXPECT_NO_THROW(backward({1, 4, 8, 8}));
}

TEST(ConvGeometry, KernelWiderThanPaddedInputIsRejected) {
  // in + 2*pad is one short of the dilated kernel: truncating division
  // used to turn the negative numerator into a 1-pixel output whose taps
  // lie past the (padded) plane.
  struct Degenerate {
    const char* name;
    std::vector<int> input;
    int k;
    dt::Conv2dSpec spec;
  };
  const Degenerate cases[] = {
      {"3x3 s2 p0 on 2x2", {1, 1, 2, 2}, 3, {2, 0, 1}},
      {"5x5 s2 p1 on 2x2", {1, 2, 2, 2}, 5, {2, 1, 1}},
      {"3x3 s2 p1 d2 on 2x3 (height only)", {1, 2, 2, 3}, 3, {2, 1, 2}},
  };
  du::Rng rng(96);
  for (const Degenerate& c : cases) {
    SCOPED_TRACE(c.name);
    const int channels = c.input[1], out_c = 2;
    EXPECT_EQ(c.spec.out_extent(c.input[2], c.k), 0);
    const dt::Tensor x = dt::Tensor::randn(c.input, rng);
    const dt::Tensor w = dt::Tensor::randn({out_c, channels, c.k, c.k}, rng);
    const dt::Tensor dw = dt::Tensor::randn({channels, 1, c.k, c.k}, rng);
    dt::Tensor grad_w(w.shape());
    dt::Tensor grad_dw(dw.shape());
    dt::Tensor grad_x(x.shape());
    const dt::Tensor cols = dt::Tensor::randn({channels * c.k * c.k, 1}, rng);
    EXPECT_THROW(dt::im2col(x, 0, c.k, c.k, c.spec), std::invalid_argument);
    EXPECT_THROW(dt::col2im(cols, grad_x, 0, c.k, c.k, c.spec), std::invalid_argument);
    EXPECT_THROW(dt::conv2d(x, w, nullptr, c.spec), std::invalid_argument);
    EXPECT_THROW(dt::conv2d_backward(x, w, dt::Tensor::full({1, out_c, 1, 1}, 1.0f), c.spec,
                                     grad_w, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(dt::depthwise_conv2d(x, dw, c.spec), std::invalid_argument);
    EXPECT_THROW(dt::depthwise_conv2d_backward(x, dw, dt::Tensor::full({1, channels, 1, 1}, 1.0f),
                                               c.spec, grad_dw),
                 std::invalid_argument);
    const auto qw = dt::quant::QuantizedMatrix::from_rows(w.ptr(), out_c, channels * c.k * c.k);
    EXPECT_THROW(dt::quant::quantized_conv2d(x, qw, nullptr, c.spec, c.k, c.k,
                                             dt::quant::choose_qparams_u8({-4.0f, 4.0f})),
                 std::invalid_argument);
  }
}
