// SIMD/scalar bitwise-identity contract for the micro-kernel layer
// (DESIGN.md §6, "SIMD dispatch"): every entry point must produce the
// exact same bits under every dispatch level the host can execute. The
// GEMM sweeps deliberately hit the awkward shapes — column counts that
// are not a multiple of the vector width, k = 0 and k = 1, single-row A —
// where panel/tail handling is easiest to get wrong.
#include "dlscale/tensor/microkernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dlscale/tensor/ops.hpp"
#include "dlscale/tensor/tensor.hpp"
#include "dlscale/util/env.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/simd.hpp"
#include "dlscale/util/thread_pool.hpp"
#include "../support/simd_param.hpp"

namespace dt = dlscale::tensor;
namespace du = dlscale::util;
namespace micro = dlscale::tensor::micro;
using dlscale::testing::ScopedSimdLevel;
using dlscale::testing::simd_levels_under_test;
using dlscale::testing::simd_param_name;

namespace {

/// Random values with a sprinkling of exact zeros so the GEMM zero-skip
/// branch takes both sides.
std::vector<float> random_with_zeros(std::size_t n, std::uint64_t seed) {
  du::Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) {
    v = rng.uniform_index(4) == 0 ? 0.0f
                                  : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return out;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " at index " << i << " (" << a[i] << " vs " << b[i] << ")";
  }
}

struct GemmShape {
  int rows, k, n;
};

// Odd shapes by design: n not a multiple of the 8-lane width (1, 3, 7, 9,
// 13), k at the degenerate ends (0, 1) and past the kc=128 block edge
// (129, 200), single-row A, and one comfortably blocked case. The second
// half reaches the wide panels: n on and just past the 16- and 32-column
// strips (16, 32, 48, 64, 80, 256, plus 40 = 32 + one 8-lane panel),
// rows at and around the 4-row register block (4, 5, 8, 33), and k at
// the im2col depths the model produces (27, 720) and around the kc edge
// (128, 129).
const GemmShape kGemmShapes[] = {
    {1, 1, 1},    {1, 0, 5},     {3, 1, 7},    {2, 5, 3},     {1, 129, 13},
    {5, 37, 9},   {4, 128, 8},   {7, 200, 31}, {12, 64, 40},  {9, 130, 17},
    {4, 27, 16},  {5, 128, 32},  {8, 129, 48}, {33, 27, 64},  {4, 720, 80},
    {5, 129, 256}, {33, 720, 32}, {8, 128, 80}, {1, 27, 48},  {33, 128, 256},
};

/// Runs `body` under every level and returns one output vector per level.
template <typename Body>
std::vector<std::vector<float>> run_under_all_levels(Body&& body) {
  std::vector<std::vector<float>> outputs;
  for (du::SimdLevel level : simd_levels_under_test()) {
    ScopedSimdLevel scoped(level);
    outputs.push_back(body());
  }
  return outputs;
}

template <typename Body>
void expect_identical_under_all_levels(Body&& body, const std::string& what) {
  const auto outputs = run_under_all_levels(body);
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    expect_bitwise_equal(outputs[0], outputs[i], what);
  }
}

}  // namespace

// ---- raw GEMM parity ------------------------------------------------------

TEST(MicrokernelGemm, GemmNnBitwiseParityAcrossLevels) {
  for (const GemmShape& s : kGemmShapes) {
    const auto a = random_with_zeros(static_cast<std::size_t>(s.rows) * s.k, 11);
    const auto b = random_with_zeros(static_cast<std::size_t>(s.k) * s.n, 12);
    const auto c0 = random_with_zeros(static_cast<std::size_t>(s.rows) * s.n, 13);
    expect_identical_under_all_levels(
        [&] {
          std::vector<float> c = c0;  // accumulates into existing contents
          micro::gemm_nn(a.data(), b.data(), c.data(), s.rows, s.k, s.n);
          return c;
        },
        "gemm_nn " + std::to_string(s.rows) + "x" + std::to_string(s.k) + "x" +
            std::to_string(s.n));
  }
}

TEST(MicrokernelGemm, GemmTnBitwiseParityAcrossLevels) {
  for (const GemmShape& s : kGemmShapes) {
    const int m = s.rows;  // A is (k x m); compute rows [i0, i1) of A^T B
    const auto a = random_with_zeros(static_cast<std::size_t>(s.k) * m, 21);
    const auto b = random_with_zeros(static_cast<std::size_t>(s.k) * s.n, 22);
    // Cover full range and a strict sub-range of rows.
    const int splits[][2] = {{0, m}, {m / 3, m - m / 4}};
    for (const auto& split : splits) {
      const int i0 = split[0], i1 = split[1];
      if (i0 >= i1) continue;
      expect_identical_under_all_levels(
          [&] {
            std::vector<float> c(static_cast<std::size_t>(i1 - i0) * s.n, 0.0f);
            micro::gemm_tn(a.data(), b.data(), c.data(), i0, i1, m, s.k, s.n);
            return c;
          },
          "gemm_tn rows [" + std::to_string(i0) + "," + std::to_string(i1) +
              ") of " + std::to_string(m) + "x" + std::to_string(s.k) + "x" +
              std::to_string(s.n));
    }
  }
}

TEST(MicrokernelGemm, GemmNtAccBitwiseParityAcrossLevels) {
  for (const GemmShape& s : kGemmShapes) {
    const auto a = random_with_zeros(static_cast<std::size_t>(s.rows) * s.k, 31);
    const auto b = random_with_zeros(static_cast<std::size_t>(s.n) * s.k, 32);
    const auto c0 = random_with_zeros(static_cast<std::size_t>(s.rows) * s.n, 33);
    expect_identical_under_all_levels(
        [&] {
          std::vector<float> c = c0;
          micro::gemm_nt_acc(a.data(), b.data(), c.data(), s.rows, s.k, s.n);
          return c;
        },
        "gemm_nt_acc " + std::to_string(s.rows) + "x" + std::to_string(s.k) +
            "x" + std::to_string(s.n));
  }
}

TEST(MicrokernelGemm, SharedPackGemmNtAccMatchesScalarTwinBitwise) {
  // The weight-gradient pattern of conv2d_backward: B is packed once, then
  // 16-row chunks of A run over the shared panels through the pool. Rows
  // span 1, 2 and 5 chunks (the last one ragged); every level at pool
  // sizes 1 and 4 must reproduce the scalar twin bit for bit. The shapes
  // mix full 16- and 8-lane panels with a scalar column tail.
  constexpr int kChunk = 16;
  struct Restore {
    int threads = du::global_thread_count();
    ~Restore() { du::set_global_thread_count(threads); }
  } restore;
  const GemmShape shapes[] = {{0, 64, 720}, {0, 256, 27}, {0, 16, 40}, {0, 9, 13}, {0, 1, 8}};
  for (const int rows : {16, 32, 70}) {
    for (const GemmShape& shape : shapes) {
      const int k = shape.k, n = shape.n;
      const auto a = random_with_zeros(static_cast<std::size_t>(rows) * k, 34);
      const auto b = random_with_zeros(static_cast<std::size_t>(n) * k, 35);
      const auto c0 = random_with_zeros(static_cast<std::size_t>(rows) * n, 36);
      std::vector<float> want = c0;
      {
        ScopedSimdLevel scalar(du::SimdLevel::kScalar);
        micro::gemm_nt_acc(a.data(), b.data(), want.data(), rows, k, n);
      }
      for (const int threads : {1, 4}) {
        du::set_global_thread_count(threads);
        for (du::SimdLevel level : simd_levels_under_test()) {
          ScopedSimdLevel scoped(level);
          std::vector<float> packed(micro::gemm_nt_packed_size(k, n));
          micro::gemm_nt_pack_b(b.data(), k, n, packed.data());
          std::vector<float> c = c0;
          du::parallel_for(0, rows, kChunk, [&](std::int64_t i0, std::int64_t i1) {
            micro::gemm_nt_acc_packed(a.data() + i0 * k, b.data(), packed.data(),
                                      c.data() + i0 * n, static_cast<int>(i1 - i0), k, n);
          });
          expect_bitwise_equal(want, c,
                               "shared-pack gemm_nt_acc " + std::to_string(rows) + "x" +
                                   std::to_string(k) + "x" + std::to_string(n) + " at " +
                                   du::simd_level_name(level) + ", " + std::to_string(threads) +
                                   " threads");
        }
      }
    }
  }
}

// ---- elementwise parity ---------------------------------------------------

TEST(MicrokernelElementwise, AddScaleSweepsBitwiseParityAcrossLevels) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{1000}}) {
    const auto x = random_with_zeros(n, 41);
    const auto y = random_with_zeros(n, 42);
    expect_identical_under_all_levels(
        [&] {
          std::vector<float> a = x;
          micro::add_inplace(a.data(), y.data(),
                             static_cast<std::int64_t>(n));
          return a;
        },
        "add_inplace n=" + std::to_string(n));
    expect_identical_under_all_levels(
        [&] {
          std::vector<float> a = x;
          micro::add_scalar_inplace(a.data(), 0.3125f,
                                    static_cast<std::int64_t>(n));
          return a;
        },
        "add_scalar_inplace n=" + std::to_string(n));
    expect_identical_under_all_levels(
        [&] {
          std::vector<float> a = x;
          micro::scale_inplace(a.data(), 1.0f / 3.0f,
                               static_cast<std::int64_t>(n));
          return a;
        },
        "scale_inplace n=" + std::to_string(n));
  }
}

TEST(MicrokernelElementwise, ReluHandlesNanNegativeZeroAndInfIdentically) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // std::max(0.0f, x) maps NaN and -0.0f to +0.0f; the vector path must
  // reproduce that, not IEEE maxps-with-swapped-operands behavior.
  std::vector<float> x = {nan, -nan, -0.0f, 0.0f, inf,  -inf, -1.0f, 2.0f,
                          nan, 3.5f, -7.0f, 0.0f, -0.0f, inf,  -2.5f, 4.0f, 1.0f};
  expect_identical_under_all_levels(
      [&] {
        std::vector<float> a = x;
        micro::relu_inplace(a.data(), static_cast<std::int64_t>(a.size()));
        return a;
      },
      "relu_inplace special values");
  // Spot-check absolute semantics, not just cross-level agreement.
  {
    ScopedSimdLevel scoped(simd_levels_under_test().back());
    std::vector<float> a = x;
    micro::relu_inplace(a.data(), static_cast<std::int64_t>(a.size()));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[0]), 0u);  // NaN -> +0.0f
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[2]), 0u);  // -0.0f -> +0.0f
    EXPECT_EQ(a[4], inf);
    EXPECT_EQ(a[5], 0.0f);
  }

  const auto g0 = random_with_zeros(x.size(), 51);
  expect_identical_under_all_levels(
      [&] {
        std::vector<float> g = g0;
        micro::relu_zero_where_nonpositive(x.data(), g.data(),
                                           static_cast<std::int64_t>(x.size()));
        return g;
      },
      "relu_zero_where_nonpositive special values");
  {
    // NaN x is not <= 0, so the gradient must survive.
    ScopedSimdLevel scoped(simd_levels_under_test().back());
    std::vector<float> g = g0;
    micro::relu_zero_where_nonpositive(x.data(), g.data(),
                                       static_cast<std::int64_t>(x.size()));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g[0]),
              std::bit_cast<std::uint32_t>(g0[0]));
    EXPECT_EQ(g[5], 0.0f);   // -inf masks
    EXPECT_EQ(g[11], 0.0f);  // 0.0f masks (x <= 0)
  }
}

TEST(MicrokernelElementwise, SgdMomentumUpdateBitwiseParityAcrossLevels) {
  for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{1027}}) {
    const auto value0 = random_with_zeros(n, 61);
    const auto vel0 = random_with_zeros(n, 62);
    const auto grad = random_with_zeros(n, 63);
    expect_identical_under_all_levels(
        [&] {
          std::vector<float> value = value0, vel = vel0;
          micro::sgd_momentum_update(value.data(), vel.data(), grad.data(),
                                     0.75f, 1e-4f, 0.9f, 0.05f,
                                     static_cast<std::int64_t>(n));
          std::vector<float> both = value;
          both.insert(both.end(), vel.begin(), vel.end());
          return both;
        },
        "sgd_momentum_update n=" + std::to_string(n));
  }
}

// ---- ops-level parity (the micro-kernels as driven by real operators) -----

TEST(MicrokernelOps, MatmulFamilyBitwiseParityAcrossLevels) {
  du::Rng rng(71);
  const dt::Tensor a = dt::Tensor::randn({5, 37}, rng);
  const dt::Tensor b = dt::Tensor::randn({37, 9}, rng);
  const dt::Tensor at = dt::Tensor::randn({37, 5}, rng);
  const dt::Tensor bt = dt::Tensor::randn({9, 37}, rng);
  expect_identical_under_all_levels(
      [&] {
        const dt::Tensor c = dt::matmul(a, b);
        return std::vector<float>(c.data().begin(), c.data().end());
      },
      "matmul");
  expect_identical_under_all_levels(
      [&] {
        const dt::Tensor c = dt::matmul_tn(at, b);
        return std::vector<float>(c.data().begin(), c.data().end());
      },
      "matmul_tn");
  expect_identical_under_all_levels(
      [&] {
        const dt::Tensor c = dt::matmul_nt(a, bt);
        return std::vector<float>(c.data().begin(), c.data().end());
      },
      "matmul_nt");
}

TEST(MicrokernelOps, Conv2dForwardBackwardBitwiseParityAcrossLevels) {
  du::Rng rng(81);
  const dt::Tensor input = dt::Tensor::randn({2, 3, 9, 9}, rng);
  const dt::Tensor weight = dt::Tensor::randn({5, 3, 3, 3}, rng);
  const dt::Tensor bias = dt::Tensor::randn({5}, rng);
  const dt::Conv2dSpec spec{.stride = 1, .pad = 1, .dilation = 1};
  const dt::Tensor out_ref = dt::conv2d(input, weight, &bias, spec);
  const dt::Tensor grad_out = dt::Tensor::randn(out_ref.shape(), rng);

  expect_identical_under_all_levels(
      [&] {
        const dt::Tensor out = dt::conv2d(input, weight, &bias, spec);
        return std::vector<float>(out.data().begin(), out.data().end());
      },
      "conv2d forward");
  expect_identical_under_all_levels(
      [&] {
        dt::Tensor grad_weight = dt::Tensor::zeros(weight.shape());
        dt::Tensor grad_bias = dt::Tensor::zeros({5});
        const dt::Tensor grad_input =
            dt::conv2d_backward(input, weight, grad_out, spec, grad_weight,
                                &grad_bias);
        std::vector<float> all(grad_input.data().begin(),
                               grad_input.data().end());
        all.insert(all.end(), grad_weight.data().begin(),
                   grad_weight.data().end());
        all.insert(all.end(), grad_bias.data().begin(), grad_bias.data().end());
        return all;
      },
      "conv2d backward");
}

// ---- dispatch plumbing ----------------------------------------------------

TEST(SimdDispatch, StartupLevelHonorsEnvOverride) {
  // Under the DLSCALE_SIMD=0 ctest rerun the startup decision must be
  // scalar even on an AVX2 host; in the default run it must equal CPUID.
  const du::SimdLevel expected = du::env_bool("DLSCALE_SIMD", true)
                                     ? du::detected_simd_level()
                                     : du::SimdLevel::kScalar;
  EXPECT_EQ(du::simd_startup_level(), expected);
}

TEST(SimdDispatch, SetLevelClampsToHardware) {
  const du::SimdLevel previous = du::simd_level();
  // Never above what CPUID reports, and reachable even when the env knob
  // started the process in scalar mode (the clamp is to hardware, so the
  // parameterized suites can still exercise the vector tiers in the env
  // rerun).
  for (du::SimdLevel requested : {du::SimdLevel::kAvx2, du::SimdLevel::kAvx512}) {
    const du::SimdLevel applied = du::set_simd_level(requested);
    EXPECT_EQ(applied, std::min(requested, du::detected_simd_level()));
    EXPECT_EQ(du::simd_level(), applied);
  }
  EXPECT_EQ(du::set_simd_level(du::SimdLevel::kScalar), du::SimdLevel::kScalar);
  du::set_simd_level(previous);
}

TEST(SimdDispatch, ActivePathTracksSelectedLevel) {
  for (du::SimdLevel level : simd_levels_under_test()) {
    ScopedSimdLevel scoped(level);
    EXPECT_STREQ(micro::active_path(), du::simd_level_name(level));
  }
}

TEST(SimdDispatch, VectorTiersKeepTheAvx2PathsOfNonGemmKernels) {
  // kAvx512 only adds GEMM panels. The int8 GEMM, quantize, transpose,
  // elementwise and bf16 dispatchers all branch on simd_avx2(), and the
  // fp16 ones on simd_f16c(): both must stay on at every vector tier, or
  // an AVX-512 host would silently run those kernels' scalar twins.
  for (du::SimdLevel level : simd_levels_under_test()) {
    ScopedSimdLevel scoped(level);
    const bool vector = level >= du::SimdLevel::kAvx2;
    EXPECT_EQ(du::simd_avx2(), vector) << du::simd_level_name(level);
    EXPECT_EQ(du::simd_f16c(), vector && du::detected_f16c()) << du::simd_level_name(level);
  }
}
