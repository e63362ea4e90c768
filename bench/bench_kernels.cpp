// Wall-clock microbenchmarks (google-benchmark) for the real compute and
// communication substrates: tensor kernels that execute the mini
// DeepLab-v3+, and functional simmpi collectives moving real data.
//
// Custom main: prints the selected SIMD dispatch path and a quick
// simd-vs-scalar comparison table before handing over to
// google-benchmark. `bench_kernels --print-simd-path` prints just the
// path (used by run_all.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "dlscale/mpi/comm.hpp"
#include "dlscale/tensor/microkernel.hpp"
#include "dlscale/tensor/ops.hpp"
#include "dlscale/tensor/quantize.hpp"
#include "dlscale/util/bf16.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/simd.hpp"
#include "dlscale/util/table.hpp"
#include "dlscale/util/thread_pool.hpp"

namespace dt = dlscale::tensor;
namespace dm = dlscale::mpi;
namespace du = dlscale::util;

namespace {

/// Pins the kernel pool to `threads` for one benchmark run and restores
/// the previous setting on destruction (thread-count sweeps).
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : prev_(du::global_thread_count()) {
    du::set_global_thread_count(threads);
  }
  ~ScopedThreads() { du::set_global_thread_count(prev_); }

 private:
  int prev_;
};

/// Re-selects the SIMD dispatch level for one benchmark run. Level args
/// above what the host supports skip the benchmark instead of silently
/// measuring the clamped path twice.
class ScopedSimd {
 public:
  explicit ScopedSimd(du::SimdLevel level) : prev_(du::simd_level()) {
    applied_ = du::set_simd_level(level);
    ok_ = applied_ == level;
  }
  ~ScopedSimd() { du::set_simd_level(prev_); }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  du::SimdLevel prev_;
  du::SimdLevel applied_{du::SimdLevel::kScalar};
  bool ok_ = false;
};

bool skip_unless_level(benchmark::State& state, const ScopedSimd& scoped) {
  if (!scoped.ok()) {
    state.SkipWithError("SIMD level not available on this host");
    return true;
  }
  return false;
}

void BM_Conv2dForward(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, channels, 24, 24}, rng);
  const auto w = dt::Tensor::he_init({channels, channels, 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::conv2d(x, w, nullptr, {1, 1, 1}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_Conv2dAtrousForward(benchmark::State& state) {
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, 16, 24, 24}, rng);
  const auto w = dt::Tensor::he_init({16, 16, 3, 3}, rng);
  const int dilation = static_cast<int>(state.range(0));
  const dt::Conv2dSpec spec{1, dilation, dilation};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::conv2d(x, w, nullptr, spec));
  }
}
BENCHMARK(BM_Conv2dAtrousForward)->Arg(1)->Arg(2)->Arg(4);

void BM_Conv2dBackward(benchmark::State& state) {
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, 16, 24, 24}, rng);
  const auto w = dt::Tensor::he_init({16, 16, 3, 3}, rng);
  const dt::Conv2dSpec spec{1, 1, 1};
  const auto y = dt::conv2d(x, w, nullptr, spec);
  const auto grad_out = dt::Tensor::full(y.shape(), 1.0f);
  for (auto _ : state) {
    dt::Tensor grad_w(w.shape());
    benchmark::DoNotOptimize(dt::conv2d_backward(x, w, grad_out, spec, grad_w, nullptr));
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_BatchNormForward(benchmark::State& state) {
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({4, 32, 24, 24}, rng);
  const auto gamma = dt::Tensor::full({32}, 1.0f);
  const auto beta = dt::Tensor::zeros({32});
  auto rm = dt::Tensor::zeros({32});
  auto rv = dt::Tensor::full({32}, 1.0f);
  dt::BatchNormCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::batchnorm2d(x, gamma, beta, rm, rv, true, 0.1f, 1e-5f, &cache));
  }
}
BENCHMARK(BM_BatchNormForward);

void BM_BilinearResize(benchmark::State& state) {
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, 32, 12, 12}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::bilinear_resize(x, 48, 48));
  }
}
BENCHMARK(BM_BilinearResize);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  dlscale::util::Rng rng(1);
  const auto logits = dt::Tensor::randn({4, 6, 24, 24}, rng);
  std::vector<int> labels(4 * 24 * 24);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 6);
  for (auto _ : state) {
    dt::Tensor grad;
    benchmark::DoNotOptimize(dt::softmax_cross_entropy(logits, labels, 255, grad));
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy);

void BM_AllreduceFunctional(benchmark::State& state) {
  // Real data movement through simmpi (timing disabled): the functional
  // cost of the threaded runtime itself.
  const int world = static_cast<int>(state.range(0));
  const std::size_t count = 1 << 16;
  for (auto _ : state) {
    dm::run_world(world, [count](dm::Communicator& comm) {
      std::vector<float> data(count, static_cast<float>(comm.rank()));
      comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
      benchmark::DoNotOptimize(data[0]);
    });
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(count * sizeof(float)));
}
BENCHMARK(BM_AllreduceFunctional)->Arg(2)->Arg(4)->Arg(8);

void BM_MatmulSquare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dlscale::util::Rng rng(1);
  const auto a = dt::Tensor::randn({n, n}, rng);
  const auto b = dt::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(64)->Arg(128)->Arg(256);

// GEMMs at the shapes the full-scale DLv3+ conv layers lower to via
// im2col: (out_c) x (in_c*kh*kw) times (in_c*kh*kw) x (out_h*out_w).
// 33x33 is the 513-input encoder output at stride 16.
void BM_GemmDLv3Shape(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  dlscale::util::Rng rng(1);
  const auto a = dt::Tensor::randn({m, k}, rng);
  const auto b = dt::Tensor::randn({k, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_GemmDLv3Shape)
    ->Args({256, 2304, 1089})   // ASPP 3x3 atrous branch: 256ch <- 256ch*3*3
    ->Args({256, 1280, 1089})   // ASPP projection 1x1: 256ch <- 5*256ch
    ->Args({48, 256, 16641});   // decoder low-level 1x1 at stride 4 (129x129)

// SIMD dispatch sweep: the same GEMM / conv work under each level (arg 0
// = scalar twins, arg 1 = AVX2 micro-kernels, arg 2 = AVX-512 GEMM tier;
// a level the host lacks is skipped). Bitwise-identical output, so the
// delta is pure kernel throughput.
void BM_MatmulSimd(benchmark::State& state) {
  const ScopedSimd scoped(static_cast<du::SimdLevel>(state.range(0)));
  if (skip_unless_level(state, scoped)) return;
  const int n = static_cast<int>(state.range(1));
  dlscale::util::Rng rng(1);
  const auto a = dt::Tensor::randn({n, n}, rng);
  const auto b = dt::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
  state.SetLabel(dt::micro::active_path());
}
BENCHMARK(BM_MatmulSimd)->Args({0, 256})->Args({1, 256})->Args({2, 256});

void BM_GemmDLv3ShapeSimd(benchmark::State& state) {
  const ScopedSimd scoped(static_cast<du::SimdLevel>(state.range(0)));
  if (skip_unless_level(state, scoped)) return;
  dlscale::util::Rng rng(1);
  const auto a = dt::Tensor::randn({256, 2304}, rng);
  const auto b = dt::Tensor::randn({2304, 1089}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 256 * 2304 * 1089);
  state.SetLabel(dt::micro::active_path());
}
BENCHMARK(BM_GemmDLv3ShapeSimd)->Arg(0)->Arg(1)->Arg(2);

// Quantized GEMM at the same ASPP 3x3 shape, end to end as serving runs
// it: fp32 activations quantized to u8 per call, integer GEMM against the
// pre-packed per-channel s8 weights, dequantize epilogue. Orientation is
// the serving one (activations m x k times W^T), so m is the im2col
// column count and n the output channels; the MAC count matches the fp32
// BM_GemmDLv3ShapeSimd rows for a like-for-like items/s comparison.
void BM_GemmInt8Simd(benchmark::State& state) {
  const ScopedSimd scoped(static_cast<du::SimdLevel>(state.range(0)));
  if (skip_unless_level(state, scoped)) return;
  constexpr int m = 1089, k = 2304, n = 256;
  dlscale::util::Rng rng(1);
  const auto a = dt::Tensor::randn({m, k}, rng);
  const auto w = dt::Tensor::randn({n, k}, rng);
  const auto qw = dt::quant::QuantizedMatrix::from_rows(w.ptr(), n, k);
  // Static activation params as calibration would pick them for randn
  // inputs: +/-4 sigma covers the range without saturating the bulk.
  const dt::quant::QuantParams act = dt::quant::choose_qparams_u8({-4.0f, 4.0f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::quant::quantized_matmul(a, qw, act, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(dt::micro::active_path());
}
BENCHMARK(BM_GemmInt8Simd)->Arg(0)->Arg(1)->Arg(2);

// bf16 serving cost at the same shape: weights live as bf16 and are
// widened into fp32 scratch before the regular GEMM — the widen is the
// only extra work, so this bounds what bf16 storage costs per forward.
void BM_GemmBf16(benchmark::State& state) {
  const ScopedSimd scoped(static_cast<du::SimdLevel>(state.range(0)));
  if (skip_unless_level(state, scoped)) return;
  constexpr int m = 256, k = 2304, n = 1089;
  dlscale::util::Rng rng(1);
  const auto a = dt::Tensor::randn({m, k}, rng);
  const auto w = dt::Tensor::randn({k, n}, rng);
  std::vector<std::uint16_t> stored(static_cast<std::size_t>(k) * n);
  du::floats_to_bf16s(w.ptr(), stored.data(), stored.size());
  dt::Tensor wide({k, n});
  for (auto _ : state) {
    du::bf16s_to_floats(stored.data(), wide.ptr(), stored.size());
    benchmark::DoNotOptimize(dt::matmul(a, wide));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(dt::micro::active_path());
}
BENCHMARK(BM_GemmBf16)->Arg(0)->Arg(1)->Arg(2);

void BM_Conv2dForwardSimd(benchmark::State& state) {
  const ScopedSimd scoped(static_cast<du::SimdLevel>(state.range(0)));
  if (skip_unless_level(state, scoped)) return;
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, 8, 24, 24}, rng);
  const auto w = dt::Tensor::he_init({8, 8, 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::conv2d(x, w, nullptr, {1, 1, 1}));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(dt::micro::active_path());
}
BENCHMARK(BM_Conv2dForwardSimd)->Arg(0)->Arg(1)->Arg(2);

// The mini DLv3+ convolutions at the dlbench train-dp4 configuration
// (width 16, 32x32 inputs, batch 2): input channels and square extent,
// output channels, square kernel, spec. Channels and specs are written
// as in the MiniDeepLabV3Plus constructor (src/models/deeplab.cpp);
// extents are the input sizes its forward feeds each layer (32, 16, 8,
// then 4 for block3 and the ASPP at /8, 8 for the decoder at /4).
// Change these rows with the model.
struct ModelConv {
  const char* name;
  int in_c, extent, out_c, kernel;
  dt::Conv2dSpec spec;
};
constexpr int kW = 16;
constexpr ModelConv kModelConvs[] = {
    {"stem", 3, 32, kW, 3, {2, 1, 1}},
    {"block1", kW, 16, 2 * kW, 3, {2, 1, 1}},
    {"block2", 2 * kW, 8, 4 * kW, 3, {2, 1, 1}},
    {"block3", 4 * kW, 4, 4 * kW, 3, {1, 2, 2}},
    {"aspp.1x1", 4 * kW, 4, 2 * kW, 1, {1, 0, 1}},
    {"aspp.r2", 4 * kW, 4, 2 * kW, 3, {1, 2, 2}},
    {"aspp.r4", 4 * kW, 4, 2 * kW, 3, {1, 4, 4}},
    {"aspp.pool", 4 * kW, 1, 2 * kW, 1, {1, 0, 1}},
    {"aspp.project", 8 * kW, 4, 4 * kW, 1, {1, 0, 1}},
    {"decoder.low_level", 2 * kW, 8, kW, 1, {1, 0, 1}},
    {"decoder.conv", 5 * kW, 8, 2 * kW, 3, {1, 1, 1}},
    {"classifier", 2 * kW, 8, 6, 1, {1, 0, 1}},
};
constexpr int kModelBatch = 2;
constexpr int kNumModelConvs = static_cast<int>(std::size(kModelConvs));

struct ModelConvData {
  dt::Tensor x, w, y, grad_out;
  int out_extent = 0;
  std::size_t col_floats = 0;  ///< one sample's (in_c*k*k) x patch matrix
  double macs = 0.0;           ///< multiply-adds of one forward GEMM over the batch
};

ModelConvData make_model_conv(const ModelConv& c) {
  du::Rng rng(1);
  ModelConvData d;
  d.x = dt::Tensor::randn({kModelBatch, c.in_c, c.extent, c.extent}, rng);
  d.w = dt::Tensor::he_init({c.out_c, c.in_c, c.kernel, c.kernel}, rng);
  d.out_extent = c.spec.out_extent(c.extent, c.kernel);
  d.y = dt::conv2d(d.x, d.w, nullptr, c.spec);
  d.grad_out = dt::Tensor::randn(d.y.shape(), rng);
  const std::size_t patch = static_cast<std::size_t>(d.out_extent) * d.out_extent;
  d.col_floats = static_cast<std::size_t>(c.in_c) * c.kernel * c.kernel * patch;
  d.macs = static_cast<double>(kModelBatch) * c.out_c * static_cast<double>(d.col_floats);
  return d;
}

// Lowering cost alone, one row per model convolution: one pass over the
// batch, as conv2d (forward) and conv2d_backward (twice: im2col, then
// col2im of dX) run it. Bytes = column-matrix floats written or read.
void BM_Im2col(benchmark::State& state) {
  const ModelConv& c = kModelConvs[state.range(0)];
  const ModelConvData d = make_model_conv(c);
  std::vector<float> cols(d.col_floats);
  for (auto _ : state) {
    for (int n = 0; n < kModelBatch; ++n) {
      dt::im2col(d.x, n, c.kernel, c.kernel, c.spec, cols.data());
    }
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kModelBatch *
                          static_cast<std::int64_t>(d.col_floats * sizeof(float)));
  state.SetLabel(c.name);
}
BENCHMARK(BM_Im2col)->DenseRange(0, kNumModelConvs - 1);

void BM_Col2im(benchmark::State& state) {
  const ModelConv& c = kModelConvs[state.range(0)];
  const ModelConvData d = make_model_conv(c);
  du::Rng rng(2);
  const dt::Tensor cols = dt::Tensor::randn(
      {c.in_c * c.kernel * c.kernel, d.out_extent * d.out_extent}, rng);
  dt::Tensor grad_input(d.x.shape());
  for (auto _ : state) {
    for (int n = 0; n < kModelBatch; ++n) {
      dt::col2im(cols.ptr(), grad_input, n, c.kernel, c.kernel, c.spec);
    }
    benchmark::DoNotOptimize(grad_input.ptr());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kModelBatch *
                          static_cast<std::int64_t>(d.col_floats * sizeof(float)));
  state.SetLabel(c.name);
}
BENCHMARK(BM_Col2im)->DenseRange(0, kNumModelConvs - 1);

// All model convolutions, forward or backward, one thread, under each
// SIMD level: the isolated per-step conv cost. items/s is GEMM flop/s
// (2 per multiply-add; backward runs two GEMMs per conv).
void model_convs(benchmark::State& state, bool backward) {
  const ScopedSimd scoped(static_cast<du::SimdLevel>(state.range(0)));
  if (skip_unless_level(state, scoped)) return;
  const ScopedThreads one_thread(1);
  std::vector<ModelConvData> data;
  double flops = 0.0;
  for (const ModelConv& c : kModelConvs) {
    data.push_back(make_model_conv(c));
    flops += (backward ? 4.0 : 2.0) * data.back().macs;
  }
  for (auto _ : state) {
    for (int i = 0; i < kNumModelConvs; ++i) {
      const ModelConv& c = kModelConvs[i];
      const ModelConvData& d = data[static_cast<std::size_t>(i)];
      if (backward) {
        dt::Tensor grad_w(d.w.shape());
        benchmark::DoNotOptimize(dt::conv2d_backward(d.x, d.w, d.grad_out, c.spec, grad_w,
                                                     nullptr));
      } else {
        benchmark::DoNotOptimize(dt::conv2d(d.x, d.w, nullptr, c.spec));
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(static_cast<double>(state.iterations()) *
                                                    flops));
  state.SetLabel(dt::micro::active_path());
}
void BM_ModelConvsForwardSimd(benchmark::State& state) { model_convs(state, false); }
void BM_ModelConvsBackwardSimd(benchmark::State& state) { model_convs(state, true); }
BENCHMARK(BM_ModelConvsForwardSimd)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_ModelConvsBackwardSimd)->Arg(0)->Arg(1)->Arg(2);

// Thread-count sweep on a DLv3+-like conv block (the speedup the whole
// PR exists for). Run with -DCMAKE_BUILD_TYPE=Release; Arg = pool size.
void BM_Conv2dForwardThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, 64, 33, 33}, rng);
  const auto w = dt::Tensor::he_init({64, 64, 3, 3}, rng);
  const dt::Conv2dSpec spec{1, 2, 2};  // atrous rate 2, "same" output
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::conv2d(x, w, nullptr, spec));
  }
  state.SetItemsProcessed(state.iterations() * 2);  // images/s
}
BENCHMARK(BM_Conv2dForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Conv2dBackwardThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  dlscale::util::Rng rng(1);
  const auto x = dt::Tensor::randn({2, 64, 33, 33}, rng);
  const auto w = dt::Tensor::he_init({64, 64, 3, 3}, rng);
  const dt::Conv2dSpec spec{1, 2, 2};
  const auto y = dt::conv2d(x, w, nullptr, spec);
  const auto grad_out = dt::Tensor::full(y.shape(), 1.0f);
  for (auto _ : state) {
    dt::Tensor grad_w(w.shape());
    benchmark::DoNotOptimize(dt::conv2d_backward(x, w, grad_out, spec, grad_w, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Conv2dBackwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---- custom main ----------------------------------------------------------

/// Median-of-5 wall-clock time for `body`, in milliseconds.
template <typename Body>
double time_median_ms(Body&& body) {
  double samples[5];
  for (double& sample : samples) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    sample = std::chrono::duration<double, std::milli>(stop - start).count();
  }
  std::sort(std::begin(samples), std::end(samples));
  return samples[2];
}

/// Quick chrono-timed simd-vs-scalar table (independent of
/// google-benchmark's own repetitions) so the dispatch win is visible at
/// the top of the output without grepping counter lines.
void print_simd_comparison() {
  du::Table table("SIMD dispatch comparison (1 thread, median of 5)");
  table.set_header({"kernel", "scalar_ms", du::simd_level_name(
                                               du::detected_simd_level()),
                    "speedup"});
  du::Rng rng(1);
  const auto ma = dt::Tensor::randn({256, 256}, rng);
  const auto mb = dt::Tensor::randn({256, 256}, rng);
  const auto cx = dt::Tensor::randn({2, 8, 24, 24}, rng);
  const auto cw = dt::Tensor::he_init({8, 8, 3, 3}, rng);
  const auto ga = dt::Tensor::randn({256, 2304}, rng);
  const auto gb = dt::Tensor::randn({2304, 1089}, rng);
  const auto qa = dt::Tensor::randn({1089, 2304}, rng);
  const auto qw = dt::quant::QuantizedMatrix::from_rows(
      dt::Tensor::randn({256, 2304}, rng).ptr(), 256, 2304);
  const dt::quant::QuantParams act = dt::quant::choose_qparams_u8({-4.0f, 4.0f});

  struct Case {
    const char* name;
    std::function<void()> body;
  };
  const Case cases[] = {
      {"matmul 256x256x256", [&] { benchmark::DoNotOptimize(dt::matmul(ma, mb)); }},
      {"gemm 256x2304x1089", [&] { benchmark::DoNotOptimize(dt::matmul(ga, gb)); }},
      {"int8 gemm same MACs", [&] {
         benchmark::DoNotOptimize(dt::quant::quantized_matmul(qa, qw, act, nullptr));
       }},
      {"conv2d fwd 8ch 24x24", [&] {
         benchmark::DoNotOptimize(dt::conv2d(cx, cw, nullptr, {1, 1, 1}));
       }},
  };
  const ScopedThreads one_thread(1);
  for (const Case& c : cases) {
    double scalar_ms = 0.0, vector_ms = 0.0;
    {
      ScopedSimd scoped(du::SimdLevel::kScalar);
      scalar_ms = time_median_ms(c.body);
    }
    {
      ScopedSimd scoped(du::detected_simd_level());
      vector_ms = time_median_ms(c.body);
    }
    table.add_row({c.name, du::Table::num(scalar_ms, 3),
                   du::Table::num(vector_ms, 3),
                   du::Table::num(scalar_ms / vector_ms, 2) + "x"});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-simd-path") == 0) {
      std::printf("%s\n", dt::micro::active_path());
      return 0;
    }
  }
  std::printf("SIMD dispatch: %s (startup: %s, hardware: %s%s)\n",
              du::simd_level_name(du::simd_level()),
              du::simd_level_name(du::simd_startup_level()),
              du::simd_level_name(du::detected_simd_level()),
              du::detected_f16c() ? "+f16c" : "");
  if (du::detected_simd_level() != du::SimdLevel::kScalar) {
    print_simd_comparison();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
