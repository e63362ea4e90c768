// Neural-network kernels with hand-written backward passes.
//
// Everything a miniature DeepLab-v3+ needs: dilated (atrous) convolution
// via im2col/col2im, batch normalisation, ReLU, max/avg pooling, global
// average pooling, bilinear resize (ASPP image pooling + decoder
// upsampling), channel concat, and per-pixel softmax cross-entropy with
// an ignore label. Layout is NCHW throughout; conv weights are
// (O, C, kh, kw).
//
// Threading: hot kernels parallelise over the shared util::ThreadPool
// (DLSCALE_NUM_THREADS, see util/thread_pool.hpp). Partitioning preserves
// each output element's serial accumulation order, so results are bitwise
// identical at any thread count — the property the E6 gradient-parity
// experiment depends on. Nested calls (a kernel invoked from inside a
// pool worker) run inline and serial.
#pragma once

#include <optional>
#include <vector>

#include "dlscale/tensor/tensor.hpp"

namespace dlscale::tensor {

/// Hyper-parameters of a 2D convolution.
struct Conv2dSpec {
  int stride = 1;
  int pad = 0;
  int dilation = 1;

  /// Output spatial size for an input extent and kernel extent; 0 when
  /// the dilated kernel does not fit in the padded input (every
  /// convolution entry point rejects that as an empty output).
  [[nodiscard]] int out_extent(int in, int kernel) const noexcept {
    const int effective = dilation * (kernel - 1) + 1;
    if (in + 2 * pad < effective) return 0;
    return (in + 2 * pad - effective) / stride + 1;
  }
};

// ---- dense linear algebra ----

/// C = A(MxK) * B(KxN). Shapes validated.
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T(KxM -> MxK? no:) -- convenience transposed products used by
/// conv backward: matmul_tn computes A^T * B for A(KxM), B(KxN) -> (MxN);
/// matmul_nt computes A * B^T for A(MxK), B(NxK) -> (MxN).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// ---- convolution ----

/// Unfold input (C,H,W window grid) into a (C*kh*kw) x (outH*outW) matrix
/// for one sample. Exposed for testing.
Tensor im2col(const Tensor& input, int sample, int kh, int kw, const Conv2dSpec& spec);
/// Raw-buffer variant writing into caller-owned storage of
/// (C*kh*kw) * (outH*outW) floats — the conv kernels use this with a
/// reusable scratch arena to avoid per-sample allocation.
void im2col(const Tensor& input, int sample, int kh, int kw, const Conv2dSpec& spec,
            float* cols);
/// Strided variant: row r of the column matrix lands at cols + r*row_stride
/// (row_stride >= outH*outW). Lets every sample of a batch write its
/// columns side by side into one shared (C*kh*kw) x (N*outH*outW) matrix so
/// the forward convolution can run a single batched GEMM over all samples.
void im2col(const Tensor& input, int sample, int kh, int kw, const Conv2dSpec& spec,
            float* cols, std::size_t row_stride);
/// Fold a (C*kh*kw) x (outH*outW) matrix back, accumulating into
/// `grad_input` at `sample`. Inverse-adjoint of im2col.
void col2im(const Tensor& cols, Tensor& grad_input, int sample, int kh, int kw,
            const Conv2dSpec& spec);
/// Raw-buffer variant of col2im (shape implied by grad_input and spec).
void col2im(const float* cols, Tensor& grad_input, int sample, int kh, int kw,
            const Conv2dSpec& spec);

/// Forward convolution: input (N,C,H,W), weight (O,C,kh,kw), optional
/// bias (O). Returns (N,O,outH,outW).
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec);

/// Backward convolution. Accumulates into grad_weight/grad_bias (callers
/// zero them at step start); returns grad_input.
Tensor conv2d_backward(const Tensor& input, const Tensor& weight, const Tensor& grad_out,
                       const Conv2dSpec& spec, Tensor& grad_weight, Tensor* grad_bias);

/// Depthwise convolution: one kh x kw filter per channel. Input
/// (N,C,H,W), weight (C,1,kh,kw). The building block of the Xception
/// backbone's separable convolutions.
Tensor depthwise_conv2d(const Tensor& input, const Tensor& weight, const Conv2dSpec& spec);

/// Backward pass of depthwise_conv2d; accumulates into grad_weight.
Tensor depthwise_conv2d_backward(const Tensor& input, const Tensor& weight,
                                 const Tensor& grad_out, const Conv2dSpec& spec,
                                 Tensor& grad_weight);

// ---- activations / normalisation ----

Tensor relu(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& grad_out);

/// Batch-norm training-mode forward. Saves mean/inv_std for backward and
/// updates running statistics with `momentum`.
struct BatchNormCache {
  Tensor x_hat;     // normalised input
  std::vector<float> mean;
  std::vector<float> inv_std;
};
Tensor batchnorm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta, Tensor& running_mean,
                   Tensor& running_var, bool train, float momentum, float eps,
                   BatchNormCache* cache);
Tensor batchnorm2d_backward(const Tensor& grad_out, const BatchNormCache& cache,
                            const Tensor& gamma, Tensor& grad_gamma, Tensor& grad_beta);

// ---- pooling / resize ----

/// 2x2-style max pooling with stride; returns output and records argmax
/// indices in `argmax` (same numel as output) for the backward pass.
Tensor maxpool2d(const Tensor& x, int kernel, int stride, std::vector<int>& argmax);
/// Inference variant: no argmax recording, no backward possible. Output
/// is bitwise identical to the recording variant.
Tensor maxpool2d(const Tensor& x, int kernel, int stride);
Tensor maxpool2d_backward(const Tensor& x, const Tensor& grad_out, int kernel, int stride,
                          const std::vector<int>& argmax);

/// Global average pooling to (N,C,1,1).
Tensor global_avg_pool(const Tensor& x);
Tensor global_avg_pool_backward(const Tensor& x, const Tensor& grad_out);

/// Bilinear resize to (outH, outW) with align_corners=true semantics
/// (matching the DeepLab TensorFlow implementation).
Tensor bilinear_resize(const Tensor& x, int out_h, int out_w);
Tensor bilinear_resize_backward(const Tensor& x, const Tensor& grad_out);

// ---- structure ----

/// Concatenate along the channel axis.
Tensor concat_channels(const Tensor& a, const Tensor& b);
/// Split a channel-concat gradient back into the two inputs' gradients.
void split_channels(const Tensor& grad_out, int channels_a, Tensor& grad_a, Tensor& grad_b);

/// Elementwise sum (residual connections).
Tensor add(const Tensor& a, const Tensor& b);

// ---- loss ----

/// Per-pixel softmax cross-entropy. `logits` (N,K,H,W), `labels` (N*H*W)
/// of class ids; label == ignore_label contributes nothing. Returns mean
/// loss over counted pixels and writes d(loss)/d(logits) into grad.
float softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                            int ignore_label, Tensor& grad);

/// Per-pixel argmax over the class axis: (N,K,H,W) -> N*H*W class ids.
std::vector<int> argmax_channels(const Tensor& logits);

/// Allocation-free variant: resizes `out` to N*H*W and fills it in place,
/// so eval loops can reuse one buffer across batches.
void argmax_channels(const Tensor& logits, std::vector<int>& out);

}  // namespace dlscale::tensor
