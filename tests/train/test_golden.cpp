// Golden-bits guard: six Trainer steps of the mini DLv3+ (width 16, 32x32
// inputs, batch 2, seed 1, NoComm) must reproduce loss bit patterns, a
// parameter hash and an eval-logits hash recorded before the convolution
// lowering and the AVX-512 GEMM tier were rewritten. The kernels promise
// that no optimisation moves a result bit (DESIGN.md §6), and the
// cross-level parity suites only compare the levels with each other; this
// test pins them all to one fixed history, so a change that moves every
// level the same way fails here too.
//
// A second history pins the data-parallel path: the same model trained
// by four ranks through a HorovodHook, recorded before the ring
// reduce-scatter started reducing straight from the received payload and
// before the weight-gradient GEMM shared one packed B across row chunks.
//
// The constants assume IEEE-754 binary32 arithmetic and glibc's libm
// (batch norm and softmax call sqrt/exp/log); a libm with different
// rounding would move them without any kernel being at fault.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "dlscale/data/dataset.hpp"
#include "dlscale/mpi/comm.hpp"
#include "dlscale/train/trainer.hpp"
#include "../support/simd_param.hpp"

namespace dd = dlscale::data;
namespace dt = dlscale::train;

namespace {

constexpr int kSteps = 6;

/// FNV-1a over the bit patterns of a float sequence.
class BitHash {
 public:
  void add(float v) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    for (int shift = 0; shift < 32; shift += 8) {
      hash_ ^= (bits >> shift) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct GoldenRun {
  std::vector<std::uint32_t> loss_bits;
  std::uint64_t params_hash = 0;
  std::uint64_t logits_hash = 0;
};

dt::TrainConfig golden_config() {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 32, .width = 16};
  config.dataset = {.image_size = 32, .num_classes = 6, .max_shapes = 3, .noise = 0.15f,
                    .seed = 1};
  config.batch_per_rank = 2;
  config.seed = 1;
  return config;
}

/// Hashes the trainer's parameters and its eval logits on a held-out batch.
void finish_golden(dt::Trainer& trainer, const dd::SyntheticShapes& dataset, GoldenRun& run) {
  BitHash params;
  for (const dlscale::nn::Parameter* p : trainer.model().parameters()) {
    for (float v : p->value.data()) params.add(v);
  }
  run.params_hash = params.value();

  const dd::Sample held_out = dataset.make_batch({1000, 1001});
  const dlscale::tensor::Tensor logits = trainer.model().forward(held_out.image, /*train=*/false);
  BitHash out;
  for (float v : logits.data()) out.add(v);
  run.logits_hash = out.value();
}

GoldenRun run_golden() {
  const dt::TrainConfig config = golden_config();
  dt::NoComm hook;
  dt::Trainer trainer(config, hook);
  const dd::SyntheticShapes dataset(config.dataset);

  GoldenRun run;
  for (int step = 0; step < kSteps; ++step) {
    const dd::Sample batch = dataset.make_batch(
        {static_cast<std::uint64_t>(2 * step), static_cast<std::uint64_t>(2 * step + 1)});
    run.loss_bits.push_back(std::bit_cast<std::uint32_t>(trainer.train_step(batch, 0.05)));
  }
  finish_golden(trainer, dataset, run);
  return run;
}

/// The data-parallel path: the same model over a 4-rank functional simmpi
/// world with a HorovodHook (default knobs, planned activation memory).
/// Rank r trains samples {8s + 2r, 8s + 2r + 1} at step s; the run is
/// rank 0's view, whose parameters every rank shares after each step.
GoldenRun run_golden_horovod() {
  constexpr int kRanks = 4;
  const dt::TrainConfig config = golden_config();
  GoldenRun run;
  dlscale::mpi::run_world(kRanks, [&](dlscale::mpi::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    dt::Trainer trainer(config, hook);
    const dd::SyntheticShapes dataset(config.dataset);
    const auto first = static_cast<std::uint64_t>(2 * comm.rank());
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t base = static_cast<std::uint64_t>(2 * kRanks * step) + first;
      const float loss = trainer.train_step(dataset.make_batch({base, base + 1}), 0.05);
      if (comm.rank() == 0) run.loss_bits.push_back(std::bit_cast<std::uint32_t>(loss));
    }
    if (comm.rank() == 0) finish_golden(trainer, dataset, run);
  });
  return run;
}

void expect_golden(const GoldenRun& run, const std::vector<std::uint32_t>& expected_loss_bits,
                   std::uint64_t params_hash, std::uint64_t logits_hash) {
  ASSERT_EQ(run.loss_bits.size(), expected_loss_bits.size());
  for (std::size_t i = 0; i < expected_loss_bits.size(); ++i) {
    EXPECT_EQ(run.loss_bits[i], expected_loss_bits[i])
        << "step " << i << " loss " << std::bit_cast<float>(run.loss_bits[i]) << " vs recorded "
        << std::bit_cast<float>(expected_loss_bits[i]);
  }
  EXPECT_EQ(run.params_hash, params_hash) << "final parameters moved";
  EXPECT_EQ(run.logits_hash, logits_hash) << "eval logits moved";
}

class GoldenBits : public dlscale::testing::SimdLevelTest {};

}  // namespace

TEST_P(GoldenBits, TrainerStepsMatchRecordedBits) {
  expect_golden(run_golden(),
                {0x401F3A89u, 0x400AACBCu, 0x3FF10377u, 0x3FAC7823u, 0x3F90A942u, 0x3F2C595Bu},
                0xBCF6201044656089ull, 0x87EEB88A70D492F9ull);
}

TEST_P(GoldenBits, HorovodHookFourRanksMatchRecordedBits) {
  expect_golden(run_golden_horovod(),
                {0x401F3A89u, 0x4013E1C6u, 0x3FFE2B56u, 0x3FBB904Au, 0x3F605EFBu, 0x3F516D7Du},
                0x08391A5E667FF1A0ull, 0x077F997B89F4CCBCull);
}

INSTANTIATE_TEST_SUITE_P(SimdLevels, GoldenBits,
                         ::testing::ValuesIn(dlscale::testing::simd_levels_under_test()),
                         dlscale::testing::simd_param_name);
