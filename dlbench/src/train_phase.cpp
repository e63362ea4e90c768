// train-dp4: data-parallel training of the mini DeepLab-v3+ over a 4-rank
// simmpi world (functional mode: real gradient bytes), HorovodHook with
// the default knobs, planned activation memory.
//
// Every layer is timed from outside: a CommHook decorator around the
// HorovodHook (and around the GradSink it hands the backward pass) times
// the hook callbacks, RuntimeStats/CommStats deltas give the counts, and a
// standalone replica gives forward/backward times.
#include <atomic>
#include <climits>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common.hpp"
#include "dlscale/data/dataset.hpp"
#include "dlscale/tensor/ops.hpp"
#include "dlscale/train/trainer.hpp"

namespace dlbench {
namespace {

namespace train = dlscale::train;
namespace mpi = dlscale::mpi;
namespace data = dlscale::data;
namespace nn = dlscale::nn;
namespace hvd = dlscale::hvd;

constexpr int kRanks = 4;
constexpr int kBatchPerRank = 2;
constexpr int kCheckSteps = 6;      ///< deterministic steps repeated by every set-up
constexpr double kLr = 0.05;
constexpr double kMiouFloor = 0.20;  ///< held-out mIOU after the timed window
constexpr std::size_t kTracedSteps = 400;  ///< steps whose child spans are recorded

train::TrainConfig make_config(std::uint64_t seed) {
  train::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 32, .width = 16};
  config.dataset = {.image_size = 32, .num_classes = 6, .max_shapes = 3, .noise = 0.15f,
                    .seed = seed};
  config.train_samples = 512;
  config.eval_samples = 64;
  config.batch_per_rank = kBatchPerRank;
  config.seed = seed;
  config.memory = train::MemoryMode::kPlanned;
  return config;
}

/// Times every hook callback of the wrapped HorovodHook. The backward pass
/// delivers gradients through the sink on_step_begin returns, so the sink
/// is wrapped too: each grad_ready is one timed submit into the runtime.
class TimingHook final : public train::CommHook {
 public:
  struct Step {
    double begin_s = 0.0;
    double submit_s = 0.0;
    double sync_s = 0.0;
    Clock::time_point begin_start{}, begin_end{}, sync_start{}, sync_end{};
    std::vector<std::pair<Clock::time_point, Clock::time_point>> submits;
  };

  explicit TimingHook(train::HorovodHook& inner) : inner_(inner), sink_(*this) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void broadcast_parameters(const std::vector<nn::Parameter*>& params) override {
    inner_.broadcast_parameters(params);
  }
  nn::GradSink* on_step_begin() override {
    step_.begin_start = Clock::now();
    inner_sink_ = inner_.on_step_begin();
    step_.begin_end = Clock::now();
    step_.begin_s += seconds_between(step_.begin_start, step_.begin_end);
    return inner_sink_ == nullptr ? nullptr : &sink_;
  }
  void on_gradient(nn::Parameter& param, double ready_at) override {
    const auto t0 = Clock::now();
    inner_.on_gradient(param, ready_at);
    note_submit(t0, Clock::now());
  }
  void on_step_end() override {
    step_.sync_start = Clock::now();
    inner_.on_step_end();
    step_.sync_end = Clock::now();
    step_.sync_s += seconds_between(step_.sync_start, step_.sync_end);
  }
  void allreduce_sum(std::span<double> values) override { inner_.allreduce_sum(values); }
  void allreduce_sum(std::span<std::int64_t> values) override { inner_.allreduce_sum(values); }
  [[nodiscard]] hvd::RuntimeStats stats() const override { return inner_.stats(); }

  /// The callbacks of the step just finished; resets for the next one.
  Step take() {
    Step done = std::move(step_);
    step_ = Step{};
    step_.submits.reserve(done.submits.capacity());
    return done;
  }
  void keep_submit_spans(bool keep) { keep_submits_ = keep; }

 private:
  class Sink final : public nn::GradSink {
   public:
    explicit Sink(TimingHook& hook) : hook_(hook) {}
    void backward_cost(double flops, double bytes_touched) override {
      hook_.inner_sink_->backward_cost(flops, bytes_touched);
    }
    void grad_ready(nn::Parameter& param) override {
      const auto t0 = Clock::now();
      hook_.inner_sink_->grad_ready(param);
      hook_.note_submit(t0, Clock::now());
    }

   private:
    TimingHook& hook_;
  };

  void note_submit(Clock::time_point t0, Clock::time_point t1) {
    step_.submit_s += seconds_between(t0, t1);
    if (keep_submits_) step_.submits.emplace_back(t0, t1);
  }

  train::HorovodHook& inner_;
  Sink sink_;
  nn::GradSink* inner_sink_ = nullptr;
  Step step_;
  bool keep_submits_ = false;
};

/// Rank-local batch stream: the DistributedSampler's shuffled shard,
/// epoch after epoch.
class Batches {
 public:
  Batches(const train::TrainConfig& config, int world, int rank)
      : dataset_(config.dataset),
        sampler_(config.train_samples, world, rank, config.seed ^ 0x5DEECE66Dull),
        per_epoch_(static_cast<long>(sampler_.shard_size()) / config.batch_per_rank),
        batch_(config.batch_per_rank) {}

  data::Sample at(long step) {
    const long epoch = step / per_epoch_;
    if (epoch != epoch_) {
      indices_ = sampler_.epoch_indices(static_cast<std::uint64_t>(epoch));
      epoch_ = epoch;
    }
    const auto first = indices_.begin() + (step % per_epoch_) * batch_;
    return dataset_.make_batch(std::vector<std::uint64_t>(first, first + batch_));
  }
  [[nodiscard]] const data::SyntheticShapes& dataset() const noexcept { return dataset_; }

 private:
  data::SyntheticShapes dataset_;
  data::DistributedSampler sampler_;
  long per_epoch_;
  long batch_;
  long epoch_ = -1;
  std::vector<std::uint64_t> indices_;
};

struct Window {
  std::vector<double> step_ms;
  double begin_ms = 0.0, submit_ms = 0.0, sync_ms = 0.0;  ///< summed over steps
  double seconds = 0.0;
  hvd::RuntimeStats hvd;
  mpi::CommStats comm;
  std::size_t plan_peak_bytes = 0;
  double miou = 0.0;
  bool finite = true;
};

std::uint32_t bits(float value) {
  std::uint32_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// Forward/backward of a standalone replica at the workload's per-rank
/// batch: the model cost with no hook, sink or arena around it.
void probe_model(const train::TrainConfig& config, Sheet& layers, double budget_s) {
  dlscale::util::Rng rng(config.seed);
  dlscale::models::MiniDeepLabV3Plus model(config.model, rng);
  const data::SyntheticShapes dataset(config.dataset);
  const data::Sample batch = dataset.make_batch({0, 1});
  std::vector<double> fwd, bwd;
  const auto start = Clock::now();
  while (fwd.size() < 20 ||
         (seconds_between(start, Clock::now()) < budget_s && fwd.size() < 2000)) {
    const auto t0 = Clock::now();
    const dlscale::tensor::Tensor logits = model.forward(batch.image, /*train=*/true);
    const auto t1 = Clock::now();
    dlscale::tensor::Tensor grad;
    (void)dlscale::tensor::softmax_cross_entropy(logits, batch.labels, 255, grad);
    const auto t2 = Clock::now();
    (void)model.backward(grad, nullptr);
    const auto t3 = Clock::now();
    fwd.push_back(ms_between(t0, t1));
    bwd.push_back(ms_between(t2, t3));
  }
  layers.set("models.fwd_ms", median(fwd), "ms");
  layers.set("models.bwd_ms", median(bwd), "ms");
}

}  // namespace

PhaseResult run_train(const PhaseOptions& options) {
  const bool traced = options.trace != nullptr;
  train::TrainConfig config = make_config(options.seed);
  config.knobs.timeline = traced;
  const int setups = std::max(2, options.setups);

  PhaseResult result;
  std::vector<double> setup_s;
  std::vector<std::vector<float>> losses(static_cast<std::size_t>(setups));
  Window window;

  for (int rep = 0; rep < setups; ++rep) {
    const bool timed = rep == setups - 1;
    std::atomic<long> stop_at{LONG_MAX};
    Clock::time_point ready{};
    const auto t0 = Clock::now();
    mpi::run_world(kRanks, [&](mpi::Communicator& comm) {
      train::HorovodHook horovod(comm, config);
      TimingHook hook(horovod);
      train::Trainer trainer(config, hook);
      Batches batches(config, comm.size(), comm.rank());
      comm.barrier();
      const bool lead = comm.rank() == 0;
      if (lead) ready = Clock::now();

      long step = 0;
      for (; step < kCheckSteps; ++step) {
        const float loss = trainer.train_step(batches.at(step), kLr);
        (void)hook.take();
        if (lead) losses[static_cast<std::size_t>(rep)].push_back(loss);
      }
      if (!timed) return;

      const hvd::RuntimeStats hvd0 = horovod.stats();
      const mpi::CommStats comm0 = comm.stats();
      const auto start = Clock::now();
      Clock::time_point end = start;
      for (long i = 0;; ++i, ++step) {
        // Rank 0 ends the window; every rank reads the bound before its
        // next step, and none can pass step i without rank 0 (the
        // gradient exchange needs it), so all ranks stop together.
        if (lead && stop_at.load() == LONG_MAX &&
            seconds_between(start, Clock::now()) >= options.seconds) {
          stop_at.store(i + 1);
        }
        if (i >= stop_at.load()) break;
        const data::Sample batch = batches.at(step);
        const bool spans = lead && traced && window.step_ms.size() < kTracedSteps;
        hook.keep_submit_spans(spans);
        const auto s0 = Clock::now();
        const float loss = trainer.train_step(batch, kLr);
        const auto s1 = Clock::now();
        const TimingHook::Step split = hook.take();
        if (!lead) continue;
        end = s1;
        if (!std::isfinite(loss)) window.finite = false;
        window.step_ms.push_back(ms_between(s0, s1));
        window.begin_ms += 1e3 * split.begin_s;
        window.submit_ms += 1e3 * split.submit_s;
        window.sync_ms += 1e3 * split.sync_s;
        if (spans) {
          Trace& trace = *options.trace;
          const auto op = static_cast<std::uint64_t>(i);
          const std::uint64_t id = trace.span("train.step", s0, s1, 0, op, 1);
          trace.span("train.forward", s0, split.begin_start, id, op, 1);
          const std::uint64_t bwd =
              trace.span("train.backward", split.begin_end, split.sync_start, id, op, 1);
          for (const auto& [a, b] : split.submits) trace.span("hvd.submit", a, b, bwd, op, 1);
          trace.span("hvd.sync", split.sync_start, split.sync_end, id, op, 1);
          trace.span("train.optimizer", split.sync_end, s1, id, op, 1);
        }
      }
      if (!lead) return;
      window.seconds = seconds_between(start, end);
      window.hvd = horovod.stats() - hvd0;
      const mpi::CommStats comm1 = comm.stats();
      window.comm.messages = comm1.messages - comm0.messages;
      window.comm.bytes = comm1.bytes - comm0.bytes;
      window.plan_peak_bytes = trainer.step_arena().plan().peak_bytes;
      result.peak_rss_mb = peak_rss_mb();
      window.miou = train::evaluate(trainer.model(), batches.dataset(), config.train_samples,
                                    config.eval_samples, 8)
                        .first;
      if (traced) {
        std::ostringstream timeline;
        horovod.runtime().write_timeline(timeline);
        options.trace->add_track(2, "horovod rank 0 (virtual time)", timeline.str());
      }
    });
    setup_s.push_back(seconds_between(t0, ready));
  }

  // Output checks: the deterministic prefix must repeat bitwise across
  // set-ups, every loss must be finite, and the model must have learned.
  const long steps = static_cast<long>(window.step_ms.size());
  result.attempted = static_cast<long>(setups) * kCheckSteps + steps + 1;
  for (int rep = 1; rep < setups; ++rep) {
    for (int s = 0; s < kCheckSteps; ++s) {
      const auto at = static_cast<std::size_t>(s);
      if (bits(losses[0][at]) != bits(losses[static_cast<std::size_t>(rep)][at])) {
        ++result.failed;
        result.notes.push_back("train: loss of check step " + std::to_string(s) +
                               " differs between set-up 0 and " + std::to_string(rep));
      }
    }
  }
  if (!window.finite) {
    ++result.failed;
    result.notes.push_back("train: non-finite loss in the timed window");
  }
  if (!(window.miou > kMiouFloor)) {
    ++result.failed;
    result.notes.push_back("train: held-out mIOU " + std::to_string(window.miou) +
                           " not above floor " + std::to_string(kMiouFloor));
  }

  const double images = static_cast<double>(steps * kRanks * kBatchPerRank);
  const auto [tail_q, tail_label] = supported_tail(window.step_ms.size());
  const double p50 = median(window.step_ms);
  const double tail = percentile(window.step_ms, tail_q);
  const double img_per_s = window.seconds > 0 ? images / window.seconds : 0.0;
  result.op_ms_p50 = p50;

  result.headline.set("train.img_per_s", img_per_s, "img/s");
  result.headline.set("train.step_ms_p50", p50, "ms");
  result.headline.set("train.step_ms_p90", percentile(window.step_ms, 90), "ms");
  result.headline.set("train.step_ms_p95", percentile(window.step_ms, 95), "ms");
  result.headline.set("train.step_ms_" + tail_label, tail, "ms");
  result.headline.set("train.steps", static_cast<double>(steps), "count");
  result.headline.set("train.miou", window.miou, "frac");
  result.headline.set("setup_s", median(setup_s), "s");

  result.gated.set("setup_s", median(setup_s), "s");
  result.gated.set("latency_ms_p50", p50, "ms");
  result.gated.set("throughput_per_s", img_per_s, "1/s");

  if (traced && steps > 0) {
    const double n = static_cast<double>(steps);
    const double step_mean = mean(window.step_ms);
    const double hook_ms = (window.begin_ms + window.submit_ms + window.sync_ms) / n;
    Sheet& l = result.layers;
    l.set("train.step_ms", step_mean, "ms");
    l.set("train.compute_ms", step_mean - hook_ms, "ms");
    l.set("hvd.submit_ms", window.submit_ms / n, "ms");
    l.set("hvd.sync_ms", window.sync_ms / n, "ms");
    l.set("hvd.cycles_per_step", static_cast<double>(window.hvd.cycles) / n, "count");
    l.set("hvd.fused_batches_per_step", static_cast<double>(window.hvd.fused_batches) / n,
          "count");
    l.set("hvd.bytes_reduced_per_step", static_cast<double>(window.hvd.bytes_reduced) / n, "B");
    l.set("hvd.control_bytes_per_step", static_cast<double>(window.hvd.control_bytes) / n, "B");
    l.set("hvd.cache_hit_frac",
          window.hvd.cycles == 0 ? 0.0
                                 : static_cast<double>(window.hvd.cache_hit_cycles) /
                                       static_cast<double>(window.hvd.cycles),
          "frac");
    l.set("mpi.messages_per_step", static_cast<double>(window.comm.messages) / n, "count");
    l.set("mpi.bytes_per_step", static_cast<double>(window.comm.bytes) / n, "B");
    l.set("tensor.plan_peak_bytes", static_cast<double>(window.plan_peak_bytes), "B");
    probe_model(config, l, 1.0);
    const double parts = (step_mean - hook_ms) + (window.submit_ms + window.sync_ms) / n;
    result.notes.push_back("train: compute + submit + sync = " + std::to_string(parts) +
                           " ms vs traced step " + std::to_string(step_mean) + " ms (" +
                           std::to_string(100.0 * std::fabs(parts - step_mean) / step_mean) +
                           "% apart; the rest is on_step_begin)");
  }
  return result;
}

}  // namespace dlbench
