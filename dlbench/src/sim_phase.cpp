// sim-summit132: the Summit simulator at 22 nodes (132 GPUs) on the
// tier-1 headline configurations — Spectrum-like MPI with Horovod's
// defaults, and MVAPICH2-GDR-like MPI with the paper's tuned knobs. Each
// operation is one headline comparison: both simulate() calls, checked
// against the Simulate.PaperHeadlineNumbers bounds. The traced run adds
// direct mpi::run_world probes at the same scale.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "dlscale/mpi/comm.hpp"
#include "dlscale/perf/simulator.hpp"

namespace dlbench {
namespace {

namespace perf = dlscale::perf;
namespace net = dlscale::net;
namespace hvd = dlscale::hvd;
namespace mpi = dlscale::mpi;

constexpr int kNodes = 22;
constexpr std::size_t kProbeBytes = 64ull << 20;

/// The configuration tests/perf/test_simulator.cpp gates the headline on.
perf::ScalingConfig headline_config(int nodes, net::MpiProfile profile, hvd::Knobs knobs) {
  perf::ScalingConfig config;
  config.workload = dlscale::models::WorkloadSpec::deeplab_v3plus(4);
  config.nodes = nodes;
  config.flop_efficiency = perf::Calibration::paper_defaults().deeplab_efficiency;
  config.mpi_profile = std::move(profile);
  config.knobs = knobs;
  config.warmup_iterations = 1;
  config.iterations = 2;
  return config;
}

perf::ScalingConfig default_config(int nodes) {
  return headline_config(nodes, net::MpiProfile::spectrum_like(), hvd::Knobs::horovod_defaults());
}
perf::ScalingConfig tuned_config(int nodes) {
  return headline_config(nodes, net::MpiProfile::mvapich2_gdr_like(), hvd::Knobs::paper_tuned());
}

struct Run {
  perf::ScalingResult result;
  double wall_s = 0.0;
};

Run timed_simulate(const perf::ScalingConfig& config, Trace* trace, const char* name,
                   std::uint64_t op) {
  const auto t0 = Clock::now();
  Run run{perf::simulate(config), 0.0};
  const auto t1 = Clock::now();
  run.wall_s = seconds_between(t0, t1);
  if (trace) trace->span(name, t0, t1, 0, op, 4);
  return run;
}

/// The PaperHeadlineNumbers bounds, unchanged. Returns the ones missed.
std::vector<std::string> headline_misses(const perf::ScalingResult& fallback,
                                         const perf::ScalingResult& tuned) {
  std::vector<std::string> misses;
  auto check = [&](const char* what, double value, double target, double tolerance) {
    if (std::fabs(value - target) > tolerance) {
      char line[160];
      std::snprintf(line, sizeof line, "%s %.4f outside %.3f +/- %.3f", what, value, target,
                    tolerance);
      misses.emplace_back(line);
    }
  };
  check("tuned efficiency", tuned.scaling_efficiency, 0.92, 0.04);
  check("default efficiency", fallback.scaling_efficiency, 0.68, 0.05);
  check("efficiency gain", tuned.scaling_efficiency - fallback.scaling_efficiency, 0.239, 0.06);
  check("throughput ratio", tuned.images_per_s / fallback.images_per_s, 1.3, 0.15);
  return misses;
}

/// Wall time of one collective in a timing-only 132-rank Summit world,
/// between two barriers on rank 0.
double probe_allreduce_ms(bool hierarchical) {
  mpi::WorldOptions world;
  world.topology = net::Topology::summit(kNodes);
  world.profile = net::MpiProfile::mvapich2_gdr_like();
  world.timing = true;
  double ms = 0.0;
  mpi::run_world(world, [&](mpi::Communicator& comm) {
    comm.barrier();
    const auto t0 = Clock::now();
    if (hierarchical) {
      comm.hierarchical_allreduce_sim(kProbeBytes);
    } else {
      comm.allreduce_sim(kProbeBytes, mpi::MemSpace::kDevice, mpi::AllreduceAlgo::kRing);
    }
    comm.barrier();
    if (comm.rank() == 0) ms = ms_between(t0, Clock::now());
  });
  return ms;
}

}  // namespace

PhaseResult run_sim(const PhaseOptions& options) {
  Trace* trace = options.trace;
  PhaseResult result;

  // Set-up: the configurations plus a one-node run of each, which warms
  // the workload profile, the world machinery and the allocator.
  std::vector<double> setup_s;
  for (int rep = 0; rep < std::max(1, options.setups); ++rep) {
    const auto t0 = Clock::now();
    (void)perf::simulate(default_config(1));
    (void)perf::simulate(tuned_config(1));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const perf::ScalingConfig fallback_cfg = default_config(kNodes);
  const perf::ScalingConfig tuned_cfg = tuned_config(kNodes);
  std::vector<double> pair_ms, default_s, tuned_s, default_eff, tuned_eff;
  std::array<hvd::RuntimeStats, 2> last_stats;  ///< default, tuned
  const auto start = Clock::now();
  // Pairs until the window ends at the pair boundary nearest --seconds.
  do {
    const auto op = static_cast<std::uint64_t>(pair_ms.size());
    const auto t0 = Clock::now();
    const Run fallback = timed_simulate(fallback_cfg, trace, "sim.default", op);
    const Run tuned = timed_simulate(tuned_cfg, trace, "sim.tuned", op);
    pair_ms.push_back(ms_between(t0, Clock::now()));
    default_s.push_back(fallback.wall_s);
    tuned_s.push_back(tuned.wall_s);
    default_eff.push_back(fallback.result.scaling_efficiency);
    tuned_eff.push_back(tuned.result.scaling_efficiency);
    ++result.attempted;
    const auto misses = headline_misses(fallback.result, tuned.result);
    if (!misses.empty()) ++result.failed;
    for (const std::string& miss : misses) {
      result.notes.push_back("sim: headline pair " + std::to_string(op) + ": " + miss);
    }
    last_stats = {fallback.result.hvd_stats, tuned.result.hvd_stats};
  } while (seconds_between(start, Clock::now()) + mean(pair_ms) / 2e3 < options.seconds);
  const double window_s = seconds_between(start, Clock::now());
  result.peak_rss_mb = peak_rss_mb();

  auto spread = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end()) - *std::min_element(v.begin(), v.end());
  };
  const double eff_spread = std::max(spread(default_eff), spread(tuned_eff));
  result.op_ms_p50 = median(pair_ms);
  result.headline.set("sim.default_run_s", median(default_s), "s");
  result.headline.set("sim.tuned_run_s", median(tuned_s), "s");
  result.headline.set("sim.default_eff", median(default_eff), "frac");
  result.headline.set("sim.tuned_eff", median(tuned_eff), "frac");
  result.headline.set("sim.eff_spread", eff_spread, "frac");
  result.headline.set("sim.pairs", static_cast<double>(pair_ms.size()), "count");
  result.headline.set("setup_s", median(setup_s), "s");

  result.gated.set("setup_s", median(setup_s), "s");
  result.gated.set("latency_ms_p50", median(pair_ms), "ms");
  result.gated.set("throughput_per_s", 2.0 * static_cast<double>(pair_ms.size()) / window_s,
                   "1/s");

  if (trace != nullptr) {
    Sheet& l = result.layers;
    const std::array<const char*, 2> names = {"default", "tuned"};
    const std::array<const std::vector<double>*, 2> walls = {&default_s, &tuned_s};
    for (std::size_t c = 0; c < 2; ++c) {
      const hvd::RuntimeStats& stats = last_stats[c];
      const std::string suffix = std::string(".") + names[c];
      l.set("hvd.sim_cycles" + suffix, static_cast<double>(stats.cycles), "count");
      l.set("hvd.sim_fused_batches" + suffix, static_cast<double>(stats.fused_batches), "count");
      l.set("sim.ms_per_cycle" + suffix,
            stats.cycles == 0 ? 0.0 : 1e3 * median(*walls[c]) / static_cast<double>(stats.cycles),
            "ms");
    }
    std::vector<double> spawn, hier, ring;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      mpi::run_world(kNodes * 6, [](mpi::Communicator&) {});
      const auto t1 = Clock::now();
      spawn.push_back(ms_between(t0, t1));
      trace->span("mpi.spawn", t0, t1, 0, static_cast<std::uint64_t>(rep), 4);
      hier.push_back(probe_allreduce_ms(true));
      ring.push_back(probe_allreduce_ms(false));
    }
    l.set("mpi.spawn_ms", median(spawn), "ms");
    l.set("mpi.allreduce_hier_ms", median(hier), "ms");
    l.set("mpi.allreduce_ring_ms", median(ring), "ms");
  }
  return result;
}

}  // namespace dlbench
