// dlbench: the dlscale benchmark binary (see dlbench/README.md).
//
//   dlbench --workload train-dp4|serve-http|sim-summit132 --seed N
//           --seconds S --trace 0|1 --out-dir DIR [--git-sha SHA]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 measures the workload twice (untraced, then traced, half the
// window each) for the tracing overhead, runs the other two phases traced
// on short windows so every layer is measured, writes the Chrome trace to
// DIR, and reports the per-layer metrics. The last stdout line is the
// result object either way.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace dlbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dlbench: %s\nusage: dlbench --workload train-dp4|serve-http|sim-summit132 "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (args.workload != "train-dp4" && args.workload != "serve-http" &&
      args.workload != "sim-summit132") {
    usage("unknown workload");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  return args;
}

using PhaseFn = PhaseResult (*)(const PhaseOptions&);

PhaseFn phase_of(const std::string& workload) {
  if (workload == "train-dp4") return run_train;
  if (workload == "serve-http") return run_serve;
  return run_sim;
}

/// Set-up repeats per workload: enough for a median, cheap enough to fit.
int setups_of(const std::string& workload) { return workload == "train-dp4" ? 7 : 5; }

void print_sheet(const char* prefix, const Sheet& sheet) {
  for (const Metric& m : sheet.items()) {
    std::printf("%s %-32s %14.6g %s\n", prefix, m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, long attempted, long failed, const Sheet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const Metric& m : metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : -1.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const std::filesystem::path out_dir(args.out_dir);
  std::filesystem::create_directories(out_dir);
  const ScratchDir scratch(out_dir);
  const char* threads = std::getenv("DLSCALE_NUM_THREADS");
  std::printf("# dlbench workload=%s seed=%llu seconds=%g trace=%d build=%s nproc=%u "
              "DLSCALE_NUM_THREADS=%s git=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, DLBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              threads ? threads : "(unset)", args.git_sha.c_str());

  PhaseOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.setups = setups_of(args.workload);
  options.scratch = &scratch;
  const PhaseFn own = phase_of(args.workload);

  long attempted = 0;
  long failed = 0;
  std::vector<std::string> notes;
  auto absorb = [&](const PhaseResult& r, const std::string& pass, bool counted = true) {
    if (counted) {
      attempted += r.attempted;
      failed += r.failed;
    }
    for (const std::string& note : r.notes) notes.push_back(pass + note);
  };

  Sheet metrics;
  if (!args.trace) {
    PhaseResult r = own(options);
    absorb(r, "");
    r.headline.set("peak_rss_mb", r.peak_rss_mb, "MB");
    print_sheet("metric", r.headline);
    metrics = r.gated;
    metrics.set("peak_rss_mb", r.peak_rss_mb, "MB");
  } else {
    Trace trace;
    trace.set_metadata("workload", args.workload);
    trace.set_metadata("seed", std::to_string(args.seed));
    trace.set_metadata("git", args.git_sha);
    PhaseOptions half = options;
    half.seconds = args.seconds / 2;
    half.setups = 2;
    const PhaseResult plain = own(half);
    absorb(plain, "untraced ");
    half.trace = &trace;
    const PhaseResult traced = own(half);
    absorb(traced, "traced ");
    print_sheet("metric", traced.headline);
    metrics.append(traced.layers);
    // The other two phases, traced on short windows, so every layer has a
    // number in every traced run. Their output checks are printed but
    // counted only in runs of their own workload.
    for (const char* other : {"train-dp4", "serve-http", "sim-summit132"}) {
      if (args.workload == other) continue;
      PhaseOptions brief = half;
      brief.seconds = std::string(other) == "serve-http" ? 6.0 : 3.0;
      brief.setups = std::string(other) == "train-dp4" ? 2 : 1;
      const PhaseResult r = phase_of(other)(brief);
      absorb(r, "traced ", /*counted=*/false);
      metrics.append(r.layers);
    }
    metrics.set("trace.overhead_frac",
                plain.op_ms_p50 > 0 ? (traced.op_ms_p50 - plain.op_ms_p50) / plain.op_ms_p50 : 0.0,
                "frac");
    const auto path =
        out_dir / ("trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".json");
    trace.write(path);
    std::printf("# trace: %zu spans written to %s\n", trace.size(), path.string().c_str());
  }
  for (const std::string& note : notes) std::printf("# %s\n", note.c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "dlbench: refusing to measure a build with assertions on (NDEBUG unset)\n");
  return 3;
#endif
  if (std::strcmp(DLBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "dlbench: refusing to measure a %s build; configure with Release\n",
                 DLBENCH_BUILD_TYPE);
    return 3;
  }
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dlbench: %s\n", e.what());
    return 1;
  }
}
