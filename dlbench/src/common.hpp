// Shared pieces of the dlscale benchmark: clocks, sample statistics, the
// metric sheet each phase fills, the in-memory span recorder behind the
// traced run, and a per-process scratch directory.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dlbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

/// Linear-interpolated percentile, `q` in [0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Highest of p99/p95/p90/p50 that leaves at least ten samples above it
/// (the tail a sample of `n` supports), as {q, label}.
[[nodiscard]] std::pair<double, std::string> supported_tail(std::size_t n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> {value, unit} list.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& items() const noexcept { return items_; }
  void append(const Sheet& other);

 private:
  std::vector<Metric> items_;
};

/// What one phase measured. `headline` holds the user-facing numbers by
/// their own names (printed), `gated` the shared end-to-end metrics that
/// go into the result line, `layers` the per-layer metrics.
struct PhaseResult {
  Sheet headline;
  Sheet gated;
  Sheet layers;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> notes;  ///< one line each, printed before the result
  double op_ms_p50 = 0.0;          ///< the phase's median operation time
  /// Process peak RSS when the timed window closed, before the output
  /// checks (whose reference models and evaluation would add their own).
  double peak_rss_mb = 0.0;
};

[[nodiscard]] double peak_rss_mb();

/// Span recorder for the traced run. Spans are kept in memory (at most
/// kMaxSpans) and written as Chrome-trace JSON at exit.
class Trace {
 public:
  static constexpr std::size_t kMaxSpans = 400000;

  Trace();

  /// Records one finished span on track `tid`; returns its span id (0 once
  /// full). `parent` is the id of the enclosing span, `op` the
  /// step or request id the span belongs to.
  std::uint64_t span(const std::string& name, Clock::time_point start, Clock::time_point end,
                     std::uint64_t parent, std::uint64_t op, int tid);

  /// Adds a pre-rendered track of Chrome-trace events (a JSON array) under
  /// process id `pid`, e.g. the Horovod virtual-time timeline.
  void add_track(int pid, const std::string& name, const std::string& events_json);

  void set_metadata(const std::string& key, const std::string& value);

  [[nodiscard]] std::size_t size() const;
  void write(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    int tid;
  };
  struct Track {
    int pid;
    std::string name;
    std::string events_json;
  };

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
  std::vector<Track> tracks_;
  std::vector<std::pair<std::string, std::string>> metadata_;
  std::uint64_t next_id_ = 1;
};

/// Uniquely named scratch directory (pid + counter) under `parent`,
/// removed with everything in it when the object dies.
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

/// Everything a phase needs from the command line.
struct PhaseOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 3;          ///< set-up repeats (setup_s is their median)
  Trace* trace = nullptr;  ///< non-null in the traced run
  const ScratchDir* scratch = nullptr;
};

PhaseResult run_train(const PhaseOptions& options);
PhaseResult run_serve(const PhaseOptions& options);
PhaseResult run_sim(const PhaseOptions& options);

}  // namespace dlbench
