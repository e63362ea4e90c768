#include "common.hpp"

#include "dlscale/util/mem_stats.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace dlbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::pair<double, std::string> supported_tail(std::size_t n) {
  for (const auto& [q, label] : {std::pair<double, const char*>{99.0, "p99"},
                                 {95.0, "p95"},
                                 {90.0, "p90"}}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) return {q, label};
  }
  return {50.0, "p50"};
}

double peak_rss_mb() {
  return static_cast<double>(dlscale::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void Sheet::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

void Sheet::append(const Sheet& other) {
  for (const Metric& m : other.items_) set(m.name, m.value, m.unit);
}

namespace {

std::string escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Trace::Trace() : origin_(Clock::now()) { spans_.reserve(1u << 16); }

std::uint64_t Trace::span(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t parent, std::uint64_t op,
                          int tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) return 0;
  const std::uint64_t id = next_id_++;
  spans_.push_back({name, 1e6 * seconds_between(origin_, start),
                    1e6 * seconds_between(origin_, end), id, parent, op, tid});
  return id;
}

void Trace::add_track(int pid, const std::string& name, const std::string& events_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracks_.push_back({pid, name, events_json});
}

void Trace::set_metadata(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  metadata_.emplace_back(key, value);
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Trace::write(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  for (std::size_t i = 0; i < metadata_.size(); ++i) {
    out << (i ? "," : "") << '"' << escaped(metadata_[i].first) << "\":\""
        << escaped(metadata_[i].second) << '"';
  }
  out << "},\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"dlbench wall time\"}}";
  for (const Span& s : spans_) {
    out << ",\n{\"name\":\"" << escaped(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << "}}";
  }
  for (const Track& t : tracks_) {
    out << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << t.pid
        << ",\"args\":{\"name\":\"" << escaped(t.name) << "\"}}";
    // The track is a JSON array of complete events; splice its elements in
    // with their pid rewritten so the track gets its own process row.
    const std::size_t open = t.events_json.find('[');
    const std::size_t close = t.events_json.rfind(']');
    if (open == std::string::npos || close == std::string::npos || close <= open + 1) continue;
    std::string body = t.events_json.substr(open + 1, close - open - 1);
    const std::string from = "\"pid\": 0";
    const std::string to = "\"pid\": " + std::to_string(t.pid);
    for (std::size_t at = body.find(from); at != std::string::npos;
         at = body.find(from, at + to.size())) {
      body.replace(at, from.size(), to);
    }
    if (body.find_first_not_of(" \n\r\t") != std::string::npos) out << "," << body;
  }
  out << "\n]}\n";
}

ScratchDir::ScratchDir(const std::filesystem::path& parent) {
  static std::atomic<int> counter{0};
  path_ = parent / ("tmp-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace dlbench
