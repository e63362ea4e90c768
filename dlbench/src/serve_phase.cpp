// serve-http: an open-loop ladder of POST :predict requests against a
// one-model ModelRegistry behind the HttpServer, over at most four
// keep-alive loopback connections, with a :reload alternating between two
// checkpoints about once a second and GET /stats polled beside them.
//
// One generator thread owns every connection. Each request is due at a
// time drawn from the seed before the window opens; a request that falls
// due while all connections are busy is pipelined on the least-loaded one,
// and every latency is measured from the due time, so a stall is charged
// to all the requests it delays. Server-side queue_us/total_us come back
// in each response; the rest of the round trip is the front-end's.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "dlscale/http/protocol.hpp"
#include "dlscale/http/server.hpp"
#include "dlscale/models/deeplab.hpp"
#include "dlscale/serve/model_registry.hpp"
#include "dlscale/serve/server.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/util/json.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/socket.hpp"

namespace dlbench {
namespace {

namespace serve = dlscale::serve;
namespace http = dlscale::http;
namespace util = dlscale::util;
namespace json = dlscale::util::json;
using dlscale::tensor::Tensor;

constexpr int kConnections = 4;
constexpr double kSloMs = 20.0;
constexpr std::array<double, 3> kRates = {150.0, 300.0, 450.0};
/// Share of the window each rung gets: the 300 req/s rung, whose latency
/// is gated, gets half so its percentiles rest on the most samples.
constexpr std::array<double, 3> kRungShare = {0.25, 0.50, 0.25};
constexpr int kImages = 32;             ///< distinct request bodies
constexpr double kReloadEvery_s = 1.0;
constexpr double kStatsEvery_s = 0.5;
constexpr int kSamplesPerRung = 24;     ///< predict bodies kept for the output check
constexpr std::size_t kMaxBody = 64ull << 20;
constexpr double kDrainLimit_s = 10.0;  ///< after the last due time
const std::string kModel = "seg";

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 32, .width = 16};
  config.workers = 1;
  config.max_batch = 8;
  return config;
}

enum class Kind { kPredict, kReload, kStats };

struct Event {
  double due_s = 0.0;
  Kind kind = Kind::kPredict;
  int item = 0;  ///< image index (predict only)
};

struct Record {
  Clock::time_point due{}, sent{}, done{};
  int status = 0;  ///< HTTP status; -1 when the connection failed
  double queue_us = 0.0;
  double total_us = 0.0;
  bool sampled = false;
  std::string body;  ///< kept for sampled predicts only
};

struct Connection {
  util::Socket socket;
  bool open = true;
  /// Requests the socket has not fully taken yet (they point into the
  /// prebuilt Bodies), and how much of the first one went out already.
  /// Nothing is copied, so a deep backlog costs the generator no more per
  /// send than an empty one.
  std::deque<const std::string*> out;
  std::size_t out_offset = 0;
  std::string in;
  std::deque<std::size_t> inflight;  ///< record indices, in send order
};

/// The request bytes the generator sends, all built before any window.
struct Bodies {
  std::vector<Tensor> images;
  std::vector<std::string> predict_json;  ///< PredictRequest bodies
  std::vector<std::string> predict;       ///< serialized HTTP requests
  std::array<std::string, 2> reload;
  std::string stats;
};

Bodies make_bodies(std::uint64_t seed, const std::array<std::string, 2>& checkpoints) {
  Bodies bodies;
  const auto m = serve_config().model;
  const util::Rng root = util::Rng(seed).child(0x5E77E);
  for (int i = 0; i < kImages; ++i) {
    util::Rng rng = root.child(static_cast<std::uint64_t>(i));
    Tensor image = Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
    http::PredictRequest predict;
    predict.shape.assign(image.shape().begin(), image.shape().end());
    predict.image.assign(image.ptr(), image.ptr() + image.numel());
    http::Request request;
    request.method = "POST";
    request.target = "/v1/models/" + kModel + ":predict";
    request.body = json::to_json(predict);
    bodies.predict_json.push_back(request.body);
    bodies.predict.push_back(http::serialize(request));
    bodies.images.push_back(std::move(image));
  }
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    http::Request request;
    request.method = "POST";
    request.target = "/v1/models/" + kModel + ":reload";
    request.body =
        json::to_json(http::ReloadRequest{.checkpoint = checkpoints[c], .precision = ""});
    bodies.reload[c] = http::serialize(request);
  }
  http::Request stats;
  stats.method = "GET";
  stats.target = "/stats";
  bodies.stats = http::serialize(stats);
  return bodies;
}

/// Poisson predict arrivals at `rate` over `duration_s`, plus the reload
/// and /stats cadence, sorted by due time.
std::vector<Event> schedule(util::Rng rng, double rate, double duration_s) {
  std::vector<Event> events;
  for (double t = -std::log(1.0 - rng.uniform()) / rate; t < duration_s;
       t += -std::log(1.0 - rng.uniform()) / rate) {
    events.push_back({t, Kind::kPredict, static_cast<int>(rng.uniform_index(kImages))});
  }
  for (double t = kReloadEvery_s / 2; t < duration_s; t += kReloadEvery_s) {
    events.push_back({t, Kind::kReload, 0});
  }
  for (double t = kStatsEvery_s / 4; t < duration_s; t += kStatsEvery_s) {
    events.push_back({t, Kind::kStats, 0});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due_s < b.due_s; });
  return events;
}

double field_after(std::string_view body, std::string_view key) {
  const std::size_t at = body.rfind(key);
  if (at == std::string_view::npos) return 0.0;
  std::string number(body.substr(at + key.size(), 32));
  return std::strtod(number.c_str(), nullptr);
}

/// Frames every complete response buffered on `conn`, completing the
/// oldest in-flight record for each. Returns how many completed.
std::size_t take_responses(Connection& conn, std::vector<Record>& records,
                           const std::vector<Event>& events, Clock::time_point now) {
  std::size_t completed = 0;
  for (;;) {
    const std::size_t head_end = conn.in.find("\r\n\r\n");
    if (head_end == std::string::npos) break;
    const http::Response head =
        http::parse_response_head(std::string_view(conn.in).substr(0, head_end));
    const std::size_t length = http::content_length(head.headers, kMaxBody);
    if (conn.in.size() < head_end + 4 + length) break;
    if (conn.inflight.empty()) throw std::runtime_error("serve: response with no request");
    Record& r = records[conn.inflight.front()];
    const Event& e = events[conn.inflight.front()];
    conn.inflight.pop_front();
    const std::string_view body(conn.in.data() + head_end + 4, length);
    r.done = now;
    r.status = head.status;
    if (e.kind == Kind::kPredict && head.status == 200) {
      r.queue_us = field_after(body, "\"queue_us\":");
      r.total_us = field_after(body, "\"total_us\":");
      if (r.sampled) r.body = std::string(body);
    }
    conn.in.erase(0, head_end + 4 + length);
    ++completed;
  }
  return completed;
}

struct RungResult {
  double rate = 0.0;
  std::vector<Record> records;
  std::vector<Event> events;
  std::array<long, 4> backlog{};  ///< outstanding requests at each quarter
  double duration_s = 0.0;
  long failed = 0;
};

/// Writes what the socket takes now of the queued requests, without
/// blocking; the rest goes out as the socket drains. Returns false when the
/// connection has failed.
bool flush(Connection& conn) {
  while (!conn.out.empty()) {
    const std::string& front = *conn.out.front();
    const ssize_t n = ::send(conn.socket.fd(), front.data() + conn.out_offset,
                             front.size() - conn.out_offset, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      if (conn.out_offset == front.size()) {
        conn.out.pop_front();
        conn.out_offset = 0;
      }
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

Clock::duration as_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Drives one rung's schedule through the connections (open loop). Sends
/// never block, so a server busy writing a response can never stall the
/// generator into a deadlock with it.
RungResult drive(std::vector<Connection>& conns, const Bodies& bodies, std::vector<Event> events,
                 double rate, double duration_s, int& reload_counter) {
  RungResult rung;
  rung.rate = rate;
  rung.duration_s = duration_s;
  rung.events = std::move(events);
  const std::vector<Event>& ev = rung.events;
  std::vector<Record>& records = rung.records;
  records.resize(ev.size());
  const long predicts = std::count_if(ev.begin(), ev.end(),
                                      [](const Event& e) { return e.kind == Kind::kPredict; });
  const long sample_every = std::max(1L, predicts / kSamplesPerRung);
  std::vector<int> reload_target(ev.size(), 0);
  for (std::size_t i = 0, seen = 0; i < ev.size(); ++i) {
    if (ev[i].kind == Kind::kPredict) records[i].sampled = (seen++ % sample_every) == 0;
    if (ev[i].kind == Kind::kReload) reload_target[i] = (++reload_counter) % 2;
  }
  auto bytes_of = [&](std::size_t i) -> const std::string& {
    switch (ev[i].kind) {
      case Kind::kPredict:
        return bodies.predict[static_cast<std::size_t>(ev[i].item)];
      case Kind::kReload:
        return bodies.reload[static_cast<std::size_t>(reload_target[i])];
      case Kind::kStats:
        break;
    }
    return bodies.stats;
  };
  auto fail = [&](Connection& conn, Clock::time_point when, std::size_t& completed) {
    for (std::size_t i : conn.inflight) {
      records[i].status = -1;
      records[i].done = when;
      ++completed;
    }
    conn.inflight.clear();
    conn.out.clear();
    conn.open = false;
  };

  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](std::size_t i) { return origin + as_duration(ev[i].due_s); };
  const auto deadline = origin + as_duration(duration_s + kDrainLimit_s);
  std::size_t next = 0;
  std::size_t completed = 0;
  int quarter = 0;
  std::vector<pollfd> fds(conns.size());
  std::vector<char> chunk(1 << 16);
  while (completed < ev.size()) {
    Clock::time_point now = Clock::now();
    while (next < ev.size() && due_at(next) <= now) {
      // Least-loaded open connection; pipelines when every one is busy.
      std::size_t pick = conns.size();
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (conns[c].open && (pick == conns.size() ||
                              conns[c].inflight.size() < conns[pick].inflight.size())) {
          pick = c;
        }
      }
      Record& r = records[next];
      r.due = due_at(next);
      r.sent = Clock::now();
      if (pick < conns.size()) {
        conns[pick].inflight.push_back(next);
        conns[pick].out.push_back(&bytes_of(next));
        if (!flush(conns[pick])) fail(conns[pick], r.sent, completed);
      } else {
        r.status = -1;
        r.done = r.sent;
        ++completed;
      }
      ++next;
      now = Clock::now();
    }
    while (quarter < 4 && now >= origin + as_duration(duration_s * (quarter + 1) / 4.0)) {
      rung.backlog[static_cast<std::size_t>(quarter++)] =
          static_cast<long>(next) - static_cast<long>(completed);
    }
    if (now > deadline) break;
    Clock::time_point wake = now + std::chrono::milliseconds(50);
    if (next < ev.size()) wake = std::min(wake, due_at(next));
    const auto wait = std::max<Clock::duration>(Clock::duration::zero(), wake - now);
    const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    for (std::size_t c = 0; c < conns.size(); ++c) {
      const auto wanted = static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      fds[c] = {conns[c].open ? conns[c].socket.fd() : -1, wanted, 0};
    }
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    const auto arrived = Clock::now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = conns[c];
      if ((fds[c].revents & POLLOUT) != 0 && !flush(conn)) {
        fail(conn, arrived, completed);
        continue;
      }
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const long n = conn.socket.recv_some(chunk.data(), chunk.size());
      if (n <= 0) {
        fail(conn, arrived, completed);  // the server dropped the connection
        continue;
      }
      conn.in.append(chunk.data(), static_cast<std::size_t>(n));
      completed += take_responses(conn, records, ev, arrived);
    }
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (records[i].status != 200) ++rung.failed;
  }
  return rung;
}

struct Deployment {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<http::HttpServer> frontend;
  std::vector<Connection> conns;

  ~Deployment() {
    conns.clear();  // clients hang up first, so connection threads see EOF
    if (frontend) frontend->shutdown();
    frontend.reset();
    registry.reset();
  }
};

void write_checkpoint(std::uint64_t seed, const std::string& path) {
  util::Rng rng(seed);
  dlscale::models::MiniDeepLabV3Plus model(serve_config().model, rng);
  dlscale::train::save_model(model.parameters(), model.buffers(), path);
}

/// Set-up: both checkpoints on disk, the model registered, the front-end
/// listening, every connection open and warmed by one predict.
std::unique_ptr<Deployment> deploy(std::uint64_t seed,
                                   const std::array<std::string, 2>& checkpoints,
                                   const Bodies& bodies) {
  write_checkpoint(util::Rng(seed).child(0xA)(), checkpoints[0]);
  write_checkpoint(util::Rng(seed).child(0xB)(), checkpoints[1]);
  auto d = std::make_unique<Deployment>();
  d->registry = std::make_unique<serve::ModelRegistry>();
  d->registry->add_model(kModel, serve_config(), checkpoints[0]);
  d->frontend = std::make_unique<http::HttpServer>(*d->registry);
  for (int c = 0; c < kConnections; ++c) {
    Connection conn;
    conn.socket = util::Socket::connect_loopback(d->frontend->port());
    d->conns.push_back(std::move(conn));
  }
  std::vector<Event> warm;
  for (int c = 0; c < kConnections; ++c) warm.push_back({0.0, Kind::kPredict, c});
  int no_reloads = 0;
  const RungResult r = drive(d->conns, bodies, warm, 1.0, 0.0, no_reloads);
  if (r.failed != 0) throw std::runtime_error("serve: warm-up predict failed");
  return d;
}

struct LadderStats {
  std::vector<double> rtt_ms, late_ms, queue_ms, model_ms, frontend_ms, reload_ms, stats_ms;
};

void collect(const RungResult& rung, LadderStats& s, Trace* trace, std::uint64_t& op) {
  for (std::size_t i = 0; i < rung.events.size(); ++i) {
    const Record& r = rung.records[i];
    if (r.status != 200) continue;
    const double rtt = ms_between(r.due, r.done);
    switch (rung.events[i].kind) {
      case Kind::kReload:
        s.reload_ms.push_back(rtt);
        if (trace) trace->span("serve.reload", r.due, r.done, 0, op++, 3);
        continue;
      case Kind::kStats:
        s.stats_ms.push_back(rtt);
        if (trace) trace->span("http.stats", r.due, r.done, 0, op++, 3);
        continue;
      case Kind::kPredict:
        break;
    }
    s.rtt_ms.push_back(rtt);
    s.late_ms.push_back(ms_between(r.due, r.sent));
    s.queue_ms.push_back(r.queue_us / 1e3);
    s.model_ms.push_back((r.total_us - r.queue_us) / 1e3);
    s.frontend_ms.push_back(rtt - r.total_us / 1e3);
    if (trace) {
      // Server-side children are placed to end when the response arrived;
      // their lengths are the server's own queue_us / total_us.
      const auto us = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(v));
      };
      const auto server_start = r.done - us(r.total_us);
      const std::uint64_t id = trace->span("serve.request", r.due, r.done, 0, op, 2);
      trace->span("gen.late", r.due, r.sent, id, op, 2);
      const std::uint64_t srv = trace->span("server.total", server_start, r.done, id, op, 2);
      trace->span("server.queue", server_start, server_start + us(r.queue_us), srv, op, 2);
      trace->span("server.model", server_start + us(r.queue_us), r.done, srv, op, 2);
      ++op;
    }
  }
}

/// Compares sampled HTTP answers with in-process Server::submit on the
/// same image and checkpoint version; returns {checked, mismatched}.
std::pair<long, long> verify(const std::vector<RungResult>& rungs, const Bodies& bodies,
                             const std::array<std::string, 2>& checkpoints,
                             std::vector<std::string>& notes, http::PredictResponse& sample) {
  std::array<std::unique_ptr<serve::Server>, 2> reference;
  for (std::size_t c = 0; c < 2; ++c) {
    reference[c] = std::make_unique<serve::Server>(serve_config(), checkpoints[c]);
  }
  long checked = 0;
  long mismatched = 0;
  for (const RungResult& rung : rungs) {
    for (std::size_t i = 0; i < rung.events.size(); ++i) {
      const Record& r = rung.records[i];
      if (!r.sampled || r.status != 200) continue;
      ++checked;
      const http::PredictResponse got = json::from_json<http::PredictResponse>(r.body);
      // Version 1 is the first checkpoint; every reload alternates.
      const std::size_t which = static_cast<std::size_t>((got.model_version - 1) % 2);
      const auto item = static_cast<std::size_t>(rung.events[i].item);
      auto future = reference[which]->submit(Tensor(bodies.images[item]));
      if (!future) throw std::runtime_error("serve: reference server rejected a request");
      const serve::Response want = future->get();
      const bool same =
          got.logits.size() == want.logits.numel() &&
          std::memcmp(got.logits.data(), want.logits.ptr(),
                      got.logits.size() * sizeof(float)) == 0 &&
          got.labels == want.labels;
      if (!same) {
        ++mismatched;
        notes.push_back("serve: sampled response " + std::to_string(i) + " (model version " +
                        std::to_string(got.model_version) + ") differs from in-process submit");
      }
      sample = got;
    }
  }
  return {checked, mismatched};
}

template <typename F>
double median_us(int reps, F&& call) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    call();
    us.push_back(1e3 * ms_between(t0, Clock::now()));
  }
  return median(us);
}

std::string rate_name(double rate) { return "r" + std::to_string(static_cast<int>(rate)); }

}  // namespace

PhaseResult run_serve(const PhaseOptions& options) {
  const bool traced = options.trace != nullptr;
  const std::array<std::string, 2> checkpoints = {options.scratch->file("serve-a.bin"),
                                                  options.scratch->file("serve-b.bin")};
  const Bodies bodies = make_bodies(options.seed, checkpoints);
  std::array<std::vector<Event>, kRates.size()> schedules;
  std::array<double, kRates.size()> durations{};
  for (std::size_t k = 0; k < kRates.size(); ++k) {
    durations[k] = options.seconds * kRungShare[k];
    schedules[k] = schedule(util::Rng(options.seed).child(0x1AD0 + k), kRates[k], durations[k]);
  }

  PhaseResult result;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> live;
  for (int rep = 0; rep < std::max(1, options.setups); ++rep) {
    live.reset();
    const auto t0 = Clock::now();
    live = deploy(options.seed, checkpoints, bodies);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<RungResult> rungs;
  int reload_counter = 0;
  for (std::size_t k = 0; k < kRates.size(); ++k) {
    rungs.push_back(
        drive(live->conns, bodies, schedules[k], kRates[k], durations[k], reload_counter));
  }
  const double mean_batch = live->registry->stats(kModel).mean_batch_size;
  result.peak_rss_mb = peak_rss_mb();
  live.reset();

  // Off the timed path: outputs, then the per-rung numbers.
  http::PredictResponse sample;
  const auto [checked, mismatched] = verify(rungs, bodies, checkpoints, result.notes, sample);
  result.failed += mismatched;
  result.attempted += checked;

  LadderStats pooled;
  std::uint64_t op = 0;
  double best_rate = 0.0;
  double top_goodput = 0.0;
  for (RungResult& rung : rungs) {
    LadderStats s;
    collect(rung, s, options.trace, op);
    result.attempted += static_cast<long>(rung.events.size());
    result.failed += rung.failed;
    const auto [q, label] = supported_tail(s.rtt_ms.size());
    const double p50 = median(s.rtt_ms);
    const double tail = percentile(s.rtt_ms, q);
    const long predicted = static_cast<long>(s.rtt_ms.size());
    const long half = static_cast<long>(rung.rate * rung.duration_s / 2);
    const bool growing = rung.backlog[3] - rung.backlog[1] > std::max(8L, half / 50);
    const bool meets = rung.failed == 0 && !growing && tail <= kSloMs;
    const std::string name = "serve." + rate_name(rung.rate);
    result.headline.set(name + ".p50_ms", p50, "ms");
    result.headline.set(name + ".p90_ms", percentile(s.rtt_ms, 90), "ms");
    if (q != 95.0) result.headline.set(name + ".p95_ms", percentile(s.rtt_ms, 95), "ms");
    result.headline.set(name + "." + label + "_ms", tail, "ms");
    result.headline.set(name + ".requests", static_cast<double>(predicted), "count");
    std::string backlog;
    for (long b : rung.backlog) backlog += (backlog.empty() ? "" : "/") + std::to_string(b);
    result.notes.push_back(name + ": " + std::to_string(predicted) +
                           " predicts, backlog at quarters " + backlog +
                           (growing ? " (growing)" : "") + (meets ? ", meets" : ", misses") +
                           " the 20 ms " + label + " limit");
    if (meets) best_rate = rung.rate;
    // Answers inside the limit per second at the top rung: falls smoothly
    // as latency or failures grow, where the ladder only steps.
    if (&rung == &rungs.back()) {
      const auto within = std::count_if(s.rtt_ms.begin(), s.rtt_ms.end(),
                                        [](double ms) { return ms <= kSloMs; });
      top_goodput = static_cast<double>(within) / rung.duration_s;
    }
    if (rung.rate == 300.0) {
      result.gated.set("latency_ms_p50", p50, "ms");
      result.op_ms_p50 = p50;
    }
    for (auto [from, to] :
         {std::pair{&s.rtt_ms, &pooled.rtt_ms}, {&s.late_ms, &pooled.late_ms},
          {&s.queue_ms, &pooled.queue_ms}, {&s.model_ms, &pooled.model_ms},
          {&s.frontend_ms, &pooled.frontend_ms}, {&s.reload_ms, &pooled.reload_ms},
          {&s.stats_ms, &pooled.stats_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  result.headline.set("serve.max_rps_at_slo", best_rate, "req/s");
  result.headline.set("serve.r450.goodput_at_slo", top_goodput, "req/s");
  result.headline.set("gen.late_ms_p99", percentile(pooled.late_ms, 99.0), "ms");
  result.headline.set("setup_s", median(setup_s), "s");
  result.gated.set("setup_s", median(setup_s), "s");
  result.gated.set("throughput_per_s", top_goodput, "1/s");

  if (traced) {
    Sheet& l = result.layers;
    l.set("serve.queue_ms_p50", percentile(pooled.queue_ms, 50), "ms");
    l.set("serve.queue_ms_p99", percentile(pooled.queue_ms, 99), "ms");
    l.set("serve.model_ms_p50", percentile(pooled.model_ms, 50), "ms");
    l.set("serve.model_ms_p99", percentile(pooled.model_ms, 99), "ms");
    l.set("serve.mean_batch", mean_batch, "count");
    l.set("serve.reload_ms", median(pooled.reload_ms), "ms");
    l.set("http.frontend_ms_p50", percentile(pooled.frontend_ms, 50), "ms");
    l.set("http.frontend_ms_p99", percentile(pooled.frontend_ms, 99), "ms");
    l.set("http.stats_ms", median(pooled.stats_ms), "ms");
    l.set("gen.late_ms_p99", percentile(pooled.late_ms, 99.0), "ms");
    std::size_t next_body = 0;
    l.set("json.decode_req_us", median_us(200, [&] {
            const auto& text = bodies.predict_json[next_body++ % bodies.predict_json.size()];
            (void)json::from_json<http::PredictRequest>(text);
          }), "us");
    l.set("json.encode_resp_us", median_us(200, [&] { (void)json::to_json(sample); }), "us");
    // queue + model + front-end equals the round trip by construction for
    // every request; report the worst disagreement as a check of the split.
    double worst = 0.0;
    for (std::size_t i = 0; i < pooled.rtt_ms.size(); ++i) {
      worst = std::max(worst, std::fabs(pooled.queue_ms[i] + pooled.model_ms[i] +
                                        pooled.frontend_ms[i] - pooled.rtt_ms[i]));
    }
    result.notes.push_back("serve: queue + model + front-end vs round trip, worst gap " +
                           std::to_string(worst) + " ms over " +
                           std::to_string(pooled.rtt_ms.size()) + " requests");
  }
  return result;
}

}  // namespace dlbench
