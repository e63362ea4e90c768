// The typed JSON codec (util/json.hpp to_json/from_json) against the
// Value reference (parse/write): pinned wire bytes, bitwise float
// round trips, and a seeded mutation corpus asserting that from_json
// rejects malformed text exactly when parse() does, at the same byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dlscale/http/protocol.hpp"
#include "dlscale/util/json.hpp"

namespace dh = dlscale::http;
namespace dj = dlscale::util::json;

namespace {

std::vector<float> tricky_floats() {
  std::vector<float> v = {0.0f, -0.0f, FLT_MAX, -FLT_MAX, FLT_TRUE_MIN, -FLT_TRUE_MIN,
                          FLT_MIN, 1.0f / 3.0f, 0.1f, -1.5e-40f, 123456.789f, 1e-7f,
                          16777216.0f, 3.0f, -2.5f};
  std::uint32_t state = 0x9e3779b9u;
  while (v.size() < 32) {
    state = state * 1664525u + 1013904223u;
    float f;
    std::memcpy(&f, &state, sizeof f);
    if (std::isfinite(f)) v.push_back(f);
  }
  return v;
}

dh::PredictRequest sample_predict_request() {
  dh::PredictRequest r;
  r.shape = {1, 2, 4, 4};
  r.image = tricky_floats();
  return r;
}

dh::PredictResponse sample_predict_response() {
  dh::PredictResponse r;
  r.model = "seg-fp32";
  r.model_version = 3;
  r.precision = "int8";
  r.batch_size = 2;
  r.shape = {1, 2, 4, 4};
  r.logits = tricky_floats();
  r.labels = {0, 1, 1, 0, 5, 2, 0, 0, 1, 3, 3, 3, 0, 1, 0, 1};
  r.queue_us = 12.5;
  r.total_us = 830.0625;
  return r;
}

dh::ErrorResponse sample_error_response() {
  dh::ErrorResponse r;
  r.error = "bad \"shape\"\n\t\x01 \xc3\xa9 back\\slash /";
  r.model = "seg-int8";
  r.expected_shape = {1, 3, 16, 16};
  r.known_models = {"a", "b/c", ""};
  return r;
}

dh::StatsResponse sample_stats_response() {
  dh::StatsResponse r;
  r.server.port = 8080;
  r.server.draining = true;
  r.server.connections = 3;
  r.server.requests = 1ull << 40;
  r.server.http_errors = 2;
  dh::ModelStatsJson a;
  a.name = "seg-fp32";
  a.model_version = 4;
  a.accepted = 100;
  a.rejected = 5;
  a.rejected_full = 4;
  a.rejected_closed = 1;
  a.completed = 95;
  a.batches = 40;
  a.reloads = 2;
  a.mean_batch_size = 2.375;
  a.queue_p50_us = 0.1;
  a.total_p99_us = 817.25;
  a.total_max_us = 1e21;
  dh::ModelStatsJson b;
  b.name = "seg-int8";
  b.precision = "int8";
  b.quantized_requests = 9007199254740992ull;  // 2^53
  b.total_mean_us = 1.0 / 3.0;
  r.models = {a, b};
  return r;
}

dh::ServerSpec sample_server_spec() {
  dh::ServerSpec r;
  r.http.port = 0;
  r.http.backlog = 7;
  r.http.recv_timeout_ms = 100;
  dh::ModelSpec a;
  a.name = "a";
  a.checkpoint = "/tmp/a.bin";
  dh::ModelSpec b;
  b.name = "b";
  b.checkpoint = "ckpt \"b\".bin";
  b.workers = 2;
  b.max_batch = 16;
  b.max_wait_us = -1;
  b.queue_capacity = 128;
  b.precision = "int8";
  b.model.num_classes = 8;
  b.model.input_size = 32;
  b.model.width = 24;
  b.model.separable_backbone = true;
  r.models = {a, b};
  return r;
}

// to_json text of the samples above, recorded from the Value-tree
// encoder this codec replaced; the wire format must not drift.
constexpr std::string_view kPredictRequest =
    R"json({"shape":[1,2,4,4],"image":[0,-0,3.4028234663852886e+38,-3.4028234663852886e+38,)json"
    R"json(1.401298464324817e-45,-1.401298464324817e-45,1.1754943508222875e-38,)json"
    R"json(0.3333333432674408,0.10000000149011612,-1.5000059281518572e-40,)json"
    R"json(123456.7890625,1.0000000116860974e-07,16777216,3,-2.5,104.42141723632812,)json"
    R"json(-1.254270107098666e+25,1.1956050395965576,99268316598221406208,)json"
    R"json(-21082501283840,1.0776223302415152e-25,-1.4548855671806982e-25,)json"
    R"json(33040.50390625,-97529777608475017216,-0.010401333682239056,)json"
    R"json(5.493232143134538e-27,5.4814170563632914e-11,-2.278335803924065e-34,)json"
    R"json(-1.0412785632593431e+37,-1.0744953935383997e+28,-6.427844821322156e-33,)json"
    R"json(-2.4800426519528576e+33]})json";

constexpr std::string_view kPredictResponse =
    R"json({"model":"seg-fp32","model_version":3,"precision":"int8","batch_size":2,)json"
    R"json("shape":[1,2,4,4],"logits":[0,-0,3.4028234663852886e+38,-3.4028234663852886e+38,)json"
    R"json(1.401298464324817e-45,-1.401298464324817e-45,1.1754943508222875e-38,)json"
    R"json(0.3333333432674408,0.10000000149011612,-1.5000059281518572e-40,)json"
    R"json(123456.7890625,1.0000000116860974e-07,16777216,3,-2.5,104.42141723632812,)json"
    R"json(-1.254270107098666e+25,1.1956050395965576,99268316598221406208,)json"
    R"json(-21082501283840,1.0776223302415152e-25,-1.4548855671806982e-25,)json"
    R"json(33040.50390625,-97529777608475017216,-0.010401333682239056,)json"
    R"json(5.493232143134538e-27,5.4814170563632914e-11,-2.278335803924065e-34,)json"
    R"json(-1.0412785632593431e+37,-1.0744953935383997e+28,-6.427844821322156e-33,)json"
    R"json(-2.4800426519528576e+33],"labels":[0,1,1,0,5,2,0,0,1,3,3,3,)json"
    R"json(0,1,0,1],"queue_us":12.5,"total_us":830.0625})json";

constexpr std::string_view kErrorResponse =
    R"json({"error":"bad \"shape\"\n\t\u0001 )json"
    "\xc3\xa9"
    R"json( back\\slash /","model":"seg-int8",)json"
    R"json("expected_shape":[1,3,16,16],"got_shape":[],"known_models":["a",)json"
    R"json("b/c",""]})json";

constexpr std::string_view kStatsResponse =
    R"json({"server":{"port":8080,"draining":true,"connections":3,"requests":1099511627776,)json"
    R"json("http_errors":2},"models":[{"name":"seg-fp32","precision":"fp32",)json"
    R"json("model_version":4,"accepted":100,"rejected":5,"rejected_full":4,)json"
    R"json("rejected_closed":1,"completed":95,"batches":40,"reloads":2,)json"
    R"json("queue_depth":0,"fp32_requests":0,"quantized_requests":0,"mean_batch_size":2.375,)json"
    R"json("queue_p50_us":0.1,"queue_p95_us":0,"queue_p99_us":0,"total_p50_us":0,)json"
    R"json("total_p95_us":0,"total_p99_us":817.25,"total_mean_us":0,"total_max_us":1e+21},)json"
    R"json({"name":"seg-int8","precision":"int8","model_version":0,"accepted":0,)json"
    R"json("rejected":0,"rejected_full":0,"rejected_closed":0,"completed":0,)json"
    R"json("batches":0,"reloads":0,"queue_depth":0,"fp32_requests":0,)json"
    R"json("quantized_requests":9007199254740992,)json"
    R"json("mean_batch_size":0,"queue_p50_us":0,"queue_p95_us":0,"queue_p99_us":0,)json"
    R"json("total_p50_us":0,"total_p95_us":0,"total_p99_us":0,)json"
    R"json("total_mean_us":0.3333333333333333,)json"
    R"json("total_max_us":0}]})json";

constexpr std::string_view kServerSpec =
    R"json({"http":{"port":0,"backlog":7,"max_body_bytes":8388608,"recv_timeout_ms":100},)json"
    R"json("models":[{"name":"a","checkpoint":"/tmp/a.bin","workers":1,)json"
    R"json("max_batch":8,"max_wait_us":200,"queue_capacity":64,"precision":"fp32",)json"
    R"json("model":{"in_channels":3,"num_classes":6,"input_size":48,"width":16,)json"
    R"json("separable_backbone":false}},{"name":"b","checkpoint":"ckpt \"b\".bin",)json"
    R"json("workers":2,"max_batch":16,"max_wait_us":-1,"queue_capacity":128,)json"
    R"json("precision":"int8","model":{"in_channels":3,"num_classes":8,)json"
    R"json("input_size":32,"width":24,"separable_backbone":true}}]})json";

constexpr std::string_view kServerSpecPretty =
    R"json({
  "http": {
    "port": 0,
    "backlog": 7,
    "max_body_bytes": 8388608,
    "recv_timeout_ms": 100
  },
  "models": [
    {
      "name": "a",
      "checkpoint": "/tmp/a.bin",
      "workers": 1,
      "max_batch": 8,
      "max_wait_us": 200,
      "queue_capacity": 64,
      "precision": "fp32",
      "model": {
        "in_channels": 3,
        "num_classes": 6,
        "input_size": 48,
        "width": 16,
        "separable_backbone": false
      }
    },
    {
      "name": "b",
      "checkpoint": "ckpt \"b\".bin",
      "workers": 2,
      "max_batch": 16,
      "max_wait_us": -1,
      "queue_capacity": 128,
      "precision": "int8",
      "model": {
        "in_channels": 3,
        "num_classes": 8,
        "input_size": 32,
        "width": 24,
        "separable_backbone": true
      }
    }
  ]
}
)json";

std::uint32_t bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << "element " << i << " (" << want[i] << ")";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Byte identity.
// ---------------------------------------------------------------------------

TEST(JsonCodec, EncodesPinnedBytes) {
  EXPECT_EQ(dj::to_json(sample_predict_request()), kPredictRequest);
  EXPECT_EQ(dj::to_json(sample_predict_response()), kPredictResponse);
  EXPECT_EQ(dj::to_json(sample_error_response()), kErrorResponse);
  EXPECT_EQ(dj::to_json(sample_stats_response()), kStatsResponse);
  EXPECT_EQ(dj::to_json(sample_server_spec()), kServerSpec);
  EXPECT_EQ(dj::to_json(sample_server_spec(), /*pretty=*/true), kServerSpecPretty);
}

TEST(JsonCodec, EncodingIsTheValueWritersFixedPoint) {
  for (const std::string_view golden :
       {kPredictRequest, kPredictResponse, kErrorResponse, kStatsResponse, kServerSpec}) {
    EXPECT_EQ(dj::write(dj::parse(golden)), golden);
  }
}

TEST(JsonCodec, DecodeThenEncodeReproducesPinnedBytes) {
  EXPECT_EQ(dj::to_json(dj::from_json<dh::PredictRequest>(kPredictRequest)), kPredictRequest);
  EXPECT_EQ(dj::to_json(dj::from_json<dh::PredictResponse>(kPredictResponse)), kPredictResponse);
  EXPECT_EQ(dj::to_json(dj::from_json<dh::ErrorResponse>(kErrorResponse)), kErrorResponse);
  EXPECT_EQ(dj::to_json(dj::from_json<dh::StatsResponse>(kStatsResponse)), kStatsResponse);
  EXPECT_EQ(dj::to_json(dj::from_json<dh::ServerSpec>(kServerSpec)), kServerSpec);
  EXPECT_EQ(dj::to_json(dj::from_json<dh::ServerSpec>(kServerSpecPretty)), kServerSpec);
  EXPECT_EQ(dj::from_json<dh::ErrorResponse>(kErrorResponse).error,
            sample_error_response().error);
}

TEST(JsonCodec, FloatsDecodeBitwise) {
  std::vector<float> floats = tricky_floats();
  // Every subnormal boundary region, both signs, and the normal edges.
  for (std::uint32_t b : {0x00000001u, 0x00000002u, 0x007fffffu, 0x00800000u, 0x00800001u,
                          0x7f7ffffeu, 0x7f7fffffu, 0x3f800000u, 0x3f800001u, 0x3f7fffffu}) {
    for (std::uint32_t sign : {0u, 0x80000000u}) {
      float f;
      const std::uint32_t pattern = b | sign;
      std::memcpy(&f, &pattern, sizeof f);
      floats.push_back(f);
    }
  }
  std::mt19937 rng(20260417u);
  while (floats.size() < (1u << 16)) {
    const std::uint32_t pattern = rng();
    float f;
    std::memcpy(&f, &pattern, sizeof f);
    if (std::isfinite(f)) floats.push_back(f);
  }
  dh::PredictRequest request;
  request.shape = {static_cast<int>(floats.size())};
  request.image = floats;
  const auto back = dj::from_json<dh::PredictRequest>(dj::to_json(request));
  expect_bitwise_equal(back.image, floats);
  expect_bitwise_equal(dj::from_json<dh::PredictRequest>(kPredictRequest).image, tricky_floats());
}

// ---------------------------------------------------------------------------
// Mutation corpus: from_json agrees with parse() on what is malformed.
// ---------------------------------------------------------------------------

namespace {

struct Verdicts {
  int parse_errors = 0;
  int schema_errors = 0;
  int accepted = 0;
};

/// parse() is the grammar reference: from_json<T> must throw the same
/// ParseError (message and offset) exactly when parse() throws one, and
/// otherwise decode or throw SchemaError.
template <class T>
void expect_same_verdict(const std::string& text, Verdicts& tally) {
  std::optional<dj::ParseError> want;
  try {
    (void)dj::parse(text);
  } catch (const dj::ParseError& e) {
    want = e;
  }
  try {
    (void)dj::from_json<T>(text);
    ASSERT_FALSE(want) << "decoded text parse() rejects (" << want->what() << "): " << text;
    ++tally.accepted;
  } catch (const dj::ParseError& e) {
    ASSERT_TRUE(want) << "ParseError on text parse() accepts (" << e.what() << "): " << text;
    EXPECT_EQ(e.offset, want->offset) << text;
    EXPECT_STREQ(e.what(), want->what()) << text;
    ++tally.parse_errors;
  } catch (const dj::SchemaError& e) {
    ASSERT_FALSE(want) << "SchemaError (" << e.what() << ") hid a ParseError ("
                       << want->what() << "): " << text;
    ++tally.schema_errors;
  }
}

/// Rebuilds `v` with every object's members in a shuffled order.
dj::Value shuffled(const dj::Value& v, std::mt19937& rng) {
  if (v.is_array()) {
    dj::Value out = dj::Value::array();
    for (const dj::Value& item : v.as_array()) out.push_back(shuffled(item, rng));
    return out;
  }
  if (!v.is_object()) return v;
  std::vector<std::size_t> order(v.member_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  dj::Value out = dj::Value::object();
  for (const std::size_t i : order) out.set(v.keys()[i], shuffled(v.member(i), rng));
  return out;
}

std::string mutate(std::string text, std::mt19937& rng) {
  static constexpr std::string_view kBytes = "{}[]\",:0123456789-+.eE ntrufals\\\t\n\x01\xff";
  static constexpr std::string_view kSnippets[] = {
      ",", "]", "}", "\"", " ", "0", "-", "1e400", "1e300", "-1", "0.5", "null", "true",
      "{}", "[]", "[[[[", "\"x\":1,", "\\u00", "\\ud800", "\n\t"};
  if (text.empty()) return text;
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  switch (pick(5)) {
    case 0:  // byte flip
      text[pick(text.size())] =
          rng() % 4 == 0 ? static_cast<char>(rng()) : kBytes[pick(kBytes.size())];
      break;
    case 1:  // truncation
      text.resize(pick(text.size()));
      break;
    case 2: {  // insertion
      const std::string_view snippet = kSnippets[pick(std::size(kSnippets))];
      text.insert(pick(text.size() + 1), snippet);
      break;
    }
    case 3: {  // duplicated key: repeat the first key of a random object
      std::vector<std::size_t> opens;
      for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '{' && text[i + 1] == '"') opens.push_back(i);
      }
      if (opens.empty()) break;
      const std::size_t at = opens[pick(opens.size())];
      const std::size_t end = text.find('"', at + 2);
      const std::string key = text.substr(at + 1, end - at);
      const char* values[] = {"0", "[]", "\"s\"", "{}", "true"};
      text.insert(at + 1, key + ":" + values[pick(std::size(values))] + ",");
      break;
    }
    default:  // two mutations stacked
      text = mutate(mutate(std::move(text), rng), rng);
      break;
  }
  return text;
}

template <class T>
Verdicts run_corpus(std::string_view golden, std::uint32_t seed, int iterations) {
  std::mt19937 rng(seed);
  Verdicts tally;
  const dj::Value reference = dj::parse(golden);
  const std::string canonical = dj::to_json(dj::from_json<T>(golden));
  for (int i = 0; i < iterations; ++i) {
    // Reordered fields decode to the same struct.
    const std::string reordered = dj::write(shuffled(reference, rng));
    EXPECT_EQ(dj::to_json(dj::from_json<T>(reordered)), canonical) << reordered;
    expect_same_verdict<T>(mutate(std::string(golden), rng), tally);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return tally;
}

}  // namespace

TEST(JsonCodec, MutationCorpusAgreesWithParse) {
  Verdicts total;
  auto add = [&](const Verdicts& v) {
    total.parse_errors += v.parse_errors;
    total.schema_errors += v.schema_errors;
    total.accepted += v.accepted;
  };
  constexpr int kIterations = 2000;
  add(run_corpus<dh::PredictRequest>(kPredictRequest, 1, kIterations));
  add(run_corpus<dh::PredictResponse>(kPredictResponse, 2, kIterations));
  add(run_corpus<dh::ErrorResponse>(kErrorResponse, 3, kIterations));
  add(run_corpus<dh::StatsResponse>(kStatsResponse, 4, kIterations));
  add(run_corpus<dh::ServerSpec>(kServerSpec, 5, kIterations));
  add(run_corpus<dh::ServerSpec>(kServerSpecPretty, 6, kIterations));
  // The corpus must exercise all three outcomes, not just one.
  EXPECT_GT(total.parse_errors, 1000);
  EXPECT_GT(total.schema_errors, 500);
  EXPECT_GT(total.accepted, 500);
}

TEST(JsonCodec, ParseErrorWinsOverAnEarlierSchemaError) {
  // The unknown field comes first; the truncation decides the verdict.
  const std::string text = R"({"typo": 1, "shape": [1, 2)";
  try {
    (void)dj::from_json<dh::PredictRequest>(text);
    FAIL() << "accepted";
  } catch (const dj::ParseError& e) {
    EXPECT_EQ(e.offset, text.size());
  }
  // A repeated key after a wrong-typed value is still a ParseError.
  EXPECT_THROW(
      (void)dj::from_json<dh::PredictRequest>(R"({"shape": "x", "image": [], "image": []})"),
      dj::ParseError);
  // Too-deep nesting under a member that expects an object.
  std::string deep = R"({"models": )" + std::string(70, '[') + std::string(70, ']') + "}";
  EXPECT_THROW((void)dj::from_json<dh::ServerSpec>(deep), dj::ParseError);
}
