// The JSON layer under the HTTP protocol (util/json.hpp): parser and
// writer round-trips, the bitwise float guarantee, strict error
// behavior, and the reflection field-binding layer.
#include "dlscale/util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace dj = dlscale::util::json;

// ---------------------------------------------------------------------------
// Parser basics.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(dj::parse("null").is_null());
  EXPECT_TRUE(dj::parse("true").as_bool());
  EXPECT_FALSE(dj::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(dj::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(dj::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(dj::parse("\"hello\"").as_string(), "hello");
  EXPECT_EQ(dj::parse("  \"pad\"  ").as_string(), "pad");  // outer whitespace ok
}

TEST(Json, ParsesNestedStructures) {
  const dj::Value v = dj::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const dj::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_EQ(v.find("c")->as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectKeysKeepInsertionOrder) {
  const dj::Value v = dj::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.keys().size(), 3u);
  EXPECT_EQ(v.keys()[0], "z");
  EXPECT_EQ(v.keys()[1], "a");
  EXPECT_EQ(v.keys()[2], "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(dj::parse(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(), "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(dj::parse(R"("Aé")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 (4-byte UTF-8).
  EXPECT_EQ(dj::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
}

// ---------------------------------------------------------------------------
// Parser rejections — every malformed class the protocol relies on.
// ---------------------------------------------------------------------------

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)dj::parse(""), dj::ParseError);
  EXPECT_THROW((void)dj::parse("{"), dj::ParseError);            // truncated object
  EXPECT_THROW((void)dj::parse(R"({"a": )"), dj::ParseError);    // truncated value
  EXPECT_THROW((void)dj::parse(R"("unterminated)"), dj::ParseError);
  EXPECT_THROW((void)dj::parse("[1, 2,]"), dj::ParseError);      // trailing comma
  EXPECT_THROW((void)dj::parse("{} extra"), dj::ParseError);     // trailing characters
  EXPECT_THROW((void)dj::parse("01"), dj::ParseError);           // leading zero
  EXPECT_THROW((void)dj::parse("+1"), dj::ParseError);
  EXPECT_THROW((void)dj::parse("nul"), dj::ParseError);
  EXPECT_THROW((void)dj::parse(R"("\q")"), dj::ParseError);      // bad escape
  EXPECT_THROW((void)dj::parse(R"("\u12")"), dj::ParseError);    // short \u
  EXPECT_THROW((void)dj::parse(R"("\ud83d")"), dj::ParseError);  // lone surrogate
  EXPECT_THROW((void)dj::parse("\"a\x01b\""), dj::ParseError);   // raw control char
  EXPECT_THROW((void)dj::parse(R"({"a":1,"a":2})"), dj::ParseError);  // duplicate key
  EXPECT_THROW((void)dj::parse("{'a': 1}"), dj::ParseError);     // single quotes
}

TEST(Json, ParseErrorCarriesByteOffset) {
  try {
    (void)dj::parse("[1, oops]");
    FAIL() << "malformed input accepted";
  } catch (const dj::ParseError& e) {
    EXPECT_EQ(e.offset, 4u);
    EXPECT_NE(std::string(e.what()).find("byte 4"), std::string::npos);
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)dj::parse(deep), dj::ParseError);
  // 60 levels is fine (limit is 64).
  std::string ok(60, '[');
  ok += std::string(60, ']');
  EXPECT_NO_THROW((void)dj::parse(ok));
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

TEST(Json, WriterCompactForm) {
  dj::Value obj = dj::Value::object();
  obj.set("name", dj::Value("seg"));
  dj::Value arr = dj::Value::array();
  arr.push_back(dj::Value(1));
  arr.push_back(dj::Value(true));
  obj.set("items", std::move(arr));
  EXPECT_EQ(dj::write(obj), R"({"name":"seg","items":[1,true]})");
}

TEST(Json, WriterEscapesControlCharacters) {
  EXPECT_EQ(dj::write(dj::Value("a\"b\\c\n\x01")), R"("a\"b\\c\n\u0001")");
}

TEST(Json, WriterRejectsNonFinite) {
  EXPECT_THROW((void)dj::write(dj::Value(std::numeric_limits<double>::infinity())), dj::Error);
  EXPECT_THROW((void)dj::write(dj::Value(std::nan(""))), dj::Error);
}

TEST(Json, PrettyWriterRoundTrips) {
  const dj::Value v = dj::parse(R"({"a": [1, 2], "b": {"c": true}})");
  const std::string pretty = dj::write_pretty(v);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(dj::write(dj::parse(pretty)), dj::write(v));
}

// The load-bearing guarantee of the protocol: any float written is
// parsed back BITWISE equal (shortest round-trip form via to_chars).
TEST(Json, FloatRoundTripIsBitwise) {
  std::uint32_t state = 0x12345678u;
  int tested = 0;
  for (int i = 0; i < 10000; ++i) {
    state = state * 1664525u + 1013904223u;  // LCG over bit patterns
    float f;
    static_assert(sizeof(f) == sizeof(state));
    std::memcpy(&f, &state, sizeof(f));
    if (!std::isfinite(f)) continue;
    const std::string text = dj::write(dj::Value(static_cast<double>(f)));
    const float back = static_cast<float>(dj::parse(text).as_number());
    std::uint32_t back_bits;
    std::memcpy(&back_bits, &back, sizeof(back_bits));
    ASSERT_EQ(back_bits, state) << "float " << f << " written as " << text;
    ++tested;
  }
  EXPECT_GT(tested, 9000);  // nearly all random patterns are finite
}

TEST(Json, IntegersWriteWithoutExponent) {
  EXPECT_EQ(dj::write(dj::Value(7)), "7");
  EXPECT_EQ(dj::write(dj::Value(-12345)), "-12345");
  EXPECT_EQ(dj::write(dj::Value(0)), "0");
}

// ---------------------------------------------------------------------------
// Reflection layer.
// ---------------------------------------------------------------------------

namespace {

struct Inner {
  int depth = 1;
  static constexpr auto json_fields() {
    return std::make_tuple(dj::field("depth", &Inner::depth));
  }
};

struct Outer {
  std::string name = "default";
  int count = 3;
  double ratio = 0.5;
  bool flag = false;
  std::vector<int> dims;
  std::vector<Inner> inners;
  Inner inner;
  static constexpr auto json_fields() {
    return std::make_tuple(dj::field("name", &Outer::name), dj::field("count", &Outer::count),
                           dj::field("ratio", &Outer::ratio), dj::field("flag", &Outer::flag),
                           dj::field("dims", &Outer::dims), dj::field("inners", &Outer::inners),
                           dj::field("inner", &Outer::inner));
  }
};

}  // namespace

TEST(JsonReflect, RoundTripsNestedStruct) {
  Outer a;
  a.name = "seg";
  a.count = 9;
  a.ratio = 0.125;
  a.flag = true;
  a.dims = {1, 3, 16, 16};
  a.inners = {Inner{4}, Inner{5}};
  a.inner.depth = 7;
  const Outer b = dj::from_json<Outer>(dj::to_json(a));
  EXPECT_EQ(b.name, "seg");
  EXPECT_EQ(b.count, 9);
  EXPECT_DOUBLE_EQ(b.ratio, 0.125);
  EXPECT_TRUE(b.flag);
  EXPECT_EQ(b.dims, (std::vector<int>{1, 3, 16, 16}));
  ASSERT_EQ(b.inners.size(), 2u);
  EXPECT_EQ(b.inners[0].depth, 4);
  EXPECT_EQ(b.inners[1].depth, 5);
  EXPECT_EQ(b.inner.depth, 7);
}

TEST(JsonReflect, MissingFieldKeepsDefault) {
  const Outer o = dj::from_json<Outer>(R"({"count": 11})");
  EXPECT_EQ(o.count, 11);
  EXPECT_EQ(o.name, "default");  // untouched
  EXPECT_DOUBLE_EQ(o.ratio, 0.5);
  EXPECT_EQ(o.inner.depth, 1);
}

TEST(JsonReflect, UnknownFieldThrowsNamingIt) {
  try {
    (void)dj::from_json<Outer>(R"({"count": 1, "typo_field": 2})");
    FAIL() << "unknown field accepted";
  } catch (const dj::SchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("typo_field"), std::string::npos);
  }
}

TEST(JsonReflect, WrongTypeThrowsNamingTheField) {
  try {
    (void)dj::from_json<Outer>(R"({"count": "three"})");
    FAIL() << "string-for-int accepted";
  } catch (const dj::SchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos);
  }
  EXPECT_THROW((void)dj::from_json<Outer>(R"({"flag": 1})"), dj::SchemaError);
  EXPECT_THROW((void)dj::from_json<Outer>(R"({"dims": 3})"), dj::SchemaError);
  EXPECT_THROW((void)dj::from_json<Outer>(R"({"inner": []})"), dj::SchemaError);
}

TEST(JsonReflect, NonIntegralForIntThrows) {
  EXPECT_THROW((void)dj::from_json<Outer>(R"({"count": 1.5})"), dj::SchemaError);
  EXPECT_NO_THROW((void)dj::from_json<Outer>(R"({"count": 2.0})"));  // integral-valued ok
}

TEST(JsonReflect, ErrorContextNamesNestedPath) {
  try {
    (void)dj::from_json<Outer>(R"({"inners": [{"depth": 1}, {"depth": "x"}]})");
    FAIL() << "wrong nested type accepted";
  } catch (const dj::SchemaError& e) {
    // Message walks the path: $.inners[1].depth.
    EXPECT_NE(std::string(e.what()).find("inners[1].depth"), std::string::npos);
  }
}

TEST(JsonReflect, TopLevelMustBeObject) {
  EXPECT_THROW((void)dj::from_json<Outer>("[1, 2]"), dj::SchemaError);
  EXPECT_THROW((void)dj::from_json<Outer>("42"), dj::SchemaError);
}

// ---------------------------------------------------------------------------
// Numeric range checks: a number must fit its member's type exactly.
// ---------------------------------------------------------------------------

namespace {

struct Ranges {
  int i = 0;
  std::uint64_t u = 0;
  std::int64_t s = 0;
  float f = 0.0f;
  static constexpr auto json_fields() {
    return std::make_tuple(dj::field("i", &Ranges::i), dj::field("u", &Ranges::u),
                           dj::field("s", &Ranges::s), dj::field("f", &Ranges::f));
  }
};

void expect_schema_error_naming(const std::string& text, const std::string& path) {
  try {
    (void)dj::from_json<Ranges>(text);
    FAIL() << "accepted " << text;
  } catch (const dj::SchemaError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":"), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(JsonReflect, IntegerOutsideMemberRangeThrows) {
  expect_schema_error_naming(R"({"i": 1e300})", "$.i");
  expect_schema_error_naming(R"({"i": 2147483648})", "$.i");
  expect_schema_error_naming(R"({"i": -2147483649})", "$.i");
  expect_schema_error_naming(R"({"u": -1})", "$.u");
  expect_schema_error_naming(R"({"u": 18446744073709551616})", "$.u");
  expect_schema_error_naming(R"({"s": 9223372036854775808})", "$.s");
  expect_schema_error_naming(R"({"s": -1e19})", "$.s");
}

TEST(JsonReflect, IntegerRangeEdgesDecodeExactly) {
  const Ranges r = dj::from_json<Ranges>(
      R"({"i": -2147483648, "u": 18446744073709549568, "s": -9223372036854775808})");
  EXPECT_EQ(r.i, std::numeric_limits<int>::min());
  EXPECT_EQ(r.u, 18446744073709549568ull);  // largest double below 2^64
  EXPECT_EQ(r.s, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(dj::from_json<Ranges>(R"({"i": 2147483647})").i, std::numeric_limits<int>::max());
  EXPECT_EQ(dj::from_json<Ranges>(R"({"u": -0})").u, 0u);
}

TEST(JsonReflect, NumberOverflowingFloatMemberThrows) {
  expect_schema_error_naming(R"({"f": 1e300})", "$.f");
  expect_schema_error_naming(R"({"f": -3.5e38})", "$.f");
  EXPECT_EQ(dj::from_json<Ranges>(R"({"f": 3.4028234663852886e+38})").f,
            std::numeric_limits<float>::max());
  EXPECT_EQ(dj::from_json<Ranges>(R"({"f": 1e-300})").f, 0.0f);  // underflow rounds, no error
}
