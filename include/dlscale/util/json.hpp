// Reflection-style JSON for the serving front-end (DESIGN.md §13).
//
// A struct opts in by declaring its field list once:
//
//   static constexpr auto json_fields() {
//     return std::make_tuple(util::json::field("workers", &Cfg::workers),
//                            util::json::field("max_batch", &Cfg::max_batch));
//   }
//
// and to_json<T>() / from_json<T>() walk that tuple straight over the
// text — one field list powers BOTH directions, with no intermediate
// tree. Encoding appends into one string; decoding drives the same
// strict lexer as parse(), so it accepts exactly the grammar parse()
// does and reports malformed text with the same ParseError and byte
// offset. Decoding is strict: an unknown key, a wrong-typed value, a
// non-integral or out-of-range integer, or a number that overflows a
// float member throws SchemaError naming the field path
// ($.models[1].precision); a missing key keeps the member's default.
//
// Numbers are written in std::to_chars shortest round-trip form of the
// double, so a float written here and read back is BITWISE the same
// float — what lets the HTTP loopback tests demand bit-equality with
// in-process serving.
//
// The dynamic `Value` (null/bool/number/string/array/object) with
// parse()/write()/write_pretty() stays for generic documents, pretty
// printing, and as the reference the typed codec is tested against.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace dlscale::util::json {

/// Base of all errors this module throws.
struct Error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Malformed JSON text. `offset` is the byte position of the failure.
struct ParseError : Error {
  ParseError(const std::string& what, std::size_t offset_in)
      : Error(what + " (at byte " + std::to_string(offset_in) + ")"), offset(offset_in) {}
  std::size_t offset = 0;
};

/// Structurally valid JSON that does not fit the target struct: unknown
/// field, wrong type, non-integral or out-of-range number.
struct SchemaError : Error {
  using Error::Error;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;

  Value() noexcept : kind_(Kind::kNull) {}
  Value(std::nullptr_t) noexcept : kind_(Kind::kNull) {}  // NOLINT
  Value(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Value(double d) noexcept : kind_(Kind::kNumber), number_(d) {}  // NOLINT
  Value(int i) noexcept : Value(static_cast<double>(i)) {}  // NOLINT
  Value(std::int64_t i) noexcept : Value(static_cast<double>(i)) {}  // NOLINT
  Value(std::uint64_t i) noexcept : Value(static_cast<double>(i)) {}  // NOLINT
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}  // NOLINT
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}  // NOLINT

  Value(const Value& other) { copy_from(other); }
  Value(Value&& other) noexcept = default;
  Value& operator=(const Value& other) {
    if (this != &other) { Value tmp(other); *this = std::move(tmp); }
    return *this;
  }
  Value& operator=(Value&& other) noexcept = default;
  ~Value() = default;

  [[nodiscard]] static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }
  [[nodiscard]] static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; throw SchemaError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();

  // --- object interface (throws SchemaError unless is_object()) ---
  /// Keys in insertion order.
  [[nodiscard]] const std::vector<std::string>& keys() const;
  /// Value for `key`, or nullptr when absent.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Insert or replace `key`.
  void set(std::string key, Value value);
  [[nodiscard]] std::size_t member_count() const;
  [[nodiscard]] const Value& member(std::size_t i) const { return object_values_[i]; }

  /// Array append (throws SchemaError unless is_array()).
  void push_back(Value value);

 private:
  void copy_from(const Value& other);

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  std::vector<std::string> object_keys_;
  Array object_values_;
};

/// Strict parse of a complete JSON document: the whole input must be one
/// value plus optional trailing whitespace. Throws ParseError on
/// malformed or truncated text, nesting deeper than 64 levels, duplicate
/// object keys, or non-finite numbers.
[[nodiscard]] Value parse(std::string_view text);

/// Compact single-line serialization. Numbers use std::to_chars shortest
/// round-trip form; non-finite numbers throw Error (not representable in
/// JSON).
[[nodiscard]] std::string write(const Value& value);

/// Indented serialization for config files and human-read payloads.
[[nodiscard]] std::string write_pretty(const Value& value, int indent = 2);

// ---------------------------------------------------------------------------
// Field binding.
// ---------------------------------------------------------------------------

template <class T, class M>
struct Field {
  const char* name;
  M T::*member;
};

/// Binds one member to its JSON key. Collect these in json_fields().
template <class T, class M>
constexpr Field<T, M> field(const char* name, M T::*member) {
  return Field<T, M>{name, member};
}

template <class T>
concept Reflected = requires { T::json_fields(); };

namespace detail {

/// The strict tokenizer under both parse() and from_json(). Every
/// failure throws ParseError at the current byte offset, so the two
/// readers report malformed text identically.
class Lexer {
 public:
  explicit Lexer(std::string_view text) noexcept : text_(text) {}

  [[noreturn]] void fail(const std::string& what) const;

  /// Enters one value: enforces the 64-level depth limit, skips leading
  /// whitespace, and returns the value's first byte without consuming it.
  char begin_value() {
    if (++depth_ > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    return peek();
  }
  void end_value() noexcept { --depth_; }

  /// Consumes the container's `opener`; false when the container is
  /// empty (its `closer` is consumed too).
  bool open(char opener, char closer);
  /// After an element: consumes ',' (true, more follow) or `closer`
  /// (false, container done).
  bool next(char closer);
  /// Reads an object key into `out`; colon() then consumes the ':'.
  void key(std::string& out);
  void colon();
  /// Reads a string value (at its opening quote) into `out`.
  void string(std::string& out);
  /// Reads a number; non-finite values are a ParseError.
  double number();
  /// Consumes the literal `lit` ("null", "true", "false").
  void literal(std::string_view lit);
  /// Requires only whitespace after the top-level value.
  void finish();

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c);
  unsigned hex4();
  void unicode_escape(std::string& out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// A decode position, linked through the caller's stack frames; turned
/// into "$.models[1].precision" text only when an error names it.
struct Path {
  const Path* parent = nullptr;
  const char* field = nullptr;  ///< member name, or nullptr for an element
  std::size_t index = 0;        ///< element index when `field` is nullptr
  [[nodiscard]] std::string str() const;
};

/// Kind of the value whose text starts with `first`; any byte that starts
/// no other kind reads as a number (the lexer then rejects a bad one).
constexpr Value::Kind kind_of(char first) noexcept {
  switch (first) {
    case 'n': return Value::Kind::kNull;
    case 't':
    case 'f': return Value::Kind::kBool;
    case '"': return Value::Kind::kString;
    case '[': return Value::Kind::kArray;
    case '{': return Value::Kind::kObject;
    default: return Value::Kind::kNumber;
  }
}

[[noreturn]] void schema_error(const Path& path, const std::string& what);
/// "expected <want>, got <kind of the value starting with `first`>".
[[noreturn]] void kind_error(const Path& path, const char* want, char first);

void write_escaped(std::string_view s, std::string& out);
/// Longest text write_number produces ("-2.2250738585072014e-308"), plus a comma.
inline constexpr std::size_t kMaxNumberChars = 25;
void write_number(double d, std::string& out);

template <class T>
void encode(const T& x, std::string& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out += x ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    write_escaped(x, out);
  } else if constexpr (std::is_arithmetic_v<T>) {
    write_number(static_cast<double>(x), out);
  } else if constexpr (Reflected<T>) {
    out.push_back('{');
    std::apply(
        [&](const auto&... f) {
          bool first = true;
          ((out += first ? "" : ",", first = false, write_escaped(f.name, out),
            out.push_back(':'), encode(x.*(f.member), out)),
           ...);
        },
        T::json_fields());
    out.push_back('}');
  } else {  // std::vector
    if constexpr (std::is_arithmetic_v<typename T::value_type>) {
      out.reserve(out.size() + 2 + x.size() * kMaxNumberChars);  // one allocation per array
    }
    out.push_back('[');
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (i != 0) out.push_back(',');
      encode<typename T::value_type>(x[i], out);
    }
    out.push_back(']');
  }
}

template <class T>
void decode(Lexer& lex, T& out, const Path& path);

/// Decodes member `i` of an object whose key was just read, rejecting a
/// repeated key the way parse() does.
template <class M>
void decode_field(Lexer& lex, std::uint64_t& seen, std::size_t i, const std::string& key,
                  M& member, const Path& path) {
  const std::uint64_t bit = std::uint64_t{1} << i;
  if ((seen & bit) != 0) lex.fail("duplicate object key \"" + key + "\"");
  seen |= bit;
  lex.colon();
  decode(lex, member, path);
}

/// Decodes the object body at the lexer into the members of `out`.
template <Reflected T>
void decode_object(Lexer& lex, T& out, const Path& path) {
  constexpr auto fields = T::json_fields();
  static_assert(std::tuple_size_v<decltype(fields)> <= 64, "seen-mask holds 64 fields");
  if (!lex.open('{', '}')) return;
  std::uint64_t seen = 0;
  std::string key;
  do {
    lex.key(key);
    const bool known = std::apply(
        [&](const auto&... f) {
          std::size_t i = 0;
          return ((key == f.name ? (decode_field(lex, seen, i, key, out.*(f.member),
                                                 Path{&path, f.name, 0}),
                                    true)
                                 : (++i, false)) ||
                  ...);
        },
        fields);
    if (!known) schema_error(path, "unknown field \"" + key + "\"");
  } while (lex.next('}'));
}

template <class T>
void decode(Lexer& lex, T& out, const Path& path) {
  const char c = lex.begin_value();
  if constexpr (std::is_same_v<T, bool>) {
    if (c == 't') {
      lex.literal("true");
      out = true;
    } else if (c == 'f') {
      lex.literal("false");
      out = false;
    } else {
      kind_error(path, "bool", c);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (c != '"') kind_error(path, "string", c);
    lex.string(out);
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (kind_of(c) != Value::Kind::kNumber) kind_error(path, "number", c);
    const double d = lex.number();
    if constexpr (std::is_floating_point_v<T>) {
      out = static_cast<T>(d);
      if (std::isinf(out)) schema_error(path, "number out of range for float");
    } else {
      if (std::nearbyint(d) != d) {
        schema_error(path, "expected integer, got non-integral number");
      }
      // [min, max + 1) is exact in double for every integer type: min is
      // 0 or a power of two, and max + 1 is a power of two (the sum
      // rounds to it for 64-bit max).
      constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
      constexpr double hi = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
      if (!(d >= lo && d < hi)) schema_error(path, "integer out of range");
      out = static_cast<T>(d);
    }
  } else if constexpr (Reflected<T>) {
    if (c != '{') kind_error(path, "object", c);
    decode_object(lex, out, path);
  } else {  // std::vector
    if (c != '[') kind_error(path, "array", c);
    out.clear();
    if (lex.open('[', ']')) {
      do {
        typename T::value_type element{};
        decode(lex, element, Path{&path, nullptr, out.size()});
        out.push_back(std::move(element));
      } while (lex.next(']'));
    }
  }
  lex.end_value();
}

}  // namespace detail

/// Serializes a reflected struct to compact JSON text (or indented text
/// when `pretty`, for config files).
template <Reflected T>
[[nodiscard]] std::string to_json(const T& obj, bool pretty = false) {
  std::string out;
  detail::encode(obj, out);
  return pretty ? write_pretty(parse(out)) : out;
}

/// Decodes a default-constructed T from JSON text. Throws ParseError on
/// malformed text (the same error and offset parse() reports, even when
/// a schema mismatch comes earlier in the text) and SchemaError on a
/// shape mismatch; absent keys keep their defaults.
template <class T>
[[nodiscard]] T from_json(std::string_view text) {
  T out{};
  try {
    detail::Lexer lex(text);
    detail::decode(lex, out, detail::Path{});
    lex.finish();
  } catch (const SchemaError&) {
    (void)parse(text);  // malformed text anywhere wins over the schema error
    throw;
  }
  return out;
}

}  // namespace dlscale::util::json
