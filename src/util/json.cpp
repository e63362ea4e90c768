#include "dlscale/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dlscale::util::json {

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void throw_kind_mismatch(Value::Kind want, Value::Kind got, const std::string& where) {
  throw SchemaError(where + ": expected " + kind_name(want) + ", got " + kind_name(got));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) throw_kind_mismatch(Kind::kBool, kind_, "as_bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) throw_kind_mismatch(Kind::kNumber, kind_, "as_number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) throw_kind_mismatch(Kind::kString, kind_, "as_string");
  return string_;
}

const Value::Array& Value::as_array() const {
  if (kind_ != Kind::kArray) throw_kind_mismatch(Kind::kArray, kind_, "as_array");
  return array_;
}

Value::Array& Value::as_array() {
  if (kind_ != Kind::kArray) throw_kind_mismatch(Kind::kArray, kind_, "as_array");
  return array_;
}

const std::vector<std::string>& Value::keys() const {
  if (kind_ != Kind::kObject) throw_kind_mismatch(Kind::kObject, kind_, "keys");
  return object_keys_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) throw_kind_mismatch(Kind::kObject, kind_, "find");
  for (std::size_t i = 0; i < object_keys_.size(); ++i) {
    if (object_keys_[i] == key) return &object_values_[i];
  }
  return nullptr;
}

void Value::set(std::string key, Value value) {
  if (kind_ != Kind::kObject) throw_kind_mismatch(Kind::kObject, kind_, "set");
  for (std::size_t i = 0; i < object_keys_.size(); ++i) {
    if (object_keys_[i] == key) {
      object_values_[i] = std::move(value);
      return;
    }
  }
  object_keys_.push_back(std::move(key));
  object_values_.push_back(std::move(value));
}

std::size_t Value::member_count() const {
  if (kind_ != Kind::kObject) throw_kind_mismatch(Kind::kObject, kind_, "member_count");
  return object_values_.size();
}

void Value::push_back(Value value) {
  if (kind_ != Kind::kArray) throw_kind_mismatch(Kind::kArray, kind_, "push_back");
  array_.push_back(std::move(value));
}

void Value::copy_from(const Value& other) {
  kind_ = other.kind_;
  bool_ = other.bool_;
  number_ = other.number_;
  string_ = other.string_;
  array_ = other.array_;
  object_keys_ = other.object_keys_;
  object_values_ = other.object_values_;
}

// ---------------------------------------------------------------------------
// Lexer: the strict grammar shared by parse() and the typed decoder.
// ---------------------------------------------------------------------------

namespace detail {

void Lexer::fail(const std::string& what) const { throw ParseError(what, pos_); }

void Lexer::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

bool Lexer::open(char opener, char closer) {
  expect(opener);
  skip_ws();
  if (peek() != closer) return true;
  ++pos_;
  return false;
}

bool Lexer::next(char closer) {
  skip_ws();
  const char c = peek();
  if (c == ',') {
    ++pos_;
    return true;
  }
  if (c == closer) {
    ++pos_;
    return false;
  }
  fail(std::string("expected ',' or '") + closer + "' in " + (closer == ']' ? "array" : "object"));
}

void Lexer::key(std::string& out) {
  skip_ws();
  if (peek() != '"') fail("object key must be a string");
  string(out);
}

void Lexer::colon() {
  skip_ws();
  expect(':');
}

void Lexer::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
  pos_ += lit.size();
}

void Lexer::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after JSON value");
}

void Lexer::string(std::string& out) {
  expect('"');
  out.clear();
  for (;;) {
    // Copy the run of plain bytes up to the next quote, escape, or end.
    std::size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
           static_cast<unsigned char>(text_[run]) >= 0x20) {
      ++run;
    }
    out.append(text_.data() + pos_, run - pos_);
    pos_ = run;
    if (pos_ >= text_.size()) fail("unterminated string");
    const unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      ++pos_;
      return;
    }
    if (c < 0x20) fail("unescaped control character in string");
    ++pos_;  // the backslash
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': unicode_escape(out); break;
      default: fail("invalid escape character");
    }
  }
}

unsigned Lexer::hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = text_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
    else fail("invalid hex digit in \\u escape");
  }
  return code;
}

void Lexer::unicode_escape(std::string& out) {
  unsigned code = hex4();
  if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate; need the pair
    if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
      fail("unpaired surrogate in \\u escape");
    }
    pos_ += 2;
    const unsigned low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate in \\u escape");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  } else if (code >= 0xDC00 && code <= 0xDFFF) {
    fail("unpaired low surrogate in \\u escape");
  }
  // UTF-8 encode.
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

double Lexer::number() {
  const auto digit = [&] {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  };
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  if (!digit()) {
    pos_ = start;
    fail("invalid value");
  }
  if (text_[pos_] == '0') {
    ++pos_;  // leading zero must stand alone
  } else {
    while (digit()) ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    if (!digit()) fail("digit required after decimal point");
    while (digit()) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    if (!digit()) fail("digit required in exponent");
    while (digit()) ++pos_;
  }
  double out = 0.0;
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) {
    pos_ = start;
    fail("unparsable number");
  }
  if (!std::isfinite(out)) {
    pos_ = start;
    fail("number out of double range");
  }
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// parse(): recursive descent into a Value tree.
// ---------------------------------------------------------------------------

namespace {

Value parse_value(detail::Lexer& lex) {
  const char c = lex.begin_value();
  Value v;
  switch (c) {
    case 'n':
      lex.literal("null");
      break;
    case 't':
      lex.literal("true");
      v = Value(true);
      break;
    case 'f':
      lex.literal("false");
      v = Value(false);
      break;
    case '"': {
      std::string s;
      lex.string(s);
      v = Value(std::move(s));
      break;
    }
    case '[':
      v = Value::array();
      if (lex.open('[', ']')) {
        do {
          v.push_back(parse_value(lex));
        } while (lex.next(']'));
      }
      break;
    case '{':
      v = Value::object();
      if (lex.open('{', '}')) {
        std::string key;
        do {
          lex.key(key);
          if (v.find(key) != nullptr) lex.fail("duplicate object key \"" + key + "\"");
          lex.colon();
          v.set(key, parse_value(lex));
        } while (lex.next('}'));
      }
      break;
    default:
      v = Value(lex.number());
      break;
  }
  lex.end_value();
  return v;
}

}  // namespace

Value parse(std::string_view text) {
  detail::Lexer lex(text);
  Value v = parse_value(lex);
  lex.finish();
  return v;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

namespace detail {

void write_escaped(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
  out.push_back('"');
}

void write_number(double d, std::string& out) {
  if (!std::isfinite(d)) throw Error("cannot write non-finite number as JSON");
  char buf[32];
  // Shortest round-trip form: "1", "0.25", "1e30". Integral doubles come
  // out without a fraction part, so counters look like counters.
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  if (ec != std::errc()) throw Error("number formatting failed");
  out.append(buf, ptr);
}

}  // namespace detail

namespace {

void write_value(const Value& v, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  auto newline_pad = [&](int levels) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      detail::write_number(v.as_number(), out);
      break;
    case Value::Kind::kString:
      detail::write_escaped(v.as_string(), out);
      break;
    case Value::Kind::kArray: {
      const auto& items = v.as_array();
      if (items.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_pad(depth + 1);
        write_value(items[i], out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      const auto& keys = v.keys();
      if (keys.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_pad(depth + 1);
        detail::write_escaped(keys[i], out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        write_value(v.member(i), out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string write(const Value& value) {
  std::string out;
  write_value(value, out, /*indent=*/-1, /*depth=*/0);
  return out;
}

std::string write_pretty(const Value& value, int indent) {
  std::string out;
  write_value(value, out, indent < 0 ? 0 : indent, 0);
  out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// Typed-decoder errors.
// ---------------------------------------------------------------------------

namespace detail {

std::string Path::str() const {
  if (parent == nullptr) return "$";
  if (field != nullptr) return parent->str() + "." + field;
  return parent->str() + "[" + std::to_string(index) + "]";
}

void schema_error(const Path& path, const std::string& what) {
  throw SchemaError(path.str() + ": " + what);
}

void kind_error(const Path& path, const char* want, char first) {
  schema_error(path, std::string("expected ") + want + ", got " + kind_name(kind_of(first)));
}

}  // namespace detail

}  // namespace dlscale::util::json
