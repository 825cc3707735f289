#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mcs::support {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& message) {
  throw JsonError("json offset " + std::to_string(offset) + ": " + message);
}

/// Recursive-descent parser over a string_view with explicit depth budget.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail(pos_, "trailing garbage after value");
    }
    return value;
  }

 private:
  char peek() const { return text_[pos_]; }
  bool at_end() const { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c, const char* what) {
    if (at_end() || peek() != c) {
      fail(pos_, std::string("expected ") + what);
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(std::size_t depth) {
    // `depth` counts enclosing containers, so the value opening container
    // number kMaxDepth (0-based depth kMaxDepth) is the first to reject.
    if (depth >= Json::kMaxDepth) {
      fail(pos_, "nesting deeper than " + std::to_string(Json::kMaxDepth));
    }
    if (at_end()) {
      fail(pos_, "truncated input: expected a value");
    }
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail(pos_, "invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    expect('{', "'{'");
    Json::Object members;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') {
        fail(pos_, "expected a quoted object key");
      }
      std::string key = parse_string();
      for (const auto& [existing, unused] : members) {
        (void)unused;
        if (existing == key) {
          fail(pos_, "duplicate object key '" + key + "'");
        }
      }
      skip_ws();
      expect(':', "':'");
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (at_end()) {
        fail(pos_, "truncated object");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "',' or '}'");
      return Json(std::move(members));
    }
  }

  Json parse_array(std::size_t depth) {
    expect('[', "'['");
    Json::Array items;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (at_end()) {
        fail(pos_, "truncated array");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "',' or ']'");
      return Json(std::move(items));
    }
  }

  /// Parses one \uXXXX escape (after the "\u"), returning the code unit.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail(pos_, "truncated \\u escape");
    }
    unsigned value = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text_[pos_ + static_cast<std::size_t>(k)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail(pos_, "bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (at_end()) {
        fail(pos_, "unterminated string");
      }
      const char c = peek();
      ++pos_;
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) {
        fail(pos_, "truncated escape");
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!consume_literal("\\u")) {
              fail(pos_, "lone high surrogate");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail(pos_, "invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos_, "lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(pos_ - 1, "invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    // JSON allows no leading '+', no leading zeros, and requires at least
    // one digit; from_chars below enforces digits, we enforce the shape.
    const std::size_t digits_start = pos_;
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    if (pos_ == digits_start) {
      fail(start, "invalid number");
    }
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      fail(start, "leading zeros are not allowed");
    }
    bool integral = true;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac_start = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == frac_start) {
        fail(start, "digits required after decimal point");
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      const std::size_t exp_start = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == exp_start) {
        fail(start, "digits required in exponent");
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Integral but out of int64 range: reject rather than silently round
      // through a double — tick fields must stay exact.
      fail(start, "integer overflow");
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size() ||
        !std::isfinite(value)) {
      fail(start, "numeric overflow");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  out += json_escape(s);
  out.push_back('"');
}

void dump_value(const Json& value, std::string& out) {
  switch (value.kind()) {
    case Json::Kind::kNull:
      out += "null";
      break;
    case Json::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Json::Kind::kNumber: {
      // Exact integers must not round-trip through a double: above 2^53
      // that would silently corrupt tick values on output.
      if (value.is_exact_int()) {
        out += std::to_string(value.as_int64());
        break;
      }
      const double d = value.as_number();
      if (d == static_cast<double>(static_cast<std::int64_t>(d)) &&
          std::abs(d) < 9.0e18) {
        out += std::to_string(static_cast<std::int64_t>(d));
      } else {
        char buf[32];
        const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
        out.append(buf, ec == std::errc{} ? ptr : buf);
      }
      break;
    }
    case Json::Kind::kString:
      dump_string(value.as_string(), out);
      break;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : value.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, out);
      }
      out.push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(key, out);
        out.push_back(':');
        dump_value(member, out);
      }
      out.push_back('}');
      break;
    }
  }
}

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw JsonError(std::string("value is not ") + wanted);
}

}  // namespace

Json::Json(double value) : kind_(Kind::kNumber), num_(value) {
  if (!std::isfinite(value)) {
    throw JsonError("NaN / infinite numbers are not representable in JSON");
  }
}

const Json* Json::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : obj_) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_mismatch("a boolean");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber) kind_mismatch("a number");
  return is_int_ ? static_cast<double>(int_) : num_;
}

std::int64_t Json::as_int64() const {
  if (kind_ != Kind::kNumber) kind_mismatch("a number");
  if (is_int_) return int_;
  // A double is acceptable only when it is exactly integral and in range
  // (|v| < 2^53 keeps the double-to-int64 round trip exact).
  if (num_ == std::floor(num_) && std::abs(num_) <= 9007199254740992.0) {
    return static_cast<std::int64_t>(num_);
  }
  throw JsonError("number is not an exact integer");
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_mismatch("a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  if (kind_ != Kind::kArray) kind_mismatch("an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (kind_ != Kind::kObject) kind_mismatch("an object");
  return obj_;
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace mcs::support
