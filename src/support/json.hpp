// The repo's one JSON value model, parser and escaper: the admission-control
// wire protocol (docs/SERVICE.md), the JSONL sweep and request logs
// (support/jsonl.hpp) and the telemetry export all go through it.
//
// The repo deliberately has no external JSON dependency; the service reads
// full objects/arrays from untrusted clients, so this is a small, strict
// RFC 8259 subset implementation hardened for adversarial input:
//
//  * rejects NaN / Infinity (not JSON) and numeric overflow — a malformed
//    tick count surfaces as a JsonError, never as a silent wrap or a
//    garbage double;
//  * bounds nesting depth (kMaxDepth) so a pathological frame cannot
//    overflow the stack;
//  * integers that fit std::int64_t are kept exact (tick values never pass
//    through a double), everything else is a finite double;
//  * duplicate object keys are rejected (the admission protocol has no
//    use for them, and accepting either value silently would make request
//    semantics ambiguous).
//
// Accessors throw JsonError on kind mismatch; `find` returns nullptr for
// absent keys so callers can distinguish optional from malformed fields.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcs::support {

/// Malformed text given to parse_json, or a type-mismatched accessor.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs (objects are tiny; linear lookup).
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Nesting depth accepted by parse_json.
  static constexpr std::size_t kMaxDepth = 64;

  Json() = default;  ///< null
  explicit Json(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit Json(std::int64_t value)
      : kind_(Kind::kNumber), int_(value), is_int_(true) {}
  /// Throws JsonError when `value` is NaN or infinite.
  explicit Json(double value);
  explicit Json(std::string value)
      : kind_(Kind::kString), str_(std::move(value)) {}
  explicit Json(Array value) : kind_(Kind::kArray), arr_(std::move(value)) {}
  explicit Json(Object value) : kind_(Kind::kObject), obj_(std::move(value)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  /// True for numbers carried as exact int64 (never round-tripped through
  /// a double; dump() prints these via the integer path).
  bool is_exact_int() const noexcept {
    return kind_ == Kind::kNumber && is_int_;
  }

  /// Object member lookup; nullptr when absent (or when not an object).
  const Json* find(std::string_view key) const noexcept;

  bool as_bool() const;
  /// The numeric value as a double (exact integers convert losslessly
  /// within the double range used by the protocol).
  double as_number() const;
  /// The numeric value as an exact signed 64-bit integer.  Throws
  /// JsonError when the value is not a number, not integral, or does not
  /// fit (tick fields go through this, so overflow and NaN inputs are
  /// structural errors, never silent truncation).
  std::int64_t as_int64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Serializes to compact JSON (no whitespace).  Inverse of parse_json
  /// for every value this model can hold.
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  bool is_int_ = false;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed).  Throws JsonError with an offset-tagged message on
/// malformed input — truncated frames, bad escapes, NaN/Infinity literals,
/// numeric overflow, trailing garbage, or nesting beyond Json::kMaxDepth.
Json parse_json(std::string_view text);

/// Escapes `text` for inclusion in a JSON string literal (no quotes added).
std::string json_escape(std::string_view text);

}  // namespace mcs::support
