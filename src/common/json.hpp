// Minimal JSON value, parser and writer.
//
// The job engine speaks JSON at every boundary — sweep specs in,
// per-cell result files through the cache, the figure-ready aggregate
// out, and one JSON object per journal line — so the repo needs a JSON
// implementation with two properties the usual suspects don't promise:
//
//   * deterministic output: dump() of the same Value is byte-identical
//     across runs and machines (objects keep insertion order, doubles
//     print shortest-round-trip via %.17g tightening), because aggregate
//     files are byte-compared as the crash-convergence oracle;
//   * hostile-input honesty: parse() never aborts; it returns a
//     readable error with the byte offset, the way snapshot decoding
//     reports corruption (journals and caches cross process crashes).
//
// Numbers are kept as int64 when they were written without a fraction
// or exponent, double otherwise, so integer cycle counts survive a
// parse→dump round trip exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emx::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() = default;  // null
  static Value boolean(bool v);
  static Value integer(std::int64_t v);
  static Value real(double v);
  static Value string(std::string v);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  double as_double(double fallback = 0) const;
  const std::string& as_string() const;  // "" unless kString

  // --- array ---
  Value& push(Value v);  // returns the stored element
  const std::vector<Value>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }

  // --- object (insertion-ordered; set() replaces in place) ---
  Value& set(const std::string& key, Value v);
  const Value* find(const std::string& key) const;  // nullptr when absent
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Serializes deterministically. indent < 0 gives one line with no
  /// padding; indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parses `text`; on failure returns a null Value and sets `error` to
  /// a message with the byte offset. On success `error` is cleared.
  static Value parse(std::string_view text, std::string& error);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added). Exposed for the journal writer, which formats lines by hand
/// to control what its CRC covers.
std::string escape(std::string_view s);

/// escape(s) inside double quotes: a complete JSON string literal.
std::string quote(std::string_view s);

}  // namespace emx::json
