// Minimal JSON reader for the repo's own on-disk state files.
//
// The checkpoint manifest, the campaign state file, and the per-run
// digest files are all JSON we emitted ourselves — but by the time they
// are read back they are third-party input (hand-edited, crash-torn,
// bit-rotted), so the reader must accept any well-formed JSON and turn
// every malformation into a Status instead of UB. This module replaces
// the parser that used to live privately inside checkpoint.cpp with a
// shared DOM-lite: parse once, then navigate with find()/as_* helpers.
//
// Deliberate simplifications (fine for our schemas, documented so they
// are not mistaken for bugs): \uXXXX escapes decode to the low byte
// only, and numbers keep their raw token alongside the double so exact
// u64 values (sizes, keys) can be re-parsed without precision loss.
// Nesting depth is capped so a pathological file cannot overflow the
// stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace repro::common {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string raw_number;  ///< original token; exact for u64 re-parse
  std::string str;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* find(std::string_view key) const;

  /// Convenience accessors with defaults — absent/mistyped fields yield
  /// the default, never a crash. as_i64 / as_u64 take whole decimal
  /// integers in range (as_u64 also hex strings) and nothing else: a
  /// fraction, exponent, sign on a u64 or overflow is mistyped.
  std::string as_string(std::string def = "") const;
  double as_double(double def = 0) const;
  std::int64_t as_i64(std::int64_t def = 0) const;
  std::uint64_t as_u64(std::uint64_t def = 0) const;  ///< from raw token
  bool as_bool(bool def = false) const;

  /// Member-level helpers: obj.get_u64("size", 0).
  std::string get_string(std::string_view key, std::string def = "") const;
  double get_double(std::string_view key, double def = 0) const;
  std::int64_t get_i64(std::string_view key, std::int64_t def = 0) const;
  std::uint64_t get_u64(std::string_view key, std::uint64_t def = 0) const;
  bool get_bool(std::string_view key, bool def = false) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Every failure is kParseError with a byte offset.
StatusOr<JsonValue> parse_json(std::string_view text);

}  // namespace repro::common
