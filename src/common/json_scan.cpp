#include "common/json_scan.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/flags.hpp"

namespace repro::common {

namespace {

constexpr int kMaxDepth = 64;

/// Whole-string unsigned integer in `base`: strtoull would skip leading
/// space, negate a '-' and saturate on overflow, so each is rejected.
std::optional<std::uint64_t> parse_u64(const std::string& s, int base) {
  if (s.empty() || !std::isalnum(static_cast<unsigned char>(s[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return v;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  StatusOr<JsonValue> parse_document() {
    JsonValue v;
    Status st = value(v, 0);
    if (!st.ok()) return st;
    skip_ws();
    if (pos_ != s_.size()) {
      return fail("trailing garbage after JSON document");
    }
    return v;
  }

 private:
  Status fail(const std::string& why) const {
    return Status::ParseError(why + " at byte " + std::to_string(pos_));
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status string(std::string& out) {
    skip_ws();
    if (!eat('"')) return fail("expected string");
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
            const std::string hex(s_.substr(pos_, 4));
            pos_ += 4;
            char* end = nullptr;
            const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return fail("bad \\u escape");
            out += static_cast<char>(cp & 0xFF);  // low byte, documented
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  Status number(JsonValue& out) {
    skip_ws();
    const char* begin = s_.data() + pos_;
    char* end = nullptr;
    out.number = std::strtod(begin, &end);
    if (end == begin) return fail("expected number");
    out.raw_number.assign(begin, static_cast<std::size_t>(end - begin));
    pos_ += static_cast<std::size_t>(end - begin);
    out.kind = JsonValue::Kind::kNumber;
    return Status::Ok();
  }

  Status value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (eat('}')) return Status::Ok();
      do {
        std::string key;
        Status st = string(key);
        if (!st.ok()) return st;
        if (!eat(':')) return fail("expected ':'");
        JsonValue member;
        st = value(member, depth + 1);
        if (!st.ok()) return st;
        out.members.emplace_back(std::move(key), std::move(member));
      } while (eat(','));
      if (!eat('}')) return fail("expected '}'");
      return Status::Ok();
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (eat(']')) return Status::Ok();
      do {
        JsonValue item;
        Status st = value(item, depth + 1);
        if (!st.ok()) return st;
        out.items.push_back(std::move(item));
      } while (eat(','));
      if (!eat(']')) return fail("expected ']'");
      return Status::Ok();
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.str);
    }
    if (literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return Status::Ok();
    }
    if (literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return Status::Ok();
    }
    if (literal("null")) {
      out.kind = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return number(out);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::as_string(std::string def) const {
  return kind == Kind::kString ? str : def;
}

double JsonValue::as_double(double def) const {
  return kind == Kind::kNumber ? number : def;
}

// Integers are whole decimal tokens in range. A fraction, an exponent
// or an out-of-range value is a mistyped field (the default), never
// rounded, saturated, wrapped or — for a double beyond the type —
// undefined.
std::int64_t JsonValue::as_i64(std::int64_t def) const {
  if (kind != Kind::kNumber) return def;
  return parse_int(raw_number, std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max())
      .value_or(def);
}

std::uint64_t JsonValue::as_u64(std::uint64_t def) const {
  // Hex-encoded u64s (run keys, digests) are serialized as strings.
  if (kind == Kind::kString) return parse_u64(str, 16).value_or(def);
  if (kind != Kind::kNumber) return def;
  return parse_u64(raw_number, 10).value_or(def);
}

bool JsonValue::as_bool(bool def) const {
  return kind == Kind::kBool ? boolean : def;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string def) const {
  const JsonValue* v = find(key);
  return v ? v->as_string(std::move(def)) : def;
}

double JsonValue::get_double(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  return v ? v->as_double(def) : def;
}

std::int64_t JsonValue::get_i64(std::string_view key, std::int64_t def) const {
  const JsonValue* v = find(key);
  return v ? v->as_i64(def) : def;
}

std::uint64_t JsonValue::get_u64(std::string_view key,
                                 std::uint64_t def) const {
  const JsonValue* v = find(key);
  return v ? v->as_u64(def) : def;
}

bool JsonValue::get_bool(std::string_view key, bool def) const {
  const JsonValue* v = find(key);
  return v ? v->as_bool(def) : def;
}

StatusOr<JsonValue> parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace repro::common
