// Command-line flags for the repository's tools.
//
// A tool declares each flag once, in a FlagTable that binds it to the
// field it sets; the same table parses argv and generates the usage
// line, so the two cannot drift apart. argv is outside input: numbers
// are parsed whole-string and range-checked, and every usage error
// prints "error: <why>" and the usage line to stderr, then exits 2 —
// the code the campaign supervisor classifies as a usage error and
// never retries.
//
// A flag that takes a value reads it from the next argument, verbatim
// (even when it starts with "--"). A repeated flag keeps its last
// value, except where it is bound to a vector: then every occurrence
// appends, in order, and the usage line marks it with "...".
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace repro::common {

/// Whole-string base-10 integer in [lo, hi]. nullopt for an empty
/// string, trailing garbage, overflow, or a value outside the range.
std::optional<long long> parse_int(const std::string& s, long long lo,
                                   long long hi);

/// Whole-string number in [lo, hi] (strtod syntax). nullopt for an
/// empty string, trailing garbage, overflow or underflow, NaN, or a
/// value outside the range.
std::optional<double> parse_double(const std::string& s, double lo,
                                   double hi);

/// "expects an integer in [lo, hi], got 'value'": the reason a parser
/// gives for a value parse_int rejected.
std::string expects_integer(const std::string& value, long long lo,
                            long long hi);

/// One tool's flags, each bound to the field it sets.
class FlagTable {
 public:
  /// Applies one occurrence's value. Returns "" when it is accepted,
  /// else why not ("expects SHARD=SPEC[@all]"); the table reports it
  /// after the flag name.
  using Parser = std::function<std::string(const std::string& value)>;

  /// `argv0` names the program in the usage line.
  explicit FlagTable(std::string argv0) : argv0_(std::move(argv0)) {}

  FlagTable& text(std::string name, std::string metavar, std::string* out);
  FlagTable& text(std::string name, std::string metavar,
                  std::vector<std::string>* out);
  FlagTable& integer(std::string name, std::string metavar, int* out,
                     long long lo, long long hi);
  FlagTable& integer(std::string name, std::string metavar,
                     std::vector<int>* out, long long lo, long long hi);
  FlagTable& number(std::string name, std::string metavar, double* out,
                    double lo, double hi);
  /// A switch: takes no value, stores `value`.
  FlagTable& flag(std::string name, bool* out, bool value = true);
  /// A value only the tool knows how to read.
  FlagTable& custom(std::string name, std::string metavar, Parser parse);

  /// Applies argv[1..argc) to the bound fields, stopping at the first
  /// unknown flag, missing value, or rejected value.
  Status parse(int argc, const char* const* argv) const;

  /// parse(), then fail() on error.
  void parse_or_exit(int argc, const char* const* argv) const;

  /// "usage: <argv0> [--name METAVAR] [--list METAVAR]... [--switch]",
  /// one entry per flag in declaration order.
  std::string usage() const;

  /// Prints "error: <why>" and the usage line to stderr, exits 2.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< "" = a switch, which takes no value
    bool repeatable = false;
    Parser apply;
  };

  FlagTable& add(std::string name, std::string metavar, bool repeatable,
                 Parser apply);

  std::string argv0_;
  std::vector<Flag> flags_;
};

}  // namespace repro::common
