#include "common/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace repro::common {

std::optional<long long> parse_int(const std::string& s, long long lo,
                                   long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double(const std::string& s, double lo,
                                   double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      !(v >= lo && v <= hi)) {  // !(..) also rejects NaN
    return std::nullopt;
  }
  return v;
}

std::string expects_integer(const std::string& value, long long lo,
                            long long hi) {
  return "expects an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "], got '" + value + "'";
}

namespace {

/// Range-checks an integer value and hands it to `store`.
FlagTable::Parser int_parser(long long lo, long long hi,
                             std::function<void(int)> store) {
  return [lo, hi, store = std::move(store)](const std::string& v) {
    const std::optional<long long> n = parse_int(v, lo, hi);
    if (!n) return expects_integer(v, lo, hi);
    store(static_cast<int>(*n));
    return std::string();
  };
}

}  // namespace

FlagTable& FlagTable::add(std::string name, std::string metavar,
                          bool repeatable, Parser apply) {
  flags_.push_back(
      {std::move(name), std::move(metavar), repeatable, std::move(apply)});
  return *this;
}

FlagTable& FlagTable::text(std::string name, std::string metavar,
                           std::string* out) {
  return add(std::move(name), std::move(metavar), false,
             [out](const std::string& v) {
               *out = v;
               return std::string();
             });
}

FlagTable& FlagTable::text(std::string name, std::string metavar,
                           std::vector<std::string>* out) {
  return add(std::move(name), std::move(metavar), true,
             [out](const std::string& v) {
               out->push_back(v);
               return std::string();
             });
}

FlagTable& FlagTable::integer(std::string name, std::string metavar,
                              int* out, long long lo, long long hi) {
  return add(std::move(name), std::move(metavar), false,
             int_parser(lo, hi, [out](int v) { *out = v; }));
}

FlagTable& FlagTable::integer(std::string name, std::string metavar,
                              std::vector<int>* out, long long lo,
                              long long hi) {
  return add(std::move(name), std::move(metavar), true,
             int_parser(lo, hi, [out](int v) { out->push_back(v); }));
}

FlagTable& FlagTable::number(std::string name, std::string metavar,
                             double* out, double lo, double hi) {
  return add(std::move(name), std::move(metavar), false,
             [out, lo, hi](const std::string& v) {
               const std::optional<double> x = parse_double(v, lo, hi);
               if (!x) {
                 return "expects a number in [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "], got '" + v + "'";
               }
               *out = *x;
               return std::string();
             });
}

FlagTable& FlagTable::flag(std::string name, bool* out, bool value) {
  return add(std::move(name), "", false, [out, value](const std::string&) {
    *out = value;
    return std::string();
  });
}

FlagTable& FlagTable::custom(std::string name, std::string metavar,
                             Parser parse) {
  return add(std::move(name), std::move(metavar), false, std::move(parse));
}

Status FlagTable::parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto f = std::find_if(
        flags_.begin(), flags_.end(),
        [&arg](const Flag& g) { return g.name == arg; });
    if (f == flags_.end()) {
      return Status::InvalidArgument("unknown flag " + arg);
    }
    std::string value;
    if (!f->metavar.empty()) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(arg + " expects a value");
      }
      value = argv[++i];
    }
    const std::string why = f->apply(value);
    if (!why.empty()) return Status::InvalidArgument(arg + " " + why);
  }
  return Status::Ok();
}

void FlagTable::parse_or_exit(int argc, const char* const* argv) const {
  const Status st = parse(argc, argv);
  if (!st.ok()) fail(st.message());
}

std::string FlagTable::usage() const {
  std::string out = "usage: " + argv0_;
  for (const Flag& f : flags_) {
    out += " [" + f.name;
    if (!f.metavar.empty()) out += " " + f.metavar;
    out += f.repeatable ? "]..." : "]";
  }
  return out;
}

void FlagTable::fail(const std::string& why) const {
  std::fprintf(stderr, "error: %s\n%s\n", why.c_str(), usage().c_str());
  std::exit(2);
}

}  // namespace repro::common
