// The tools' command-line front end. argv is outside input, so every
// number is parsed whole-string and range-checked, and every rejection
// names the flag it concerns.
#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "synth/synth.hpp"

namespace {

using repro::common::FlagTable;
using repro::core::SuiteSource;

/// One field of every kind the table binds.
struct Fields {
  std::string text;
  std::vector<std::string> list;
  int n = 7;
  std::vector<int> ns;
  double x = 0.5;
  bool on = false;
  bool keep = true;
  std::string pair;
};

FlagTable make_table(Fields* f) {
  FlagTable t("prog");
  t.text("--text", "S", &f->text)
      .text("--list", "S", &f->list)
      .integer("--n", "N", &f->n, 1, 64)
      .integer("--ns", "N", &f->ns, -5, 5)
      .number("--x", "X", &f->x, 0.01, 3600)
      .flag("--on", &f->on)
      .flag("--no-keep", &f->keep, false)
      .custom("--pair", "K=V", [f](const std::string& v) {
        if (v.find('=') == std::string::npos) {
          return std::string("expects KEY=VALUE");
        }
        f->pair = v;
        return std::string();
      });
  return t;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += (out.empty() ? "" : ",") + s;
  return out;
}

std::string describe(const Fields& f) {
  std::vector<std::string> ns;
  for (int n : f.ns) ns.push_back(std::to_string(n));
  char x[32];
  std::snprintf(x, sizeof x, "%g", f.x);
  return "text=" + f.text + " list=[" + join(f.list) +
         "] n=" + std::to_string(f.n) + " ns=[" + join(ns) + "] x=" + x +
         " on=" + std::to_string(f.on) + " keep=" + std::to_string(f.keep) +
         " pair=" + f.pair;
}

struct Case {
  const char* name;
  std::vector<std::string> args;
  std::string error;   ///< "" = parse succeeds
  std::string fields;  ///< describe() after a successful parse
  friend void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }
};

const char* const kDefaults = "text= list=[] n=7 ns=[] x=0.5 on=0 keep=1 pair=";
const char* const kBadN = "expects an integer in [1, 64], got ";
const char* const kBadX = "expects a number in [0.010000, 3600.000000], got ";

const Case kCases[] = {
    {"Defaults", {}, "", kDefaults},
    {"IntLowerBound", {"--n", "1"}, "",
     "text= list=[] n=1 ns=[] x=0.5 on=0 keep=1 pair="},
    {"IntUpperBound", {"--n", "64"}, "",
     "text= list=[] n=64 ns=[] x=0.5 on=0 keep=1 pair="},
    {"IntBelowRange", {"--n", "0"}, std::string("--n ") + kBadN + "'0'", ""},
    {"IntAboveRange", {"--n", "65"}, std::string("--n ") + kBadN + "'65'", ""},
    {"IntEmpty", {"--n", ""}, std::string("--n ") + kBadN + "''", ""},
    {"IntTrailingGarbage", {"--n", "8x"}, std::string("--n ") + kBadN + "'8x'",
     ""},
    {"IntHex", {"--n", "0x10"}, std::string("--n ") + kBadN + "'0x10'", ""},
    {"IntFraction", {"--n", "1.5"}, std::string("--n ") + kBadN + "'1.5'", ""},
    {"IntOverflow",
     {"--n", "99999999999999999999"},
     std::string("--n ") + kBadN + "'99999999999999999999'",
     ""},
    {"IntNegativeBounds", {"--ns", "-5", "--ns", "5"}, "",
     "text= list=[] n=7 ns=[-5,5] x=0.5 on=0 keep=1 pair="},
    {"NumberLowerBound", {"--x", "0.01"}, "",
     "text= list=[] n=7 ns=[] x=0.01 on=0 keep=1 pair="},
    {"NumberUpperBound", {"--x", "3600"}, "",
     "text= list=[] n=7 ns=[] x=3600 on=0 keep=1 pair="},
    {"NumberBelowRange", {"--x", "0.0099"},
     std::string("--x ") + kBadX + "'0.0099'", ""},
    {"NumberNan", {"--x", "nan"}, std::string("--x ") + kBadX + "'nan'", ""},
    {"NumberInf", {"--x", "inf"}, std::string("--x ") + kBadX + "'inf'", ""},
    {"NumberUnderflow", {"--x", "1e-400"},
     std::string("--x ") + kBadX + "'1e-400'", ""},
    {"NumberTrailingGarbage", {"--x", "2s"},
     std::string("--x ") + kBadX + "'2s'", ""},
    {"MissingValue", {"--on", "--text"}, "--text expects a value", ""},
    {"UnknownFlag", {"--nope"}, "unknown flag --nope", ""},
    {"Positional", {"file.def"}, "unknown flag file.def", ""},
    {"StopsAtFirstError", {"--n", "0", "--nope"},
     std::string("--n ") + kBadN + "'0'", ""},
    {"Switches", {"--on", "--no-keep"}, "",
     "text= list=[] n=7 ns=[] x=0.5 on=1 keep=0 pair="},
    {"RepeatableAccumulatesInOrder", {"--list", "b", "--list", "a"}, "",
     "text= list=[b,a] n=7 ns=[] x=0.5 on=0 keep=1 pair="},
    {"ScalarLastWins", {"--text", "a", "--n", "3", "--text", "b", "--n", "5"},
     "", "text=b list=[] n=5 ns=[] x=0.5 on=0 keep=1 pair="},
    {"ValueTakenVerbatim", {"--text", "--on"}, "",
     "text=--on list=[] n=7 ns=[] x=0.5 on=0 keep=1 pair="},
    {"CustomParserValue", {"--pair", "k=v"}, "",
     "text= list=[] n=7 ns=[] x=0.5 on=0 keep=1 pair=k=v"},
    {"CustomParserErrorNamesTheFlag", {"--pair", "kv"},
     "--pair expects KEY=VALUE", ""},
};

class CliFlags : public ::testing::TestWithParam<Case> {};

TEST_P(CliFlags, Parse) {
  const Case& c = GetParam();
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : c.args) argv.push_back(a.c_str());
  Fields f;
  const repro::common::Status st =
      make_table(&f).parse(static_cast<int>(argv.size()), argv.data());
  if (c.error.empty()) {
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(describe(f), c.fields);
  } else {
    EXPECT_EQ(st.code(), repro::common::StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), c.error);
  }
}

INSTANTIATE_TEST_SUITE_P(Table, CliFlags, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

/// The SuiteSource that `args` bind, or the parse error.
repro::common::StatusOr<SuiteSource> parse_source(
    const std::vector<std::string>& args) {
  SuiteSource src;
  FlagTable t("prog");
  src.bind(t);
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  const repro::common::Status st =
      t.parse(static_cast<int>(argv.size()), argv.data());
  if (!st.ok()) return st;
  return src;
}

TEST(CliFlags, SuiteSourceRoundTrip) {
  const auto files = parse_source({"--lef", "t.lef", "--train", "a.def",
                                   "--victim", "v.def", "--train", "b.def"});
  ASSERT_TRUE(files.ok()) << files.status().to_string();
  EXPECT_FALSE(files->demo);
  EXPECT_EQ(files->lef, "t.lef");
  EXPECT_EQ(files->train, (std::vector<std::string>{"a.def", "b.def"}));
  EXPECT_EQ(files->victim, "v.def");
  EXPECT_EQ(files->usage_error(), "");
  EXPECT_EQ(files->num_designs(), 3);

  // What a campaign hands its workers names the same suite.
  const auto worker = parse_source(files->worker_argv());
  ASSERT_TRUE(worker.ok()) << worker.status().to_string();
  EXPECT_EQ(worker->demo, files->demo);
  EXPECT_EQ(worker->lef, files->lef);
  EXPECT_EQ(worker->train, files->train);
  EXPECT_EQ(worker->victim, files->victim);

  const auto no_victim = parse_source({"--lef", "t.lef", "--train", "a.def"});
  ASSERT_TRUE(no_victim.ok());
  EXPECT_EQ(no_victim->usage_error(),
            "file mode needs --lef, --train and --victim");

  const auto demo = parse_source({"--demo"});
  ASSERT_TRUE(demo.ok());
  EXPECT_EQ(demo->usage_error(), "");
  EXPECT_EQ(demo->num_designs(),
            static_cast<std::int64_t>(repro::synth::preset_names().size()));
  EXPECT_EQ(demo->worker_argv(), (std::vector<std::string>{"--demo"}));
}

TEST(CliFlagsUsage, ListsEveryFlagWithItsMetavarInOrder) {
  Fields f;
  EXPECT_EQ(make_table(&f).usage(),
            "usage: prog [--text S] [--list S]... [--n N] [--ns N]... "
            "[--x X] [--on] [--no-keep] [--pair K=V]");
}

}  // namespace
