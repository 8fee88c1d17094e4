// Shared JSON reader used for checkpoint manifests, campaign state, and
// digest files. The inputs are our own writes, but by read time they
// are adversarial (crash-torn, bit-flipped), so every malformation must
// come back as kParseError — never UB, never a partial DOM.
#include "common/json_scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace {

using repro::common::JsonValue;
using repro::common::parse_json;
using repro::common::StatusCode;

TEST(JsonScan, ParsesTheShapesOurStateFilesUse) {
  auto doc = parse_json(
      R"({"format_version": 1, "run_key": "0xDEADBEEF", "complete": true,
          "shards": [{"id": "L8_f3", "digest": "333f9d1d5a30093c",
                      "size": 18446744073709551615}],
          "note": "a\tb\"c", "ratio": -0.25, "missing": null})");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->get_i64("format_version"), 1);
  EXPECT_TRUE(doc->get_bool("complete"));
  EXPECT_EQ(doc->get_string("note"), "a\tb\"c");
  EXPECT_DOUBLE_EQ(doc->get_double("ratio"), -0.25);
  const JsonValue* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->items.size(), 1u);
  const JsonValue& shard = shards->items[0];
  EXPECT_EQ(shard.get_string("id"), "L8_f3");
  // Exact u64 round trip: beyond double precision, from the raw token.
  EXPECT_EQ(shard.get_u64("size"), 18446744073709551615ull);
  const JsonValue* missing = doc->find("missing");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonScan, HexStringsReadAsU64) {
  auto doc = parse_json(R"({"crc": "0x1A2B3C4D", "bare": "ff"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->get_u64("crc"), 0x1A2B3C4Dull);
}

TEST(JsonScan, MistypedFieldsYieldTheDefaultNotACrash) {
  auto doc = parse_json(R"({"n": "not-a-number", "s": 42, "b": "yes"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->get_i64("n", -7), -7);
  EXPECT_EQ(doc->get_string("s", "fallback"), "fallback");
  EXPECT_EQ(doc->get_bool("b", true), true);
  EXPECT_EQ(doc->get_u64("absent", 99), 99u);
}

TEST(JsonScan, IntegersAreWholeTokensInRange) {
  // Request fields (/score and /shard folds and layers) arrive through
  // these accessors: anything but an in-range whole integer is mistyped
  // and yields the default — no rounding, saturation, wrap, or the UB of
  // casting an out-of-range double.
  auto doc = parse_json(
      R"({"exp": 1e30, "frac": 1.5, "p63": 9223372036854775808,
          "p64": 18446744073709551616, "wide": 99999999999999999999,
          "neg": -1, "neg_hex": "-1", "over_hex": "1ffffffffffffffff",
          "min": -9223372036854775808, "max": 9223372036854775807,
          "umax": 18446744073709551615})");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->get_i64("exp", -7), -7);
  EXPECT_EQ(doc->get_u64("exp", 7), 7u);
  EXPECT_EQ(doc->get_i64("frac", -7), -7);
  EXPECT_EQ(doc->get_u64("frac", 7), 7u);
  // 2^63 overflows an i64 but fits a u64; 2^64 and beyond fit neither.
  EXPECT_EQ(doc->get_i64("p63", -7), -7);
  EXPECT_EQ(doc->get_u64("p63", 7), 9223372036854775808ull);
  EXPECT_EQ(doc->get_i64("p64", -7), -7);
  EXPECT_EQ(doc->get_u64("p64", 7), 7u);
  EXPECT_EQ(doc->get_i64("wide", -7), -7);
  EXPECT_EQ(doc->get_u64("wide", 7), 7u);
  // A sign never wraps into a u64, in decimal or in hex.
  EXPECT_EQ(doc->get_i64("neg", 7), -1);
  EXPECT_EQ(doc->get_u64("neg", 7), 7u);
  EXPECT_EQ(doc->get_u64("neg_hex", 7), 7u);
  EXPECT_EQ(doc->get_u64("over_hex", 7), 7u);
  // The limits themselves are exact.
  EXPECT_EQ(doc->get_i64("min"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(doc->get_i64("max"), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(doc->get_u64("umax"), std::numeric_limits<std::uint64_t>::max());
}

TEST(JsonScan, MalformedDocumentsAreParseErrors) {
  const char* bad[] = {
      "",                       // empty
      "{",                      // unterminated object
      R"({"a": 1,})",           // trailing comma
      R"({"a" 1})",             // missing colon
      R"({'a': 1})",            // wrong quotes
      R"({"a": "unterminated)", // unterminated string
      "[1, 2",                  // unterminated array
      "tru",                    // truncated keyword
      R"({"a": 1} trailing)",   // trailing garbage
      "\x01\x02\x03",           // binary noise
  };
  for (const char* text : bad) {
    auto doc = parse_json(text);
    EXPECT_FALSE(doc.ok()) << "accepted: " << text;
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << text;
    }
  }
}

TEST(JsonScan, TruncationAtEveryPrefixIsAlwaysAParseError) {
  // The crash-torn-manifest scenario: any prefix of a valid document is
  // either rejected or (for a prefix that happens to be complete JSON,
  // which cannot occur for an object document) parsed — never UB.
  const std::string doc =
      R"({"entries": {"fold_0.result": {"size": 123, "crc32": "aabbccdd"}}})";
  for (std::size_t cut = 0; cut < doc.size(); ++cut) {
    auto r = parse_json(doc.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " accepted";
  }
  EXPECT_TRUE(parse_json(doc).ok());
}

TEST(JsonScan, DepthCapStopsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  auto r = parse_json(deep);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // A document within the cap still parses.
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += '[';
  for (int i = 0; i < 32; ++i) ok += ']';
  EXPECT_TRUE(parse_json(ok).ok());
}

TEST(JsonScan, ParseErrorsCarryAByteOffset) {
  auto r = parse_json(R"({"a": 1, "b": })");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("at byte"), std::string::npos)
      << r.status().message();
}

}  // namespace
