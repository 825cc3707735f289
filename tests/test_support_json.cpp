// Unit tests for the repo's JSON layer: the hardened value model, parser
// and escaper (support/json.hpp), and the crash-safe JSONL framing under
// the sweep and request logs (support/jsonl.hpp).  The JSON tests keep the
// SvcJson suite name they had while the module lived in svc/.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/jsonl.hpp"

namespace {

namespace fs = std::filesystem;
using mcs::support::Json;
using mcs::support::json_escape;
using mcs::support::JsonError;
using mcs::support::JsonlAppender;
using mcs::support::parse_json;
using mcs::support::read_jsonl;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

fs::path temp_log(const char* name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove(path);
  return path;
}

// ---------------------------------------------------------------------------
// JSON

TEST(SvcJson, RoundTripsScalarsAndNesting) {
  const std::string text =
      R"({"s":"a\"b","n":-42,"d":1.5,"t":true,"f":false,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})";
  const Json v = parse_json(text);
  EXPECT_EQ(v.find("s")->as_string(), "a\"b");
  EXPECT_EQ(v.find("n")->as_int64(), -42);
  EXPECT_DOUBLE_EQ(v.find("d")->as_number(), 1.5);
  EXPECT_TRUE(v.find("t")->as_bool());
  EXPECT_FALSE(v.find("f")->as_bool());
  EXPECT_TRUE(v.find("z")->is_null());
  EXPECT_EQ(v.find("arr")->as_array().size(), 3u);
  EXPECT_EQ(v.find("obj")->find("k")->as_string(), "v");
  // dump() is an exact inverse for this value model.
  EXPECT_EQ(parse_json(v.dump()).dump(), v.dump());
}

TEST(SvcJson, KeepsLargeIntegersExact) {
  // 2^53 + 1 is not representable as a double; the tick path must not
  // round-trip through one.
  const Json v = parse_json("9007199254740993");
  EXPECT_EQ(v.as_int64(), INT64_C(9007199254740993));
  EXPECT_EQ(v.dump(), "9007199254740993");
  const Json neg = parse_json("-9223372036854775808");
  EXPECT_EQ(neg.as_int64(), std::numeric_limits<std::int64_t>::min());
}

TEST(SvcJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // truncated object
      "[1,",                   // truncated array
      "\"abc",                 // unterminated string
      "{\"a\":1,\"a\":2}",     // duplicate key
      "nan",                   // not JSON
      "NaN",                   //
      "Infinity",              //
      "-Infinity",             //
      "1e999",                 // double overflow
      "01",                    // leading zero
      "+1",                    // sign not allowed
      "1.",                    // missing fraction digits
      ".5",                    // missing integer part
      "{\"a\":1}x",            // trailing garbage
      "\"\\q\"",               // bad escape
      "\"\\ud800\"",           // lone surrogate
      "{\"a\" 1}",             // missing colon
      "[1 2]",                 // missing comma
      "tru",                   // truncated literal
      "\"\x01\"",              // raw control character
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_json(text), JsonError)
        << "accepted: " << text;
  }
}

TEST(SvcJson, RejectsExcessiveNestingDepth) {
  std::string deep;
  for (std::size_t i = 0; i <= Json::kMaxDepth; ++i) deep += "[";
  for (std::size_t i = 0; i <= Json::kMaxDepth; ++i) deep += "]";
  EXPECT_THROW(parse_json(deep), JsonError);
  std::string ok_depth;
  for (std::size_t i = 0; i + 1 < Json::kMaxDepth; ++i) ok_depth += "[";
  for (std::size_t i = 0; i + 1 < Json::kMaxDepth; ++i) ok_depth += "]";
  EXPECT_NO_THROW(parse_json(ok_depth));
}

TEST(SvcJson, AsInt64RejectsNonIntegralNumbers) {
  EXPECT_THROW(parse_json("1.5").as_int64(), JsonError);
  EXPECT_THROW(parse_json("1e300").as_int64(), JsonError);
  EXPECT_THROW(parse_json("\"7\"").as_int64(), JsonError);
  EXPECT_EQ(parse_json("2e3").as_int64(), 2000);
}

TEST(SvcJson, IntegerOverflowIsAStructuredError) {
  EXPECT_THROW(parse_json("99999999999999999999999"), JsonError);
  EXPECT_THROW(parse_json("9223372036854775808"), JsonError);
}

TEST(SvcJson, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\n\x01"), "a\\\"b\\\\c\\n\\u0001");
  const Json v{std::string("tab\there")};
  EXPECT_EQ(v.dump(), "\"tab\\there\"");
  EXPECT_EQ(parse_json(v.dump()).as_string(), "tab\there");
}

TEST(SvcJson, FindDistinguishesAbsentFromNull) {
  const Json v = parse_json(R"({"present":null})");
  ASSERT_NE(v.find("present"), nullptr);
  EXPECT_TRUE(v.find("present")->is_null());
  EXPECT_EQ(v.find("absent"), nullptr);
}

// ---------------------------------------------------------------------------
// JSONL framing

TEST(SupportJsonl, UnterminatedLineIsNotARecord) {
  const fs::path path = temp_log("jsonl_unterminated.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    // The final line parses, but without its newline it may be a prefix of
    // a longer record the kill cut short.
    out << "{\"a\":1}\n{\"b\":2}";
  }
  const auto contents = read_jsonl(path);
  EXPECT_TRUE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].find("a")->as_int64(), 1);
  fs::remove(path);
}

TEST(SupportJsonl, ReopenCutsTornTailBeforeAppending) {
  const fs::path path = temp_log("jsonl_reopen.jsonl");
  {
    // Only a torn line: reopening leaves an empty, fresh log.
    std::ofstream out(path, std::ios::binary);
    out << R"({"schema":"x","tor)";
  }
  {
    JsonlAppender log(path, /*truncate=*/false);
    EXPECT_TRUE(log.fresh());
    log.append(R"({"n":0})");
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << R"({"n":1,"tor)";
  }
  {
    JsonlAppender log(path, /*truncate=*/false);
    EXPECT_FALSE(log.fresh());
    log.append(R"({"n":2})");
  }
  EXPECT_EQ(slurp(path), "{\"n\":0}\n{\"n\":2}\n");
  const auto contents = read_jsonl(path);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].find("n")->as_int64(), 2);
  fs::remove(path);
}

TEST(SupportJsonl, ConcurrentAppendsLandAsWholeLines) {
  const fs::path path = temp_log("jsonl_concurrent.jsonl");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  {
    JsonlAppender log(path, true);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&log, t] {
        for (int k = 0; k < kPerThread; ++k) {
          log.append(R"({"t":)" + std::to_string(t) + R"(,"k":)" +
                     std::to_string(k) + "}");
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const auto contents = read_jsonl(path);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> next(kThreads, 0);
  for (const Json& record : contents.records) {
    const auto t = static_cast<std::size_t>(record.find("t")->as_int64());
    EXPECT_EQ(record.find("k")->as_int64(), next[t]++);
  }
  fs::remove(path);
}

}  // namespace
