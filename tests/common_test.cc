// Unit tests for the common runtime: Status/StatusOr, RNG, strings,
// stats, interner.

#include <gtest/gtest.h>

#include <set>

#include "common/flat_map.h"
#include "common/interner.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace xsact {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("y").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("z").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("o").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("io").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unimplemented("u").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::AlreadyExists("a").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::DeadlineExceeded("d").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("r").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "deadline exceeded: late");
  EXPECT_EQ(Status::ResourceExhausted("full").ToString(),
            "resource exhausted: full");
  const Status s = Status::ParseError("line 3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "line 3");
  EXPECT_EQ(s.ToString(), "parse error: line 3");
}

TEST(StatusTest, WithContextPrefixesMessage) {
  const Status s = Status::NotFound("key k").WithContext("loading index");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "loading index: key k");
  // No-op for OK.
  EXPECT_TRUE(Status().WithContext("ctx").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MovesValueOut) {
  StatusOr<std::string> v = std::string("payload");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  XSACT_ASSIGN_OR_RETURN(const int h, Half(x));
  XSACT_RETURN_IF_ERROR(Status::Ok());
  *out = h;
  return Status::Ok();
}

TEST(StatusOrTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  const Status err = UseMacros(3, &out);
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  // bound 1 always yields 0.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfStaysInRangeAndSkews) {
  Rng rng(13);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 5000; ++i) {
    const size_t r = rng.Zipf(10, 1.2);
    ASSERT_LT(r, 10u);
    ++hits[r];
  }
  // Rank 0 must dominate the tail under a skewed distribution.
  EXPECT_GT(hits[0], hits[9] * 3);
}

TEST(RngTest, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(14);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.Zipf(4, 0.0)];
  for (int h : hits) EXPECT_NEAR(h, 2000, 350);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_EQ(std::multiset<int>(v.begin(), v.end()),
            std::multiset<int>(shuffled.begin(), shuffled.end()));
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, TokenizeLowercasesAndSplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("TomTom, GPS!"),
            (std::vector<std::string>{"tomtom", "gps"}));
  EXPECT_EQ(Tokenize("Go-630 (Tri-linguial)"),
            (std::vector<std::string>{"go", "630", "tri", "linguial"}));
  EXPECT_TRUE(Tokenize("  ,;  ").empty());
}

TEST(StringUtilTest, JoinAndTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_TRUE(EqualsIgnoreCase("GPS", "gps"));
  EXPECT_FALSE(EqualsIgnoreCase("GPS", "gp"));
  EXPECT_TRUE(StartsWith("catalog/product", "catalog"));
  EXPECT_FALSE(StartsWith("cat", "catalog"));
  EXPECT_TRUE(EndsWith("file.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", "file.xml"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a|b|c", "|", "\\|"), "a\\|b\\|c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(72.727272, 0), "73");
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.StdDev(), 1.118, 1e-3);
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 4.0);
}

TEST(SampleStatsTest, EmptyIsZero) {
  SampleStats s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
}

TEST(InternerTest, AssignsDenseIdsInOrder) {
  StringInterner in;
  EXPECT_EQ(in.Intern("a"), 0);
  EXPECT_EQ(in.Intern("b"), 1);
  EXPECT_EQ(in.Intern("a"), 0);  // idempotent
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.Lookup(1), "b");
  EXPECT_EQ(in.Find("b"), 1);
  EXPECT_EQ(in.Find("missing"), -1);
}

TEST(InternerTest, SurvivesGrowthAndClear) {
  StringInterner in;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Intern("s" + std::to_string(i)), i);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Find("s" + std::to_string(i)), i);
    EXPECT_EQ(in.Lookup(i), "s" + std::to_string(i));
  }
  EXPECT_EQ(in.Find(""), -1);
  EXPECT_EQ(in.Intern(""), 1000);  // the empty string is a string too
  in.Clear();
  EXPECT_EQ(in.size(), 0u);
  EXPECT_EQ(in.Find("s7"), -1);
  EXPECT_EQ(in.Intern("s7"), 0);  // ids restart after Clear
}

TEST(FlatIdMapTest, InsertFindClearAndGrow) {
  FlatIdMap<uint64_t, Mix64Hash> map;
  EXPECT_EQ(map.Find(42), -1);
  for (uint64_t k = 0; k < 500; ++k) {
    const auto [id, inserted] = map.Insert(k * 7919, static_cast<int32_t>(k));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, static_cast<int32_t>(k));
  }
  EXPECT_EQ(map.size(), 500u);
  const auto [id, inserted] = map.Insert(7919, 99);  // present: kept
  EXPECT_FALSE(inserted);
  EXPECT_EQ(id, 1);
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(map.Find(k * 7919), static_cast<int32_t>(k));
  }
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(7919), -1);
  EXPECT_TRUE(map.Insert(7919, -2).second);  // any id but -1
  EXPECT_EQ(map.Find(7919), -2);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace xsact
