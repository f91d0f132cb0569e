// Unit tests for sato::util: RNG, math helpers, string utilities, CSV.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace sato::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, SeedRestartsStream) {
  Rng a(77);
  double first = a.Uniform();
  a.Uniform();
  a.Seed(77);
  EXPECT_DOUBLE_EQ(a.Uniform(), first);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(2, 4));
  EXPECT_EQ(seen, (std::set<int64_t>{2, 3, 4}));
}

TEST(RngTest, NormalHasApproxUnitMoments) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Normal();
  EXPECT_NEAR(Mean(xs), 0.0, 0.03);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, CategoricalRejectsDegenerateInput) {
  Rng rng(1);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({1.0, -0.5}), std::invalid_argument);
}

TEST(RngTest, ZipfIsHeavyHeaded) {
  Rng rng(19);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(20, 1.2)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[5], counts[19]);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be equal
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), std::invalid_argument);
}

TEST(RngTest, IndexRejectsEmptyRange) {
  Rng rng(1);
  EXPECT_THROW(rng.Index(0), std::invalid_argument);
}

// ---------------------------------------------------------- math_util ----

TEST(MathTest, LogSumExpMatchesDirectComputation) {
  std::vector<double> xs = {0.1, -2.0, 3.5};
  double direct = std::log(std::exp(0.1) + std::exp(-2.0) + std::exp(3.5));
  EXPECT_NEAR(LogSumExp(xs), direct, 1e-12);
}

TEST(MathTest, LogSumExpStableForLargeInputs) {
  std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
  std::vector<double> ys = {-1000.0, -1000.0};
  EXPECT_NEAR(LogSumExp(ys), -1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, LogSumExpEmptyIsNegInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(MathTest, SoftmaxSumsToOneAndPreservesOrder) {
  std::vector<double> xs = {1.0, 3.0, 2.0};
  auto p = Softmax(xs);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(MathTest, SoftmaxInvariantToShift) {
  auto a = Softmax({1.0, 2.0});
  auto b = Softmax({101.0, 102.0});
  EXPECT_NEAR(a[0], b[0], 1e-12);
}

TEST(MathTest, MeanAndStd) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
}

TEST(MathTest, SampleStdDevUsesBesselCorrection) {
  std::vector<double> xs = {1.0, 3.0};
  EXPECT_NEAR(SampleStdDev(xs), std::sqrt(2.0), 1e-12);
}

TEST(MathTest, ConfidenceInterval95) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  double expected = 1.96 * SampleStdDev(xs) / std::sqrt(5.0);
  EXPECT_NEAR(ConfidenceInterval95(xs), expected, 1e-12);
}

TEST(MathTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(MathTest, SkewnessSignOfAsymmetry) {
  EXPECT_GT(Skewness({1.0, 1.0, 1.0, 10.0}), 0.0);
  EXPECT_LT(Skewness({-10.0, 1.0, 1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(Skewness({1.0, 1.0}), 0.0);
}

TEST(MathTest, KurtosisOfUniformPairIsNegative) {
  // Two-point symmetric distribution has excess kurtosis -2.
  EXPECT_NEAR(Kurtosis({-1.0, 1.0, -1.0, 1.0}), -2.0, 1e-12);
}

TEST(MathTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
  EXPECT_THROW(Dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(MathTest, CosineSimilarityBounds) {
  EXPECT_NEAR(CosineSimilarity({1.0, 0.0}, {1.0, 0.0}), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1.0, 0.0}, {-1.0, 0.0}), -1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1.0, 0.0}, {0.0, 1.0}), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0.0, 0.0}, {1.0, 1.0}), 0.0);
}

TEST(MathTest, EntropyUniformIsLogN) {
  EXPECT_NEAR(Entropy({1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
  EXPECT_NEAR(Entropy({5.0, 0.0}), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
}

// -------------------------------------------------------- string_util ----

TEST(StringTest, CaseConversions) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
  EXPECT_EQ(ToUpper("AbC-12"), "ABC-12");
  EXPECT_EQ(Capitalize("wARSAW"), "Warsaw");
  EXPECT_EQ(Capitalize(""), "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(StringTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a\t b  c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("birthPlace", "birth"));
  EXPECT_FALSE(StartsWith("birth", "birthPlace"));
  EXPECT_TRUE(EndsWith("fileSize", "Size"));
  EXPECT_FALSE(EndsWith("Size", "fileSize"));
}

TEST(StringTest, ParseNumericPlain) {
  EXPECT_DOUBLE_EQ(*ParseNumeric("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*ParseNumeric(" 7 "), 7.0);
}

TEST(StringTest, ParseNumericThousandsSeparators) {
  // The paper's Fig 1 example: population value "1,777,972".
  EXPECT_DOUBLE_EQ(*ParseNumeric("1,777,972"), 1777972.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("380,948"), 380948.0);
}

TEST(StringTest, ParseNumericCurrencyAndPercent) {
  EXPECT_DOUBLE_EQ(*ParseNumeric("$1,200"), 1200.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("85%"), 85.0);
}

TEST(StringTest, ParseNumericRejectsNonNumbers) {
  EXPECT_FALSE(ParseNumeric("Warsaw").has_value());
  EXPECT_FALSE(ParseNumeric("").has_value());
  EXPECT_FALSE(ParseNumeric("12abc").has_value());
  EXPECT_FALSE(ParseNumeric("a,b").has_value());
  // Separator detection is lenient: any digit-flanked comma is stripped.
  EXPECT_DOUBLE_EQ(*ParseNumeric("1,77"), 177.0);
}

TEST(StringTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric("3.14"));
  EXPECT_FALSE(IsNumeric("pi"));
}

TEST(StringTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(StringTest, Fnv1aHashStableAndSpread) {
  EXPECT_EQ(Fnv1aHash("city"), Fnv1aHash("city"));
  EXPECT_NE(Fnv1aHash("city"), Fnv1aHash("town"));
  EXPECT_NE(Fnv1aHash(""), Fnv1aHash(" "));
}

// ---------------------------------------------------------------- csv ----

TEST(CsvTest, EscapePlainAndSpecial) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, FormatRow) {
  EXPECT_EQ(CsvFormatRow({"a", "b,c", "d"}), "a,\"b,c\",d\n");
}

TEST(CsvTest, ParseSimple) {
  auto rows = CsvParse("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, ParseQuotedCommasAndNewlines) {
  auto rows = CsvParse("\"a,b\",\"x\ny\"\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "x\ny");
}

TEST(CsvTest, ParseEscapedQuotes) {
  auto rows = CsvParse("\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(CsvTest, ParseCrlf) {
  auto rows = CsvParse("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "c");
}

TEST(CsvTest, ParseMissingTrailingNewline) {
  auto rows = CsvParse("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], "b");
}

TEST(CsvTest, RoundTripThroughEscaping) {
  std::vector<std::string> fields = {"plain", "a,b", "q\"q", "nl\nnl", ""};
  auto rows = CsvParse(CsvFormatRow(fields));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], fields);
}

// ------------------------------------------------------- logging/timer ----

TEST(LoggingTest, LevelRoundTrip) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

TEST(LoggingTest, StreamMacroCompilesAndFilters) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // suppress output below error
  SATO_LOG_INFO << "invisible " << 42;
  SATO_LOG_DEBUG << "also invisible";
  SetLogLevel(before);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  double t0 = timer.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a tiny amount; elapsed must be monotone non-decreasing.
  // Plain assignment: compound assignment to a volatile is deprecated in
  // C++20 (-Wvolatile).
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  double t1 = timer.ElapsedSeconds();
  EXPECT_GE(t1, t0);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedMillis() * 0.5 + 1.0);
  timer.Reset();
  EXPECT_LE(timer.ElapsedSeconds(), t1 + 1.0);
}

// ---------------------------------------------------------- binary_io ----

TEST(BinaryIoTest, ReadArrayEndsWithExactCapacity) {
  // Several chunks plus a partial one: the buffer grows with the bytes
  // delivered and ends holding exactly the count, with no doubling slack.
  const size_t count = 5 * (kReadChunkBytes / sizeof(double)) + 17;
  std::vector<double> values(count);
  for (size_t i = 0; i < count; ++i) values[i] = static_cast<double>(i) * 0.5;
  std::string bytes(count * sizeof(double), '\0');
  std::memcpy(bytes.data(), values.data(), bytes.size());
  std::istringstream in(bytes);
  std::vector<double> out;
  ReadArray(&in, count, &out, "test");
  EXPECT_EQ(out, values);
  EXPECT_EQ(out.capacity(), count);
}

TEST(BinaryIoTest, ReadArrayThrowsOnShortStreamWithoutTrustingCount) {
  std::istringstream in(std::string(3 * sizeof(double), '\0'));
  std::vector<double> out;
  EXPECT_THROW(ReadArray(&in, uint64_t{1} << 50, &out, "test"),
               std::runtime_error);
  EXPECT_LE(out.capacity() * sizeof(double), kReadChunkBytes);
}

}  // namespace
}  // namespace sato::util
