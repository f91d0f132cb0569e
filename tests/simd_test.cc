// Adversarial SIMD-vs-scalar parity suite for the featurization kernels
// (features/config.h dispatch): the char-slot classifier, the stat value
// scan, the TokenCache mask tokenizer, and the end-to-end ExtractInto
// fast paths with dispatch off vs on. The scalar kernels are the
// contract; every AVX2 kernel must be EXACT-equal on every byte sequence
// -- the inputs below are chosen to break lane boundaries, sign
// assumptions (bytes >= 0x80), the nibble LUTs, and the fused word
// counter's carry across 32-byte vector edges.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "embedding/token_cache.h"
#include "features/char_features.h"
#include "features/config.h"
#include "features/feature_scratch.h"
#include "features/stat_features.h"
#include "table/table.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace sato::features {
namespace {

// Restores the process-wide featurization config on scope exit, so a
// failing test cannot leak a pinned-scalar default into later suites.
class ScopedFeatureConfig {
 public:
  explicit ScopedFeatureConfig(const Config& config) : saved_(DefaultConfig()) {
    SetDefaultConfig(config);
  }
  ~ScopedFeatureConfig() { SetDefaultConfig(saved_); }

 private:
  Config saved_;
};

bool SimdAvailable() { return util::CpuHasAvx2(); }

/// Bitwise vector comparison: the dispatch-parity contract is bit
/// identity, which for features containing NaN (empty-column divisions)
/// is STRONGER than operator== -- NaN != NaN, but the bit patterns of
/// identically-computed NaNs must match.
void ExpectBitwiseEq(const std::vector<double>& a,
                     const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ab, bb;
    std::memcpy(&ab, &a[i], sizeof(ab));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ab, bb) << what << " index " << i << " (" << a[i]
                      << " vs " << b[i] << ")";
  }
}

/// The adversarial corpus. Every case targets a specific failure mode of
/// a 32-bytes-at-a-time kernel; the comments say which.
std::vector<std::string> AdversarialValues() {
  std::vector<std::string> values = {
      "",                // empty cell (kernels must not read the pointer)
      "a", "Z", "0", "9", " ", "\t", "(", ")", "_", "@", ":", "#",
      "1e",              // strtod consumes "1", leaves "e" -- trailing junk
      "+.",              // sign and dot but no digits
      "-",  "+", ".", ",",
      "1e5", "-3.75", "+0.5", "1,234,567.89", "(42)", "(1.5)",
      "NaN", "nan(chars)", "inf", "-Infinity",
      "∞",               // UTF-8 bytes >= 0x80: must classify as slot -1
      "caffè latte",     // multi-byte char inside an ASCII word
      "日本語テキスト",    // pure multi-byte: no alnum runs at all
      "héllo wörld naïve",
      "Ωmega Ω",         // capitalized check reads v[0] = 0xCE
      std::string("a\0b", 3),    // embedded NUL (the force_slow LUT row)
      std::string("12\0004", 4), // NUL splitting a digit run
      "  leading and trailing  ",
      "tab\tsep\tvals", "cr\rlf\nmix", "\v\f\r\n\t ",
      "several words separated by single spaces here",
  };

  // Exact vector-edge lengths: 31/32/33 and 63/64/65 bytes, as one run,
  // as all digits, and with a word boundary AT the lane edge.
  for (size_t len : {31u, 32u, 33u, 63u, 64u, 65u}) {
    values.push_back(std::string(len, 'x'));
    values.push_back(std::string(len, '7'));
    std::string boundary(len, 'a');
    boundary[len / 2] = ' ';
    values.push_back(boundary);
    std::string edge(len, 'b');
    if (len >= 33) {
      edge[31] = ' ';  // word ends exactly at the first lane edge
      edge[32] = 'C';  // next word starts in the second lane
    }
    values.push_back(edge);
    std::string mixed;
    for (size_t i = 0; i < len; ++i) {
      mixed.push_back("a7 .%\xc3\xa9-"[i % 8]);
    }
    values.push_back(mixed);
  }

  // Long cells: a numeric-looking one (maybe_numeric nibble LUT sweeps
  // many vectors) and free text with every punctuation slot.
  values.push_back(std::string(500, '3') + "." + std::string(500, '1'));
  std::string long_text;
  for (int i = 0; i < 40; ++i) {
    long_text += "The quick brown-fox (index #";
    long_text += std::to_string(i);
    long_text += ") jumps $12.50, 'quoted' & \"done\"; ";
  }
  values.push_back(long_text);

  // Every byte value, alone and packed into one 256-byte cell.
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    values.push_back(std::string(1, static_cast<char>(b)));
    all_bytes.push_back(static_cast<char>(b));
  }
  values.push_back(all_bytes);

  // Random byte soup, deterministic: lengths straddling several vectors.
  util::Rng rng(99);
  for (size_t len : {7u, 40u, 100u, 333u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      values.push_back(std::move(s));
    }
  }
  return values;
}

TEST(SimdParityTest, CharClassifierMatchesScalarOnEveryAdversarialValue) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  std::vector<int8_t> scalar, simd;
  for (const std::string& value : AdversarialValues()) {
    scalar.assign(value.size() + 1, 99);  // +1 canary past the end
    simd.assign(value.size() + 1, 99);
    CharFeatureExtractor::ClassifySlots(value, /*use_simd=*/false,
                                        scalar.data());
    CharFeatureExtractor::ClassifySlots(value, /*use_simd=*/true, simd.data());
    EXPECT_EQ(scalar, simd) << "value bytes: [" << value << "] len "
                            << value.size();
  }
}

TEST(SimdParityTest, CharClassifierMatchesLutForAllBytes) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  const auto& lut = CharFeatureExtractor::SlotLut();
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  std::vector<int8_t> simd(256);
  CharFeatureExtractor::ClassifySlots(all, /*use_simd=*/true, simd.data());
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(simd[b], lut[b]) << "byte 0x" << std::hex << b;
  }
}

TEST(SimdParityTest, StatScanMatchesScalarOnEveryAdversarialValue) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  for (const std::string& value : AdversarialValues()) {
    auto s = StatFeatureExtractor::ScanValueKernel(value, /*use_simd=*/false);
    auto v = StatFeatureExtractor::ScanValueKernel(value, /*use_simd=*/true);
    EXPECT_EQ(s.has_digit, v.has_digit) << value;
    EXPECT_EQ(s.has_alpha, v.has_alpha) << value;
    EXPECT_EQ(s.has_punct, v.has_punct) << value;
    EXPECT_EQ(s.has_space, v.has_space) << value;
    EXPECT_EQ(s.has_lower, v.has_lower) << value;
    EXPECT_EQ(s.digits, v.digits) << value;
    EXPECT_EQ(s.alphas, v.alphas) << value;
    EXPECT_EQ(s.words, v.words) << value;
    EXPECT_EQ(s.maybe_numeric, v.maybe_numeric) << value;
  }
}

/// One table holding the whole adversarial corpus (plus duplicates, so
/// the interner's copy-first-cell's-span path runs), split over a few
/// columns to exercise per-column value spans.
Table AdversarialTable() {
  Table table("adversarial");
  std::vector<std::string> values = AdversarialValues();
  const size_t kColumns = 5;
  size_t per_column = values.size() / kColumns + 1;
  for (size_t c = 0; c < kColumns; ++c) {
    Column column;
    column.header = "col" + std::to_string(c);
    for (size_t i = c * per_column;
         i < std::min(values.size(), (c + 1) * per_column); ++i) {
      column.values.push_back(values[i]);
      if (i % 3 == 0) column.values.push_back(values[i]);  // duplicates
    }
    table.AddColumn(std::move(column));
  }
  return table;
}

void BuildCacheWithDispatch(bool dispatch, const Table& table,
                            embedding::TokenCache* cache) {
  Config config;
  config.enable_cpu_dispatch = dispatch;
  ScopedFeatureConfig scoped(config);
  cache->Build(table, nullptr, nullptr, nullptr);
}

TEST(SimdParityTest, TokenCacheBuildIsIdenticalWithDispatchOffAndOn) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  Table table = AdversarialTable();
  embedding::TokenCache scalar_cache, simd_cache;
  BuildCacheWithDispatch(false, table, &scalar_cache);
  BuildCacheWithDispatch(true, table, &simd_cache);

  // Same tokens in the same order (dictionary indices are assigned by
  // first occurrence, so index streams can only match if the token
  // streams match), same cell spans, same per-column unique values.
  ASSERT_EQ(scalar_cache.occurrences(), simd_cache.occurrences());
  ASSERT_EQ(scalar_cache.dictionary_size(), simd_cache.dictionary_size());
  for (uint32_t t = 0; t < scalar_cache.dictionary_size(); ++t) {
    EXPECT_EQ(scalar_cache.token(t).text, simd_cache.token(t).text) << t;
  }
  ASSERT_EQ(scalar_cache.num_columns(), simd_cache.num_columns());
  size_t num_cells = 0;
  for (size_t c = 0; c < scalar_cache.num_columns(); ++c) {
    const auto& ss = scalar_cache.column_span(c);
    const auto& vs = simd_cache.column_span(c);
    EXPECT_EQ(ss.cell_begin, vs.cell_begin);
    EXPECT_EQ(ss.cell_end, vs.cell_end);
    EXPECT_EQ(ss.value_begin, vs.value_begin);
    EXPECT_EQ(ss.value_end, vs.value_end);
    num_cells = std::max<size_t>(num_cells, ss.cell_end);
  }
  for (size_t i = 0; i < num_cells; ++i) {
    const auto& sc = scalar_cache.cell(i);
    const auto& vc = simd_cache.cell(i);
    EXPECT_EQ(sc.value, vc.value) << "cell " << i;
    EXPECT_EQ(sc.occ_begin, vc.occ_begin) << "cell " << i;
    EXPECT_EQ(sc.occ_end, vc.occ_end) << "cell " << i;
    EXPECT_EQ(sc.value_slot, vc.value_slot) << "cell " << i;
  }
  EXPECT_EQ(scalar_cache.value_counts(), simd_cache.value_counts());
}

/// End-to-end dispatch parity: the char and stat fast paths must produce
/// BITWISE-identical feature vectors with the SIMD kernels on and off
/// (they accumulate exact small integers; there is no fp regrouping).
TEST(SimdParityTest, ExtractIntoIsBitwiseIdenticalWithDispatchOffAndOn) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  corpus::CorpusOptions copts;
  copts.num_tables = 20;
  copts.seed = 31;
  std::vector<Table> tables = corpus::CorpusGenerator(copts).Generate();
  tables.push_back(AdversarialTable());

  CharFeatureExtractor char_ex;
  StatFeatureExtractor stat_ex;
  for (const Table& table : tables) {
    for (bool simd : {false, true}) {
      Config config;
      config.enable_cpu_dispatch = simd;
      ScopedFeatureConfig scoped(config);
      ASSERT_EQ(SimdEnabled(), simd);
      FeatureScratch scratch;
      scratch.cache.Build(table, nullptr, nullptr, nullptr);
      for (size_t c = 0; c < scratch.cache.num_columns(); ++c) {
        std::vector<double> char_f, stat_f;
        char_ex.ExtractInto(scratch.cache, c, &scratch, &char_f);
        stat_ex.ExtractInto(scratch.cache, c, &scratch, &stat_f);
        // The scalar pass also matches the per-column reference
        // extractors, so transitively SIMD == scalar == reference.
        std::string tag = table.id() + " col " + std::to_string(c) +
                          " simd=" + (simd ? "on" : "off");
        ExpectBitwiseEq(char_f, char_ex.ReferenceExtract(table.column(c)),
                        "char " + tag);
        ExpectBitwiseEq(stat_f, stat_ex.ReferenceExtract(table.column(c)),
                        "stat " + tag);
      }
    }
  }
}

TEST(SimdParityTest, KernelNameReflectsConfigAndHost) {
  Config scalar;
  scalar.enable_cpu_dispatch = false;
  EXPECT_EQ(KernelName(scalar), "scalar");
  EXPECT_FALSE(SimdEnabled(scalar));
  Config dispatch;
  dispatch.enable_cpu_dispatch = true;
  EXPECT_EQ(KernelName(dispatch), SimdAvailable() ? "avx2" : "scalar");
  // SATO_DISABLE_CPU_DISPATCH reaches the default config; CI runs this
  // suite a second time with it set.
  if (util::CpuDispatchDisabledByEnv()) {
    EXPECT_FALSE(DefaultConfig().enable_cpu_dispatch);
    EXPECT_EQ(KernelName(), "scalar");
  }
}

}  // namespace
}  // namespace sato::features
