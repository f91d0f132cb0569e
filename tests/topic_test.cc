// Tests for the LDA table-intent estimator: Gibbs training invariants,
// topic recovery on separable corpora, variational fold-in inference,
// analysis helpers.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "embedding/token_cache.h"
#include "topic/analysis.h"
#include "topic/lda.h"
#include "topic/table_document.h"

namespace sato::topic {
namespace {

// Two cleanly separable themes.
std::vector<std::vector<std::string>> TwoThemeCorpus(int docs_per_theme) {
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < docs_per_theme; ++i) {
    docs.push_back({"goal", "match", "league", "striker", "goal", "match"});
    docs.push_back({"election", "senate", "ballot", "vote", "senate", "vote"});
  }
  return docs;
}

LdaOptions SmallLda(int topics) {
  LdaOptions o;
  o.num_topics = topics;
  o.train_iterations = 80;
  o.infer_iterations = 30;
  o.min_count = 1;
  return o;
}

TEST(LdaTest, PhiRowsAreDistributions) {
  util::Rng rng(1);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  const size_t v = lda.vocab().size();
  ASSERT_EQ(lda.phi().size(), static_cast<size_t>(lda.num_topics()) * v);
  for (int t = 0; t < lda.num_topics(); ++t) {
    const double* row = lda.PhiRow(t);
    double sum = 0.0;
    for (size_t w = 0; w < v; ++w) {
      EXPECT_GE(row[w], 0.0);
      sum += row[w];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LdaTest, InferredThetaIsDistribution) {
  util::Rng rng(2);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  auto theta = lda.InferTopics({"goal", "match", "league"});
  ASSERT_EQ(theta.size(), 4u);
  double sum = 0.0;
  for (double p : theta) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LdaTest, SeparatesTwoThemes) {
  util::Rng rng(3);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(50), SmallLda(2), &rng);
  auto sports = lda.InferTopics({"goal", "match", "striker", "league"});
  auto politics = lda.InferTopics({"vote", "senate", "ballot", "election"});
  // The argmax topics must differ.
  size_t s_top = sports[0] > sports[1] ? 0 : 1;
  size_t p_top = politics[0] > politics[1] ? 0 : 1;
  EXPECT_NE(s_top, p_top);
  EXPECT_GT(sports[s_top], 0.7);
  EXPECT_GT(politics[p_top], 0.7);
}

TEST(LdaTest, UnknownTokensGiveUniformMixture) {
  util::Rng rng(4);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(4), &rng);
  auto theta = lda.InferTopics({"zzz", "qqq"});
  for (double p : theta) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(LdaTest, TopWordsBelongToTheme) {
  util::Rng rng(5);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(50), SmallLda(2), &rng);
  // Each topic's top word should come from a single theme's vocabulary.
  std::set<std::string> sports = {"goal", "match", "league", "striker"};
  std::set<std::string> politics = {"election", "senate", "ballot", "vote"};
  for (int t = 0; t < 2; ++t) {
    auto top = lda.TopWords(t, 3);
    ASSERT_FALSE(top.empty());
    bool in_sports = sports.count(top[0].first) > 0;
    for (const auto& [word, p] : top) {
      EXPECT_EQ(in_sports ? sports.count(word) : politics.count(word), 1u)
          << word;
    }
  }
}

TEST(LdaTest, EmptyVocabularyThrows) {
  util::Rng rng(6);
  EXPECT_THROW(LdaModel::Train({}, SmallLda(2), &rng), std::invalid_argument);
}

TEST(LdaTest, SaveLoadRoundTrip) {
  util::Rng rng(7);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  LdaModel back = LdaModel::Load(&ss);
  EXPECT_EQ(back.num_topics(), lda.num_topics());
  EXPECT_EQ(back.vocab().size(), lda.vocab().size());
  EXPECT_EQ(back.phi(), lda.phi());
  // The fold-in is a pure function of (document, model).
  EXPECT_EQ(lda.InferTopics({"goal", "match"}),
            back.InferTopics({"goal", "match"}));
}

TEST(LdaTest, SaveIsByteIdenticalWhateverTheOptionsPaddingHolds) {
  // LdaOptions has 4 padding bytes after num_topics; Save must not copy
  // whatever they happen to hold into the bundle.
  std::string saved[2];
  const unsigned char fills[2] = {0x00, 0xAB};
  for (int i = 0; i < 2; ++i) {
    alignas(LdaOptions) unsigned char storage[sizeof(LdaOptions)];
    std::memset(storage, fills[i], sizeof(storage));
    LdaOptions* opts = new (storage) LdaOptions;
    opts->num_topics = 3;
    opts->train_iterations = 80;
    opts->infer_iterations = 30;
    opts->min_count = 1;
    util::Rng rng(14);
    LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), *opts, &rng);
    std::stringstream ss;
    lda.Save(&ss);
    saved[i] = ss.str();
  }
  EXPECT_EQ(saved[0], saved[1]);
  // Both the zeroed layout and an older bundle with junk padding load.
  std::string junk = saved[0];
  std::memset(junk.data() + 2 * sizeof(uint64_t) +
                  offsetof(LdaOptions, num_topics) + sizeof(int),
              0xAB, offsetof(LdaOptions, alpha) - sizeof(int));
  for (const std::string& bytes : {saved[0], junk}) {
    std::stringstream in(bytes);
    LdaModel back = LdaModel::Load(&in);
    EXPECT_EQ(back.num_topics(), 3);
    std::stringstream again;
    back.Save(&again);
    EXPECT_EQ(again.str(), saved[0]);
  }
}

// Overwrites the saved frequency of vocabulary entry `entry` in an
// LdaModel::Save stream (u64 K, u64 V, the raw options, then per entry u64
// length, the token bytes and an i64 frequency).
std::string PatchFrequency(std::string bytes, size_t entry, int64_t freq) {
  size_t pos = 2 * sizeof(uint64_t) + sizeof(LdaOptions);
  for (size_t i = 0;; ++i) {
    uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    pos += sizeof(len) + len;
    if (i == entry) break;
    pos += sizeof(int64_t);
  }
  std::memcpy(bytes.data() + pos, &freq, sizeof(freq));
  return bytes;
}

TEST(LdaTest, HugeSavedFrequencyLoadsOrThrowsQuickly) {
  util::Rng rng(10);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  const int64_t huge = int64_t{1} << 40;
  const size_t last = lda.vocab().size() - 1;
  for (size_t entry : {size_t{0}, last}) {
    std::stringstream in(PatchFrequency(ss.str(), entry, huge));
    auto start = std::chrono::steady_clock::now();
    try {
      // Entry 0 keeps its id and loads; lifting the last entry to the top
      // would shift every id off its phi column, so that load throws.
      LdaModel back = LdaModel::Load(&in);
      EXPECT_EQ(entry, 0u);
      EXPECT_EQ(back.phi(), lda.phi());
      EXPECT_EQ(back.vocab().Token(0), lda.vocab().Token(0));
    } catch (const std::runtime_error&) {
      EXPECT_EQ(entry, last);
    }
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count(),
              1.0)
        << "entry " << entry;
  }
}

TEST(LdaTest, InvalidSavedFrequencyThrows) {
  util::Rng rng(11);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  for (int64_t freq : {int64_t{0}, int64_t{-1}}) {
    std::stringstream in(PatchFrequency(ss.str(), 1, freq));
    EXPECT_THROW(LdaModel::Load(&in), std::runtime_error) << freq;
  }
  // Two frequencies of 2^62 would overflow the int64 count total.
  const int64_t half = int64_t{1} << 62;
  std::stringstream in(PatchFrequency(PatchFrequency(ss.str(), 0, half), 1,
                                      half));
  EXPECT_THROW(LdaModel::Load(&in), std::runtime_error);
}

TEST(LdaTest, SavedOptionsTopicCountMustMatchPhi) {
  util::Rng rng(12);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  // phi holds K = 3 rows; options claiming 4 would make the fold-in read
  // past the end of every phi column.
  std::string bytes = ss.str();
  const int claimed = 4;
  std::memcpy(bytes.data() + 2 * sizeof(uint64_t) +
                  offsetof(LdaOptions, num_topics),
              &claimed, sizeof(claimed));
  std::stringstream in(bytes);
  EXPECT_THROW(LdaModel::Load(&in), std::runtime_error);
}

TEST(LdaTest, NonPositiveAlphaIsRejected) {
  util::Rng rng(13);
  LdaOptions opts = SmallLda(3);
  opts.alpha = 0.0;
  EXPECT_THROW(LdaModel::Train(TwoThemeCorpus(5), opts, &rng),
               std::invalid_argument);

  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  // A saved alpha of -1e300 would start gamma where x + 1 == x, and the
  // digamma recurrence would never reach its asymptotic range.
  for (double alpha : {-1e300, 0.0, std::nan("")}) {
    std::string bytes = ss.str();
    std::memcpy(bytes.data() + 2 * sizeof(uint64_t) +
                    offsetof(LdaOptions, alpha),
                &alpha, sizeof(alpha));
    std::stringstream in(bytes);
    EXPECT_THROW(LdaModel::Load(&in), std::runtime_error) << alpha;
  }
}

TEST(LdaTest, HugeSavedTokenLengthThrowsQuickly) {
  util::Rng rng(14);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  // The first entry's u64 token length follows K, V and the raw options.
  std::string bytes = ss.str();
  const uint64_t huge = uint64_t{1} << 50;
  std::memcpy(bytes.data() + 2 * sizeof(uint64_t) + sizeof(LdaOptions),
              &huge, sizeof(huge));
  std::stringstream in(bytes);
  auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(LdaModel::Load(&in), std::runtime_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
}

TEST(LdaTest, FoldInWorkBoundsAreValidated) {
  util::Rng rng(15);
  for (int iterations : {0, -1, kMaxInferIterations + 1}) {
    LdaOptions opts = SmallLda(3);
    opts.infer_iterations = iterations;
    EXPECT_THROW(LdaModel::Train(TwoThemeCorpus(5), opts, &rng),
                 std::invalid_argument)
        << iterations;
  }
  LdaOptions no_tokens = SmallLda(3);
  no_tokens.max_doc_tokens = 0;
  EXPECT_THROW(LdaModel::Train(TwoThemeCorpus(5), no_tokens, &rng),
               std::invalid_argument);

  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  const size_t options_at = 2 * sizeof(uint64_t);
  for (int iterations : {0, -1, kMaxInferIterations + 1}) {
    std::string bytes = ss.str();
    std::memcpy(bytes.data() + options_at +
                    offsetof(LdaOptions, infer_iterations),
                &iterations, sizeof(iterations));
    std::stringstream in(bytes);
    EXPECT_THROW(LdaModel::Load(&in), std::runtime_error) << iterations;
  }
  std::string bytes = ss.str();
  const size_t zero = 0;
  std::memcpy(bytes.data() + options_at + offsetof(LdaOptions, max_doc_tokens),
              &zero, sizeof(zero));
  std::stringstream in(bytes);
  EXPECT_THROW(LdaModel::Load(&in), std::runtime_error);

  // The cap itself is a valid setting.
  LdaOptions capped = SmallLda(3);
  capped.infer_iterations = kMaxInferIterations;
  LdaModel at_cap = LdaModel::Train(TwoThemeCorpus(5), capped, &rng);
  std::stringstream round;
  at_cap.Save(&round);
  EXPECT_EQ(LdaModel::Load(&round).options().infer_iterations,
            kMaxInferIterations);
}

TEST(LdaTest, MaxDocTokensTruncates) {
  util::Rng rng(8);
  LdaOptions opts = SmallLda(2);
  opts.max_doc_tokens = 4;
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), opts, &rng);
  // Inference still works on a long document.
  std::vector<std::string> longdoc(1000, "goal");
  auto theta = lda.InferTopics(longdoc);
  double sum = 0.0;
  for (double p : theta) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------- flat-phi fold-in fast path ----

// The fast path and ReferenceInferTopics run the same E-step but not the
// same float sums: the fast path folds each unique id in once with its
// count and an 8-lane dot product, the reference adds token by token. Their
// gammas therefore differ in the last bits, and a document whose mean
// gamma change lands on the 1e-3 stopping threshold can stop one iteration
// earlier or later on one side, which moves theta by up to about
// 1e-3 / sum(gamma). Parity is a tolerance, not bitwise equality.
constexpr double kFoldInParityTolerance = 1e-4;

void ExpectThetaNear(const std::vector<double>& a, const std::vector<double>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_NEAR(a[t], b[t], kFoldInParityTolerance) << what << " topic " << t;
  }
}

TEST(LdaFastPathTest, InferTopicsMatchesReferenceWithinTolerance) {
  util::Rng rng(17);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  std::vector<std::vector<std::string>> docs = {
      {"goal", "match", "league", "goal"},
      {"election", "goal", "zzz", "vote", "vote"},
      {"zzz", "qqq"},  // all OOV -> uniform
      {},
  };
  for (size_t d = 0; d < docs.size(); ++d) {
    ExpectThetaNear(lda.InferTopics(docs[d]), lda.ReferenceInferTopics(docs[d]),
                    "doc " + std::to_string(d));
  }
}

TEST(LdaFastPathTest, CacheDrivenFoldInMatchesReferenceOnTables) {
  corpus::CorpusOptions opts;
  opts.num_tables = 30;
  opts.seed = 23;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();

  util::Rng rng(29);
  LdaOptions lda_opts = SmallLda(6);
  lda_opts.min_count = 2;         // some corpus tokens are OOV for the LDA
  lda_opts.max_doc_tokens = 16;   // most tables exceed this -> truncation
  LdaModel lda = LdaModel::Train(TablesToDocuments(tables), lda_opts, &rng);

  embedding::TokenCache cache;
  LdaScratch scratch;
  std::vector<double> theta;
  for (const Table& t : tables) {
    cache.Build(t, nullptr, nullptr, &lda.vocab());
    scratch.ids.clear();
    cache.CollectLdaIds(lda.options().max_doc_tokens, &scratch.ids);
    lda.InferTopicsInto(&scratch, &theta);
    ExpectThetaNear(theta, lda.ReferenceInferTopics(TableToDocument(t)),
                    t.id());
  }
}

TEST(LdaFastPathTest, ThetaIsInvariantUnderTokenPermutation) {
  util::Rng rng(41);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  std::vector<std::string> doc = {"goal",  "vote",   "match", "goal",
                                  "zzz",   "senate", "goal",  "league",
                                  "ballot", "match"};
  const std::vector<double> expected = lda.InferTopics(doc);
  util::Rng shuffle_rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    shuffle_rng.Shuffle(&doc);
    // Bitwise: the fast path sorts the ids before it sums anything.
    EXPECT_EQ(lda.InferTopics(doc), expected) << "trial " << trial;
  }
}

TEST(LdaFastPathTest, EmptyOrAllOovDocumentGivesUniformMixture) {
  util::Rng rng(47);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(4), &rng);
  const std::vector<double> uniform(4, 0.25);
  for (const std::vector<std::string>& doc :
       {std::vector<std::string>{}, std::vector<std::string>{"zzz", "qqq"}}) {
    EXPECT_EQ(lda.InferTopics(doc), uniform);
    EXPECT_EQ(lda.ReferenceInferTopics(doc), uniform);
  }
  LdaScratch scratch;  // the fast path proper, on an empty id list
  std::vector<double> theta;
  lda.InferTopicsInto(&scratch, &theta);
  EXPECT_EQ(theta, uniform);
}

TEST(LdaFastPathTest, SteadyStateFoldInDoesNotGrowScratch) {
  corpus::CorpusOptions opts;
  opts.num_tables = 20;
  opts.seed = 31;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();
  util::Rng rng(37);
  LdaModel lda = LdaModel::Train(TablesToDocuments(tables), SmallLda(4), &rng);

  embedding::TokenCache cache;
  LdaScratch scratch;
  std::vector<double> theta;
  auto run_pass = [&] {
    for (const Table& t : tables) {
      cache.Build(t, nullptr, nullptr, &lda.vocab());
      scratch.ids.clear();
      cache.CollectLdaIds(lda.options().max_doc_tokens, &scratch.ids);
      lda.InferTopicsInto(&scratch, &theta);
    }
  };
  run_pass();  // warm-up
  size_t capacity_before = scratch.CapacityBytes() + cache.CapacityBytes();
  size_t growth_before = cache.growth_events();
  run_pass();
  EXPECT_EQ(scratch.CapacityBytes() + cache.CapacityBytes(), capacity_before);
  EXPECT_EQ(cache.growth_events(), growth_before);
}

TEST(LdaFastPathTest, CollapseCountsInDenseScratchAndResetsIt) {
  util::Rng rng(38);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  const std::vector<std::string> doc = {"vote", "goal",  "vote", "senate",
                                        "goal", "vote",  "match"};
  LdaScratch scratch;
  for (const auto& token : doc) scratch.ids.push_back(*lda.vocab().Id(token));
  std::map<embedding::TokenId, double> expected;
  for (embedding::TokenId id : scratch.ids) expected[id] += 1.0;
  std::vector<double> theta;
  lda.InferTopicsInto(&scratch, &theta);

  // ids: sorted unique; counts: occurrences; the dense counts are zero again.
  ASSERT_EQ(scratch.ids.size(), expected.size());
  ASSERT_EQ(scratch.counts.size(), expected.size());
  size_t u = 0;
  for (const auto& [id, count] : expected) {
    EXPECT_EQ(scratch.ids[u], id);
    EXPECT_EQ(scratch.counts[u], count);
    ++u;
  }
  ASSERT_GE(scratch.id_counts.size(), lda.vocab().size());
  for (uint32_t c : scratch.id_counts) EXPECT_EQ(c, 0u);
  EXPECT_EQ(scratch.scale.size(), expected.size());
  EXPECT_GE(scratch.CapacityBytes(),
            scratch.id_counts.capacity() * sizeof(uint32_t) +
                scratch.scale.capacity() * sizeof(double));
  EXPECT_EQ(theta, lda.InferTopics(doc));
}

TEST(LdaFastPathTest, OneShotInferenceReusesScratchAcrossModels) {
  // InferTopics keeps one scratch per thread; calls interleaved over two
  // models of different vocabulary size must each match a fresh scratch.
  util::Rng rng(39);
  LdaModel small = LdaModel::Train(TwoThemeCorpus(10), SmallLda(3), &rng);
  auto wide_docs = TwoThemeCorpus(10);
  for (int i = 0; i < 40; ++i) {
    wide_docs.push_back({"w" + std::to_string(i), "w" + std::to_string(i + 1),
                         "goal"});
  }
  LdaModel wide = LdaModel::Train(wide_docs, SmallLda(5), &rng);
  ASSERT_GT(wide.vocab().size(), small.vocab().size());
  auto fresh = [](const LdaModel& lda, const std::vector<std::string>& doc) {
    LdaScratch scratch;
    for (const auto& token : doc) {
      if (auto id = lda.vocab().Id(token)) scratch.ids.push_back(*id);
    }
    std::vector<double> theta;
    lda.InferTopicsInto(&scratch, &theta);
    return theta;
  };
  const std::vector<std::vector<std::string>> docs = {
      {"goal", "vote", "goal", "w3", "w4", "w3"},
      {"senate", "ballot", "w30", "match"},
      {"w1", "w1", "w1", "league"}};
  for (int round = 0; round < 2; ++round) {
    for (const auto& doc : docs) {
      EXPECT_EQ(wide.InferTopics(doc), fresh(wide, doc));
      EXPECT_EQ(small.InferTopics(doc), fresh(small, doc));
    }
  }
}

// ------------------------------------------------------ table documents ----

TEST(TableDocumentTest, ConcatenatesAllCellTokens) {
  Table t("doc");
  Column c1;
  c1.header = "city";
  c1.values = {"New York", "Paris"};
  Column c2;
  c2.header = "year";
  c2.values = {"1999"};
  t.AddColumn(c1);
  t.AddColumn(c2);
  auto doc = TableToDocument(t);
  EXPECT_EQ(doc, (std::vector<std::string>{"new", "york", "paris", "<num_4>"}));
}

TEST(TableDocumentTest, HeadersExcluded) {
  Table t("doc");
  Column c;
  c.header = "SECRETHEADER";
  c.values = {"x"};
  t.AddColumn(c);
  for (const auto& token : TableToDocument(t)) {
    EXPECT_EQ(token.find("secretheader"), std::string::npos);
  }
}

TEST(TableDocumentTest, BatchConversion) {
  corpus::CorpusOptions opts;
  opts.num_tables = 10;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();
  auto docs = TablesToDocuments(tables);
  EXPECT_EQ(docs.size(), tables.size());
}

// ------------------------------------------------------------- analysis ----

TEST(TopicAnalysisTest, SalientTopicsHaveInterpretableShape) {
  corpus::CorpusOptions opts;
  opts.num_tables = 300;
  opts.seed = 11;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();

  util::Rng rng(12);
  LdaOptions lda_opts = SmallLda(8);
  lda_opts.min_count = 2;
  LdaModel lda = LdaModel::Train(TablesToDocuments(tables), lda_opts, &rng);

  TopicAnalysis analysis(&lda);
  analysis.Fit(tables);
  auto salient = analysis.SalientTopics(5, 5);
  ASSERT_EQ(salient.size(), 5u);
  for (size_t i = 1; i < salient.size(); ++i) {
    EXPECT_GE(salient[i - 1].saliency, salient[i].saliency);  // sorted
  }
  for (const auto& st : salient) {
    EXPECT_EQ(st.top_types.size(), 5u);
    EXPECT_FALSE(st.top_words.empty());
    EXPECT_GE(st.saliency, 0.0);
    // Representative-type probabilities are sorted descending.
    for (size_t i = 1; i < st.top_types.size(); ++i) {
      EXPECT_GE(st.top_types[i - 1].second, st.top_types[i].second);
    }
  }
}

TEST(TopicAnalysisTest, TypeTopicRowsAreDistributions) {
  corpus::CorpusOptions opts;
  opts.num_tables = 200;
  opts.seed = 13;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();
  util::Rng rng(14);
  LdaModel lda =
      LdaModel::Train(TablesToDocuments(tables), SmallLda(6), &rng);
  TopicAnalysis analysis(&lda);
  analysis.Fit(tables);
  // Types present in the corpus must have a normalised distribution.
  const auto& row = analysis.TypeTopicDistribution(TypeIdOrDie("name"));
  double sum = 0.0;
  for (double p : row) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

}  // namespace
}  // namespace sato::topic
