// Unit tests for sato::embedding: vocabulary, tokenisation, TF-IDF, SGNS
// training, and the word-embedding table.

#include <chrono>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "embedding/sgns.h"
#include "embedding/tfidf.h"
#include "embedding/vocabulary.h"
#include "embedding/word_embeddings.h"
#include "util/math_util.h"

namespace sato::embedding {
namespace {

// ----------------------------------------------------------- vocabulary ----

TEST(VocabularyTest, AssignsIdsByDescendingFrequency) {
  Vocabulary v;
  for (int i = 0; i < 5; ++i) v.Count("common");
  for (int i = 0; i < 2; ++i) v.Count("rare");
  v.Count("once");
  v.Finalize(1);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(*v.Id("common"), 0);
  EXPECT_EQ(*v.Id("rare"), 1);
  EXPECT_EQ(*v.Id("once"), 2);
  EXPECT_EQ(v.Frequency(0), 5);
}

TEST(VocabularyTest, BulkCountEqualsRepeatedCount) {
  Vocabulary bulk, single;
  bulk.Count("common", 5);
  bulk.Count("rare", 1);
  bulk.Count("rare", 1);
  for (int i = 0; i < 5; ++i) single.Count("common");
  single.Count("rare");
  single.Count("rare");
  bulk.Finalize(1);
  single.Finalize(1);
  ASSERT_EQ(bulk.size(), single.size());
  for (TokenId id = 0; id < static_cast<TokenId>(bulk.size()); ++id) {
    EXPECT_EQ(bulk.Token(id), single.Token(id));
    EXPECT_EQ(bulk.Frequency(id), single.Frequency(id));
  }
  EXPECT_EQ(bulk.TotalCount(), 7);
}

TEST(VocabularyTest, MinCountFiltersRareTokens) {
  Vocabulary v;
  v.Count("a");
  v.Count("a");
  v.Count("b");
  v.Finalize(2);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(v.Id("a").has_value());
  EXPECT_FALSE(v.Id("b").has_value());
}

TEST(VocabularyTest, TiesBrokenLexicographically) {
  Vocabulary v;
  v.Count("zebra");
  v.Count("apple");
  v.Finalize(1);
  EXPECT_EQ(*v.Id("apple"), 0);
  EXPECT_EQ(*v.Id("zebra"), 1);
}

TEST(VocabularyTest, TotalCountSumsInVocabOnly) {
  Vocabulary v;
  v.Count("a");
  v.Count("a");
  v.Count("b");
  v.Finalize(2);
  EXPECT_EQ(v.TotalCount(), 2);
}

TEST(VocabularyTest, FinalizeIsIdempotent) {
  Vocabulary v;
  v.Count("x");
  v.Finalize(1);
  size_t size = v.size();
  v.Finalize(1);
  EXPECT_EQ(v.size(), size);
}

// ----------------------------------------------------------- tokenizer ----

TEST(TokenizeCellTest, LowercasesAndSplits) {
  EXPECT_EQ(TokenizeCell("New York"), (std::vector<std::string>{"new", "york"}));
  EXPECT_EQ(TokenizeCell("Panthera leo"),
            (std::vector<std::string>{"panthera", "leo"}));
}

TEST(TokenizeCellTest, SplitsOnPunctuation) {
  EXPECT_EQ(TokenizeCell("a-b,c/d"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(TokenizeCellTest, NumbersBecomeMagnitudeBuckets) {
  EXPECT_EQ(TokenizeCell("42"), (std::vector<std::string>{"<num_2>"}));
  EXPECT_EQ(TokenizeCell("1234"), (std::vector<std::string>{"<num_4>"}));
  EXPECT_EQ(TokenizeCell("1,777,972"),
            (std::vector<std::string>{"<num_1>", "<num_3>", "<num_3>"}));
}

TEST(TokenizeCellTest, MixedAlphanumericKeptVerbatim) {
  EXPECT_EQ(TokenizeCell("B737"), (std::vector<std::string>{"b737"}));
}

TEST(TokenizeCellTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeCell("").empty());
  EXPECT_TRUE(TokenizeCell("--- !!").empty());
}

// --------------------------------------------------------------- tfidf ----

TEST(TfIdfTest, RarerTokensGetHigherIdf) {
  TfIdf tfidf;
  tfidf.Fit({{"the", "cat"}, {"the", "dog"}, {"the", "bird"}});
  EXPECT_GT(tfidf.Idf("cat"), tfidf.Idf("the"));
  EXPECT_GT(tfidf.Idf("unseen"), tfidf.Idf("cat"));
}

TEST(TfIdfTest, WeightsScaleWithTermFrequency) {
  TfIdf tfidf;
  tfidf.Fit({{"a", "b"}, {"a", "c"}});
  auto w = tfidf.Weights({"b", "b", "a"});
  EXPECT_GT(w[0], w[2]);       // b is rarer and twice as frequent here
  EXPECT_DOUBLE_EQ(w[0], w[1]);
}

TEST(TfIdfTest, EmptyDocumentYieldsEmptyWeights) {
  TfIdf tfidf;
  tfidf.Fit({{"a"}});
  EXPECT_TRUE(tfidf.Weights({}).empty());
}

TEST(TfIdfTest, SaveLoadRoundTrip) {
  TfIdf tfidf;
  tfidf.Fit({{"the", "cat"}, {"the", "dog"}, {"bird"}});
  std::stringstream ss;
  tfidf.Save(&ss);
  TfIdf back = TfIdf::Load(&ss);
  EXPECT_EQ(back.num_documents(), tfidf.num_documents());
  for (const char* t : {"the", "cat", "dog", "bird", "unseen"}) {
    EXPECT_DOUBLE_EQ(back.Idf(t), tfidf.Idf(t)) << t;
  }
}

TEST(TfIdfTest, LoadRejectsTruncated) {
  std::stringstream ss("xx");
  EXPECT_THROW(TfIdf::Load(&ss), std::runtime_error);
}

// Overwrites the u64 at byte `pos` of a saved stream.
std::string PatchU64(std::string bytes, size_t pos, uint64_t value) {
  std::memcpy(bytes.data() + pos, &value, sizeof(value));
  return bytes;
}

TEST(TfIdfTest, HugeSavedTokenLengthThrowsQuickly) {
  TfIdf tfidf;
  tfidf.Fit({{"the", "cat"}, {"the", "dog"}});
  std::stringstream ss;
  tfidf.Save(&ss);
  // Layout: u64 documents, u64 entries, then per entry u64 length, bytes,
  // u64 df. A length of 2^50 must fail as a truncated stream, not as a
  // 1 PiB allocation.
  std::stringstream in(PatchU64(ss.str(), 2 * sizeof(uint64_t),
                                uint64_t{1} << 50));
  auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(TfIdf::Load(&in), std::runtime_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
}

TEST(TfIdfTest, TokenLongerThanOneReadChunkRoundTrips) {
  // Bounded reads fill a long token over several chunks.
  const std::string long_token(2 * (size_t{1} << 20) + 123, 'x');
  TfIdf tfidf;
  tfidf.Fit({{long_token, "cat"}, {"dog"}});
  std::stringstream ss;
  tfidf.Save(&ss);
  TfIdf back = TfIdf::Load(&ss);
  EXPECT_DOUBLE_EQ(back.Idf(long_token), tfidf.Idf(long_token));
  EXPECT_DOUBLE_EQ(back.Idf("dog"), tfidf.Idf("dog"));
}

// ---------------------------------------------------------------- sgns ----

// Builds a corpus with two disjoint token "communities"; tokens that
// co-occur should end up closer than tokens that never do.
TEST(SgnsTest, CooccurringTokensAreCloser) {
  std::vector<std::vector<std::string>> sentences;
  for (int i = 0; i < 300; ++i) {
    sentences.push_back({"red", "green", "blue", "yellow"});
    sentences.push_back({"cat", "dog", "bird", "fish"});
  }
  SgnsTrainer::Options opts;
  opts.dim = 12;
  opts.epochs = 6;
  opts.min_count = 1;
  opts.subsample = 0.0;
  SgnsTrainer trainer(opts);
  util::Rng rng(21);
  WordEmbeddings emb = trainer.Train(sentences, &rng);

  double within = util::CosineSimilarity(emb.Lookup("red"), emb.Lookup("blue"));
  double across = util::CosineSimilarity(emb.Lookup("red"), emb.Lookup("dog"));
  EXPECT_GT(within, across);
}

TEST(SgnsTest, RespectsMinCount) {
  std::vector<std::vector<std::string>> sentences = {
      {"a", "b", "a", "b"}, {"a", "b", "rare"}};
  SgnsTrainer::Options opts;
  opts.dim = 4;
  opts.min_count = 2;
  SgnsTrainer trainer(opts);
  util::Rng rng(22);
  WordEmbeddings emb = trainer.Train(sentences, &rng);
  EXPECT_TRUE(emb.Contains("a"));
  EXPECT_FALSE(emb.Contains("rare"));
}

TEST(SgnsTest, DeterministicForFixedSeed) {
  std::vector<std::vector<std::string>> sentences(
      50, {"x", "y", "z", "w"});
  SgnsTrainer::Options opts;
  opts.dim = 8;
  opts.min_count = 1;
  SgnsTrainer trainer(opts);
  util::Rng rng1(33), rng2(33);
  WordEmbeddings a = trainer.Train(sentences, &rng1);
  WordEmbeddings b = trainer.Train(sentences, &rng2);
  EXPECT_EQ(a.vectors(), b.vectors());
}

// ----------------------------------------------------- word embeddings ----

WordEmbeddings TinyEmbeddings() {
  Vocabulary v;
  v.Count("alpha");
  v.Count("alpha");
  v.Count("beta");
  v.Finalize(1);
  nn::Matrix vectors = nn::Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  return WordEmbeddings(std::move(v), std::move(vectors));
}

TEST(WordEmbeddingsTest, LookupInVocab) {
  WordEmbeddings emb = TinyEmbeddings();
  EXPECT_EQ(emb.Lookup("alpha"), (std::vector<double>{1.0, 0.0}));
  EXPECT_EQ(emb.Lookup("beta"), (std::vector<double>{0.0, 1.0}));
}

TEST(WordEmbeddingsTest, OovIsDeterministicAndDistinct) {
  WordEmbeddings emb = TinyEmbeddings();
  auto v1 = emb.Lookup("gamma");
  auto v2 = emb.Lookup("gamma");
  auto v3 = emb.Lookup("delta");
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, v3);
  EXPECT_FALSE(emb.Contains("gamma"));
}

TEST(WordEmbeddingsTest, AverageOfTokens) {
  WordEmbeddings emb = TinyEmbeddings();
  auto avg = emb.Average({"alpha", "beta"});
  EXPECT_DOUBLE_EQ(avg[0], 0.5);
  EXPECT_DOUBLE_EQ(avg[1], 0.5);
  auto empty = emb.Average({});
  EXPECT_EQ(empty, (std::vector<double>{0.0, 0.0}));
}

TEST(WordEmbeddingsTest, NearestExcludesSelf) {
  WordEmbeddings emb = TinyEmbeddings();
  auto nearest = emb.Nearest("alpha", 2);
  ASSERT_EQ(nearest.size(), 1u);  // only "beta" remains
  EXPECT_EQ(nearest[0].first, "beta");
}

TEST(WordEmbeddingsTest, SaveLoadRoundTrip) {
  WordEmbeddings emb = TinyEmbeddings();
  std::stringstream ss;
  emb.Save(&ss);
  WordEmbeddings back = WordEmbeddings::Load(&ss);
  EXPECT_EQ(back.vocab_size(), emb.vocab_size());
  EXPECT_EQ(back.dim(), emb.dim());
  EXPECT_EQ(back.Lookup("alpha"), emb.Lookup("alpha"));
  EXPECT_EQ(back.Lookup("beta"), emb.Lookup("beta"));
}

// Overwrites the saved frequency of vocabulary entry `entry` in a
// WordEmbeddings::Save stream (u64 count, then per entry u64 length, the
// token bytes and an i64 frequency).
std::string PatchFrequency(std::string bytes, size_t entry, int64_t freq) {
  size_t pos = sizeof(uint64_t);
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

double LoadSeconds(const std::string& bytes, bool* threw) {
  auto start = std::chrono::steady_clock::now();
  std::stringstream ss(bytes);
  *threw = false;
  try {
    WordEmbeddings::Load(&ss);
  } catch (const std::runtime_error&) {
    *threw = true;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(WordEmbeddingsTest, HugeSavedFrequencyLoadsOrThrowsQuickly) {
  std::stringstream ss;
  TinyEmbeddings().Save(&ss);
  const int64_t huge = int64_t{1} << 40;
  bool threw = false;
  // "alpha" is already the most frequent entry: ids keep their order and
  // the load succeeds without replaying 2^40 counts.
  std::string keeps_order = PatchFrequency(ss.str(), 0, huge);
  EXPECT_LT(LoadSeconds(keeps_order, &threw), 1.0);
  EXPECT_FALSE(threw);
  std::stringstream in(keeps_order);
  WordEmbeddings back = WordEmbeddings::Load(&in);
  EXPECT_EQ(back.Lookup("alpha"), (std::vector<double>{1.0, 0.0}));
  EXPECT_EQ(back.Lookup("beta"), (std::vector<double>{0.0, 1.0}));
  // Lifting "beta" above "alpha" would swap their ids against the matrix
  // rows, so the load refuses it.
  EXPECT_LT(LoadSeconds(PatchFrequency(ss.str(), 1, huge), &threw), 1.0);
  EXPECT_TRUE(threw);
}

TEST(WordEmbeddingsTest, HugeSavedLengthOrCountThrowsQuickly) {
  std::stringstream ss;
  TinyEmbeddings().Save(&ss);
  bool threw = false;
  // Layout: u64 count at 0, then the first entry's u64 token length.
  for (size_t pos : {size_t{0}, sizeof(uint64_t)}) {
    std::string bytes = PatchU64(ss.str(), pos, uint64_t{1} << 50);
    EXPECT_LT(LoadSeconds(bytes, &threw), 1.0) << pos;
    EXPECT_TRUE(threw) << pos;
  }
}

TEST(WordEmbeddingsTest, InvalidSavedFrequencyThrows) {
  std::stringstream ss;
  TinyEmbeddings().Save(&ss);
  for (int64_t freq : {int64_t{0}, int64_t{-3}}) {
    std::stringstream in(PatchFrequency(ss.str(), 1, freq));
    EXPECT_THROW(WordEmbeddings::Load(&in), std::runtime_error) << freq;
  }
  // Two frequencies of 2^62 would overflow the int64 count total.
  const int64_t half = int64_t{1} << 62;
  std::stringstream in(PatchFrequency(PatchFrequency(ss.str(), 0, half), 1,
                                      half));
  EXPECT_THROW(WordEmbeddings::Load(&in), std::runtime_error);
}

TEST(WordEmbeddingsTest, MismatchedShapesRejected) {
  Vocabulary v;
  v.Count("only");
  v.Finalize(1);
  nn::Matrix two_rows(2, 3);
  EXPECT_THROW(WordEmbeddings(std::move(v), std::move(two_rows)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sato::embedding
