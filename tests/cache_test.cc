// Battery for the content-addressed result cache (serve/result_cache.h):
// key derivation invariants, sharded-LRU mechanics, and the parity
// contract that matters -- a cache hit is byte-identical to the cold
// prediction for every (table, seed, model version), including across a
// mid-stream hot swap and under multi-producer concurrent load at several
// worker counts. The concurrent suites double as TSAN fodder.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "corpus/generator.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato {
namespace {

using serve::CacheKey;
using serve::ComputeCacheKey;
using serve::ModelRegistry;
using serve::PredictionHandle;
using serve::PredictionService;
using serve::PredictionServiceOptions;
using serve::RequestStatus;
using serve::ResultCache;
using serve::ResultCacheOptions;
using serve::ResultCacheStats;

Table MakeTable(std::vector<std::vector<std::string>> columns) {
  Table table;
  for (size_t i = 0; i < columns.size(); ++i) {
    Column column;
    column.header = "col" + std::to_string(i);
    column.values = std::move(columns[i]);
    table.AddColumn(std::move(column));
  }
  return table;
}

// ------------------------------------------------- key derivation ----------

TEST(CacheKeyTest, DeterministicAndSensitiveToEveryInput) {
  Table table = MakeTable({{"alpha", "beta"}, {"1", "2", "3"}});
  CacheKey base = ComputeCacheKey(table, 7, 3);
  EXPECT_EQ(base, ComputeCacheKey(table, 7, 3));

  EXPECT_NE(base, ComputeCacheKey(table, 8, 3));  // seed
  EXPECT_NE(base, ComputeCacheKey(table, 7, 4));  // model version

  Table cell = MakeTable({{"alpha", "bets"}, {"1", "2", "3"}});
  EXPECT_NE(base, ComputeCacheKey(cell, 7, 3));  // one cell byte
}

TEST(CacheKeyTest, HeadersAreExcludedFromTheKey) {
  // Prediction never reads headers, so two tables differing only in
  // headers MUST share a key -- otherwise renaming a column would
  // needlessly cold-miss.
  Table a = MakeTable({{"x", "y"}});
  Table b = MakeTable({{"x", "y"}});
  b = Table();
  Column column;
  column.header = "completely different header";
  column.values = {"x", "y"};
  b.AddColumn(std::move(column));
  EXPECT_EQ(ComputeCacheKey(a, 1, 1), ComputeCacheKey(b, 1, 1));
}

TEST(CacheKeyTest, LengthPrefixingPreventsConcatenationAliasing) {
  // "ab","c" and "a","bc" concatenate identically; the length prefix must
  // keep them distinct. Same for moving a value across a column boundary.
  EXPECT_NE(ComputeCacheKey(MakeTable({{"ab", "c"}}), 1, 1),
            ComputeCacheKey(MakeTable({{"a", "bc"}}), 1, 1));
  EXPECT_NE(ComputeCacheKey(MakeTable({{"a", "b"}, {"c"}}), 1, 1),
            ComputeCacheKey(MakeTable({{"a"}, {"b", "c"}}), 1, 1));
  EXPECT_NE(ComputeCacheKey(MakeTable({{""}}), 1, 1),
            ComputeCacheKey(MakeTable({{"", ""}}), 1, 1));
}

// ------------------------------------------------- LRU mechanics -----------

ResultCache MakeSmallCache(size_t capacity, size_t shards = 1) {
  ResultCacheOptions options;
  options.capacity_entries = capacity;
  options.num_shards = shards;
  return ResultCache(options);
}

CacheKey KeyOf(int i) {
  return ComputeCacheKey(MakeTable({{std::to_string(i)}}), 0, 1);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache = MakeSmallCache(3);
  cache.Insert(KeyOf(1), 1, {1});
  cache.Insert(KeyOf(2), 1, {2});
  cache.Insert(KeyOf(3), 1, {3});

  // Touch 1 so 2 becomes the LRU victim.
  std::vector<TypeId> out;
  ASSERT_TRUE(cache.Lookup(KeyOf(1), &out));
  cache.Insert(KeyOf(4), 1, {4});

  EXPECT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_FALSE(cache.Lookup(KeyOf(2), &out));
  EXPECT_TRUE(cache.Lookup(KeyOf(3), &out));
  EXPECT_TRUE(cache.Lookup(KeyOf(4), &out));
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ResultCacheTest, DuplicateInsertOverwritesAndPromotes) {
  ResultCache cache = MakeSmallCache(2);
  cache.Insert(KeyOf(1), 1, {10});
  cache.Insert(KeyOf(2), 1, {20});
  cache.Insert(KeyOf(1), 1, {11});  // overwrite + promote: 2 is now LRU
  cache.Insert(KeyOf(3), 1, {30});

  std::vector<TypeId> out;
  ASSERT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_EQ(out, std::vector<TypeId>({11}));
  EXPECT_FALSE(cache.Lookup(KeyOf(2), &out));
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(ResultCacheTest, StatsAccounting) {
  ResultCache cache = MakeSmallCache(8);
  std::vector<TypeId> out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), &out));
  cache.Insert(KeyOf(1), 1, {1, 2, 3});
  EXPECT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_TRUE(cache.Lookup(KeyOf(1), &out));

  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate, 2.0 / 3.0);

  cache.Clear();
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheTest, PurgeKeepsOnlyTheNamedVersion) {
  ResultCache cache = MakeSmallCache(16, 4);
  for (int i = 0; i < 6; ++i) cache.Insert(KeyOf(i), i % 2 == 0 ? 1 : 2, {i});
  cache.PurgeVersionsOtherThan(2);

  std::vector<TypeId> out;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(cache.Lookup(KeyOf(i), &out), i % 2 == 1) << i;
  }
  EXPECT_EQ(cache.Stats().version_purged, 3u);
}

TEST(ResultCacheTest, ShardCountRoundsToPowerOfTwo) {
  ResultCacheOptions options;
  options.capacity_entries = 10;
  options.num_shards = 3;
  ResultCache cache(options);
  EXPECT_EQ(cache.num_shards(), 4u);
  EXPECT_EQ(cache.Stats().shards, 4u);
  EXPECT_EQ(cache.capacity_entries(), 10u);
}

TEST(ResultCacheTest, ConcurrentMixedLoadIsSafe) {
  // Raw thread-safety fodder (runs under TSAN in CI): concurrent inserts,
  // lookups, purges and stats over a small shard set.
  ResultCache cache = MakeSmallCache(64, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<TypeId> out;
      for (int i = 0; i < 2000; ++i) {
        int k = (t * 37 + i) % 100;
        if (i % 3 == 0) {
          cache.Insert(KeyOf(k), 1 + (i % 2), {k});
        } else if (i % 31 == 0) {
          cache.PurgeVersionsOtherThan(2);
        } else if (cache.Lookup(KeyOf(k), &out)) {
          ASSERT_EQ(out, std::vector<TypeId>({k}));
        }
        if (i % 97 == 0) cache.Stats();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, stats.lookups - stats.hits);
}

// ----------------------------------------------- service parity battery ----

// Shares one corpus + feature context across the parity tests (same
// pattern and cost profile as service_test.cc); models are untrained --
// random but seed-deterministic weights exercise the identical prediction
// path at a fraction of training cost.
class CacheParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 60;
    copts.singleton_prob = 0.2;
    copts.seed = 171;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(100, 5252);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(23);
    context_ = std::make_shared<const FeatureContext>(
        FeatureContext::Build(reference, *config_, &rng));

    DatasetBuilder builder(context_.get());
    Dataset train = builder.Build(*tables_, &rng);
    scaler_ = new features::FeatureScaler(StandardizeSplits(&train, nullptr));
  }

  static void TearDownTestSuite() {
    delete scaler_;
    context_.reset();
    delete config_;
    delete tables_;
  }

  static std::shared_ptr<const SatoModel> MakeModel(uint64_t seed) {
    ColumnwiseModel::Dims dims;
    dims.char_dim = context_->pipeline().char_dim();
    dims.word_dim = context_->pipeline().word_dim();
    dims.para_dim = context_->pipeline().para_dim();
    dims.stat_dim = context_->pipeline().stat_dim();
    util::Rng rng(seed);
    return std::make_shared<const SatoModel>(
        SatoVariant::kFull, dims, context_->topic_dim(), *config_, &rng);
  }

  /// The parity oracle: a sequential SatoPredictor run with the request's
  /// own seed. Every response -- cold or cached, any worker count -- must
  /// be byte-identical to this.
  static std::vector<TypeId> Sequential(const SatoModel& model,
                                        const Table& table, uint64_t seed) {
    SatoPredictor predictor(&model, context_.get(), *scaler_);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  static uint64_t SeedFor(size_t i) {
    return serve::BatchPredictor::TableSeed(1, i);
  }

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
};

std::vector<Table>* CacheParityTest::tables_ = nullptr;
SatoConfig* CacheParityTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> CacheParityTest::context_;
features::FeatureScaler* CacheParityTest::scaler_ = nullptr;

TEST_F(CacheParityTest, HitsAreByteIdenticalToColdAtEveryWorkerCount) {
  const auto model = MakeModel(5);
  std::vector<std::vector<TypeId>> oracle(tables_->size());
  for (size_t i = 0; i < tables_->size(); ++i) {
    oracle[i] = Sequential(*model, (*tables_)[i], SeedFor(i));
  }

  for (size_t workers : {1u, 2u, 8u}) {
    ResultCache cache(ResultCacheOptions{});
    ModelRegistry registry;
    registry.Publish(model, context_, *scaler_, "parity");

    PredictionServiceOptions options;
    options.num_threads = workers;
    options.max_batch_size = 8;
    options.result_cache = &cache;
    PredictionService service(&registry, options);

    // Cold pass: every table misses, result equals the oracle.
    for (size_t i = 0; i < tables_->size(); ++i) {
      const auto result = service.Submit((*tables_)[i], SeedFor(i)).Get();
      ASSERT_EQ(result.status, RequestStatus::kOk);
      EXPECT_FALSE(result.cache_hit);
      EXPECT_EQ(result.type_ids, oracle[i]) << "cold table " << i;
    }
    // Warm pass: every table hits and is byte-identical to cold.
    for (size_t i = 0; i < tables_->size(); ++i) {
      const auto result = service.Submit((*tables_)[i], SeedFor(i)).Get();
      ASSERT_EQ(result.status, RequestStatus::kOk);
      EXPECT_TRUE(result.cache_hit) << "table " << i;
      EXPECT_EQ(result.model_version, 1u);
      EXPECT_EQ(result.type_ids, oracle[i]) << "warm table " << i;
    }
    // A different seed is a different key: no false hit.
    const auto other = service.Submit((*tables_)[0], SeedFor(0) + 1).Get();
    ASSERT_EQ(other.status, RequestStatus::kOk);
    EXPECT_FALSE(other.cache_hit);

    auto stats = service.Stats();
    EXPECT_EQ(stats.cache_hits, tables_->size());
    EXPECT_EQ(stats.cache_misses, tables_->size() + 1);
    service.Shutdown();
  }
}

TEST_F(CacheParityTest, ParityHoldsAcrossMidStreamHotSwap) {
  const auto model_a = MakeModel(11);
  const auto model_b = MakeModel(22);
  const size_t n = std::min<size_t>(tables_->size(), 24);

  ResultCache cache(ResultCacheOptions{});
  ModelRegistry registry;
  registry.Publish(model_a, context_, *scaler_, "A");

  PredictionServiceOptions options;
  options.num_threads = 2;
  options.result_cache = &cache;
  PredictionService service(&registry, options);

  // Warm the cache under version 1 and check parity against A.
  for (size_t i = 0; i < n; ++i) {
    const auto cold = service.Submit((*tables_)[i], SeedFor(i)).Get();
    ASSERT_EQ(cold.status, RequestStatus::kOk);
    ASSERT_EQ(cold.type_ids, Sequential(*model_a, (*tables_)[i], SeedFor(i)));
    const auto warm = service.Submit((*tables_)[i], SeedFor(i)).Get();
    ASSERT_TRUE(warm.cache_hit);
    ASSERT_EQ(warm.model_version, 1u);
    ASSERT_EQ(warm.type_ids, cold.type_ids);
  }

  // Hot swap mid-stream. Version 2 keys differ, so the stale entries can
  // never be served; the first post-swap response per table must be a
  // cold prediction from B, then a byte-identical hit.
  registry.Publish(model_b, context_, *scaler_, "B");
  for (size_t i = 0; i < n; ++i) {
    const auto cold = service.Submit((*tables_)[i], SeedFor(i)).Get();
    ASSERT_EQ(cold.status, RequestStatus::kOk);
    EXPECT_FALSE(cold.cache_hit) << "stale hit after swap, table " << i;
    EXPECT_EQ(cold.model_version, 2u);
    EXPECT_EQ(cold.type_ids, Sequential(*model_b, (*tables_)[i], SeedFor(i)))
        << "post-swap parity, table " << i;
    const auto warm = service.Submit((*tables_)[i], SeedFor(i)).Get();
    ASSERT_EQ(warm.status, RequestStatus::kOk);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.model_version, 2u);
    EXPECT_EQ(warm.type_ids, cold.type_ids);
  }

  // The batcher purges retired-version entries when it observes the swap;
  // by now every v1 entry is gone and only v2 remains resident.
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.version_purged, n);
  EXPECT_EQ(stats.entries, n);
  service.Shutdown();
}

TEST_F(CacheParityTest, FourProducersStayByteIdenticalAtEveryWorkerCount) {
  const auto model = MakeModel(33);
  const size_t n = std::min<size_t>(tables_->size(), 32);
  std::vector<std::vector<TypeId>> oracle(n);
  for (size_t i = 0; i < n; ++i) {
    oracle[i] = Sequential(*model, (*tables_)[i], SeedFor(i));
  }

  for (size_t workers : {1u, 2u, 8u}) {
    ResultCache cache(ResultCacheOptions{});
    ModelRegistry registry;
    registry.Publish(model, context_, *scaler_, "mp");

    PredictionServiceOptions options;
    options.num_threads = workers;
    options.max_batch_size = 8;
    options.result_cache = &cache;
    PredictionService service(&registry, options);

    constexpr int kProducers = 4;
    constexpr int kRequestsEach = 64;
    std::vector<std::thread> producers;
    std::atomic<int> mismatches{0};
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        util::Rng rng(1000 + p);
        for (int r = 0; r < kRequestsEach; ++r) {
          // Heavy repetition on purpose: concurrent hits and misses for
          // the same key must all resolve to the same bytes.
          size_t i = rng.Index(n);
          const auto result = service.Submit((*tables_)[i], SeedFor(i)).Get();
          if (result.status != RequestStatus::kOk ||
              result.type_ids != oracle[i]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& producer : producers) producer.join();
    EXPECT_EQ(mismatches.load(), 0) << "workers=" << workers;

    auto stats = service.Stats();
    EXPECT_EQ(stats.cache_hits + stats.cache_misses,
              static_cast<uint64_t>(kProducers) * kRequestsEach);
    EXPECT_GT(stats.cache_hits, 0u);
    service.Shutdown();
  }
}

}  // namespace
}  // namespace sato
