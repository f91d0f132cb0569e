// Tests for the serving subsystem: the ThreadPool and the BatchPredictor's
// guarantee that parallel batch prediction is byte-identical to a
// sequential SatoPredictor run for a fixed seed, at any worker count.

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
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
#include "serve/thread_pool.h"
#include "table/semantic_type.h"
#include "util/rng.h"

namespace sato {
namespace {

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPoolTest, ExecutesEveryTask) {
  serve::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter](size_t) { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  serve::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter](size_t worker) {
    EXPECT_EQ(worker, 0u);
    counter.fetch_add(1);
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WorkerIndicesAreInRange) {
  constexpr size_t kWorkers = 3;
  serve::ThreadPool pool(kWorkers);
  std::atomic<int> out_of_range{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&out_of_range](size_t worker) {
      if (worker >= kWorkers) out_of_range.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  serve::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter](size_t) { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  serve::ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

// Regression: an exception escaping a task used to be swallowed by the
// worker and lost. The pool must capture the first escape and rethrow it
// on Wait() -- and still drain the rest of the queue.
TEST(ThreadPoolTest, WaitRethrowsAnEscapedTaskException) {
  serve::ThreadPool pool(2);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([](size_t) { throw std::runtime_error("task escape"); });
    pool.Submit([&survivors](size_t) { survivors.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(survivors.load(), 4);  // the escapes did not kill the workers
}

TEST(ThreadPoolTest, FirstEscapedExceptionWinsAndWaitClearsIt) {
  serve::ThreadPool pool(1);  // one worker: submission order = run order
  pool.Submit([](size_t) { throw std::runtime_error("first"); });
  pool.Submit([](size_t) { throw std::runtime_error("second"); });
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the captured exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The rethrow consumed the error: the next cycle starts clean.
  std::atomic<int> counter{0};
  pool.Submit([&counter](size_t) { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

// ------------------------------------------------------- table seeding ----

TEST(BatchPredictorSeedTest, TableSeedsAreDistinctAndStable) {
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < 1000; ++i) {
    seeds.insert(serve::BatchPredictor::TableSeed(7, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Stable across calls (pure function of base seed and index).
  EXPECT_EQ(serve::BatchPredictor::TableSeed(7, 3),
            serve::BatchPredictor::TableSeed(7, 3));
  EXPECT_NE(serve::BatchPredictor::TableSeed(7, 3),
            serve::BatchPredictor::TableSeed(8, 3));
}

// ------------------------------------------------------ batch predictor ----

// Shares one small corpus + feature context across all BatchPredictor
// tests; models are untrained (random but seed-deterministic weights),
// which exercises the identical prediction path at a fraction of the cost.
class BatchPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 150;
    copts.singleton_prob = 0.2;
    copts.seed = 33;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(120, 999);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(11);
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

  static std::shared_ptr<const SatoModel> MakeModel(SatoVariant variant,
                                                    uint64_t seed) {
    ColumnwiseModel::Dims dims;
    dims.char_dim = context_->pipeline().char_dim();
    dims.word_dim = context_->pipeline().word_dim();
    dims.para_dim = context_->pipeline().para_dim();
    dims.stat_dim = context_->pipeline().stat_dim();
    util::Rng rng(seed);
    return std::make_shared<const SatoModel>(variant, dims,
                                             context_->topic_dim(), *config_,
                                             &rng);
  }

  /// Publishes `model` with the suite's context and scaler into this
  /// test's registry; the returned bundle owns what it serves.
  std::shared_ptr<const serve::ModelBundle> Publish(
      std::shared_ptr<const SatoModel> model) {
    return registry_.Publish(std::move(model), context_, *scaler_);
  }

  // The sequential reference: SatoPredictor over each table in order, with
  // the same per-table seed stream the BatchPredictor uses.
  static std::vector<std::vector<TypeId>> SequentialReference(
      const SatoModel& model, uint64_t seed) {
    SatoPredictor predictor(&model, context_.get(), *scaler_);
    std::vector<std::vector<TypeId>> out;
    out.reserve(tables_->size());
    for (size_t i = 0; i < tables_->size(); ++i) {
      util::Rng rng(serve::BatchPredictor::TableSeed(seed, i));
      out.push_back(predictor.PredictTable((*tables_)[i], &rng));
    }
    return out;
  }

  serve::ModelRegistry registry_;

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
};

std::vector<Table>* BatchPredictorTest::tables_ = nullptr;
SatoConfig* BatchPredictorTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> BatchPredictorTest::context_;
features::FeatureScaler* BatchPredictorTest::scaler_ = nullptr;

TEST_F(BatchPredictorTest, MatchesSequentialAcrossWorkerCounts) {
  constexpr uint64_t kSeed = 5;
  const auto model = MakeModel(SatoVariant::kFull, 17);
  auto reference = SequentialReference(*model, kSeed);
  ASSERT_EQ(reference.size(), tables_->size());
  const auto bundle = Publish(model);

  for (size_t threads : {1u, 2u, 8u}) {
    serve::BatchPredictorOptions options;
    options.num_threads = threads;
    options.seed = kSeed;
    serve::BatchPredictor batch(bundle, options);
    EXPECT_EQ(batch.num_threads(), threads);
    auto results = batch.PredictTables(*tables_);
    EXPECT_EQ(results, reference) << "thread count " << threads;
  }
}

TEST_F(BatchPredictorTest, MatchesSequentialForUnstructuredVariant) {
  constexpr uint64_t kSeed = 9;
  const auto model = MakeModel(SatoVariant::kBase, 23);
  auto reference = SequentialReference(*model, kSeed);

  serve::BatchPredictorOptions options;
  options.num_threads = 4;
  options.seed = kSeed;
  serve::BatchPredictor batch(Publish(model), options);
  EXPECT_EQ(batch.PredictTables(*tables_), reference);
}

TEST_F(BatchPredictorTest, RepeatedBatchesAreIdentical) {
  const auto model = MakeModel(SatoVariant::kFull, 17);
  serve::BatchPredictorOptions options;
  options.num_threads = 2;
  options.seed = 5;
  serve::BatchPredictor batch(Publish(model), options);
  auto first = batch.PredictTables(*tables_);
  auto second = batch.PredictTables(*tables_);
  EXPECT_EQ(first, second);
}

TEST_F(BatchPredictorTest, SteadyStateFeaturizationDoesNotGrowScratch) {
  const auto model = MakeModel(SatoVariant::kFull, 17);
  serve::BatchPredictorOptions options;
  // One worker so every table lands on the same scratch: with dynamic
  // scheduling a multi-worker run could legitimately route the largest
  // table to a not-yet-warm worker.
  options.num_threads = 1;
  options.seed = 5;
  serve::BatchPredictor batch(Publish(model), options);
  batch.PredictTables(*tables_);  // warm-up: scratches reach high water
  batch.PredictTables(*tables_);
  size_t growth_before = batch.FeaturizeGrowthEvents();
  size_t bytes_before = batch.WorkspaceBytes();
  batch.PredictTables(*tables_);
  // Warm steady state: per-worker featurization scratch stops growing.
  EXPECT_EQ(batch.FeaturizeGrowthEvents(), growth_before);
  EXPECT_EQ(batch.WorkspaceBytes(), bytes_before);
}

TEST_F(BatchPredictorTest, PredictTypeNamesMatchesIds) {
  const auto model = MakeModel(SatoVariant::kFull, 17);
  serve::BatchPredictorOptions options;
  options.num_threads = 2;
  options.seed = 5;
  serve::BatchPredictor batch(Publish(model), options);

  std::vector<Table> subset(tables_->begin(),
                            tables_->begin() + std::min<size_t>(10, tables_->size()));
  auto ids = batch.PredictTables(subset);
  auto names = batch.PredictTypeNames(subset);
  ASSERT_EQ(ids.size(), names.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i].size(), names[i].size());
    for (size_t c = 0; c < ids[i].size(); ++c) {
      EXPECT_EQ(names[i][c], TypeName(ids[i][c]));
    }
  }
}

TEST_F(BatchPredictorTest, EmptyBatchYieldsEmptyResult) {
  const auto model = MakeModel(SatoVariant::kFull, 17);
  serve::BatchPredictorOptions options;
  options.num_threads = 2;
  serve::BatchPredictor batch(Publish(model), options);
  EXPECT_TRUE(batch.PredictTables({}).empty());
}

TEST_F(BatchPredictorTest, SharesExactlyOneModelInstance) {
  const auto model = MakeModel(SatoVariant::kFull, 17);
  serve::BatchPredictorOptions options;
  options.num_threads = 8;
  serve::BatchPredictor batch(Publish(model), options);
  // No replicas: the model the workers read IS the published instance,
  // pinned by the bundle. The bundle snapshot accessor replaced the old
  // `const SatoModel&` accessor, which would dangle under hot-swappable
  // ownership.
  ASSERT_NE(batch.bundle(), nullptr);
  EXPECT_EQ(&batch.bundle()->model(), model.get());
  EXPECT_EQ(batch.model_version(), 1u);
}

// ------------------------------------------------ shared-model re-entrancy ----

// N threads call PredictProbs concurrently on ONE shared const SatoModel,
// each with its own Workspace; every output must be byte-identical to the
// single-threaded run. This is the property the whole serving design
// rests on: the Apply path writes nothing to the model.
TEST_F(BatchPredictorTest, ConcurrentPredictProbsOnSharedModelIsByteIdentical) {
  constexpr uint64_t kSeed = 41;
  constexpr size_t kThreads = 8;
  const auto model = MakeModel(SatoVariant::kFull, 29);
  const SatoPredictor predictor(model.get(), context_.get(), *scaler_);
  const size_t n = std::min<size_t>(64, tables_->size());

  // Sequential reference (fresh Rng per table, same seed stream).
  std::vector<nn::Matrix> reference(n);
  for (size_t i = 0; i < n; ++i) {
    util::Rng rng(serve::BatchPredictor::TableSeed(kSeed, i));
    reference[i] = predictor.PredictProbs((*tables_)[i], &rng);
  }

  // Concurrent run over the same shared model: thread t owns workspace t
  // and the tables with index % kThreads == t.
  std::vector<nn::Matrix> concurrent(n);
  std::vector<nn::Workspace> workspaces(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) {
        util::Rng rng(serve::BatchPredictor::TableSeed(kSeed, i));
        concurrent[i] =
            predictor.PredictProbs((*tables_)[i], &rng, &workspaces[t]);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(concurrent[i], reference[i]) << "table " << i;
  }
}

// Same property through SatoModel::Predict (CRF Viterbi decode included),
// re-running each thread's slice twice so workspace *reuse* is exercised
// under concurrency, not just first-touch.
TEST_F(BatchPredictorTest, ConcurrentPredictWithWorkspaceReuseMatches) {
  constexpr uint64_t kSeed = 43;
  constexpr size_t kThreads = 4;
  const auto model = MakeModel(SatoVariant::kFull, 17);
  const SatoPredictor predictor(model.get(), context_.get(), *scaler_);
  const size_t n = std::min<size_t>(40, tables_->size());

  std::vector<std::vector<TypeId>> reference(n);
  for (size_t i = 0; i < n; ++i) {
    util::Rng rng(serve::BatchPredictor::TableSeed(kSeed, i));
    reference[i] = predictor.PredictTable((*tables_)[i], &rng);
  }

  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<TypeId>> concurrent(n);
    std::vector<nn::Workspace> workspaces(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < n; i += kThreads) {
          util::Rng rng(serve::BatchPredictor::TableSeed(kSeed, i));
          concurrent[i] =
              predictor.PredictTable((*tables_)[i], &rng, &workspaces[t]);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(concurrent, reference) << "round " << round;
  }
}

}  // namespace
}  // namespace sato
