// Concurrency battery for the online serving frontend
// (serve::PredictionService): multi-producer determinism under micro-
// batching, fake-clock deadline behaviour (no real sleeps anywhere in this
// suite), backpressure on the bounded admission queue, graceful shutdown
// semantics, and RCU hot swap under live traffic (mid-stream publishes,
// per-version determinism, bundle retirement, context re-binding).

#include <algorithm>
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
#include "serve/clock.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato {
namespace {

using serve::FakeClock;
using serve::ModelBundle;
using serve::ModelRegistry;
using serve::PredictionHandle;
using serve::PredictionService;
using serve::PredictionServiceOptions;
using serve::RequestStatus;

constexpr uint64_t kMillisecond = 1'000'000;  // service clocks run in nanos

// Shares one small corpus + feature context across every service test;
// models are untrained (random but seed-deterministic weights), which
// exercises the identical prediction path at a fraction of the cost.
class PredictionServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 80;
    copts.singleton_prob = 0.2;
    copts.seed = 71;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(100, 4242);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(19);
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

  /// Publishes `model` with the suite's context and scaler into this
  /// test's registry and returns the registry, ready to serve.
  ModelRegistry* Serve(std::shared_ptr<const SatoModel> model) {
    registry_.Publish(std::move(model), context_, *scaler_);
    return &registry_;
  }

  /// The determinism oracle: a sequential SatoPredictor run over `table`
  /// with the request's own seed -- what every service response must be
  /// byte-identical to, regardless of batching, scheduling or workers.
  static std::vector<TypeId> Sequential(const SatoModel& model,
                                        const Table& table, uint64_t seed) {
    SatoPredictor predictor(&model, context_.get(), *scaler_);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  /// Sequential oracle against an explicit context/scaler (the hot-swap
  /// tests serve bundles whose featurization state differs per version).
  static std::vector<TypeId> SequentialWith(
      const SatoModel& model, const FeatureContext* context,
      const features::FeatureScaler& scaler, const Table& table,
      uint64_t seed) {
    SatoPredictor predictor(&model, context, scaler);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  static PredictionServiceOptions FakeClockOptions(FakeClock* clock) {
    PredictionServiceOptions options;
    options.num_threads = 1;
    options.max_batch_size = 8;
    options.max_queue_delay_nanos = kMillisecond;
    options.clock = clock;
    return options;
  }

  ModelRegistry registry_;

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
};

std::vector<Table>* PredictionServiceTest::tables_ = nullptr;
SatoConfig* PredictionServiceTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> PredictionServiceTest::context_;
features::FeatureScaler* PredictionServiceTest::scaler_ = nullptr;

// ------------------------------------------- multi-producer determinism ----

// N client threads submit M requests each (random tables, per-request
// splitmix64 seed streams) against every worker-count x batch-size
// combination; every response must be byte-identical to the sequential
// oracle. This is the determinism-under-batching contract: the coalescing
// decisions differ wildly across these configs, the outputs may not.
TEST_F(PredictionServiceTest, StressMatchesSequentialAcrossWorkersAndBatches) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 10;
  constexpr size_t kTotal = kClients * kPerClient;
  constexpr uint64_t kBase = 77;
  const auto model = MakeModel(17);

  // Fixed randomized workload: request r predicts a random corpus table
  // with the seed stream TableSeed(kBase, r).
  util::Rng pick(9001);
  std::vector<size_t> table_of(kTotal);
  std::vector<std::vector<TypeId>> expected(kTotal);
  for (size_t r = 0; r < kTotal; ++r) {
    table_of[r] = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(tables_->size()) - 1));
    expected[r] = Sequential(*model, (*tables_)[table_of[r]],
                             serve::BatchPredictor::TableSeed(kBase, r));
  }

  ModelRegistry* registry = Serve(model);
  for (size_t workers : {1u, 2u, 8u}) {
    for (size_t batch : {1u, 4u, 32u}) {
      PredictionServiceOptions options;
      options.num_threads = workers;
      options.max_batch_size = batch;
      options.max_queue_delay_nanos = 200'000;  // 200 us, real clock
      PredictionService service(registry, options);

      std::vector<PredictionHandle> handles(kTotal);
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t j = 0; j < kPerClient; ++j) {
            const size_t r = c * kPerClient + j;
            handles[r] =
                service.Submit((*tables_)[table_of[r]],
                               serve::BatchPredictor::TableSeed(kBase, r));
          }
        });
      }
      for (auto& client : clients) client.join();

      for (size_t r = 0; r < kTotal; ++r) {
        const serve::PredictionResult& result = handles[r].Get();
        ASSERT_EQ(result.status, RequestStatus::kOk)
            << "workers " << workers << " batch " << batch << " request " << r;
        EXPECT_EQ(result.type_ids, expected[r])
            << "workers " << workers << " batch " << batch << " request " << r;
      }
      service.Shutdown();

      const serve::ServiceStats stats = service.Stats();
      EXPECT_EQ(stats.accepted, kTotal);
      EXPECT_EQ(stats.completed, kTotal);
      EXPECT_EQ(stats.rejected, 0u);
      EXPECT_EQ(stats.outstanding, 0u);
      // The histogram accounts for every request, in batches <= the cap.
      uint64_t requests_in_batches = 0;
      uint64_t batch_count = 0;
      ASSERT_EQ(stats.batch_size_histogram.size(), batch + 1);
      for (size_t s = 0; s < stats.batch_size_histogram.size(); ++s) {
        requests_in_batches += s * stats.batch_size_histogram[s];
        batch_count += stats.batch_size_histogram[s];
      }
      EXPECT_EQ(requests_in_batches, kTotal);
      EXPECT_EQ(batch_count, stats.batches);
      EXPECT_EQ(stats.batch_size_histogram[0], 0u);
    }
  }
}

// ------------------------------------------------- fake-clock deadlines ----

// A lone request flushes exactly when its deadline is reached on the
// injected clock: one nanosecond short leaves it queued, the final
// nanosecond releases it. Its measured latency is then exactly the
// max-queue-delay, which pins the latency stats as well.
TEST_F(PredictionServiceTest, LoneRequestFlushesExactlyAtTheDeadline) {
  const auto model = MakeModel(23);
  FakeClock clock;
  PredictionService service(Serve(model), FakeClockOptions(&clock));

  PredictionHandle handle = service.Submit((*tables_)[0], 5);
  clock.AwaitWaiters(1);  // the batcher reached its deadline wait

  clock.AdvanceNanos(kMillisecond - 1);
  EXPECT_FALSE(handle.Done());  // one nanosecond short: still queued

  clock.AdvanceNanos(1);  // exactly the deadline
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.type_ids, Sequential(*model, (*tables_)[0], 5));
  EXPECT_EQ(result.latency_nanos, kMillisecond);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_size_histogram[1], 1u);
  EXPECT_EQ(stats.latency_p50_nanos, kMillisecond);
  EXPECT_EQ(stats.latency_p95_nanos, kMillisecond);
  EXPECT_EQ(stats.latency_p99_nanos, kMillisecond);
}

// A full batch flushes immediately: the clock never advances, yet all
// max_batch_size requests complete -- with zero queueing latency on the
// service clock, and as one batch in the histogram.
TEST_F(PredictionServiceTest, FullBatchFlushesImmediatelyWithoutWaiting) {
  const auto model = MakeModel(23);
  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 4;
  options.num_threads = 2;
  options.max_queue_delay_nanos = 1'000'000'000;  // irrelevantly far away
  PredictionService service(Serve(model), options);

  std::vector<PredictionHandle> handles;
  for (size_t i = 0; i < 4; ++i) {
    handles.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(3, i)));
  }
  for (size_t i = 0; i < 4; ++i) {
    const serve::PredictionResult& result = handles[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(result.type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(3, i)));
    EXPECT_EQ(result.latency_nanos, 0u);  // time never moved
  }

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_size_histogram[4], 1u);
  EXPECT_EQ(stats.latency_p99_nanos, 0u);
}

// After Shutdown() no deadline wait survives: the fake clock has no
// registered waiters, advancing time fires nothing, and new submissions
// are turned away with kShutdown.
TEST_F(PredictionServiceTest, NoTimerFiresAfterShutdown) {
  const auto model = MakeModel(23);
  FakeClock clock;
  PredictionService service(Serve(model), FakeClockOptions(&clock));

  PredictionHandle queued = service.Submit((*tables_)[1], 9);
  clock.AwaitWaiters(1);
  service.Shutdown();  // drains: the queued request completes

  EXPECT_EQ(queued.Get().status, RequestStatus::kOk);
  EXPECT_EQ(queued.Get().type_ids, Sequential(*model, (*tables_)[1], 9));
  EXPECT_EQ(clock.waiter_count(), 0u);

  const serve::ServiceStats before = service.Stats();
  clock.AdvanceNanos(100 * kMillisecond);  // nothing is listening
  const serve::ServiceStats after = service.Stats();
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.completed, before.completed);

  PredictionHandle late = service.Submit((*tables_)[1], 9);
  EXPECT_TRUE(late.Done());  // resolved immediately, no hang
  EXPECT_EQ(late.Get().status, RequestStatus::kShutdown);
  EXPECT_TRUE(late.Get().type_ids.empty());
  EXPECT_EQ(service.Stats().rejected_shutdown, 1u);
}

// ------------------------------------------------------- backpressure ----

// Filling the bounded admission queue rejects overflow immediately (never
// a hang or a crash), and completing the queued requests frees admission
// slots again.
TEST_F(PredictionServiceTest, OverflowIsRejectedAndDrainingResumesAdmission) {
  const auto model = MakeModel(31);
  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 16;   // larger than capacity: nothing flushes early
  options.queue_capacity = 3;
  PredictionService service(Serve(model), options);

  std::vector<PredictionHandle> admitted;
  for (size_t i = 0; i < 3; ++i) {
    admitted.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(11, i)));
  }

  PredictionHandle overflow = service.Submit((*tables_)[3], 1);
  EXPECT_TRUE(overflow.Done());  // resolved at Submit, no hang
  EXPECT_EQ(overflow.Get().status, RequestStatus::kRejected);
  EXPECT_TRUE(overflow.Get().type_ids.empty());
  EXPECT_EQ(overflow.Get().latency_nanos, 0u);

  serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.outstanding, 3u);

  // Drain: the deadline releases the partial batch; every admitted
  // request completes correctly despite the overflow in between.
  clock.AdvanceNanos(kMillisecond);
  for (size_t i = 0; i < 3; ++i) {
    const serve::PredictionResult& result = admitted[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(result.type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(11, i)));
  }

  // Admission has resumed: the next submit is queued, not rejected.
  PredictionHandle resumed = service.Submit((*tables_)[4], 2);
  EXPECT_FALSE(resumed.Done());
  clock.AdvanceNanos(kMillisecond);
  EXPECT_EQ(resumed.Get().status, RequestStatus::kOk);
  EXPECT_EQ(resumed.Get().type_ids, Sequential(*model, (*tables_)[4], 2));
  EXPECT_EQ(service.Stats().rejected, 1u);  // the one overflow, no more
}

// Shutdown with requests still coalescing: every queued request completes
// (with the correct bytes), and submissions after shutdown are rejected.
TEST_F(PredictionServiceTest, ShutdownWhileQueuedCompletesQueuedRequests) {
  constexpr size_t kQueued = 6;
  const auto model = MakeModel(31);
  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 64;  // never fills: requests sit on the deadline
  options.num_threads = 2;
  PredictionService service(Serve(model), options);

  std::vector<PredictionHandle> handles;
  for (size_t i = 0; i < kQueued; ++i) {
    handles.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(13, i)));
  }
  clock.AwaitWaiters(1);  // all six are pending in the batcher
  service.Shutdown();

  for (size_t i = 0; i < kQueued; ++i) {
    const serve::PredictionResult& result = handles[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk) << "request " << i;
    EXPECT_EQ(result.type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(13, i)))
        << "request " << i;
  }
  EXPECT_EQ(service.Stats().completed, kQueued);

  PredictionHandle late = service.Submit((*tables_)[0], 1);
  EXPECT_EQ(late.Get().status, RequestStatus::kShutdown);
}

// ----------------------------------------------------------- hot swap ----

// Every response names the version that produced it; the snapshot
// accessors expose the same version (they replaced the `const SatoModel&`
// accessor that would now dangle across swaps), and a rejected request --
// which never reached a model -- reports version 0.
TEST_F(PredictionServiceTest, ResponsesCarryTheProducingModelVersion) {
  const auto model = MakeModel(37);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_, "only");

  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 1;  // flush immediately
  options.queue_capacity = 1;
  PredictionService service(&registry, options);

  EXPECT_EQ(service.model_version(), 1u);
  ASSERT_NE(service.bundle(), nullptr);
  EXPECT_EQ(service.bundle()->version(), 1u);
  EXPECT_EQ(service.bundle()->tag(), "only");
  EXPECT_EQ(service.registry(), &registry);

  PredictionHandle handle = service.Submit((*tables_)[0], 5);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.model_version, 1u);
  EXPECT_EQ(result.type_ids, Sequential(*model, (*tables_)[0], 5));

  // Overflow rejection never reaches a model: version 0.
  PredictionHandle a = service.Submit((*tables_)[1], 6);
  PredictionHandle b = service.Submit((*tables_)[1], 6);
  const serve::PredictionResult& rejected =
      a.Get().status == RequestStatus::kRejected ? a.Get() : b.Get();
  if (rejected.status == RequestStatus::kRejected) {
    EXPECT_EQ(rejected.model_version, 0u);
  }
  clock.AdvanceNanos(kMillisecond);
  service.Shutdown();
}

// Serving a registry with nothing published is a configuration error.
TEST_F(PredictionServiceTest, ConstructionRequiresAPublishedVersion) {
  ModelRegistry empty;
  PredictionServiceOptions options;
  EXPECT_THROW(PredictionService(&empty, options), std::invalid_argument);
  EXPECT_THROW(PredictionService(nullptr, options), std::invalid_argument);
}

// The swap battery: three versions with DIFFERENT weights roll out while
// multi-producer closed-loop clients hammer the service, at 1/2/8 workers.
// Asserts (a) every response's model_version was actually published,
// (b) every response is byte-identical to the sequential predictor on
// exactly that version, (c) no request is dropped or hangs across a
// Publish, (d) a request submitted after the last publish serves on it,
// and (e) the superseded first bundle is destroyed once drained -- its
// last pin, not the publish, is what frees it.
TEST_F(PredictionServiceTest, HotSwapUnderLoadStaysDeterministicPerVersion) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 12;
  constexpr size_t kTotal = kClients * kPerClient;
  constexpr uint64_t kBase = 101;
  const auto model_a = MakeModel(41);
  const auto model_b = MakeModel(42);
  const auto model_c = MakeModel(43);
  const SatoModel* models[] = {model_a.get(), model_b.get(), model_c.get()};

  util::Rng pick(2024);
  std::vector<size_t> table_of(kTotal);
  for (size_t r = 0; r < kTotal; ++r) {
    table_of[r] = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(tables_->size()) - 1));
  }

  for (size_t workers : {1u, 2u, 8u}) {
    ModelRegistry registry;
    registry.Publish(model_a, context_, *scaler_, "A");
    std::weak_ptr<const ModelBundle> v1_alive = registry.Current();

    PredictionServiceOptions options;
    options.num_threads = workers;
    options.max_batch_size = 4;
    options.max_queue_delay_nanos = 200'000;  // 200 us, real clock
    PredictionService service(&registry, options);

    // Publisher: rolls out B after a third of the stream completed and C
    // after two thirds. Closed-loop clients guarantee that requests are
    // still being submitted after each publish, so later batches MUST pin
    // the newer versions. C also waits for kClients + 1 completions after
    // B: at most kClients requests (one per closed-loop client) were
    // pinned before B, so at least one batch runs on B even when a loaded
    // host wakes the publisher late.
    std::thread publisher([&] {
      while (service.Stats().completed < kTotal / 3) {
        std::this_thread::yield();
      }
      registry.Publish(model_b, context_, *scaler_, "B");
      const uint64_t c_after = std::min<uint64_t>(
          kTotal, std::max<uint64_t>(2 * kTotal / 3,
                                     service.Stats().completed + kClients + 1));
      while (service.Stats().completed < c_after) {
        std::this_thread::yield();
      }
      registry.Publish(model_c, context_, *scaler_, "C");
    });

    std::vector<PredictionHandle> handles(kTotal);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t j = 0; j < kPerClient; ++j) {
          const size_t r = c * kPerClient + j;
          handles[r] =
              service.Submit((*tables_)[table_of[r]],
                             serve::BatchPredictor::TableSeed(kBase, r));
          handles[r].Get();  // closed loop: next submit after completion
        }
      });
    }
    for (auto& client : clients) client.join();
    publisher.join();

    // Submitted strictly after Publish(C) returned: must serve version 3.
    PredictionHandle epilogue = service.Submit((*tables_)[0], 7);
    EXPECT_EQ(epilogue.Get().status, RequestStatus::kOk);
    EXPECT_EQ(epilogue.Get().model_version, 3u);
    EXPECT_EQ(epilogue.Get().type_ids, Sequential(*model_c, (*tables_)[0], 7));

    size_t on_first = 0, on_later = 0;
    for (size_t r = 0; r < kTotal; ++r) {
      const serve::PredictionResult& result = handles[r].Get();
      ASSERT_EQ(result.status, RequestStatus::kOk)
          << "workers " << workers << " request " << r;
      ASSERT_GE(result.model_version, 1u) << "request " << r;
      ASSERT_LE(result.model_version, 3u) << "request " << r;
      (result.model_version == 1 ? on_first : on_later) += 1;
      EXPECT_EQ(result.type_ids,
                Sequential(*models[result.model_version - 1],
                           (*tables_)[table_of[r]],
                           serve::BatchPredictor::TableSeed(kBase, r)))
          << "workers " << workers << " request " << r << " version "
          << result.model_version;
    }
    // The very first batch dispatched before any completion, hence on A;
    // and each publish preceded at least a third of the submissions.
    EXPECT_GE(on_first, 1u) << "workers " << workers;
    EXPECT_GE(on_later, 1u) << "workers " << workers;

    service.Shutdown();
    const serve::ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.completed, kTotal + 1);  // nothing dropped, nothing hung
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_GE(stats.model_swaps, 2u);  // both publishes crossed dispatch

    // Superseded and fully drained: the first bundle's last pin has
    // dropped, so it is gone and the registry reports it retired.
    EXPECT_TRUE(v1_alive.expired()) << "workers " << workers;
    serve::RegistryStats rstats = registry.Stats();
    ASSERT_EQ(rstats.versions.size(), 3u);
    EXPECT_TRUE(rstats.versions[0].retired);
    EXPECT_FALSE(rstats.versions[2].retired);
    // Every ok response was recorded against some version.
    uint64_t served = 0;
    for (const auto& v : rstats.versions) served += v.served;
    EXPECT_EQ(served, kTotal + 1);
  }
}

// A swap that replaces the FEATURE CONTEXT (not just the weights): worker
// token dictionaries are keyed to the old context, so the service must
// re-bind scratches on the next request -- and back again when the old
// context returns. Responses around both swaps stay byte-identical to
// sequential predictors built on the matching context.
TEST_F(PredictionServiceTest, ContextSwapRebindsWorkerScratches) {
  const auto model_a = MakeModel(51);

  // An independently built featurization state: different reference
  // corpus, so different vocabulary, TF-IDF and LDA parameters.
  corpus::CorpusOptions copts;
  copts.num_tables = 40;
  copts.seed = 333;
  corpus::CorpusGenerator gen(copts);
  auto reference_b = gen.GenerateWith(60, 777);
  util::Rng rng_b(57);
  const auto context_b = std::make_shared<const FeatureContext>(
      FeatureContext::Build(reference_b, *config_, &rng_b));
  DatasetBuilder builder(context_b.get());
  auto corpus_b = gen.Generate();
  Dataset train_b = builder.Build(corpus_b, &rng_b);
  features::FeatureScaler scaler_b = StandardizeSplits(&train_b, nullptr);
  ColumnwiseModel::Dims dims_b;
  dims_b.char_dim = context_b->pipeline().char_dim();
  dims_b.word_dim = context_b->pipeline().word_dim();
  dims_b.para_dim = context_b->pipeline().para_dim();
  dims_b.stat_dim = context_b->pipeline().stat_dim();
  util::Rng mrng(58);
  const auto model_b = std::make_shared<const SatoModel>(
      SatoVariant::kFull, dims_b, context_b->topic_dim(), *config_, &mrng);

  ModelRegistry registry;
  registry.Publish(model_a, context_, *scaler_, "ctx-a");

  PredictionServiceOptions options;
  options.num_threads = 2;
  options.max_batch_size = 1;  // each submit flushes + executes immediately
  options.max_queue_delay_nanos = 200'000;
  PredictionService service(&registry, options);

  auto roundtrip = [&](size_t i, uint64_t seed) -> serve::PredictionResult {
    return service.Submit((*tables_)[i], seed).Get();
  };

  // Warm the worker dictionaries on context A.
  for (size_t i = 0; i < 6; ++i) {
    serve::PredictionResult r = roundtrip(i, 60 + i);
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.model_version, 1u);
    EXPECT_EQ(r.type_ids,
              SequentialWith(*model_a, context_.get(), *scaler_, (*tables_)[i],
                             60 + i));
  }

  // Swap to context B: every worker must re-key its token dictionary.
  registry.Publish(model_b, context_b, scaler_b, "ctx-b");
  for (size_t i = 0; i < 6; ++i) {
    serve::PredictionResult r = roundtrip(i, 70 + i);
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.model_version, 2u);
    EXPECT_EQ(r.type_ids,
              SequentialWith(*model_b, context_b.get(), scaler_b, (*tables_)[i],
                             70 + i));
  }

  // And back to context A (a fresh version): re-binding is symmetric, no
  // stale dictionary state survives the round trip.
  registry.Publish(model_a, context_, *scaler_, "ctx-a-again");
  for (size_t i = 0; i < 6; ++i) {
    serve::PredictionResult r = roundtrip(i, 80 + i);
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.model_version, 3u);
    EXPECT_EQ(r.type_ids,
              SequentialWith(*model_a, context_.get(), *scaler_, (*tables_)[i],
                             80 + i));
  }
  service.Shutdown();
  EXPECT_EQ(service.Stats().model_swaps, 2u);
}

// --------------------------------------------------------- small edges ----

TEST_F(PredictionServiceTest, EmptyTableResolvesOkWithNoTypes) {
  const auto model = MakeModel(23);
  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 1;  // flushes immediately
  PredictionService service(Serve(model), options);

  PredictionHandle handle = service.Submit(Table(), 7);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_TRUE(result.type_ids.empty());
}

TEST_F(PredictionServiceTest, DestructorDrainsAdmittedRequests) {
  const auto model = MakeModel(23);
  std::vector<PredictionHandle> handles;
  {
    PredictionServiceOptions options;  // real SteadyClock
    options.num_threads = 2;
    options.max_batch_size = 4;
    options.max_queue_delay_nanos = 50 * kMillisecond;
    PredictionService service(Serve(model), options);
    for (size_t i = 0; i < 6; ++i) {
      handles.push_back(service.Submit(
          (*tables_)[i], serve::BatchPredictor::TableSeed(29, i)));
    }
    // No Shutdown() call: the destructor must drain, well before the
    // 50 ms deadline would have flushed the trailing partial batch.
  }
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(handles[i].Done());
    EXPECT_EQ(handles[i].Get().status, RequestStatus::kOk);
    EXPECT_EQ(handles[i].Get().type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(29, i)));
  }
}

TEST_F(PredictionServiceTest, ShutdownIsIdempotent) {
  const auto model = MakeModel(23);
  PredictionServiceOptions options;
  PredictionService service(Serve(model), options);
  service.Shutdown();
  service.Shutdown();  // must not hang, crash, or double-join
  SUCCEED();
}

TEST(PredictionHandleTest, EmptyHandleThrows) {
  PredictionHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW(handle.Get(), std::logic_error);
  EXPECT_THROW(handle.Done(), std::logic_error);
}

TEST(RequestStatusTest, NamesAreStable) {
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kOk), "ok");
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kRejected), "rejected");
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kShutdown), "shutdown");
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kFailed), "failed");
}

// --------------------------------------------------- fake clock basics ----

TEST(FakeClockTest, AdvanceMovesTimeMonotonically) {
  FakeClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.AdvanceNanos(5);
  clock.AdvanceNanos(7);
  EXPECT_EQ(clock.NowNanos(), 12u);
  EXPECT_EQ(clock.waiter_count(), 0u);
}

TEST(FakeClockTest, WaitUntilReturnsImmediatelyPastDeadline) {
  FakeClock clock;
  clock.AdvanceNanos(100);
  std::mutex mutex;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mutex);
  // Deadline already reached: must not block even with a false predicate.
  EXPECT_FALSE(clock.WaitUntil(cv, lock, 50, [] { return false; }));
  EXPECT_TRUE(clock.WaitUntil(cv, lock, 50, [] { return true; }));
  EXPECT_EQ(clock.waiter_count(), 0u);
}

}  // namespace
}  // namespace sato
