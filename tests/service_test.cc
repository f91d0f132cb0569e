// Concurrency battery for the online serving frontend
// (serve::PredictionService): multi-producer determinism under micro-
// batching, fake-clock dispatch behaviour (work-conserving dispatch to an
// idle worker, deadline / batch-fill / freed-worker flushes while every
// worker is held busy; no real sleeps anywhere in this suite),
// backpressure on the bounded admission queue, graceful shutdown
// semantics, and RCU hot swap under live traffic (mid-stream publishes,
// per-version determinism, bundle retirement, context re-binding).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "corpus/generator.h"
#include "gate_clock.h"
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
using test_support::GateClock;

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

  static PredictionServiceOptions FakeClockOptions(serve::Clock* clock) {
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

// ------------------------------------------------- fake-clock dispatch ----

/// Spins (yielding, no sleeps) until the batcher has dispatched `n`
/// micro-batches: a flush onto busy workers is visible in Stats before
/// any member can complete.
void AwaitBatches(const PredictionService& service, uint64_t n) {
  while (service.Stats().batches < n) std::this_thread::yield();
}

// Work-conserving dispatch: a request that arrives while a worker is idle
// is dispatched at once -- the clock never advances, yet it completes, with
// zero queueing latency on the service clock, as a batch of one.
TEST_F(PredictionServiceTest, IdleServiceDispatchesALoneRequestAtOnce) {
  const auto model = MakeModel(23);
  FakeClock clock;
  PredictionService service(Serve(model), FakeClockOptions(&clock));

  PredictionHandle handle = service.Submit((*tables_)[0], 5);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.type_ids, Sequential(*model, (*tables_)[0], 5));
  EXPECT_EQ(result.latency_nanos, 0u);  // time never moved

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_size_histogram[1], 1u);
  EXPECT_EQ(stats.latency_p99_nanos, 0u);
}

// With the only worker held busy, a lone request flushes exactly when its
// deadline is reached on the injected clock: one nanosecond short leaves
// it queued, the final nanosecond releases it. Its measured latency is
// then exactly the max-queue-delay (the worker is released at that
// instant), which pins the latency stats as well.
TEST_F(PredictionServiceTest, LoneRequestFlushesExactlyAtTheDeadline) {
  const auto model = MakeModel(23);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionService service(Serve(model), FakeClockOptions(&clock));

  clock.HoldNext(1);
  PredictionHandle busy = service.Submit((*tables_)[1], 4);
  clock.AwaitParked(1);  // the only worker is busy

  PredictionHandle handle = service.Submit((*tables_)[0], 5);
  fake.AwaitWaiters(1);  // the batcher reached its deadline wait

  fake.AdvanceNanos(kMillisecond - 1);
  EXPECT_EQ(service.Stats().batches, 1u);  // one nanosecond short: queued

  fake.AdvanceNanos(1);  // exactly the deadline
  AwaitBatches(service, 2);
  EXPECT_FALSE(handle.Done());  // flushed onto the busy worker's queue
  clock.Release();

  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.type_ids, Sequential(*model, (*tables_)[0], 5));
  EXPECT_EQ(result.latency_nanos, kMillisecond);
  EXPECT_EQ(busy.Get().latency_nanos, kMillisecond);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_size_histogram[1], 2u);
  EXPECT_EQ(stats.latency_p50_nanos, kMillisecond);
  EXPECT_EQ(stats.latency_p95_nanos, kMillisecond);
  EXPECT_EQ(stats.latency_p99_nanos, kMillisecond);
}

// The flush deadline is the OLDEST pending request's: a later arrival
// rides along early instead of restarting the wait.
TEST_F(PredictionServiceTest, BusyWorkersFlushAtTheOldestRequestsDeadline) {
  const auto model = MakeModel(23);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionService service(Serve(model), FakeClockOptions(&clock));

  clock.HoldNext(1);
  PredictionHandle busy = service.Submit((*tables_)[1], 4);
  clock.AwaitParked(1);

  PredictionHandle oldest = service.Submit((*tables_)[2], 6);
  fake.AwaitWaiters(1);
  fake.AdvanceNanos(400'000);
  PredictionHandle younger = service.Submit((*tables_)[3], 7);

  fake.AdvanceNanos(600'000 - 1);
  EXPECT_EQ(service.Stats().batches, 1u);
  fake.AdvanceNanos(1);  // the oldest request's deadline
  AwaitBatches(service, 2);
  clock.Release();

  EXPECT_EQ(oldest.Get().type_ids, Sequential(*model, (*tables_)[2], 6));
  EXPECT_EQ(younger.Get().type_ids, Sequential(*model, (*tables_)[3], 7));
  EXPECT_EQ(oldest.Get().latency_nanos, kMillisecond);
  EXPECT_EQ(younger.Get().latency_nanos, 600'000u);
  EXPECT_EQ(busy.Get().status, RequestStatus::kOk);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_size_histogram[2], 1u);  // both in one flush
}

// With every worker held busy, a full batch flushes immediately: the clock
// never advances, yet all max_batch_size requests flush as one batch and
// complete -- with zero queueing latency on the service clock.
TEST_F(PredictionServiceTest, FullBatchFlushesImmediatelyWithoutWaiting) {
  const auto model = MakeModel(23);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 4;
  options.num_threads = 2;
  options.max_queue_delay_nanos = 1'000'000'000;  // irrelevantly far away
  PredictionService service(Serve(model), options);

  clock.HoldNext(2);
  std::vector<PredictionHandle> busy;
  for (size_t w = 0; w < 2; ++w) {
    busy.push_back(service.Submit((*tables_)[10 + w], 50 + w));
    clock.AwaitParked(w + 1);  // each worker busy in turn
  }

  std::vector<PredictionHandle> handles;
  for (size_t i = 0; i < 4; ++i) {
    handles.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(3, i)));
  }
  AwaitBatches(service, 3);  // the fourth request filled the batch
  clock.Release();

  for (size_t i = 0; i < 4; ++i) {
    const serve::PredictionResult& result = handles[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(result.type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(3, i)));
    EXPECT_EQ(result.latency_nanos, 0u);  // time never moved
  }
  for (const PredictionHandle& handle : busy) {
    EXPECT_EQ(handle.Get().status, RequestStatus::kOk);
  }

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.batch_size_histogram[1], 2u);  // the two held requests
  EXPECT_EQ(stats.batch_size_histogram[4], 1u);
  EXPECT_EQ(stats.latency_p99_nanos, 0u);
}

// A worker freeing flushes the pending requests at once, long before
// their deadline: they go out together as one batch with zero latency.
TEST_F(PredictionServiceTest, FreedWorkerFlushesPendingRequestsAtOnce) {
  const auto model = MakeModel(23);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_queue_delay_nanos = 1'000'000'000;  // never reached
  PredictionService service(Serve(model), options);

  clock.HoldNext(1);
  PredictionHandle busy = service.Submit((*tables_)[1], 4);
  clock.AwaitParked(1);

  std::vector<PredictionHandle> handles;
  for (size_t i = 0; i < 3; ++i) {
    handles.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(19, i)));
  }
  fake.AwaitWaiters(1);
  EXPECT_EQ(service.Stats().batches, 1u);
  clock.Release();  // the worker frees; time stays at 0

  for (size_t i = 0; i < 3; ++i) {
    const serve::PredictionResult& result = handles[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(result.type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(19, i)));
    EXPECT_EQ(result.latency_nanos, 0u);
  }
  EXPECT_EQ(busy.Get().status, RequestStatus::kOk);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_size_histogram[3], 1u);
}

// A request whose deadline expires after its flush but before a worker
// picks it up is shed by the worker -- and that worker counts as free
// again: the next lone request is dispatched at once, not held for its
// timer.
TEST_F(PredictionServiceTest, WorkerShedFreesItsWorker) {
  const auto model = MakeModel(23);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 2;
  PredictionService service(Serve(model), options);

  clock.HoldNext(1);
  PredictionHandle busy = service.Submit((*tables_)[1], 4);
  clock.AwaitParked(1);
  PredictionHandle expiring = service.Submit((*tables_)[2], 6, 500'000);
  PredictionHandle served = service.Submit((*tables_)[3], 7);
  AwaitBatches(service, 2);  // the pair filled a batch behind the worker
  fake.AdvanceNanos(600'000);  // past the first one's deadline
  clock.Release();

  EXPECT_EQ(expiring.Get().status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(served.Get().type_ids, Sequential(*model, (*tables_)[3], 7));
  EXPECT_EQ(busy.Get().status, RequestStatus::kOk);

  PredictionHandle next = service.Submit((*tables_)[0], 5);
  EXPECT_EQ(next.Get().type_ids, Sequential(*model, (*tables_)[0], 5));
  EXPECT_EQ(next.Get().latency_nanos, 0u);  // time did not move again

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.outstanding, 0u);
}

// A deadline budget of UINT64_MAX ("no practical limit") must not wrap
// around the submit time into a deadline in the past: with the clock past
// zero, the request is served, not shed.
TEST_F(PredictionServiceTest, MaximalDeadlineBudgetDoesNotWrap) {
  const auto model = MakeModel(23);
  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 1;  // flushes on arrival, whatever the policy
  PredictionService service(Serve(model), options);
  clock.AdvanceNanos(2);

  PredictionHandle handle = service.Submit((*tables_)[0], 5, UINT64_MAX);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.type_ids, Sequential(*model, (*tables_)[0], 5));
  EXPECT_EQ(service.Stats().deadline_exceeded, 0u);
}

// After Shutdown() no deadline wait survives: the fake clock has no
// registered waiters, advancing time fires nothing, and new submissions
// are turned away with kShutdown. The request is queued behind a busy
// worker, so the batcher is parked on its flush deadline when the
// shutdown lands.
TEST_F(PredictionServiceTest, NoTimerFiresAfterShutdown) {
  const auto model = MakeModel(23);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionService service(Serve(model), FakeClockOptions(&clock));

  clock.HoldNext(1);
  PredictionHandle busy = service.Submit((*tables_)[2], 8);
  clock.AwaitParked(1);
  PredictionHandle queued = service.Submit((*tables_)[1], 9);
  fake.AwaitWaiters(1);

  // Shutdown drains: it flushes the queued request (no deadline reached)
  // and then waits for the pool, so the held worker is released once the
  // batcher has exited.
  std::thread shutdown([&] { service.Shutdown(); });
  AwaitBatches(service, 2);
  clock.Release();
  shutdown.join();

  EXPECT_EQ(queued.Get().status, RequestStatus::kOk);
  EXPECT_EQ(queued.Get().type_ids, Sequential(*model, (*tables_)[1], 9));
  EXPECT_EQ(busy.Get().status, RequestStatus::kOk);
  EXPECT_EQ(fake.waiter_count(), 0u);

  const serve::ServiceStats before = service.Stats();
  fake.AdvanceNanos(100 * kMillisecond);  // nothing is listening
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
// slots again. The first admitted request holds the only worker busy, so
// the other two stay queued until the test lets it finish.
TEST_F(PredictionServiceTest, OverflowIsRejectedAndDrainingResumesAdmission) {
  const auto model = MakeModel(31);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 16;   // larger than capacity: nothing flushes early
  options.queue_capacity = 3;
  PredictionService service(Serve(model), options);

  std::vector<PredictionHandle> admitted;
  clock.HoldNext(1);
  for (size_t i = 0; i < 3; ++i) {
    admitted.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(11, i)));
    if (i == 0) clock.AwaitParked(1);
  }

  PredictionHandle overflow = service.Submit((*tables_)[3], 1);
  EXPECT_TRUE(overflow.Done());  // resolved at Submit, no hang
  EXPECT_EQ(overflow.Get().status, RequestStatus::kRejected);
  EXPECT_TRUE(overflow.Get().type_ids.empty());
  EXPECT_EQ(overflow.Get().latency_nanos, 0u);

  serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.outstanding, 3u);

  // Drain: the freed worker releases the partial batch; every admitted
  // request completes correctly despite the overflow in between.
  clock.Release();
  for (size_t i = 0; i < 3; ++i) {
    const serve::PredictionResult& result = admitted[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(result.type_ids,
              Sequential(*model, (*tables_)[i],
                         serve::BatchPredictor::TableSeed(11, i)));
  }

  // Admission has resumed: the next submit is admitted (held in the
  // worker until released), not rejected.
  clock.HoldNext(1);
  PredictionHandle resumed = service.Submit((*tables_)[4], 2);
  clock.AwaitParked(1);
  EXPECT_FALSE(resumed.Done());
  clock.Release();
  EXPECT_EQ(resumed.Get().status, RequestStatus::kOk);
  EXPECT_EQ(resumed.Get().type_ids, Sequential(*model, (*tables_)[4], 2));
  EXPECT_EQ(service.Stats().rejected, 1u);  // the one overflow, no more
}

// Shutdown with requests still coalescing: every queued request completes
// (with the correct bytes), and submissions after shutdown are rejected.
// Both workers are held busy by the first two requests, so the other four
// are pending in the batcher when the shutdown lands.
TEST_F(PredictionServiceTest, ShutdownWhileQueuedCompletesQueuedRequests) {
  constexpr size_t kQueued = 6;
  const auto model = MakeModel(31);
  FakeClock fake;
  GateClock clock(&fake);
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.max_batch_size = 64;  // never fills: requests sit on the deadline
  options.num_threads = 2;
  PredictionService service(Serve(model), options);

  std::vector<PredictionHandle> handles;
  clock.HoldNext(2);
  for (size_t i = 0; i < kQueued; ++i) {
    handles.push_back(service.Submit(
        (*tables_)[i], serve::BatchPredictor::TableSeed(13, i)));
    if (i < 2) clock.AwaitParked(i + 1);
  }
  fake.AwaitWaiters(1);  // the last four are pending in the batcher
  std::thread shutdown([&] { service.Shutdown(); });
  AwaitBatches(service, 3);  // the shutdown flushed them
  clock.Release();
  shutdown.join();

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

    // Publisher: rolls out B once all but kClients requests of the first
    // third completed and C likewise for the first two thirds, so each
    // publish lands while requests are still in flight. A client starts
    // its second (third) third only once B (C) is live: however late a
    // loaded host wakes the publisher, requests are still submitted after
    // each publish, so later batches MUST pin the newer versions. At most
    // kClients requests (one per closed-loop client) were pinned before B,
    // and at least 2 * kClients more complete before C, so at least one
    // batch runs on B. The clients watch `published` rather than the
    // registry, so they synchronize with the publisher explicitly.
    constexpr size_t kThird = kPerClient / 3;
    std::atomic<uint64_t> published{1};
    std::thread publisher([&] {
      while (service.Stats().completed < kTotal / 3 - kClients) {
        std::this_thread::yield();
      }
      registry.Publish(model_b, context_, *scaler_, "B");
      published.store(2);
      while (service.Stats().completed < 2 * kTotal / 3 - kClients) {
        std::this_thread::yield();
      }
      registry.Publish(model_c, context_, *scaler_, "C");
      published.store(3);
    });

    std::vector<PredictionHandle> handles(kTotal);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t j = 0; j < kPerClient; ++j) {
          while (published.load() < 1 + j / kThird) {
            std::this_thread::yield();
          }
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

// A deadline past the end of steady_clock's signed range (the saturated
// UINT64_MAX that Submit produces for a huge queue delay, or anything above
// INT64_MAX) never fires: the wait ends only when the predicate turns true.
TEST(SteadyClockTest, FarFutureDeadlineWaitsForPredicate) {
  constexpr uint64_t kInt64Max =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  for (uint64_t deadline : {std::numeric_limits<uint64_t>::max(),
                            kInt64Max + 5, kInt64Max - 5}) {
    serve::SteadyClock clock;
    std::mutex mutex;
    std::condition_variable cv;
    bool ready = false;
    std::thread setter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      {
        std::lock_guard<std::mutex> guard(mutex);
        ready = true;
      }
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(clock.WaitUntil(cv, lock, deadline, [&] { return ready; }))
        << deadline;
    lock.unlock();
    setter.join();
  }
}

}  // namespace
}  // namespace sato
