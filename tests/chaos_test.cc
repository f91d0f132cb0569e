// Chaos battery: deterministic fault injection across the whole serving
// stack (serve/fault_injector.h), the retrying deadline-bounded client
// (wire::RetryPolicy), and end-to-end deadline shedding. The invariants
// under fire are the standing ones: every non-error response byte-identical
// to the sequential oracle, no deadlocks, no connection-slot leaks, no lost
// acknowledged corrections -- and the same seed replays the same schedule.
//
// Retry timing is tested against a FakeClock (no wall-clock sleeps): the
// client's backoff sleeps park on the injected clock, the test advances
// time by hand and asserts the exact wake sequence.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
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
#include "serve/correction_wal.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato {
namespace {

using serve::BatchPredictor;
using serve::CorrectionWal;
using serve::CorrectionWalOptions;
using serve::FakeClock;
using serve::FaultInjector;
using serve::FaultInjectorStats;
using serve::FaultPlan;
using serve::FaultPoint;
using serve::ModelRegistry;
using serve::PredictionService;
using serve::PredictionServiceOptions;
using serve::RequestStatus;
using serve::ResultCache;
using serve::ResultCacheOptions;
using serve::Server;
using serve::ServerOptions;
using serve::ServerStats;
using serve::ServiceStats;
using serve::SteadyClock;
using test_support::GateClock;
namespace wire = serve::wire;
using wire::Client;
using wire::ClientResponse;
using wire::RetryPolicy;
using wire::WireStatus;

constexpr uint64_t kMicrosecond = 1'000;
constexpr uint64_t kMillisecond = 1'000'000;

// ------------------------------------------------ injector determinism ----

TEST(FaultInjectorTest, SameSeedSamePlanReplaysTheSameDecisions) {
  FaultPlan plan;
  plan.SetAll(100'000);  // 10%
  FaultInjector a(7, plan);
  FaultInjector b(7, plan);
  for (size_t p = 0; p < serve::kNumFaultPoints; ++p) {
    const auto point = static_cast<FaultPoint>(p);
    for (int k = 0; k < 1000; ++k) {
      ASSERT_EQ(a.Trigger(point), b.Trigger(point))
          << serve::FaultPointName(point) << " call " << k;
    }
  }
  EXPECT_EQ(a.Stats().injected, b.Stats().injected);
  EXPECT_GT(a.Stats().total_injected(), 0u);
}

TEST(FaultInjectorTest, DecisionDependsOnlyOnSeedPointAndCallIndex) {
  // Interleaving calls across points must not perturb any point's stream:
  // run point A alone, then A interleaved with B, and compare A's stream.
  FaultPlan plan;
  plan.SetAll(300'000);
  std::vector<bool> alone;
  {
    FaultInjector injector(99, plan);
    for (int k = 0; k < 256; ++k) {
      alone.push_back(injector.Trigger(FaultPoint::kClientSend));
    }
  }
  {
    FaultInjector injector(99, plan);
    for (int k = 0; k < 256; ++k) {
      ASSERT_EQ(injector.Trigger(FaultPoint::kClientSend), alone[k]) << k;
      injector.Trigger(FaultPoint::kDispatchThrow);  // interleaved noise
      injector.Trigger(FaultPoint::kWalAppendFail);
    }
  }
}

TEST(FaultInjectorTest, RateEndpointsAndCallCounting) {
  FaultPlan plan;
  plan.Set(FaultPoint::kDispatchThrow, 1'000'000);  // always
  // kClientSend stays 0: never fires, calls still counted.
  FaultInjector injector(5, plan);
  for (int k = 0; k < 100; ++k) {
    EXPECT_FALSE(injector.Trigger(FaultPoint::kClientSend));
    EXPECT_TRUE(injector.Trigger(FaultPoint::kDispatchThrow));
  }
  FaultInjectorStats stats = injector.Stats();
  EXPECT_EQ(stats.calls[static_cast<size_t>(FaultPoint::kClientSend)], 100u);
  EXPECT_EQ(stats.injected[static_cast<size_t>(FaultPoint::kClientSend)], 0u);
  EXPECT_EQ(stats.injected[static_cast<size_t>(FaultPoint::kDispatchThrow)],
            100u);
}

TEST(FaultInjectorTest, FiringRateTracksThePlan) {
  FaultPlan plan;
  plan.Set(FaultPoint::kCacheLookupMiss, 100'000);  // 10%
  FaultInjector injector(1234, plan);
  uint64_t fired = 0;
  for (int k = 0; k < 10'000; ++k) {
    fired += injector.Trigger(FaultPoint::kCacheLookupMiss) ? 1 : 0;
  }
  // Deterministic for this seed; the loose band just guards the mapping
  // from ppm to the splitmix64 draw (10% of 10k = 1000 expected).
  EXPECT_GT(fired, 800u);
  EXPECT_LT(fired, 1200u);
}

TEST(FaultInjectorTest, EveryPointHasAStableName) {
  for (size_t p = 0; p < serve::kNumFaultPoints; ++p) {
    EXPECT_STRNE(serve::FaultPointName(static_cast<FaultPoint>(p)),
                 "unknown");
  }
}

// ------------------------------------------------------ backoff formula ----

TEST(RetryBackoffTest, ExponentialDoublingCapsAtMax) {
  RetryPolicy policy;
  policy.initial_backoff_nanos = kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_nanos = 100 * kMillisecond;
  policy.jitter_fraction = 0.0;
  EXPECT_EQ(wire::RetryBackoffNanos(policy, 1), 1 * kMillisecond);
  EXPECT_EQ(wire::RetryBackoffNanos(policy, 2), 2 * kMillisecond);
  EXPECT_EQ(wire::RetryBackoffNanos(policy, 3), 4 * kMillisecond);
  EXPECT_EQ(wire::RetryBackoffNanos(policy, 7), 64 * kMillisecond);
  EXPECT_EQ(wire::RetryBackoffNanos(policy, 8), 100 * kMillisecond);  // cap
  EXPECT_EQ(wire::RetryBackoffNanos(policy, 20), 100 * kMillisecond);
}

TEST(RetryBackoffTest, JitterStaysInBoundsAndIsDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_nanos = kMillisecond;
  policy.max_backoff_nanos = 64 * kMillisecond;
  policy.jitter_fraction = 0.5;
  RetryPolicy no_jitter = policy;
  no_jitter.jitter_fraction = 0.0;
  bool any_jitter = false;
  for (int r = 1; r <= 12; ++r) {
    const uint64_t base = wire::RetryBackoffNanos(no_jitter, r);
    const uint64_t jittered = wire::RetryBackoffNanos(policy, r);
    EXPECT_GE(jittered, base) << "retry " << r;
    // jitter is a draw in [0, jitter_fraction * base)
    EXPECT_LT(jittered, base + base / 2 + 1) << "retry " << r;
    EXPECT_EQ(jittered, wire::RetryBackoffNanos(policy, r));  // replayable
    any_jitter |= jittered != base;
  }
  EXPECT_TRUE(any_jitter);

  RetryPolicy other_seed = policy;
  other_seed.jitter_seed = policy.jitter_seed + 1;
  bool any_difference = false;
  for (int r = 1; r <= 12; ++r) {
    any_difference |= wire::RetryBackoffNanos(other_seed, r) !=
                      wire::RetryBackoffNanos(policy, r);
  }
  EXPECT_TRUE(any_difference);  // different clients desynchronise
}

// ------------------------------------------------------ clock machinery ----

TEST(FakeClockSleepTest, SleepUntilParksUntilTheExactDeadline) {
  FakeClock clock;
  std::thread sleeper([&clock] { clock.SleepUntil(100); });
  clock.AwaitWaiters(1);
  clock.AdvanceNanos(99);
  EXPECT_EQ(clock.waiter_count(), 1u);  // 99 < 100: still parked
  clock.AdvanceNanos(1);                // exactly the deadline
  sleeper.join();
  EXPECT_EQ(clock.waiter_count(), 0u);
  clock.SleepUntil(5);  // already past: returns immediately
}

// ----------------------------------------------------- wire header (v2) ----

TEST(WireDeadlineTest, DeadlineMicrosRoundTripsThroughTheHeader) {
  wire::FrameHeader header;
  header.opcode = static_cast<uint16_t>(wire::Opcode::kPredict);
  header.request_id = 42;
  header.deadline_micros = 123'456;
  const std::string frame = wire::EncodeFrame(header, "abc");
  EXPECT_EQ(frame.size(), wire::kHeaderBytes + 3);
  wire::FrameHeader decoded;
  size_t frame_bytes = 0;
  ASSERT_EQ(wire::DecodeHeader(frame, wire::kMaxPayloadBytes, &decoded,
                               &frame_bytes),
            wire::DecodeStatus::kFrame);
  EXPECT_EQ(decoded.deadline_micros, 123'456u);
  EXPECT_EQ(decoded.payload_len, 3u);
}

// ----------------------------------------------------------- mini server ----

/// Bare accept loop for transport-level retry tests: each accepted
/// connection is handed to `handler` (which may read the request and send
/// whatever hostile bytes the test needs), then closed.
class MiniServer {
 public:
  void Start(std::function<void(int fd)> handler) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listen_fd_, 16), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ASSERT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &len),
              0);
    port_ = ntohs(bound.sin_port);
    thread_ = std::thread([this, handler = std::move(handler)] {
      for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;  // listener shut down
        handler(fd);
        ::close(fd);
      }
    });
  }

  ~MiniServer() {
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
    }
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

  /// Reads one full request frame off `fd` (so the client's send always
  /// completes before the hostile response; a premature close could RST
  /// the client's send and blur which failure mode is under test).
  static bool DrainOneRequest(int fd) {
    char header[wire::kHeaderBytes];
    if (!ReadExactly(fd, header, sizeof(header))) return false;
    const auto* b = reinterpret_cast<const unsigned char*>(header + 20);
    const uint32_t payload_len =
        static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
        (static_cast<uint32_t>(b[2]) << 16) |
        (static_cast<uint32_t>(b[3]) << 24);
    std::string sink(payload_len, '\0');
    return payload_len == 0 || ReadExactly(fd, sink.data(), payload_len);
  }

 private:
  static bool ReadExactly(int fd, char* out, size_t n) {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

Table TinyTable() {
  Table table;
  Column c;
  c.header = "name";
  c.values = {"alice", "bob"};
  table.AddColumn(std::move(c));
  return table;
}

// ------------------------------------------------- transport retry rules ----

TEST(ClientRetryTest, EofWithZeroResponseBytesIsRetriedToExhaustion) {
  MiniServer server;
  server.Start([](int fd) {
    MiniServer::DrainOneRequest(fd);
    // Close with nothing written: a clean EOF at the frame boundary, the
    // one transport failure that is provably side-effect-safe to retry.
  });
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_nanos = 100 * kMicrosecond;  // real, but tiny
  client.set_retry_policy(policy);
  ClientResponse response = client.Predict(TinyTable(), 1);
  EXPECT_FALSE(response.transport_ok);
  EXPECT_FALSE(response.response_bytes_received);
  EXPECT_EQ(response.attempts, 3);
  EXPECT_EQ(client.total_retries(), 2u);
}

TEST(ClientRetryTest, NeverRetriesAfterTheFirstResponseByte) {
  MiniServer server;
  server.Start([](int fd) {
    MiniServer::DrainOneRequest(fd);
    // 8 bytes of a plausible response header, then death: the request may
    // have had side effects server-side, so a retry is forbidden.
    std::string partial;
    wire::AppendU32(&partial, wire::kMagic);
    wire::AppendU16(&partial, wire::kProtocolVersion);
    wire::AppendU16(&partial, 0x8002);
    (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
  });
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_nanos = 100 * kMicrosecond;
  client.set_retry_policy(policy);
  ClientResponse response = client.Predict(TinyTable(), 1);
  EXPECT_FALSE(response.transport_ok);
  EXPECT_TRUE(response.response_bytes_received);
  EXPECT_EQ(response.attempts, 1);  // the guard: no second attempt
  EXPECT_EQ(client.total_retries(), 0u);
}

TEST(ClientRetryTest, ConnectToDeadPortFailsTypedNotHanging) {
  // Grab an ephemeral port and release it: nothing listens there.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  Client client;
  EXPECT_FALSE(client.Connect("127.0.0.1", dead_port,
                              /*recv_timeout_ms=*/1000,
                              /*connect_timeout_ms=*/1000));
  EXPECT_FALSE(client.error().empty());
  EXPECT_FALSE(client.connected());
}

// --------------------------------------- fake-clock backoff round trips ----

/// Shares one tiny corpus + model across the serving-stack tests below
/// (same pattern as service_test.cc: untrained seed-deterministic weights
/// exercise the full prediction path at a fraction of the cost).
class ChaosServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 60;
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
    model_ = MakeModel(33);
  }

  static void TearDownTestSuite() {
    model_.reset();
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

  /// The determinism oracle every kOk response must be byte-identical to.
  static std::vector<TypeId> Sequential(const Table& table, uint64_t seed) {
    SatoPredictor predictor(model_.get(), context_.get(), *scaler_);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
  static std::shared_ptr<const SatoModel> model_;
};

std::vector<Table>* ChaosServingTest::tables_ = nullptr;
SatoConfig* ChaosServingTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> ChaosServingTest::context_;
features::FeatureScaler* ChaosServingTest::scaler_ = nullptr;
std::shared_ptr<const SatoModel> ChaosServingTest::model_;

TEST_F(ChaosServingTest, BackoffSequenceIsExactOnTheFakeClock) {
  ModelRegistry registry;
  registry.Publish(model_, context_, *scaler_);
  PredictionServiceOptions sopts;
  sopts.num_threads = 1;
  PredictionService service(&registry, sopts);
  ServerOptions server_opts;
  server_opts.tenant_request_quota = 1;  // admit one predict, reject the rest
  Server server(&service, server_opts);

  // Burn the quota so every later predict earns a typed kRejected.
  {
    Client warm;
    ASSERT_TRUE(warm.Connect("127.0.0.1", server.port()));
    ASSERT_EQ(warm.Predict((*tables_)[0], 1).body.status, WireStatus::kOk);
  }

  FakeClock clock;
  Client client;
  client.set_clock(&clock);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_nanos = kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_nanos = 100 * kMillisecond;
  policy.jitter_fraction = 0.0;
  client.set_retry_policy(policy);

  ClientResponse response;
  std::thread caller([&] { response = client.Predict((*tables_)[5], 7); });
  // Expected backoffs: 1 ms, 2 ms, 4 ms. Each is slept on the fake clock;
  // advancing one nanosecond short must leave the client parked -- that IS
  // the exact-sequence assertion.
  //
  // Handshake: total_retries() ticks immediately before the k-th backoff
  // sleep, so waiting for it first guarantees AwaitWaiters observes THIS
  // park -- not the previous sleeper, notified but not yet off the clock,
  // which would let the advances outrun the client's attempts.
  uint64_t retry = 0;
  for (uint64_t backoff :
       {1 * kMillisecond, 2 * kMillisecond, 4 * kMillisecond}) {
    ++retry;
    while (client.total_retries() < retry) std::this_thread::yield();
    clock.AwaitWaiters(1);
    clock.AdvanceNanos(backoff - 1);
    EXPECT_EQ(clock.waiter_count(), 1u) << "woke " << backoff;
    clock.AdvanceNanos(1);
  }
  caller.join();

  EXPECT_TRUE(response.transport_ok);
  EXPECT_EQ(response.body.status, WireStatus::kRejected);  // last typed error
  EXPECT_EQ(response.attempts, 4);
  EXPECT_EQ(client.total_retries(), 3u);
  EXPECT_EQ(clock.waiter_count(), 0u);
}

TEST_F(ChaosServingTest, BackoffThatWouldOutliveTheDeadlineReturnsTypedError) {
  ModelRegistry registry;
  registry.Publish(model_, context_, *scaler_);
  PredictionServiceOptions sopts;
  sopts.num_threads = 1;
  PredictionService service(&registry, sopts);
  ServerOptions server_opts;
  server_opts.tenant_request_quota = 1;
  Server server(&service, server_opts);
  {
    Client warm;
    ASSERT_TRUE(warm.Connect("127.0.0.1", server.port()));
    ASSERT_EQ(warm.Predict((*tables_)[0], 1).body.status, WireStatus::kOk);
  }

  FakeClock clock;
  Client client;
  client.set_clock(&clock);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_nanos = kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.0;
  policy.request_deadline_nanos = 2 * kMillisecond + 500 * kMicrosecond;
  client.set_retry_policy(policy);

  ClientResponse response;
  std::thread caller([&] { response = client.Predict((*tables_)[6], 9); });
  // Attempt 1 at t=0 -> rejected, sleeps to 1 ms (within the 2.5 ms
  // budget). Attempt 2 at t=1 ms -> rejected; the next wake (3 ms) would
  // outlive the budget, so the client returns the last typed error
  // instead of sleeping into certain failure.
  clock.AwaitWaiters(1);
  clock.AdvanceNanos(kMillisecond);
  caller.join();

  EXPECT_TRUE(response.transport_ok);
  EXPECT_EQ(response.body.status, WireStatus::kRejected);
  EXPECT_EQ(response.attempts, 2);
  EXPECT_EQ(client.total_retries(), 1u);
}

// ---------------------------------------------------- deadline shedding ----

TEST_F(ChaosServingTest, ExpiredDeadlineIsShedByTheBatcherTyped) {
  FakeClock fake;
  GateClock clock(&fake);
  ModelRegistry registry;
  registry.Publish(model_, context_, *scaler_);
  PredictionServiceOptions options;
  options.num_threads = 1;
  options.max_batch_size = 8;
  options.max_queue_delay_nanos = kMillisecond;
  options.clock = &clock;
  PredictionService service(&registry, options);

  // The only worker is held busy, so A and B queue behind it. A sheds
  // (500 us budget < the 1 ms flush wait); B has no deadline and must
  // ride the same micro-batch to a normal, oracle-identical answer.
  clock.HoldNext(1);
  auto busy = service.Submit((*tables_)[0], 10);
  clock.AwaitParked(1);
  auto shed = service.Submit((*tables_)[1], 11, 500 * kMicrosecond);
  auto served = service.Submit((*tables_)[2], 12);
  fake.AwaitWaiters(1);  // the batcher reached its flush-deadline wait
  fake.AdvanceNanos(kMillisecond);

  // Resolved while the worker is still held: the batcher shed it.
  EXPECT_EQ(shed.Get().status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(shed.Get().type_ids.empty());
  clock.Release();
  EXPECT_EQ(served.Get().status, RequestStatus::kOk);
  EXPECT_EQ(served.Get().type_ids, Sequential((*tables_)[2], 12));
  EXPECT_EQ(busy.Get().status, RequestStatus::kOk);

  service.Shutdown();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.outstanding, 0u);
}

TEST_F(ChaosServingTest, WireDeadlinePropagatesAndShedsServerSide) {
  SteadyClock steady;
  GateClock clock(&steady);
  ModelRegistry registry;
  registry.Publish(model_, context_, *scaler_);
  PredictionServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.max_batch_size = 64;
  // The only worker is held busy, so the batcher waits 50 ms before
  // flushing a lone request; a 5 ms wire budget is guaranteed to expire
  // in the queue, so the service MUST shed (typed), not serve late.
  sopts.max_queue_delay_nanos = 50 * kMillisecond;
  sopts.clock = &clock;
  PredictionService service(&registry, sopts);
  Server server(&service, ServerOptions{});

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  RetryPolicy policy;
  policy.max_attempts = 3;  // kDeadlineExceeded must NOT be retried
  policy.request_deadline_nanos = 5 * kMillisecond;
  client.set_retry_policy(policy);

  clock.HoldNext(1);
  auto busy = service.Submit((*tables_)[0], 10);
  clock.AwaitParked(1);
  ClientResponse response = client.Predict((*tables_)[3], 13);
  EXPECT_TRUE(response.transport_ok);
  EXPECT_EQ(response.body.status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(response.attempts, 1);
  EXPECT_EQ(client.total_retries(), 0u);
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
  clock.Release();
  EXPECT_EQ(busy.Get().status, RequestStatus::kOk);
  server.Shutdown();
  EXPECT_EQ(server.Stats().predict_deadline_exceeded, 1u);
}

// -------------------------------------------------------- chaos battery ----

struct ChaosOutcome {
  uint64_t ok = 0;
  uint64_t typed_errors = 0;
  uint64_t transport_failures = 0;
  uint64_t retries = 0;
  uint64_t corrections_acked = 0;
  /// Per logical request, in submission order (single-client runs only):
  /// (transport_ok, status, attempts) -- the replayable schedule.
  std::vector<std::tuple<bool, uint8_t, int>> schedule;
  FaultInjectorStats injector;
};

/// One full daemon-under-fire run: registry + WAL + cache + service +
/// server share one seeded injector; `num_clients` clients each issue
/// `requests_each` requests (every 5th a correction) with retries and a
/// generous deadline. Every kOk prediction is checked byte-identical to
/// the sequential oracle; every acked correction must survive into the
/// WAL replay. Returns aggregate outcome for invariant checks.
class ChaosBatteryTest : public ChaosServingTest {
 protected:
  ChaosOutcome Run(uint64_t seed, size_t workers, const FaultPlan& plan,
                   size_t num_clients, size_t requests_each) {
    const std::string wal_path = ::testing::TempDir() + "sato_chaos_" +
                                 std::to_string(seed) + "_" +
                                 std::to_string(workers) + ".wal";
    std::remove(wal_path.c_str());

    FaultInjector injector(seed, plan);
    CorrectionWalOptions wal_opts;
    wal_opts.fault_injector = &injector;
    CorrectionWal wal(wal_path, wal_opts);
    ModelRegistry registry;
    registry.AttachCorrectionWal(&wal);
    registry.Publish(model_, context_, *scaler_);
    const uint64_t version = registry.current_version();

    ResultCacheOptions cache_opts;
    cache_opts.capacity_entries = 256;
    cache_opts.fault_injector = &injector;
    ResultCache cache(cache_opts);

    PredictionServiceOptions sopts;
    sopts.num_threads = workers;
    sopts.max_batch_size = 8;
    sopts.max_queue_delay_nanos = 200 * kMicrosecond;
    sopts.result_cache = &cache;
    sopts.fault_injector = &injector;
    PredictionService service(&registry, sopts);

    ServerOptions server_opts;
    server_opts.fault_injector = &injector;
    Server server(&service, server_opts);

    ChaosOutcome outcome;
    std::mutex outcome_mutex;
    // name -> (type, version) of every ACKED correction: the no-lost-ack
    // invariant is that each appears in the WAL replay.
    std::map<std::string, std::pair<TypeId, uint64_t>> acked;

    auto client_body = [&](size_t c) {
      Client client;
      client.set_fault_injector(&injector);
      RetryPolicy policy;
      policy.max_attempts = 4;
      policy.initial_backoff_nanos = 200 * kMicrosecond;
      policy.backoff_multiplier = 2.0;
      policy.max_backoff_nanos = 5 * kMillisecond;
      policy.jitter_fraction = 0.2;
      policy.jitter_seed = seed + c;
      policy.request_deadline_nanos = 2'000 * kMillisecond;  // generous
      client.set_retry_policy(policy);
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

      for (size_t i = 0; i < requests_each; ++i) {
        const uint64_t before = client.total_retries();
        if (i % 5 == 4) {
          const std::string name =
              "c" + std::to_string(c) + "_" + std::to_string(i);
          const TypeId type = static_cast<TypeId>(i % 7);
          ClientResponse r = client.Correct(name, type, version);
          std::lock_guard<std::mutex> lock(outcome_mutex);
          outcome.retries += client.total_retries() - before;
          if (r.transport_ok && r.body.status == WireStatus::kOk) {
            ++outcome.corrections_acked;
            acked.emplace(name, std::make_pair(type, version));
          } else if (r.transport_ok) {
            ++outcome.typed_errors;
          } else {
            ++outcome.transport_failures;
          }
          outcome.schedule.emplace_back(
              r.transport_ok, static_cast<uint8_t>(r.body.status),
              r.attempts);
          continue;
        }
        const size_t table_index = (c * requests_each + i) % tables_->size();
        const uint64_t request_seed =
            BatchPredictor::TableSeed(seed + c, static_cast<uint64_t>(i));
        ClientResponse r =
            client.Predict((*tables_)[table_index], request_seed);
        if (r.transport_ok && r.body.status == WireStatus::kOk) {
          // THE invariant: a fault schedule may slow or reject requests,
          // but every answer that does come back is byte-identical to the
          // sequential oracle on the served version.
          EXPECT_EQ(r.body.model_version, version);
          EXPECT_EQ(r.body.type_ids,
                    Sequential((*tables_)[table_index], request_seed))
              << "client " << c << " request " << i;
        }
        std::lock_guard<std::mutex> lock(outcome_mutex);
        outcome.retries += client.total_retries() - before;
        if (r.transport_ok && r.body.status == WireStatus::kOk) {
          ++outcome.ok;
        } else if (r.transport_ok) {
          ++outcome.typed_errors;
        } else {
          ++outcome.transport_failures;
        }
        outcome.schedule.emplace_back(r.transport_ok,
                                      static_cast<uint8_t>(r.body.status),
                                      r.attempts);
      }
    };

    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back(client_body, c);
    }
    for (std::thread& t : clients) t.join();

    server.Shutdown();
    service.Shutdown();

    // No connection-slot leaks: every accepted connection ran to its close
    // (refused connections are counted separately and never occupy slots).
    ServerStats server_stats = server.Stats();
    EXPECT_EQ(server_stats.connections_accepted,
              server_stats.connections_closed);
    ServiceStats service_stats = service.Stats();
    EXPECT_EQ(service_stats.outstanding, 0u);

    // No lost acknowledged corrections: a kill here would replay the WAL,
    // so the replay must contain every correction a client saw acked
    // (duplicates from retried lost acks are allowed: at-least-once).
    auto replay = CorrectionWal::Replay(wal_path);
    EXPECT_FALSE(replay.truncated);
    std::map<std::string, std::pair<TypeId, uint64_t>> replayed;
    for (const auto& c : replay.corrections) {
      replayed[c.column_name] = {c.corrected_type, c.model_version};
    }
    for (const auto& [name, expect] : acked) {
      auto it = replayed.find(name);
      EXPECT_NE(it, replayed.end()) << "acked correction lost: " << name;
      if (it != replayed.end()) {
        EXPECT_EQ(it->second, expect) << name;
      }
    }

    outcome.injector = injector.Stats();
    return outcome;
  }

  static FaultPlan BatteryPlan() {
    FaultPlan plan;
    plan.Set(FaultPoint::kClientSend, 30'000);       // 3%
    plan.Set(FaultPoint::kClientRecv, 30'000);
    plan.Set(FaultPoint::kServerRecvShort, 50'000);
    plan.Set(FaultPoint::kServerRecvError, 20'000);
    plan.Set(FaultPoint::kServerRecvStall, 10'000);
    plan.Set(FaultPoint::kServerSend, 20'000);
    plan.Set(FaultPoint::kAdmissionReject, 30'000);
    plan.Set(FaultPoint::kDispatchThrow, 30'000);
    plan.Set(FaultPoint::kCacheLookupMiss, 100'000);
    plan.Set(FaultPoint::kCacheInsertDrop, 100'000);
    plan.Set(FaultPoint::kWalAppendFail, 100'000);
    plan.stall_nanos = 500 * kMicrosecond;
    return plan;
  }
};

TEST_F(ChaosBatteryTest, SurvivesSeededFaultsWithOneWorker) {
  ChaosOutcome outcome = Run(/*seed=*/17, /*workers=*/1, BatteryPlan(),
                             /*num_clients=*/2, /*requests_each=*/20);
  EXPECT_GT(outcome.ok, 0u);  // the schedule must not starve everything
  EXPECT_GT(outcome.injector.total_injected(), 0u);  // ...or inject nothing
}

TEST_F(ChaosBatteryTest, SurvivesSeededFaultsWithTwoWorkers) {
  ChaosOutcome outcome = Run(/*seed=*/18, /*workers=*/2, BatteryPlan(),
                             /*num_clients=*/3, /*requests_each=*/20);
  EXPECT_GT(outcome.ok, 0u);
  EXPECT_GT(outcome.injector.total_injected(), 0u);
}

TEST_F(ChaosBatteryTest, SurvivesSeededFaultsWithEightWorkers) {
  ChaosOutcome outcome = Run(/*seed=*/19, /*workers=*/8, BatteryPlan(),
                             /*num_clients=*/4, /*requests_each=*/15);
  EXPECT_GT(outcome.ok, 0u);
  EXPECT_GT(outcome.injector.total_injected(), 0u);
}

TEST_F(ChaosBatteryTest, SameSeedReplaysTheSameSchedule) {
  // Restricted to logically-counted fault points (one Trigger per request
  // / attempt / probe -- no TCP-segmentation-driven sites) and one
  // sequential client on one worker: under those conditions the contract
  // is exact -- same seed, same per-request (transport, status, attempts)
  // schedule and the same injection counts, run after run. kClientRecv is
  // excluded because it abandons an attempt the server is still serving,
  // letting the retry race it server-side.
  FaultPlan plan;
  plan.Set(FaultPoint::kClientSend, 150'000);
  plan.Set(FaultPoint::kAdmissionReject, 100'000);
  plan.Set(FaultPoint::kDispatchThrow, 100'000);
  plan.Set(FaultPoint::kCacheLookupMiss, 200'000);
  plan.Set(FaultPoint::kCacheInsertDrop, 200'000);
  plan.Set(FaultPoint::kWalAppendFail, 250'000);

  ChaosOutcome first = Run(/*seed=*/42, /*workers=*/1, plan,
                           /*num_clients=*/1, /*requests_each=*/25);
  ChaosOutcome second = Run(/*seed=*/42, /*workers=*/1, plan,
                            /*num_clients=*/1, /*requests_each=*/25);
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.injector.injected, second.injector.injected);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_GT(first.injector.total_injected(), 0u);
}

}  // namespace
}  // namespace sato
