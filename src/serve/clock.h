#ifndef SATO_SERVE_CLOCK_H_
#define SATO_SERVE_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace sato::serve {

/// Monotonic time source the online serving layer schedules against,
/// expressed in nanoseconds since the clock's own epoch (construction).
///
/// The clock is injectable so that deadline behaviour -- when a partial
/// micro-batch flushes while every worker is busy -- is testable without
/// real sleeps: production uses SteadyClock, tests drive a FakeClock by
/// hand (tests/service_test.cc holds the workers busy, advances the clock
/// nanosecond-precisely and asserts a lone request flushes exactly at its
/// deadline; an idle service dispatches it at once, with no clock wait).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since this clock's epoch. Monotonic, thread-safe.
  virtual uint64_t NowNanos() = 0;

  /// Blocks on `cv` (whose mutex `lock` must hold) until `pred()` becomes
  /// true or the clock reaches `deadline_nanos`, whichever happens first.
  /// `pred` is only evaluated with the lock held. Returns the final
  /// `pred()` value, so `false` means the deadline fired.
  ///
  /// Whoever changes the predicate must notify `cv`; the FakeClock
  /// additionally wakes registered waiters on every Advance so time-outs
  /// happen without any real timer.
  virtual bool WaitUntil(std::condition_variable& cv,
                         std::unique_lock<std::mutex>& lock,
                         uint64_t deadline_nanos,
                         std::function<bool()> pred) = 0;

  /// Blocks the calling thread until the clock reaches `deadline_nanos`.
  /// The retry backoff in wire::Client sleeps through this, so backoff
  /// timing is testable without wall-clock sleeps: a FakeClock parks the
  /// sleeper (visible to waiter_count/AwaitWaiters) until AdvanceNanos
  /// reaches the deadline. Returns immediately when the deadline has
  /// already passed.
  virtual void SleepUntil(uint64_t deadline_nanos) = 0;
};

/// Real time: std::chrono::steady_clock, epoch at construction.
class SteadyClock final : public Clock {
 public:
  SteadyClock() : base_(std::chrono::steady_clock::now()) {}

  uint64_t NowNanos() override;
  bool WaitUntil(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lock, uint64_t deadline_nanos,
                 std::function<bool()> pred) override;
  void SleepUntil(uint64_t deadline_nanos) override;

 private:
  std::chrono::steady_clock::time_point base_;
};

/// Manually-driven time for deterministic deadline tests. Starts at 0 and
/// only moves when AdvanceNanos() is called; WaitUntil parks the caller on
/// its condition variable and re-checks the deadline on every advance, so
/// no test ever sleeps.
///
/// Wakeup protocol: AdvanceNanos locks-then-unlocks each registered
/// waiter's mutex before notifying its condition variable. A waiter is
/// therefore either (a) before its deadline check, where it will read the
/// new time, or (b) parked inside cv.wait, where the notify reaches it --
/// the advance can never slip between the check and the wait. The waiter's
/// service must outlive any concurrent AdvanceNanos call.
class FakeClock final : public Clock {
 public:
  uint64_t NowNanos() override;
  bool WaitUntil(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lock, uint64_t deadline_nanos,
                 std::function<bool()> pred) override;

  /// Parks on the clock's own condition variable (so no caller-owned
  /// mutex/cv can dangle into a concurrent AdvanceNanos) until time
  /// reaches the deadline. Counts as a waiter for AwaitWaiters.
  void SleepUntil(uint64_t deadline_nanos) override;

  /// Moves time forward and wakes every parked WaitUntil caller so it
  /// re-evaluates its deadline against the new time.
  void AdvanceNanos(uint64_t nanos);

  /// Callers currently parked inside WaitUntil or SleepUntil. 0 after a
  /// service's Shutdown() proves no deadline wait survives the batcher.
  size_t waiter_count();

  /// Blocks until at least `n` callers are parked inside WaitUntil or
  /// SleepUntil. Event-driven (woken by registration), not a poll --
  /// tests use it to know the batcher reached its deadline wait (or a
  /// retrying client its backoff sleep) before advancing time.
  void AwaitWaiters(size_t n);

 private:
  struct Waiter {
    std::mutex* mutex;
    std::condition_variable* cv;
  };

  void Register(const Waiter& waiter);
  void Unregister(const Waiter& waiter);

  std::mutex mutex_;
  std::condition_variable waiters_changed_;
  std::condition_variable sleepers_cv_;  // SleepUntil parks here
  uint64_t now_nanos_ = 0;
  size_t sleepers_ = 0;
  std::vector<Waiter> waiters_;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_CLOCK_H_
