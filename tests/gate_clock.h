// Test-only serve::Clock that can hold prediction workers busy on demand.
//
// The PredictionService batcher is work-conserving: a request that arrives
// while a worker is idle is dispatched at once, so the coalescing paths
// (batch fill, the oldest request's deadline, a worker freeing) only run
// while every worker is busy. GateClock puts the service in that state
// deterministically and without wall-clock sleeps: it wraps another clock
// and parks the next N NowNanos calls made by a worker until the test
// releases them. A worker reads the clock after its prediction, to stamp
// the latency, so a parked worker counts as busy until Release().
//
// Which threads are workers: every thread except the one that called
// HoldNext and any thread that has waited on the clock (the batcher,
// which always waits through Clock::WaitUntil before it reads the time,
// and reads it while holding the service lock -- it must never park).
// Threads that submit requests (HoldNext's caller aside) must wait for
// AwaitParked before submitting, or their Submit call could be held.

#ifndef SATO_TESTS_GATE_CLOCK_H_
#define SATO_TESTS_GATE_CLOCK_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/clock.h"

namespace sato::test_support {

class GateClock final : public serve::Clock {
 public:
  /// `inner` supplies the time and must outlive this clock.
  explicit GateClock(serve::Clock* inner) : inner_(inner) {}

  /// The next `n` NowNanos calls made by worker threads park until
  /// Release(). The calling thread is exempt from the hold.
  void HoldNext(size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    to_hold_ = n;
    holder_ = std::this_thread::get_id();
  }

  /// Blocks until `n` calls are parked.
  void AwaitParked(size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return parked_ >= n; });
  }

  /// Lets every parked call through (it then reads the inner clock) and
  /// drops any hold not yet taken.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      to_hold_ = 0;
      ++generation_;
    }
    changed_.notify_all();
  }

  uint64_t NowNanos() override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const std::thread::id self = std::this_thread::get_id();
      if (to_hold_ > 0 && self != holder_ &&
          std::find(waiters_.begin(), waiters_.end(), self) ==
              waiters_.end()) {
        --to_hold_;
        ++parked_;
        const uint64_t generation = generation_;
        changed_.notify_all();
        changed_.wait(lock, [&] { return generation_ != generation; });
        --parked_;
      }
    }
    return inner_->NowNanos();
  }

  bool WaitUntil(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lock, uint64_t deadline_nanos,
                 std::function<bool()> pred) override {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      const std::thread::id self = std::this_thread::get_id();
      if (std::find(waiters_.begin(), waiters_.end(), self) ==
          waiters_.end()) {
        waiters_.push_back(self);
      }
    }
    return inner_->WaitUntil(cv, lock, deadline_nanos, std::move(pred));
  }

  void SleepUntil(uint64_t deadline_nanos) override {
    inner_->SleepUntil(deadline_nanos);
  }

 private:
  serve::Clock* inner_;
  std::mutex mutex_;
  std::condition_variable changed_;
  size_t to_hold_ = 0;
  size_t parked_ = 0;
  uint64_t generation_ = 0;
  std::thread::id holder_;
  std::vector<std::thread::id> waiters_;  // threads that waited: batchers
};

}  // namespace sato::test_support

#endif  // SATO_TESTS_GATE_CLOCK_H_
