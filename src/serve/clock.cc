#include "serve/clock.h"

#include <algorithm>
#include <thread>

namespace sato::serve {

// ------------------------------------------------------------ SteadyClock ----

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

/// `base` plus `deadline_nanos`, clamped to TimePoint::max(). The clamp
/// matters for deadlines past the end of the signed time_point range: a
/// saturated UINT64_MAX sum, or anything above INT64_MAX, would otherwise
/// convert to a negative (already expired) offset, and values just below
/// INT64_MAX would overflow the sum.
TimePoint DeadlineAfter(TimePoint base, uint64_t deadline_nanos) {
  const auto headroom =
      std::chrono::duration_cast<std::chrono::nanoseconds>(TimePoint::max() -
                                                           base);
  if (deadline_nanos >= static_cast<uint64_t>(headroom.count())) {
    return TimePoint::max();
  }
  return base + std::chrono::nanoseconds(deadline_nanos);
}

}  // namespace

uint64_t SteadyClock::NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base_)
          .count());
}

bool SteadyClock::WaitUntil(std::condition_variable& cv,
                            std::unique_lock<std::mutex>& lock,
                            uint64_t deadline_nanos,
                            std::function<bool()> pred) {
  const TimePoint deadline = DeadlineAfter(base_, deadline_nanos);
  if (deadline == TimePoint::max()) {  // never fires: wait for pred alone
    cv.wait(lock, std::move(pred));
    return true;
  }
  return cv.wait_until(lock, deadline, std::move(pred));
}

void SteadyClock::SleepUntil(uint64_t deadline_nanos) {
  std::this_thread::sleep_until(DeadlineAfter(base_, deadline_nanos));
}

// -------------------------------------------------------------- FakeClock ----

uint64_t FakeClock::NowNanos() {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_nanos_;
}

bool FakeClock::WaitUntil(std::condition_variable& cv,
                          std::unique_lock<std::mutex>& lock,
                          uint64_t deadline_nanos, std::function<bool()> pred) {
  const Waiter waiter{lock.mutex(), &cv};
  Register(waiter);
  for (;;) {
    if (pred()) {
      Unregister(waiter);
      return true;
    }
    if (NowNanos() >= deadline_nanos) {
      Unregister(waiter);
      return pred();
    }
    cv.wait(lock);
  }
}

void FakeClock::SleepUntil(uint64_t deadline_nanos) {
  // Parks on clock-owned state only: a stack-local mutex/cv registered as
  // a Waiter could be destroyed while a concurrent AdvanceNanos still
  // iterates its snapshot, so sleepers get their own member cv instead.
  std::unique_lock<std::mutex> lock(mutex_);
  ++sleepers_;
  waiters_changed_.notify_all();
  while (now_nanos_ < deadline_nanos) sleepers_cv_.wait(lock);
  --sleepers_;
  waiters_changed_.notify_all();
}

void FakeClock::AdvanceNanos(uint64_t nanos) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    now_nanos_ += nanos;
    waiters = waiters_;
    sleepers_cv_.notify_all();
  }
  // Lock-then-unlock each waiter's mutex before notifying: a waiter that
  // already read the old time is necessarily parked in cv.wait (it held
  // the mutex from the check until the wait), so the notification cannot
  // be lost. The clock's own mutex is never held here, so there is no
  // lock-order cycle with WaitUntil's Register/Unregister.
  for (const Waiter& waiter : waiters) {
    { std::lock_guard<std::mutex> sync(*waiter.mutex); }
    waiter.cv->notify_all();
  }
}

size_t FakeClock::waiter_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiters_.size() + sleepers_;
}

void FakeClock::AwaitWaiters(size_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  waiters_changed_.wait(lock,
                        [&] { return waiters_.size() + sleepers_ >= n; });
}

void FakeClock::Register(const Waiter& waiter) {
  std::lock_guard<std::mutex> lock(mutex_);
  waiters_.push_back(waiter);
  waiters_changed_.notify_all();
}

void FakeClock::Unregister(const Waiter& waiter) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find_if(waiters_.begin(), waiters_.end(),
                         [&](const Waiter& w) {
                           return w.mutex == waiter.mutex && w.cv == waiter.cv;
                         });
  if (it != waiters_.end()) waiters_.erase(it);
  waiters_changed_.notify_all();
}

}  // namespace sato::serve
