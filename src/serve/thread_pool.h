#ifndef SATO_SERVE_THREAD_POOL_H_
#define SATO_SERVE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sato::serve {

/// A fixed-size pool of worker threads draining a shared task queue.
///
/// Tasks receive the index of the worker running them (0 .. num_threads-1),
/// which lets callers keep worker-local state -- the BatchPredictor uses it
/// to route each table to a worker-private nn::Workspace while every
/// worker reads the same shared, immutable model. Parallelism is across
/// tables only: each task runs the serial GEMM kernel (nn/gemm.h).
///
/// The pool is created once and reused across batches; Wait() blocks until
/// the queue is empty *and* every in-flight task has finished, so a
/// Submit/Wait cycle is a complete barrier.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks; the queue is unbounded.
  ///
  /// An exception escaping a task does not kill the worker or wedge the
  /// pool: the first escaped exception_ptr is captured and rethrown by
  /// the next Wait() (later escapes before that Wait are dropped).
  /// Callers that need per-batch attribution still capture their own
  /// errors inside the task, as the BatchPredictor does.
  void Submit(std::function<void(size_t worker)> task);

  /// Blocks until all submitted tasks have completed, then rethrows the
  /// first exception that escaped a task since the previous Wait()
  /// (clearing it, so the next cycle starts clean). An escaped error
  /// never Wait()ed on is dropped at destruction.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker_index);

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void(size_t)>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  std::exception_ptr first_error_;  // first task escape since the last Wait
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_THREAD_POOL_H_
