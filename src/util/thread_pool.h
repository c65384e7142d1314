#ifndef WSD_UTIL_THREAD_POOL_H_
#define WSD_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace wsd {

/// A fixed-size worker pool with a blocking FIFO queue. Used by the scan
/// pipeline, the value studies and the diameter computation. Tasks must not throw.
class ThreadPool {
 public:
  /// `num_threads` = 0 selects std::thread::hardware_concurrency() (at
  /// least 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar work_cv_;  // signals workers: task or shutdown
  CondVar idle_cv_;  // signals Wait(): all tasks done
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;  // queued + currently running
  bool shutdown_ GUARDED_BY(mu_) = false;
  // unguarded: written once in the constructor before any worker can
  // observe it, then immutable; num_threads() reads it lock-free.
  std::vector<std::thread> workers_;
};

/// Splits [begin, end) into 4 × num_threads contiguous equal-count shards
/// across `pool` and runs body(shard_index, lo, hi) once per shard, so
/// callers keep per-shard state without per-iteration overhead. Blocks
/// until every shard is done; `body` must be safe to invoke concurrently
/// for distinct shards. Equal counts do not balance uneven work: on
/// power-law sites one shard gets the head hosts and takes as long as
/// the whole scan. ScanPipeline::Run therefore claims hosts largest
/// first; only the frozen RunLegacy oracle and this function's own tests
/// still call it.
void ParallelForShards(
    ThreadPool& pool, size_t begin, size_t end,
    const std::function<void(size_t shard, size_t lo, size_t hi)>& body);

}  // namespace wsd

#endif  // WSD_UTIL_THREAD_POOL_H_
