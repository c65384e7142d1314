#include "util/thread_pool.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/timer.h"

namespace wsd {

namespace {

// Pool metrics (docs/METRICS.md): lookups hoisted out of the task path.
struct PoolMetrics {
  Counter& tasks_submitted;
  Counter& tasks_completed;
  Counter& worker_idle_us;
  Gauge& queue_depth;
  Gauge& workers;
  LatencyHistogram& task_seconds;

  static PoolMetrics& Get() {
    static PoolMetrics* metrics = [] {
      auto& reg = MetricsRegistry::Global();
      return new PoolMetrics{reg.GetCounter("wsd.pool.tasks_submitted"),
                             reg.GetCounter("wsd.pool.tasks_completed"),
                             reg.GetCounter("wsd.pool.worker_idle_us"),
                             reg.GetGauge("wsd.pool.queue_depth"),
                             reg.GetGauge("wsd.pool.workers"),
                             reg.GetHistogram("wsd.pool.task_seconds")};
    }();
    return *metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  PoolMetrics::Get().workers.Add(static_cast<double>(num_threads));
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  PoolMetrics::Get().workers.Add(-static_cast<double>(workers_.size()));
}

void ThreadPool::Submit(std::function<void()> task) {
  PoolMetrics& metrics = PoolMetrics::Get();
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  metrics.tasks_submitted.Increment();
  metrics.queue_depth.Add(1.0);
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  PoolMetrics& metrics = PoolMetrics::Get();
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      const Timer idle;
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      metrics.worker_idle_us.Increment(
          static_cast<uint64_t>(idle.ElapsedSeconds() * 1e6));
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    metrics.queue_depth.Add(-1.0);
    {
      ScopedTimer timer(metrics.task_seconds);
      task();
    }
    metrics.tasks_completed.Increment();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) idle_cv_.NotifyAll();
    }
  }
}

void ParallelForShards(
    ThreadPool& pool, size_t begin, size_t end,
    const std::function<void(size_t shard, size_t lo, size_t hi)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  // 4x the thread count, equal counts per shard. This does not balance
  // power-law work (see the header); the scan claims by size instead.
  const size_t num_shards =
      std::min(n, std::max<size_t>(1, pool.num_threads() * 4));
  const size_t chunk = (n + num_shards - 1) / num_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t lo = begin + s * chunk;
    const size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.Submit([&body, s, lo, hi] { body(s, lo, hi); });
  }
  pool.Wait();
}

}  // namespace wsd
