#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ba {

namespace {

/// Process-wide instruments shared by every pool (several engines may
/// each own one); Add(+1)/Add(-1) pairs keep the aggregate depth right.
/// Pointers are cached once — instruments live forever.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Instance().GetGauge(
      "util.thread_pool.queue_depth");
  return gauge;
}

obs::Counter* TasksCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Instance().GetCounter("util.thread_pool.tasks");
  return counter;
}

/// Set for the lifetime of every WorkerLoop, and while any other thread
/// runs ParallelFor iterations, so nested parallel regions can detect
/// they already run in one.
thread_local bool t_in_parallel_region = false;

/// Marks the calling thread as running ParallelFor iterations for its
/// lifetime, restoring the previous mark afterwards.
class ParallelRegion {
 public:
  ParallelRegion() : outer_(t_in_parallel_region) {
    t_in_parallel_region = true;
  }
  ~ParallelRegion() { t_in_parallel_region = outer_; }
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

 private:
  bool outer_;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  BA_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

bool ThreadPool::Submit(std::function<void()> task) {
  PendingTask pending;
  pending.fn = std::move(task);
  if (obs::Tracer::Instance().enabled()) {
    pending.enqueue_ns = obs::Tracer::NowNs();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return false;
    tasks_.push(std::move(pending));
    ++in_flight_;
  }
  QueueDepthGauge()->Add(1);
  TasksCounter()->Increment();
  task_available_.notify_one();
  return true;
}

size_t ThreadPool::in_flight() const {
  std::unique_lock<std::mutex> lock(mu_);
  return in_flight_;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::InWorkerThread() { return t_in_parallel_region; }

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  // One item has nothing to share, and a nested call would only queue
  // helpers behind its own busy peers: both run inline. The iterations
  // see the same parallel-region mark either way.
  if (n <= 1 || t_in_parallel_region) {
    ParallelRegion region;
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // workers_ is empty after Shutdown; the caller then runs every chunk.
  const size_t max_chunks =
      std::min(n, std::max<size_t>(workers_.size(), 1) * 4);
  const size_t chunk_size = (n + max_chunks - 1) / max_chunks;
  const size_t chunks = (n + chunk_size - 1) / chunk_size;

  // The caller and up to chunks-1 helpers claim chunks from one cursor.
  // A helper that dequeues after the cursor ran out claims nothing and
  // never touches `body`, so only the cursor state is shared-owned: it
  // may outlive this call, the body need not.
  struct Shared {
    std::atomic<size_t> next{0};
    size_t finished = 0;  // guarded by mu
    std::mutex mu;
    std::condition_variable cv;
  };
  auto shared = std::make_shared<Shared>();
  auto run_chunks = [n, chunk_size, chunks, &body](Shared* s) {
    for (;;) {
      const size_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const size_t end = std::min(n, (c + 1) * chunk_size);
      for (size_t i = c * chunk_size; i < end; ++i) body(i);
      std::lock_guard<std::mutex> lock(s->mu);
      if (++s->finished == chunks) s->cv.notify_all();
    }
  };
  const size_t helpers = std::min(chunks - 1, workers_.size());
  for (size_t h = 0; h < helpers; ++h) {
    // A rejected helper (pool shut down) leaves more for the caller.
    if (!Submit([shared, run_chunks] { run_chunks(shared.get()); })) break;
  }
  {
    ParallelRegion region;
    run_chunks(shared.get());
  }
  // Every chunk is claimed once the caller's loop ends; wait only for
  // the ones helpers are still running.
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->finished == chunks; });
}

void ThreadPool::WorkerLoop() {
  obs::Tracer::Instance().SetCurrentThreadName("ba.pool.worker");
  t_in_parallel_region = true;
  for (;;) {
    PendingTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    QueueDepthGauge()->Add(-1);
    obs::Tracer& tracer = obs::Tracer::Instance();
    if (task.enqueue_ns >= 0 && tracer.enabled()) {
      // The wait span lands on the worker's track, abutting the task
      // span that follows — queueing delay reads straight off the
      // timeline.
      tracer.RecordComplete("util.thread_pool.wait", task.enqueue_ns,
                            obs::Tracer::NowNs() - task.enqueue_ns);
    }
    {
      BA_TRACE_SPAN("util.thread_pool.task");
      task.fn();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace util {

namespace {

std::mutex g_shared_pool_mu;
ThreadPool* g_shared_pool = nullptr;      // leaked singleton, LSan-reachable
size_t g_shared_pool_override = 0;        // 0 = no override

size_t DefaultSharedPoolThreads() {
  if (const char* env = std::getenv("BA_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<size_t>(parsed);
    }
    BA_LOG(Warn, "util.thread_pool")
        << "ignoring unparseable BA_THREADS=\"" << env << "\"";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace

bool SetSharedPoolThreads(size_t num_threads) {
  if (num_threads < 1) return false;
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool != nullptr) return false;  // already materialized
  g_shared_pool_override = num_threads;
  return true;
}

size_t SharedPoolThreads() {
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool != nullptr) return g_shared_pool->num_threads();
  if (g_shared_pool_override >= 1) return g_shared_pool_override;
  return DefaultSharedPoolThreads();
}

ThreadPool& SharedPool() {
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool == nullptr) {
    const size_t n = g_shared_pool_override >= 1 ? g_shared_pool_override
                                                 : DefaultSharedPoolThreads();
    // Leaked deliberately (like Tracer / MetricsRegistry): workers must
    // outlive every static-destruction-order client, and the pointer
    // stays reachable so LSan is quiet.
    g_shared_pool = new ThreadPool(n);
  }
  return *g_shared_pool;
}

}  // namespace util

}  // namespace ba
