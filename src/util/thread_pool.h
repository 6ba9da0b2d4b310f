#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file thread_pool.h
/// \brief Fixed-size worker pool used to parallelize address-graph
/// construction, which the paper notes is a CPU-bound,
/// embarrassingly-parallel task (§IV-E.1), plus the process-wide
/// shared pool (`util::SharedPool`) that serving, training and the
/// tensor GEMM kernels draw workers from so co-resident subsystems
/// don't oversubscribe the machine.
///
/// Observability: every pool maintains the process-wide
/// `util.thread_pool.queue_depth` gauge and `util.thread_pool.tasks`
/// counter (obs::MetricsRegistry), and with tracing enabled each task
/// emits a `util.thread_pool.wait` span (submit → dequeue) and a
/// `util.thread_pool.task` span (execution) on the worker's track.

namespace ba {

/// \brief A simple fixed-size thread pool with a ParallelFor helper.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains pending tasks and joins all workers. Idempotent; called by
  /// the destructor. After Shutdown, Submit rejects new work.
  void Shutdown();

  /// Enqueues a task for asynchronous execution. Returns false (and
  /// drops the task) when the pool has been shut down.
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. On a shared pool
  /// this waits for *all* submitters' tasks; prefer ParallelFor (which
  /// waits only for its own work) when the pool may be shared.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks submitted but not yet finished (queued + running) — a
  /// backlog gauge for serving metrics.
  size_t in_flight() const;

  /// Runs `body(i)` for i in [0, n) and returns once every iteration
  /// has finished. The body must be safe to invoke concurrently for
  /// distinct indices.
  ///
  /// The range is cut into contiguous chunks that the calling thread
  /// and up to `num_threads()` pool helpers claim from one shared
  /// cursor; the call waits only for chunks a helper has claimed and is
  /// still running. Because the caller works too, the call makes
  /// progress when every worker is busy (or the pool is shut down) —
  /// the caller then runs every chunk itself — and concurrent calls on
  /// one shared pool never wait on each other's work. A one-item call,
  /// or any call nested inside ParallelFor iterations or a pool task,
  /// runs inline without touching the pool: nested data parallelism
  /// degrades to serial.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// True when the calling thread is a worker of *any* ThreadPool, or
  /// is running ParallelFor iterations — as that call's caller, or
  /// inline. Every iteration therefore sees it set, whichever thread
  /// runs it. Lets nested parallel regions (e.g. a large GEMM reached
  /// from a training lane or a serving build) run serially instead of
  /// queueing helpers behind an already-busy pool.
  static bool InWorkerThread();

 private:
  struct PendingTask {
    std::function<void()> fn;
    /// Trace-epoch submit time; -1 when tracing was off at Submit (no
    /// wait span is emitted for the task then).
    int64_t enqueue_ns = -1;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<PendingTask> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

namespace util {

/// \brief Overrides the size of the process-wide shared pool. Only
/// effective before the pool's first use (it is created lazily and
/// never resized); returns false — and changes nothing — once
/// SharedPool() has materialized. Benches call this from `--threads`.
bool SetSharedPoolThreads(size_t num_threads);

/// \brief The number of workers SharedPool() has (or will be created
/// with): the SetSharedPoolThreads override if any, else the
/// `BA_THREADS` environment variable, else hardware_concurrency.
size_t SharedPoolThreads();

/// \brief Process-wide default worker pool, created on first use.
///
/// Every subsystem that wants background parallelism (serving engines,
/// data-parallel training, large GEMMs) should draw from this pool
/// rather than constructing private ones, so one process hosting a
/// trainer *and* an engine runs `SharedPoolThreads()` workers total
/// instead of the sum of private pool sizes. Work scheduled here must
/// use ParallelFor or per-call completion tracking — never pool-wide
/// Wait() — so independent submitters don't serialize on each other.
ThreadPool& SharedPool();

}  // namespace util

}  // namespace ba
