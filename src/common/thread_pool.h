// Work-stealing job scheduler used by the parallel execution engines: the
// OXII / XOV validation pipelines, the src/check seed-sweep runner, and the
// bench harness. Protocol logic itself runs single-threaded inside one
// simulator; the pool only ever parallelizes *independent* deterministic
// work items (transactions in a block, whole simulations in a sweep).
//
// Design (DESIGN.md §9):
//  * one deque per worker; owners pop newest-first from the back, idle
//    workers steal oldest-first from the front of a victim's deque
//    (opposite ends, so owner and thief rarely contend, and coarse
//    outer-level jobs migrate while fine nested jobs stay local);
//  * external submissions round-robin across the worker deques; worker
//    submissions go to the submitter's own deque (locality for nested
//    fan-out);
//  * TaskGroup + Wait(group) give a *helping* barrier: a worker that waits
//    on a group executes other queued jobs instead of blocking, which is
//    what makes nested ParallelFor / nested Submit deadlock-free;
//  * CancellationToken gives cooperative cancellation: a job submitted
//    with a token is skipped (and counted) if the token was cancelled
//    before it started; long jobs may also poll the token themselves.
//
// The scheduler never reorders *results* — callers that need deterministic
// output index their jobs and merge in index order (see check/runner.cc).
#ifndef PBC_COMMON_THREAD_POOL_H_
#define PBC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pbc {

/// \brief Shared cancellation flag. Copies observe the same flag; Cancel()
/// is sticky. Jobs submitted with a token are skipped if it is cancelled
/// before they start; running jobs may poll cancelled() cooperatively.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  friend class ThreadPool;
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief Counts outstanding jobs for one logical batch, so independent
/// batches can Wait() without a pool-wide barrier. Not copyable; must
/// outlive every job submitted against it.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  size_t pending() const { return pending_.load(std::memory_order_acquire); }

 private:
  friend class ThreadPool;
  std::atomic<size_t> pending_{0};
};

class ThreadPool {
 public:
  /// Scheduler counters, summed over the workers. `steals` counts jobs a
  /// worker took from another worker's deque; `cancelled` counts jobs
  /// skipped because their token was cancelled before they started.
  struct Stats {
    uint64_t jobs_run = 0;
    uint64_t steals = 0;
    uint64_t cancelled = 0;
    uint64_t max_queue_depth = 0;
  };

  /// `num_threads` workers; 0 coerces to 1.
  explicit ThreadPool(size_t num_threads);

  /// Drains every queued job, then joins the workers. Jobs queued at
  /// destruction time still run (cancelled ones are skipped as usual).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Exceptions escaping a plain-Submit task terminate
  /// (as with std::thread); use SubmitWithFuture or ParallelFor for
  /// propagation.
  void Submit(std::function<void()> task);

  /// Enqueues a task counted against `group` (may be nullptr) and guarded
  /// by `token`: if the token is cancelled before the task starts, the
  /// task body is skipped but the group still completes.
  void Submit(TaskGroup* group, std::function<void()> task);
  void Submit(TaskGroup* group, CancellationToken token,
              std::function<void()> task);

  /// Enqueues `fn` and returns a future carrying its result or exception.
  template <typename F>
  auto SubmitWithFuture(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> fut = task->get_future();
    Submit([task] { (*task)(); });
    return fut;
  }

  /// Blocks until every job in the pool has finished. Must not be called
  /// from a worker thread (the calling job can never finish while it
  /// waits for itself) — use Wait(group) there.
  void Wait();

  /// Blocks until `group` has no pending jobs. Safe from worker threads:
  /// a waiting worker *helps*, executing other queued jobs until the
  /// group drains, so nested fan-out cannot deadlock.
  void Wait(TaskGroup* group);

  /// Runs `fn(i)` for i in [0, n) across the pool and waits. Nestable:
  /// may be called from inside a pool job. If any invocation throws, the
  /// first exception (by completion order) is rethrown after all chunks
  /// finish.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// Snapshot of the scheduler counters. Callable concurrently with
  /// running jobs (counters are atomics; values are monotonic).
  Stats stats() const;

  /// std::thread::hardware_concurrency(), or 2 when unknown.
  static size_t DefaultParallelism();

 private:
  struct Job {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    std::shared_ptr<std::atomic<bool>> cancel;  // null = not cancellable
  };

  // Cache-line sized so per-worker counters don't false-share.
  struct alignas(64) WorkerState {
    std::mutex mu;
    std::deque<Job> queue;
    std::atomic<uint64_t> jobs_run{0};
    std::atomic<uint64_t> steals{0};
  };

  void SubmitJob(TaskGroup* group, std::shared_ptr<std::atomic<bool>> cancel,
                 std::function<void()> fn);
  bool TryGetJob(size_t self, Job* out);
  void Execute(size_t self, Job* job);
  void FinishJob(const Job& job);
  void WorkerLoop(size_t index);

  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_task_;  ///< workers sleep here when idle
  std::condition_variable cv_done_;  ///< Wait()ers block here
  std::atomic<size_t> queued_{0};     ///< enqueued, not yet claimed
  std::atomic<size_t> in_flight_{0};  ///< enqueued or running
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  std::atomic<size_t> submit_cursor_{0};
  bool stop_ = false;
};

}  // namespace pbc

#endif  // PBC_COMMON_THREAD_POOL_H_
