#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace pbc {

namespace {

// Which pool (if any) the current thread is a worker of, and its index.
// Lets Submit route to the local deque and Wait(group) switch to helping.
thread_local ThreadPool* tl_pool = nullptr;
thread_local size_t tl_worker = 0;

}  // namespace

size_t ThreadPool::DefaultParallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  states_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    states_.push_back(std::make_unique<WorkerState>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  SubmitJob(nullptr, nullptr, std::move(task));
}

void ThreadPool::Submit(TaskGroup* group, std::function<void()> task) {
  SubmitJob(group, nullptr, std::move(task));
}

void ThreadPool::Submit(TaskGroup* group, CancellationToken token,
                        std::function<void()> task) {
  SubmitJob(group, token.flag_, std::move(task));
}

void ThreadPool::SubmitJob(TaskGroup* group,
                           std::shared_ptr<std::atomic<bool>> cancel,
                           std::function<void()> fn) {
  const bool on_worker = tl_pool == this;
  if (group != nullptr) {
    group->pending_.fetch_add(1, std::memory_order_relaxed);
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  size_t target =
      on_worker ? tl_worker
                : submit_cursor_.fetch_add(1, std::memory_order_relaxed) %
                      states_.size();
  {
    std::lock_guard<std::mutex> lock(states_[target]->mu);
    states_[target]->queue.push_back(
        Job{std::move(fn), group, std::move(cancel)});
  }
  uint64_t depth = queued_.fetch_add(1, std::memory_order_release) + 1;
  uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth)) {
  }
  {
    // Lock/unlock pairs the notify with a sleeper's predicate check so the
    // queued_ increment cannot slip between its check and its sleep.
    std::lock_guard<std::mutex> lock(mu_);
    cv_task_.notify_one();
  }
}

bool ThreadPool::TryGetJob(size_t self, Job* out) {
  {
    // Owner takes the newest job (LIFO): nested fan-out (e.g. shrink
    // probes submitted from inside a sweep cell) runs depth-first.
    WorkerState& mine = *states_[self];
    std::lock_guard<std::mutex> lock(mine.mu);
    if (!mine.queue.empty()) {
      *out = std::move(mine.queue.back());
      mine.queue.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (size_t k = 1; k < states_.size(); ++k) {
    // Thieves take the oldest job (FIFO): coarse outer-level work moves
    // to idle workers, fine nested work stays local.
    WorkerState& victim = *states_[(self + k) % states_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.queue.empty()) {
      *out = std::move(victim.queue.front());
      victim.queue.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      states_[self]->steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::Execute(size_t self, Job* job) {
  const bool skip =
      job->cancel != nullptr && job->cancel->load(std::memory_order_acquire);
  if (skip) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    job->fn();
    states_[self]->jobs_run.fetch_add(1, std::memory_order_relaxed);
  }
  FinishJob(*job);
}

void ThreadPool::FinishJob(const Job& job) {
  bool group_done =
      job.group != nullptr &&
      job.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  bool all_done = in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (group_done || all_done) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_done_.notify_all();
    // Helping waiters sleep on cv_task_; a group completing is also a
    // wake-worthy event for them.
    cv_task_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  tl_pool = this;
  tl_worker = index;
  for (;;) {
    Job job;
    if (TryGetJob(index, &job)) {
      Execute(index, &job);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_task_.wait(lock, [this] {
      return stop_ || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::Wait(TaskGroup* group) {
  if (tl_pool == this) {
    // Helping wait: run other queued jobs until the group drains, so a
    // job that fans out sub-jobs on its own pool cannot deadlock.
    size_t self = tl_worker;
    while (group->pending_.load(std::memory_order_acquire) > 0) {
      Job job;
      if (TryGetJob(self, &job)) {
        Execute(self, &job);
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this, group] {
        return group->pending_.load(std::memory_order_acquire) == 0 ||
               queued_.load(std::memory_order_acquire) > 0;
      });
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [group] {
    return group->pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Chunk work to limit queue churn for large n; a few chunks per worker
  // keeps stealing effective when chunk costs are uneven.
  size_t chunks = std::min(n, num_threads() * 4);
  size_t per = (n + chunks - 1) / chunks;
  TaskGroup group;
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (size_t c = 0; c < chunks; ++c) {
    size_t begin = c * per;
    size_t end = std::min(n, begin + per);
    if (begin >= end) break;
    Submit(&group, [begin, end, &fn, &err_mu, &first_error] {
      try {
        for (size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  Wait(&group);
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  for (const auto& w : states_) {
    s.jobs_run += w->jobs_run.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace pbc
