#include "support/thread_pool.hpp"

#include <algorithm>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace parsvd {

namespace {

obs::Counter& tasks_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.tasks");
  return c;
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("pool.queue_depth");
  return g;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn one fewer
  // worker than the requested concurrency.
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      // Worker tids start at 1: tid 0 on the shared-thread trace row is
      // whatever non-rank thread drives parallel_for from outside run_on.
      obs::set_thread_identity(-1, static_cast<int>(i) + 1, "pool-worker");
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    try {
      PARSVD_TRACE_SCOPE("pool.chunk");
      tasks_counter().add(1);
      task.body(task.begin, task.end);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(task.group->mu);
      if (err && !task.group->error) task.group->error = err;
      if (--task.group->pending == 0) task.group->cv.notify_all();
    }
  }
}

bool ThreadPool::run_one() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  std::exception_ptr err;
  try {
    PARSVD_TRACE_SCOPE("pool.chunk");
    tasks_counter().add(1);
    task.body(task.begin, task.end);
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(task.group->mu);
    if (err && !task.group->error) task.group->error = err;
    if (--task.group->pending == 0) task.group->cv.notify_all();
  }
  return true;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body_range,
    std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t concurrency = workers_.size() + 1;
  if (grain == 0) {
    grain = std::max<std::size_t>(1, n / (4 * concurrency));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1 || concurrency == 1) {
    body_range(begin, end);
    return;
  }

  PARSVD_TRACE_SCOPE("pool.parallel_for");
  Group group;
  group.pending = chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      queue_.push_back(Task{body_range, lo, hi, &group});
    }
    const auto depth = static_cast<std::int64_t>(queue_.size());
    queue_depth_gauge().set(depth);
    queue_depth_gauge().track_max(depth);
  }
  cv_.notify_all();

  // Help drain the queue instead of blocking immediately; this keeps the
  // calling thread productive and avoids idle cores for small pools.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(group.mu);
      if (group.pending == 0) break;
    }
    if (!run_one()) {
      std::unique_lock<std::mutex> lock(group.mu);
      group.cv.wait(lock, [&group] { return group.pending == 0; });
      break;
    }
  }
  if (group.error) std::rethrow_exception(group.error);
}

namespace {

std::size_t env_thread_count() {
  // 0 (the default) sizes the pool from the hardware concurrency.
  return static_cast<std::size_t>(
      env::get_int("PARSVD_NUM_THREADS", 0, 0, 1024));
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> slot;
  return slot;
}

std::mutex& global_pool_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(env_thread_count());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  slot.reset();  // join the old workers before spawning the new pool
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace parsvd
