#include "support/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace sops::support {
namespace detail {

// Shared state of one dispatch: the task counter its runners drain, the
// completion latch the dispatching thread waits on, and the first error.
// Lives on the dispatcher's stack; Executor::run blocks until every runner
// is done with it.
struct Job {
  Job(TaskRef task_ref, std::size_t count) noexcept
      : task(task_ref), task_count(count) {}

  TaskRef task;
  std::size_t task_count;
  std::atomic<std::size_t> next_task{0};

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t pending_workers = 0;  // guarded by done_mutex

  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex

  // Runs tasks until the batch is exhausted. Every task is attempted even
  // after an error — tasks are independent, and abandoning the batch would
  // leave chunks of a partition silently unprocessed.
  void drain() noexcept {
    for (;;) {
      const std::size_t k = next_task.fetch_add(1, std::memory_order_relaxed);
      if (k >= task_count) return;
      try {
        task(k);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  // Worker-side completion signal, after drain().
  void finish_worker() noexcept {
    const std::lock_guard<std::mutex> lock(done_mutex);
    if (--pending_workers == 0) done_cv.notify_one();
  }
};

}  // namespace detail

std::size_t default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

const Executor& serial_executor() noexcept {
  static const Executor serial;
  return serial;
}

// ---------------------------------------------------------------- TaskPool

struct TaskPool::Slot {
  std::mutex mutex;
  std::condition_variable cv;
  detail::Job* job = nullptr;  // guarded by mutex
  bool stop = false;           // guarded by mutex
  std::thread thread;
};

TaskPool::TaskPool(std::size_t width) {
  const std::size_t workers =
      (width == 0 ? default_thread_count() : width) - 1;
  slots_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      slots_.push_back(std::make_unique<Slot>());
      Slot& slot = *slots_.back();
      slot.thread = std::thread([&slot] {
        for (;;) {
          detail::Job* job = nullptr;
          {
            std::unique_lock<std::mutex> lock(slot.mutex);
            slot.cv.wait(lock,
                         [&] { return slot.stop || slot.job != nullptr; });
            if (slot.job == nullptr) return;  // stopped with nothing pending
            job = slot.job;
            slot.job = nullptr;
          }
          job->drain();
          job->finish_worker();
        }
      });
    }
  } catch (...) {
    shutdown();  // park and join whatever was already spawned
    throw;
  }
  all_ = Executor(this, 0, workers);
}

TaskPool::~TaskPool() { shutdown(); }

void TaskPool::shutdown() noexcept {
  for (const auto& slot : slots_) {
    {
      const std::lock_guard<std::mutex> lock(slot->mutex);
      slot->stop = true;
    }
    slot->cv.notify_one();
  }
  for (const auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  slots_.clear();
}

// ---------------------------------------------------------------- Executor

Executor Executor::lend(std::size_t first_worker,
                        std::size_t workers) const noexcept {
  if (first_worker >= workers_) return {};
  return {pool_, first_ + first_worker,
          std::min(workers, workers_ - first_worker)};
}

void Executor::run(std::size_t task_count, TaskRef task) const {
  if (task_count == 0) return;
  // The caller is a runner too, so a batch of k tasks engages at most k-1
  // workers; a width-1 view (or single task) runs inline like a plain loop.
  const std::size_t engaged = std::min(workers_, task_count - 1);
  if (engaged == 0) {
    for (std::size_t k = 0; k < task_count; ++k) task(k);
    return;
  }

  detail::Job job(task, task_count);
  job.pending_workers = engaged;
  for (std::size_t w = 0; w < engaged; ++w) {
    TaskPool::Slot& slot = *pool_->slots_[first_ + w];
    {
      const std::lock_guard<std::mutex> lock(slot.mutex);
      slot.job = &job;
    }
    slot.cv.notify_one();
  }
  job.drain();
  {
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done_cv.wait(lock, [&] { return job.pending_workers == 0; });
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace sops::support
