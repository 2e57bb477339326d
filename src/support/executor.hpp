// The execution layer behind every parallel path in sops.
//
// An Executor runs a batch of independent tasks — in practice the chunks of
// a partitioned index range — across a fixed set of runners: the calling
// thread plus a contiguous range of one TaskPool's parked workers. It is a
// plain view (pool, first worker, worker count), cheap to copy and valid
// while its pool lives. The default view has no workers: width 1, every
// batch runs inline in index order, with no threading machinery at all —
// the choice whenever a budget resolves to one thread (serial_executor()).
//
// One pool is sized per experiment (or per JobManager, machine-wide) from
// the resolved thread budget. Its workers are *lent* as disjoint sub-views,
// so an outer dispatch (ensemble samples, analyzer frames) hands each task
// its own view for nested dispatches (intra-step drift shards, KSG sample
// chunks) without ever exceeding the pool's width in live threads. An
// options struct whose `executor` is null builds a transient TaskPool of its
// `threads` width for the one call.
//
// Type erasure happens once per dispatch at the task level (TaskRef); the
// per-iteration body stays a template parameter of the parallel_for
// wrappers and is inlined into each task's loop.
//
// Determinism contract: an executor decides only *which runner* executes a
// task, never what the task computes or in what order a task enumerates its
// work. Callers that keep tasks writing to disjoint data (as every sops
// call site does) get bitwise-identical results for any width.
//
// Exception semantics: every task of a concurrent dispatch is attempted
// exactly once even when another task throws; the first exception (in
// completion order) is rethrown on the dispatching thread after all tasks
// finished. A dispatch that engages no worker (width 1, or a single task)
// runs inline and propagates immediately, matching a plain loop.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace sops::support {

/// Returns the worker count used when a width of 0 is requested: the
/// hardware concurrency, floored at 1.
[[nodiscard]] std::size_t default_thread_count() noexcept;

/// Non-owning reference to a `void(std::size_t task_index)` callable. The
/// referenced callable must outlive the dispatch — guaranteed, since every
/// Executor::run blocks until all tasks finished.
class TaskRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, TaskRef>)
  TaskRef(F& callable) noexcept  // NOLINT(google-explicit-constructor)
      : object_(&callable), invoke_([](void* object, std::size_t task) {
          (*static_cast<F*>(object))(task);
        }) {}

  void operator()(std::size_t task) const { invoke_(object_, task); }

 private:
  void* object_;
  void (*invoke_)(void*, std::size_t);
};

/// Chunk k of the contiguous equal partition of `count` items into
/// `chunks` chunks — the one definition of that arithmetic, shared by the
/// parallel_for wrappers and callers that dispatch outer chunks by index
/// (Executor::run_partitioned bodies).
struct ChunkRange {
  std::size_t begin;
  std::size_t end;
};
[[nodiscard]] constexpr ChunkRange chunk_range(std::size_t k,
                                               std::size_t count,
                                               std::size_t chunks) noexcept {
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  const std::size_t begin = k * base + (k < extra ? k : extra);
  return {begin, begin + base + (k < extra ? 1 : 0)};
}

class TaskPool;

/// A dispatch view over the calling thread plus pool workers
/// [first, first + workers) of one TaskPool. Views with disjoint worker
/// ranges may dispatch concurrently — from distinct job driver threads, or
/// from the tasks of an outer dispatch that lent them. Dispatching from
/// inside a pooled task on a view that shares workers with any dispatch
/// still in flight deadlocks; lend disjoint views instead. The view carries
/// no reservation: whoever carves views (core::JobManager, run_partitioned)
/// hands out disjoint ranges.
class Executor {
 public:
  /// The width-1 view of no pool: every dispatch runs inline, in index
  /// order, on the caller.
  Executor() noexcept = default;

  /// Number of tasks that may execute concurrently, counting the calling
  /// thread. Partition sizing (e.g. parallel_for_chunked's equal split)
  /// keys off this.
  [[nodiscard]] std::size_t width() const noexcept { return workers_ + 1; }

  /// Runs `task(k)` for every k in [0, task_count), at most width() tasks
  /// concurrently; the calling thread participates and the call returns
  /// only after every task finished. A batch of k tasks engages at most
  /// k - 1 workers. Which runner executes which task is unspecified.
  void run(std::size_t task_count, TaskRef task) const;

  /// View over the caller plus this view's workers
  /// [first_worker, first_worker + workers), *view-relative* and clamped to
  /// the view — a job can never reach into a sibling job's workers by
  /// arithmetic slip. An empty or out-of-range request yields the width-1
  /// view.
  [[nodiscard]] Executor lend(std::size_t first_worker,
                              std::size_t workers) const noexcept;

  /// The disjoint-lending pattern: dispatches `outer` tasks, handing task k
  /// a view over its own helper sub-range of `inner_width - 1` workers for
  /// nested dispatches, while the outer fan-out runs on the remaining
  /// workers. Helpers occupy [k·(w−1), (k+1)·(w−1)), outer runners the
  /// tail, and (outer−1) + outer·(inner_width−1) = outer·inner_width − 1
  /// workers are used in total — so a view of width outer · inner_width can
  /// neither deadlock nor oversubscribe, and concurrent jobs on disjoint
  /// views compose the same guarantee machine-wide. `body` is invoked as
  /// body(k, inner_executor).
  template <typename Body>
  void run_partitioned(std::size_t outer, std::size_t inner_width,
                       Body&& body) const {
    if (outer == 0) return;
    if (inner_width == 0) inner_width = 1;
    const Executor outer_executor =
        lend(outer * (inner_width - 1), outer - 1);
    auto outer_task = [&](std::size_t k) {
      Executor inner = lend(k * (inner_width - 1), inner_width - 1);
      body(k, inner);
    };
    outer_executor.run(outer, outer_task);
  }

 private:
  friend class TaskPool;
  Executor(TaskPool* pool, std::size_t first, std::size_t workers) noexcept
      : pool_(pool), first_(first), workers_(workers) {}

  TaskPool* pool_ = nullptr;  // null only when workers_ == 0
  std::size_t first_ = 0;
  std::size_t workers_ = 0;
};

/// The shared width-1 view behind defaulted executor parameters.
[[nodiscard]] const Executor& serial_executor() noexcept;

/// A persistent set of parked worker threads. Construction spawns width-1
/// workers that sleep until a dispatch assigns them a batch; destruction
/// wakes and joins them. One pool serves many dispatches back to back —
/// per-dispatch cost is a wake/notify round-trip per engaged worker
/// instead of a thread spawn/join (bench_perf_micro's `dispatch.pool_us`).
class TaskPool {
 public:
  /// `width` counts the calling thread (width 1 spawns no workers);
  /// 0 selects default_thread_count().
  explicit TaskPool(std::size_t width);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total width: worker count plus the calling thread.
  [[nodiscard]] std::size_t width() const noexcept {
    return slots_.size() + 1;
  }

  /// View over the calling thread plus every worker.
  [[nodiscard]] const Executor& executor() const noexcept { return all_; }

  /// Executor::run_partitioned over the whole pool.
  template <typename Body>
  void run_partitioned(std::size_t outer, std::size_t inner_width,
                       Body&& body) {
    all_.run_partitioned(outer, inner_width, std::forward<Body>(body));
  }

 private:
  friend class Executor;
  struct Slot;

  void shutdown() noexcept;

  std::vector<std::unique_ptr<Slot>> slots_;
  Executor all_;
};

}  // namespace sops::support
