// The execution layer behind every parallel path in sops.
//
// An Executor runs a batch of independent tasks — in practice the chunks of
// a partitioned index range — across a fixed set of runners: the calling
// thread plus zero or more helpers. Three implementations cover the
// engine's needs:
//
//  - SerialExecutor: width 1, runs tasks inline in index order. The choice
//    whenever a budget resolves to one thread; keeps serial runs free of
//    any threading machinery.
//  - SpawnExecutor: transient helpers, created per dispatch and joined
//    before it returns — the pre-pool fork/join behavior, kept as the
//    baseline the pool's dispatch cost is benchmarked against and as the
//    `threads` fallback of an options struct whose `executor` is null.
//  - TaskPool + PoolExecutor: persistent parked workers woken per dispatch.
//    One pool is sized per experiment from the resolved ThreadBudget; its
//    workers can be *lent* as disjoint sub-executors, so an outer dispatch
//    (ensemble samples, analyzer frames) hands each task its own slice for
//    nested dispatches (intra-step drift shards, KSG sample chunks) without
//    ever exceeding the pool's width in live threads.
//
// Type erasure happens once per dispatch at the task level (TaskRef); the
// per-iteration body stays a template parameter of the parallel_for
// wrappers and is inlined into each task's loop.
//
// Determinism contract: an executor decides only *which runner* executes a
// task, never what the task computes or in what order a task enumerates its
// work. Callers that keep tasks writing to disjoint data (as every sops
// call site does) get bitwise-identical results for any width and any
// executor choice.
//
// Exception semantics, shared by all concurrent executors: every task is
// attempted exactly once even when another task throws; the first exception
// (in completion order) is rethrown on the dispatching thread after all
// tasks finished. A width-1 dispatch runs inline and propagates
// immediately, matching a plain loop.
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

/// A fixed-width runner set for batches of independent tasks.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of tasks that may execute concurrently, counting the calling
  /// thread. Partition sizing (e.g. parallel_for_chunked's equal split)
  /// keys off this, so it must be stable for the executor's lifetime.
  [[nodiscard]] virtual std::size_t width() const noexcept = 0;

  /// Runs `task(k)` for every k in [0, task_count), at most width() tasks
  /// concurrently; the calling thread participates and the call returns
  /// only after every task finished. Which runner executes which task is
  /// unspecified. Exception semantics as documented above.
  virtual void run(std::size_t task_count, TaskRef task) = 0;
};

/// Width-1 executor: tasks run inline, in index order, on the caller.
class SerialExecutor final : public Executor {
 public:
  [[nodiscard]] std::size_t width() const noexcept override { return 1; }
  void run(std::size_t task_count, TaskRef task) override {
    for (std::size_t k = 0; k < task_count; ++k) task(k);
  }
};

/// The shared width-1 executor behind defaulted `Executor&` parameters.
/// SerialExecutor holds no state, so one instance serves every thread.
[[nodiscard]] Executor& serial_executor() noexcept;

/// Transient-thread executor: each dispatch spawns up to width()-1 helper
/// threads that drain the task batch alongside the caller and are joined
/// before the dispatch returns. Live helpers are capped at
/// min(width()-1, task_count-1) — a batch can never fan out wider than the
/// executor, no matter how many tasks it holds.
class SpawnExecutor final : public Executor {
 public:
  /// `width` counts the calling thread; 0 selects default_thread_count().
  explicit SpawnExecutor(std::size_t width = 0) noexcept;

  [[nodiscard]] std::size_t width() const noexcept override { return width_; }
  void run(std::size_t task_count, TaskRef task) override;

 private:
  std::size_t width_;
};

/// Chunk k of the contiguous equal partition of `count` items into
/// `chunks` chunks — the one definition of that arithmetic, shared by the
/// parallel_for wrappers and callers that dispatch outer chunks by index
/// (TaskPool::run_partitioned bodies).
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

/// A dispatch handle over the calling thread plus a contiguous slice of a
/// TaskPool's workers. Cheap to copy; valid while the pool lives. Views
/// with disjoint worker slices may dispatch concurrently — the lending
/// pattern: an outer dispatch hands each of its tasks a view over that
/// task's own slice for nested dispatches. Dispatching from inside a
/// pooled task on a view that shares workers with any dispatch still in
/// flight deadlocks; lend disjoint slices instead.
class PoolExecutor final : public Executor {
 public:
  [[nodiscard]] std::size_t width() const noexcept override {
    return workers_ + 1;
  }
  void run(std::size_t task_count, TaskRef task) override;

 private:
  friend class TaskPool;
  friend class PoolSlice;
  // `pool` may be null only when `workers == 0` (a caller-only view runs
  // every batch inline and never touches the pool).
  PoolExecutor(TaskPool* pool, std::size_t first, std::size_t workers) noexcept
      : pool_(pool), first_(first), workers_(workers) {}

  TaskPool* pool_;
  std::size_t first_;
  std::size_t workers_;
};

/// A persistent set of parked worker threads. Construction spawns width-1
/// workers that sleep until a PoolExecutor dispatch assigns them a batch;
/// destruction wakes and joins them. One pool serves many dispatches back
/// to back — per-dispatch cost is a wake/notify round-trip per engaged
/// worker instead of a thread spawn/join (measured in bench_perf_micro's
/// dispatch section).
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
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return slots_.size();
  }

  /// Executor over the calling thread plus every worker.
  [[nodiscard]] Executor& executor() noexcept { return all_; }

  /// Executor over the calling thread plus workers
  /// [first_worker, first_worker + workers). The slice is clamped to the
  /// pool's workers; `workers == 0` yields a caller-only (width 1) view.
  /// Lend non-overlapping slices to the tasks of an outer dispatch so
  /// nested dispatches stay within the pool's width.
  [[nodiscard]] PoolExecutor lend(std::size_t first_worker,
                                  std::size_t workers) noexcept;

  /// The disjoint-lending pattern over the whole pool (see
  /// PoolSlice::run_partitioned — this is the slice-of-everything case the
  /// single-experiment drivers use).
  template <typename Body>
  void run_partitioned(std::size_t outer, std::size_t inner_width,
                       Body&& body);

 private:
  friend class PoolExecutor;
  friend class PoolSlice;
  struct Slot;

  static std::size_t worker_count_for(std::size_t width) noexcept;
  void shutdown() noexcept;

  std::vector<std::unique_ptr<Slot>> slots_;
  PoolExecutor all_;
};

/// A contiguous, caller-owned budget of one TaskPool's workers — the unit
/// a machine-wide pool is carved into when several jobs share it. A slice
/// over workers [first, first + workers) has width workers + 1 (the
/// dispatching thread is always a runner), lends sub-slices by
/// slice-relative worker index, and runs the same outer × inner
/// partitioned fan-out TaskPool::run_partitioned offers — entirely inside
/// its own workers. Slices with disjoint worker ranges are independent:
/// distinct job driver threads may dispatch on them concurrently without
/// contending for a runner, which is what turns one per-process pool into
/// a shared machine-wide one. Cheap to copy; valid while the pool lives.
/// The slice carries no reservation of its own — whoever carves slices
/// (core::JobManager) is responsible for handing out disjoint ranges and
/// taking them back when a job completes.
class PoolSlice {
 public:
  /// Caller-only slice of no pool: width 1, every dispatch runs inline.
  PoolSlice() noexcept = default;

  /// Runner count: the dispatching thread plus the slice's workers.
  [[nodiscard]] std::size_t width() const noexcept { return workers_ + 1; }
  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_; }
  /// First pool worker of the slice (meaningless when worker_count() == 0).
  [[nodiscard]] std::size_t first_worker() const noexcept { return first_; }

  /// Executor over the caller plus slice workers
  /// [first_worker, first_worker + workers), *slice-relative* and clamped
  /// to the slice — the same contract as TaskPool::lend, scoped so a job
  /// can never reach into a sibling job's workers by arithmetic slip.
  [[nodiscard]] PoolExecutor lend(std::size_t first_worker,
                                  std::size_t workers) const noexcept;

  /// Executor over the whole slice.
  [[nodiscard]] PoolExecutor executor() const noexcept {
    return lend(0, workers_);
  }

  /// TaskPool::run_partitioned confined to this slice: dispatches `outer`
  /// tasks, handing task k an executor over its own helper sub-slice of
  /// `inner_width - 1` workers for nested dispatches, while the outer
  /// fan-out runs on the remaining workers. Helpers occupy
  /// [k·(w−1), (k+1)·(w−1)), outer runners the tail, and
  /// (outer−1) + outer·(inner_width−1) = outer·inner_width − 1 workers are
  /// used in total — so a slice of width outer · inner_width can neither
  /// deadlock nor oversubscribe, and concurrent jobs on disjoint slices
  /// compose the same guarantee machine-wide. `body` is invoked as
  /// body(k, inner_executor).
  template <typename Body>
  void run_partitioned(std::size_t outer, std::size_t inner_width,
                       Body&& body) const {
    if (outer == 0) return;
    if (inner_width == 0) inner_width = 1;
    PoolExecutor outer_executor = lend(outer * (inner_width - 1), outer - 1);
    auto outer_task = [&](std::size_t k) {
      PoolExecutor inner = lend(k * (inner_width - 1), inner_width - 1);
      body(k, inner);
    };
    outer_executor.run(outer, outer_task);
  }

 private:
  friend class TaskPool;
  friend PoolSlice slice_of(TaskPool& pool, std::size_t first_worker,
                            std::size_t workers) noexcept;
  friend PoolSlice slice_all(TaskPool& pool) noexcept;
  PoolSlice(TaskPool* pool, std::size_t first, std::size_t workers) noexcept
      : pool_(pool), first_(first), workers_(workers) {}

  TaskPool* pool_ = nullptr;
  std::size_t first_ = 0;
  std::size_t workers_ = 0;
};

/// Slice over pool workers [first_worker, first_worker + workers), clamped
/// to the pool's workers.
[[nodiscard]] PoolSlice slice_of(TaskPool& pool, std::size_t first_worker,
                                 std::size_t workers) noexcept;
/// Slice over the whole pool.
[[nodiscard]] PoolSlice slice_all(TaskPool& pool) noexcept;

template <typename Body>
void TaskPool::run_partitioned(std::size_t outer, std::size_t inner_width,
                               Body&& body) {
  slice_all(*this).run_partitioned(outer, inner_width,
                                   std::forward<Body>(body));
}

}  // namespace sops::support
