// Thread-budget allocation between the engine's two axes of parallelism:
// across ensemble samples (PR 1) and within a single step's drift sum (the
// cell-sharded path). The policy is resolved exactly once per experiment —
// sample workers receive a fixed intra-step budget, so nested parallelism
// is prevented by construction: at most sample_threads × step_threads ≤
// threads workers are ever live, and a sample worker never re-splits.
//
// Rules of thumb encoded in kAuto (see README "Choosing a ParallelPolicy"):
// sample-parallelism is embarrassingly parallel and allocation-free per
// worker, so it wins whenever there are at least as many samples as
// threads; the sharded intra-step path pays one pool dispatch per step, so
// it needs large collectives (n ≥ kIntraStepMinParticles) to amortize and
// is reserved for ensembles too small to occupy the machine by themselves.
#pragma once

#include <cstddef>

namespace sops::sim {

/// How a run's thread budget is spent.
enum class ParallelPolicy {
  kAuto,           ///< pick from (n, m, threads); never worse than serial
  kAcrossSamples,  ///< all threads on ensemble samples (the PR 1 engine)
  kWithinStep,     ///< all threads inside each step's drift accumulation
  kHybrid,         ///< samples first, leftover threads inside each step
};

/// Collective size below which kAuto never shards a step: the measured
/// crossover of a whole cell-grid step (rebuild, drift over the half-shell
/// stripes, integration) sharded on the pooled executor against the serial
/// step. On a 4-core AVX2 Xeon (bench_perf_micro's intra-step row shape,
/// spring law, r_c = 3, pooled steps/s at 4 threads over 1, several
/// interleaved runs on a shared host) it read 0.77–0.86x at n = 1024,
/// 0.77–1.10x at 1536, 0.93–1.41x at 2048 and 1.31–1.50x at 3072. Below
/// ~2048 a collective spans too few 4-column stripes to share and the
/// step's dispatches outweigh the split drift. (The all-pairs drift, used
/// above 63 particles only at an unbounded r_c, would pay from smaller n;
/// the threshold follows the cell grid, which every finite-r_c collective
/// of that size runs on.)
inline constexpr std::size_t kIntraStepMinParticles = 2048;

/// A resolved policy: how many workers run samples concurrently, and how
/// many threads each of those workers may use inside one step.
struct ThreadBudget {
  std::size_t sample_threads = 1;
  std::size_t step_threads = 1;
};

/// Splits `threads` (0 = hardware concurrency) for an ensemble of `m`
/// samples of an `n`-particle collective. The result always satisfies
/// sample_threads × step_threads ≤ max(threads, 1) and both factors ≥ 1.
[[nodiscard]] ThreadBudget resolve_parallel_policy(ParallelPolicy policy,
                                                   std::size_t n, std::size_t m,
                                                   std::size_t threads) noexcept;

/// The jobs axis of the generalized split (jobs × samples × steps): of a
/// machine-wide budget of `machine_threads` (0 = hardware concurrency)
/// shared by `job_slots` concurrently admitted jobs, slot `job_slot` owns
/// the chunk_range share of the budget, floored at 1 so a starved slot
/// still runs serially. The share is what resolve_parallel_policy then
/// splits into samples × steps — so the whole budget is still allocated
/// exactly once per job, before any fan-out, and concurrent jobs' shares
/// tile the machine the way one job's sample chunks tile its share.
[[nodiscard]] std::size_t resolve_job_threads(std::size_t job_slot,
                                              std::size_t job_slots,
                                              std::size_t machine_threads) noexcept;

/// resolve_parallel_policy applied to a job slot's share: the one-call
/// form of the jobs × samples × steps split.
[[nodiscard]] ThreadBudget resolve_job_policy(ParallelPolicy policy,
                                              std::size_t n, std::size_t m,
                                              std::size_t job_slot,
                                              std::size_t job_slots,
                                              std::size_t machine_threads) noexcept;

}  // namespace sops::sim
