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

/// Collective size below which kAuto never shards a step. Set for the
/// pooled executor: a step's dispatch onto parked workers measures ~7 µs
/// (BENCH_engine.json `dispatch`, vs ~35 µs for the fork/join that set the
/// previous floor of 2048). Since the cell-grid drift became a half-shell
/// kernel over fixed 4-column stripes, sharding no longer pays at 512
/// particles: a traced 1-thread coarse_n512 run reads `sim.drift_us`
/// 88 µs per step, the collective spans only about 2 stripes, and traced
/// `sim.drift_scaling` (4 threads against 1) reads 0.63x. The value stays
/// until it is re-derived from measurements (ROADMAP, "A persistent step
/// team").
inline constexpr std::size_t kIntraStepMinParticles = 512;

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
