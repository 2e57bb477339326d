// Performance micro-benchmarks (google-benchmark): the hot paths of the
// pipeline — pair-force accumulation (grid vs all-pairs), full engine
// stepping (persistent workspace vs the pre-engine per-step-rebuild
// baseline), the KSG estimator, k-d tree queries, and ICP alignment.
//
// Besides the google-benchmark suite, the binary always emits
// BENCH_engine.json: steps/sec of cell-grid stepping for n ∈ {64, 256,
// 1024} (batched engine vs seed baseline), the intra-step sharding series
// on the persistent pool, the executor layer's per-dispatch overhead, the
// SoA/SIMD kernel speedup (scalar reference vs vector kernels, with the
// dispatched ISA and compiler identity for cross-machine hygiene),
// analyzer (KSG) frames/sec — including the paper-shaped row (n = 1024,
// m = 100, simulate + analyze) against the frozen pre-streaming analysis
// baseline — the job-service overhead row (JobManager vs direct run_experiment,
// submit → first-streamed-sample latency) — and the run's peak RSS — the
// engine's perf trajectory, gated by tools/bench_trend.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <numeric>
#include <queue>
#include <string_view>
#include <thread>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "core/sops.hpp"
#include "io/shard_manifest.hpp"
#include "support/executor.hpp"
#include "support/parallel_for.hpp"
#include "support/simd.hpp"

namespace {

using namespace sops;

sim::ParticleSystem random_system(std::size_t n, double radius,
                                  std::size_t types, std::uint64_t seed) {
  rng::Xoshiro256 engine(seed);
  std::vector<geom::Vec2> positions;
  std::vector<sim::TypeId> type_ids;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(rng::uniform_disc(engine, radius));
    type_ids.push_back(static_cast<sim::TypeId>(i % types));
  }
  return {std::move(positions), std::move(type_ids)};
}

sim::InteractionModel default_model(std::size_t types) {
  return sim::InteractionModel(sim::ForceLawKind::kSpring, types,
                               sim::PairParams{1.0, 2.0, 1.0, 1.0});
}

// ------------------------------------------------------------------------
// Pre-engine reference stepper. This reproduces, deliberately and verbatim
// in structure, what the seed engine did every step before the batched
// engine landed: construct a node-based hash grid from scratch, then fetch
// the pair parameters through the symmetric-matrix accessors for every
// interacting pair. It is the "per-step-rebuild baseline" the engine's
// speedup is measured against; do not optimize it.
class SeedBaselineStepper {
 public:
  double step(sim::ParticleSystem& system, const sim::InteractionModel& model,
              double cutoff, const sim::IntegratorParams& params,
              rng::Xoshiro256& engine, std::vector<geom::Vec2>& drift) {
    struct Key {
      std::int64_t x, y;
      bool operator==(const Key&) const = default;
    };
    struct KeyHash {
      std::size_t operator()(const Key& k) const noexcept {
        std::uint64_t h = static_cast<std::uint64_t>(k.x) * 0x9E3779B97F4A7C15ull;
        h ^= static_cast<std::uint64_t>(k.y) * 0xC2B2AE3D27D4EB4Full;
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 32;
        return static_cast<std::size_t>(h);
      }
    };
    const auto key_of = [cutoff](geom::Vec2 p) {
      return Key{static_cast<std::int64_t>(std::floor(p.x / cutoff)),
                 static_cast<std::int64_t>(std::floor(p.y / cutoff))};
    };
    const std::size_t n = system.size();
    std::unordered_map<Key, std::vector<std::size_t>, KeyHash> cells;
    cells.reserve(n);
    for (std::size_t i = 0; i < n; ++i) cells[key_of(system.position(i))].push_back(i);

    drift.assign(n, geom::Vec2{});
    const double cutoff_sq = cutoff * cutoff;
    for (std::size_t i = 0; i < n; ++i) {
      geom::Vec2 acc{};
      const Key center = key_of(system.position(i));
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          const auto it = cells.find(Key{center.x + dx, center.y + dy});
          if (it == cells.end()) continue;
          for (const std::size_t j : it->second) {
            if (j == i) continue;
            const geom::Vec2 delta = system.position(i) - system.position(j);
            const double d_sq = geom::norm_sq(delta);
            if (d_sq >= cutoff_sq || d_sq == 0.0) continue;
            const double d = std::sqrt(d_sq);
            acc += delta * (-model.scaling(system.types[i], system.types[j], d));
          }
        }
      }
      drift[i] = acc;
    }
    const double residual = sim::total_drift_norm(drift);
    sim::apply_euler_maruyama_update(system, drift, params, engine);
    return residual;
  }
};

// ------------------------------------------------------------ benchmarks

void BM_DriftAllPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Density held constant: radius grows with √n.
  const auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5,
                                    3, 42);
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);  // cached per run, as the engine does
  std::vector<geom::Vec2> drift;
  geom::NeighborBackend backend(geom::NeighborBackendKind::kAllPairs);
  for (auto _ : state) {
    sim::accumulate_drift(system, table, 3.0, drift, backend,
                          support::serial_executor());
    benchmark::DoNotOptimize(drift.data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DriftAllPairs)->Range(32, 2048)->Complexity(benchmark::oNSquared);

void BM_DriftCellGridPersistent(benchmark::State& state) {
  // The cell-grid drift through a persistent backend: retained grid buckets.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5,
                                    3, 42);
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);  // cached per run, as the engine does
  std::vector<geom::Vec2> drift;
  geom::NeighborBackend backend(geom::NeighborBackendKind::kCellGrid);
  for (auto _ : state) {
    sim::accumulate_drift(system, table, 3.0, drift, backend,
                          support::serial_executor());
    benchmark::DoNotOptimize(drift.data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DriftCellGridPersistent)->Range(32, 2048)->Complexity(benchmark::oN);

void BM_StepSeedBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5, 3, 7);
  const auto model = default_model(3);
  sim::IntegratorParams params;
  rng::Xoshiro256 engine(1);
  std::vector<geom::Vec2> scratch;
  SeedBaselineStepper baseline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline.step(system, model, 3.0, params, engine, scratch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["steps/sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["bytes/frame"] =
      static_cast<double>(n * sizeof(geom::Vec2));
}
BENCHMARK(BM_StepSeedBaseline)->Arg(64)->Arg(256)->Arg(1024);

void BM_StepEngine(benchmark::State& state) {
  // The batched engine path: persistent cell-grid backend, one drift
  // buffer, allocation-free steady state.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5, 3, 7);
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);
  sim::IntegratorParams params;
  rng::Xoshiro256 engine(1);
  std::vector<geom::Vec2> scratch;
  geom::NeighborBackend backend(geom::NeighborBackendKind::kCellGrid);
  for (auto _ : state) {
    // The engine's steady-state step: cached table, persistent backend.
    sim::accumulate_drift(system, table, 3.0, scratch, backend,
                          support::serial_executor());
    benchmark::DoNotOptimize(sim::total_drift_norm(scratch));
    sim::apply_euler_maruyama_update(system, scratch, params, engine);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["steps/sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["bytes/frame"] =
      static_cast<double>(n * sizeof(geom::Vec2));
}
BENCHMARK(BM_StepEngine)->Arg(64)->Arg(256)->Arg(1024);

void BM_StepEngineIntraStepPooled(benchmark::State& state) {
  // The intra-step path: one collective, the whole step (cell-grid drift
  // over the grid's fixed column stripes, then the update) dispatched onto
  // a persistent TaskPool. range(0) = n, range(1) = step threads.
  // Bitwise-equal to serial.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto step_threads = static_cast<std::size_t>(state.range(1));
  auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5, 3, 7);
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);
  sim::IntegratorParams params;
  rng::Xoshiro256 engine(1);
  std::vector<geom::Vec2> scratch;
  geom::NeighborBackend backend(geom::NeighborBackendKind::kCellGrid);
  support::TaskPool pool(step_threads);
  for (auto _ : state) {
    sim::accumulate_drift(system, table, 3.0, scratch, backend,
                          pool.executor());
    benchmark::DoNotOptimize(sim::total_drift_norm(scratch));
    sim::apply_euler_maruyama_update(system, scratch, params, engine,
                                     pool.executor());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["steps/sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StepEngineIntraStepPooled)
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Args({16384, 8});

void BM_KsgMultiInformation(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256 engine(3);
  const std::size_t n_blocks = 20;
  info::SampleMatrix samples(m, 2 * n_blocks);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < 2 * n_blocks; ++d) {
      samples(s, d) = rng::standard_normal(engine);
    }
  }
  info::KsgOptions options;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(info::multi_information_ksg(samples, 2, options));
  }
  state.SetComplexityN(static_cast<int64_t>(m));
}
BENCHMARK(BM_KsgMultiInformation)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity(benchmark::oNSquared);

void BM_KdTreeKnn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256 engine(5);
  std::vector<double> points(n * 3);
  for (double& v : points) v = rng::uniform(engine, -10.0, 10.0);
  const geom::KdTree tree(points, 3);
  std::size_t query = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.k_nearest({points.data() + (query % n) * 3, 3}, 5));
    ++query;
  }
}
BENCHMARK(BM_KdTreeKnn)->Range(256, 16384);

void BM_IcpAlign(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto target = random_system(n, 8.0, 3, 11);
  const geom::RigidTransform2 pose{1.2, {3.0, -1.0}};
  const std::vector<geom::Vec2> target_points = target.positions_aos();
  const auto source = pose.apply(target_points);
  // Built once outside the timed loop, as align_ensemble builds one per frame.
  const align::IcpReference reference(target_points, target.types);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::align_icp(source, target.types, reference));
  }
}
BENCHMARK(BM_IcpAlign)->Range(20, 320);

void BM_KMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto system = random_system(n, 10.0, 1, 13);
  const std::vector<geom::Vec2> points = system.positions_aos();
  for (auto _ : state) {
    rng::Xoshiro256 engine(17);
    benchmark::DoNotOptimize(cluster::kmeans(points, 4, engine));
  }
}
BENCHMARK(BM_KMeans)->Range(64, 4096);

// --------------------------------------------------- BENCH_engine.json

// Repetition policy for the JSON series: every timed window is measured
// `kBenchReps` times and the *best* (highest) throughput is reported. On
// a shared 1-core container, interference
// only ever slows a run, so the extremum is the least-biased estimate of
// the code's own speed (the same reasoning as google-benchmark's
// min-of-repetitions aggregation); means would gate CI on neighbors'
// workloads instead of regressions.
constexpr int kBenchReps = 3;

template <typename Measure>
double best_throughput(const Measure& measure) {
  double best = 0.0;
  for (int r = 0; r < kBenchReps; ++r) best = std::max(best, measure());
  return best;
}

double measure_steps_per_sec(std::size_t n, bool use_engine) {
  auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5, 3, 7);
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);
  sim::IntegratorParams params;
  rng::Xoshiro256 engine(1);
  std::vector<geom::Vec2> scratch;
  geom::NeighborBackend backend(geom::NeighborBackendKind::kCellGrid);
  SeedBaselineStepper baseline;

  const auto one_step = [&] {
    if (use_engine) {
      sim::accumulate_drift(system, table, 3.0, scratch, backend,
                            support::serial_executor());
      const double residual = sim::total_drift_norm(scratch);
      sim::apply_euler_maruyama_update(system, scratch, params, engine);
      return residual;
    }
    return baseline.step(system, model, 3.0, params, engine, scratch);
  };
  const int warmup = 50;
  const int steps = n >= 1024 ? 1200 : 5000;
  for (int i = 0; i < warmup; ++i) one_step();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) one_step();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(steps) / seconds;
}

// Steps/sec of single-sample stepping with the whole step — grid rebuild,
// drift sum, noise transform and position update — sharded over a
// persistent pool of `step_threads` runners (the intra-step path, as
// run_simulation_streamed steps).
double measure_intra_step_steps_per_sec(std::size_t n,
                                        std::size_t step_threads) {
  auto system = random_system(n, std::sqrt(static_cast<double>(n)) * 1.5, 3, 7);
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);
  sim::IntegratorParams params;
  rng::Xoshiro256 engine(1);
  std::vector<geom::Vec2> scratch;
  geom::NeighborBackend backend(geom::NeighborBackendKind::kCellGrid);
  const support::TaskPool pool(step_threads);
  const support::Executor& executor = pool.executor();

  const auto one_step = [&] {
    sim::accumulate_drift(system, table, 3.0, scratch, backend, executor);
    benchmark::DoNotOptimize(sim::total_drift_norm(scratch));
    sim::apply_euler_maruyama_update(system, scratch, params, engine,
                                     executor);
  };
  const int warmup = 20;
  const int steps = n >= 16384 ? 150 : n >= 4096 ? 500 : 1500;
  for (int i = 0; i < warmup; ++i) one_step();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) one_step();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(steps) / seconds;
}

// Steps/sec of the paper's fig4 collective (n = 50 spring particles,
// r_c = 5, all-pairs under kAuto) stepped serially one sample at a time,
// at the fig4_m500 job's recording grid (250 steps, stride 25): the
// per-sample simulation the end-to-end fig4 rows spend their `core.sim`
// on. Samples run back to back on one workspace, as a job's sample worker
// runs them.
double measure_fig4_steps_per_sec() {
  sim::SimulationConfig config = core::presets::fig4_three_type_collective();
  config.record_stride = 25;
  sim::SimulationWorkspace workspace;
  const auto recorder = [](std::size_t, std::size_t, geom::PositionLanes lanes) {
    benchmark::DoNotOptimize(lanes.x.data());
  };
  const auto run = [&](std::uint64_t stream) {
    config.stream = stream;
    (void)sim::run_simulation_streamed(config, workspace, recorder);
  };
  const std::uint64_t warmup = 20;
  const std::uint64_t samples = 400;
  for (std::uint64_t s = 0; s < warmup; ++s) run(s);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < samples; ++s) run(warmup + s);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(samples * config.steps) / seconds;
}

// Pure dispatch cost: microseconds per empty `width`-chunk batch on a
// persistent pool. This is the per-step overhead the intra-step path pays
// before any drift work — the number kIntraStepMinParticles is derived from.
double measure_dispatch_us(std::size_t width) {
  const support::TaskPool pool(width);
  const support::Executor& executor = pool.executor();
  auto nothing = [](std::size_t k) { benchmark::DoNotOptimize(k); };
  const int warmup = 50;
  const int rounds = 5000;
  for (int i = 0; i < warmup; ++i) executor.run(width, nothing);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < rounds; ++i) executor.run(width, nothing);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds * 1e6 / static_cast<double>(rounds);
}

// Analyzer throughput on a fixed mid-sized config: KSG frames/sec through
// the full align → estimate pipeline (no coarse-graining at n = 24).
double measure_analyzer_frames_per_sec(std::size_t* frames_out) {
  sim::SimulationConfig simulation(default_model(3));
  simulation.types = sim::evenly_distributed_types(24, 3);
  simulation.cutoff_radius = 3.0;
  simulation.init_disc_radius = 6.0;
  simulation.steps = 40;
  simulation.record_stride = 8;
  simulation.seed = 99;
  core::ExperimentConfig experiment(std::move(simulation));
  experiment.samples = 96;
  const core::EnsembleSeries series = core::run_experiment(experiment);

  core::AnalysisOptions options;
  const int warmup = 1;
  const int rounds = 3;
  for (int i = 0; i < warmup; ++i) {
    benchmark::DoNotOptimize(core::analyze_self_organization(series, options));
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < rounds; ++i) {
    benchmark::DoNotOptimize(core::analyze_self_organization(series, options));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (frames_out != nullptr) *frames_out = series.frame_count();
  return static_cast<double>(series.frame_count() * rounds) / seconds;
}

// ------------------------------------------------------------------------
// Pre-streaming analyzer baseline. This reproduces, deliberately and
// verbatim, the per-frame analysis path as it stood before the streaming
// pipeline landed: ICP correspondences through a single type-lifted 3-D
// k-d tree — including the seed tree's own nearest-neighbor query, whose
// per-query heap/stack/result allocations the production tree has since
// shed — the materialize-and-sort greedy matcher, and the KSG estimator,
// all run post-hoc after the recording finishes. It is the fixed yardstick
// the paper row's speedup is measured against; do not optimize it. (Its
// brute-force KSG is now the library's only KSG path, the symmetric pair
// passes: on 100 samples of 12 coarse-grained observers that costs well
// under a millisecond per frame, next to seconds of n = 1024 ICP.) By the estimator and alignment bitwise contracts it must
// also produce the exact bits of the production pipeline, which the
// paper-row CHECK below asserts.
namespace prestream {

// The seed k-d tree, reduced to what the baseline ICP queries: median
// split on the widest axis, and k-nearest via a max-heap with a
// heap-allocated traversal stack — `nearest` pays a full k_nearest(1)
// call per correspondence, exactly as the pre-streaming aligner did.
class SeedKdTree {
 public:
  SeedKdTree(std::span<const double> points, std::size_t dim)
      : points_(points), dim_(dim), count_(points.size() / dim) {
    order_.resize(count_);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    if (count_ > 0) {
      nodes_.reserve(2 * count_ / kLeafSize + 2);
      root_ = build(0, count_);
    }
  }

  [[nodiscard]] geom::Neighbor nearest(std::span<const double> query) const {
    return k_nearest(query, 1).front();
  }

  [[nodiscard]] std::vector<geom::Neighbor> k_nearest(
      std::span<const double> query, std::size_t k) const {
    std::vector<geom::Neighbor> result;
    if (count_ == 0 || k == 0) return result;

    std::priority_queue<HeapEntry> best;  // max-heap of current best k
    auto worst = [&]() noexcept {
      return best.size() < k ? std::numeric_limits<double>::infinity()
                             : best.top().dist_sq;
    };

    std::vector<int> stack;
    stack.push_back(root_);
    while (!stack.empty()) {
      const int node_id = stack.back();
      stack.pop_back();
      if (node_id < 0) continue;
      const Node& node = nodes_[static_cast<std::size_t>(node_id)];
      if (node.is_leaf()) {
        for (std::size_t i = node.begin; i < node.end; ++i) {
          const std::size_t idx = order_[i];
          const double d2 = dist_sq_to(idx, query);
          if (d2 < worst()) {
            best.push({d2, idx});
            if (best.size() > k) best.pop();
          }
        }
        continue;
      }
      const double delta = query[node.axis] - node.split;
      const int near_child = delta < 0.0 ? node.left : node.right;
      const int far_child = delta < 0.0 ? node.right : node.left;
      if (delta * delta < worst()) stack.push_back(far_child);
      stack.push_back(near_child);
    }

    result.resize(best.size());
    for (std::size_t i = result.size(); i-- > 0;) {
      result[i] = {best.top().index, best.top().dist_sq};
      best.pop();
    }
    return result;
  }

 private:
  struct HeapEntry {
    double dist_sq;
    std::size_t index;
    bool operator<(const HeapEntry& o) const noexcept {
      return dist_sq < o.dist_sq;
    }
  };
  struct Node {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t axis = 0;
    double split = 0.0;
    int left = -1;
    int right = -1;
    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  static constexpr std::size_t kLeafSize = 16;

  [[nodiscard]] const double* point(std::size_t i) const noexcept {
    return points_.data() + i * dim_;
  }
  [[nodiscard]] double dist_sq_to(std::size_t i,
                                  std::span<const double> query) const noexcept {
    const double* p = point(i);
    double sum = 0.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      const double diff = p[d] - query[d];
      sum += diff * diff;
    }
    return sum;
  }

  int build(std::size_t begin, std::size_t end) {
    Node node;
    node.begin = begin;
    node.end = end;
    const std::size_t count = end - begin;
    if (count <= kLeafSize) {
      nodes_.push_back(node);
      return static_cast<int>(nodes_.size() - 1);
    }
    std::size_t best_axis = 0;
    double best_spread = -1.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (std::size_t i = begin; i < end; ++i) {
        const double v = point(order_[i])[d];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        best_axis = d;
      }
    }
    if (best_spread == 0.0) {
      nodes_.push_back(node);
      return static_cast<int>(nodes_.size() - 1);
    }
    const std::size_t mid = begin + count / 2;
    std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                     order_.begin() + static_cast<std::ptrdiff_t>(mid),
                     order_.begin() + static_cast<std::ptrdiff_t>(end),
                     [this, best_axis](std::size_t a, std::size_t b) {
                       return point(a)[best_axis] < point(b)[best_axis];
                     });
    node.axis = best_axis;
    node.split = point(order_[mid])[best_axis];
    const std::size_t self = nodes_.size();
    nodes_.push_back(node);
    const int left = build(begin, mid);
    const int right = build(mid, end);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return static_cast<int>(self);
  }

  std::span<const double> points_;
  std::size_t dim_;
  std::size_t count_;
  std::vector<std::size_t> order_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

// Flat 3-D array of type-lifted points: (x, y, type · lift).
std::vector<double> lift(std::span<const geom::Vec2> points,
                         std::span<const sim::TypeId> types, double lift_scale) {
  std::vector<double> out;
  out.reserve(points.size() * 3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.push_back(points[i].x);
    out.push_back(points[i].y);
    out.push_back(static_cast<double>(types[i]) * lift_scale);
  }
  return out;
}

// One ICP descent from the given initial rotation (about the source
// centroid): NN correspondences against the lifted target tree.
align::IcpResult icp_descent(std::span<const geom::Vec2> source,
                             std::span<const sim::TypeId> source_types,
                             std::span<const geom::Vec2> target,
                             const SeedKdTree& target_tree, double lift_scale,
                             double initial_angle,
                             const align::IcpOptions& options) {
  const geom::Vec2 source_centroid = geom::centroid(source);
  geom::RigidTransform2 current{
      initial_angle,
      source_centroid - geom::rotated(source_centroid, initial_angle)};

  align::IcpResult result;
  result.mean_squared_error = std::numeric_limits<double>::infinity();

  std::vector<geom::Vec2> moved(source.size());
  std::vector<geom::Vec2> matched(source.size());
  double query[3];

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t i = 0; i < source.size(); ++i) {
      moved[i] = current.apply(source[i]);
    }

    double mse = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      query[0] = moved[i].x;
      query[1] = moved[i].y;
      query[2] = static_cast<double>(source_types[i]) * lift_scale;
      const geom::Neighbor nn = target_tree.nearest({query, 3});
      matched[i] = target[nn.index];
      mse += geom::dist_sq(moved[i], matched[i]);
    }
    mse /= static_cast<double>(source.size());

    if (mse >= result.mean_squared_error - options.convergence_tolerance) {
      result.mean_squared_error = std::min(mse, result.mean_squared_error);
      break;
    }
    result.mean_squared_error = mse;
    current = geom::fit_rigid(source, matched);
  }
  result.transform = current;
  return result;
}

align::IcpResult align_icp(std::span<const geom::Vec2> source,
                           std::span<const sim::TypeId> source_types,
                           std::span<const geom::Vec2> target,
                           std::span<const sim::TypeId> target_types,
                           const align::IcpOptions& options) {
  // The type axis sits a magnitude beyond the collective's diameter (the
  // paper's lift), so a cross-type candidate never beats a same-type one.
  constexpr double kTypeLiftScale = 10.0;
  const double diameter =
      std::max({geom::bounding_box(target).diagonal(),
                geom::bounding_box(source).diagonal(), 1.0});
  const double lift_scale = kTypeLiftScale * diameter;

  const std::vector<double> lifted_target =
      lift(target, target_types, lift_scale);
  const SeedKdTree target_tree(lifted_target, 3);

  align::IcpResult best;
  best.mean_squared_error = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(r) /
                         static_cast<double>(options.rotation_restarts);
    align::IcpResult candidate = icp_descent(
        source, source_types, target, target_tree, lift_scale, angle, options);
    if (candidate.mean_squared_error < best.mean_squared_error) {
      best = candidate;
    }
  }
  return best;
}

// All same-type pairs sorted by distance; greedily commit closest pairs.
std::vector<std::size_t> match_by_type(std::span<const geom::Vec2> source,
                                       std::span<const sim::TypeId> source_types,
                                       std::span<const geom::Vec2> target,
                                       std::span<const sim::TypeId> target_types) {
  struct Pair {
    double dist_sq;
    std::uint32_t s;
    std::uint32_t t;
  };
  std::vector<Pair> pairs;
  for (std::uint32_t s = 0; s < source.size(); ++s) {
    for (std::uint32_t t = 0; t < target.size(); ++t) {
      if (source_types[s] != target_types[t]) continue;
      pairs.push_back({geom::dist_sq(source[s], target[t]), s, t});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
    if (a.s != b.s) return a.s < b.s;
    return a.t < b.t;
  });

  const std::size_t n = source.size();
  std::vector<std::size_t> match(n, n);
  std::vector<char> target_used(n, 0);
  std::size_t committed = 0;
  for (const Pair& p : pairs) {
    if (match[p.s] != n || target_used[p.t]) continue;
    match[p.s] = p.t;
    target_used[p.t] = 1;
    if (++committed == n) break;
  }
  return match;
}

// Replica of align_ensemble's row loop over the frozen ICP and matcher
// (the loop structure itself did not change; only the callees did).
align::AlignedEnsemble align_rows(geom::FrameView configs,
                                  const std::vector<sim::TypeId>& types) {
  const std::size_t n = types.size();
  const std::size_t m = configs.size();
  align::AlignedEnsemble out;
  out.samples = info::SampleMatrix(m, 2 * n);
  out.blocks = info::uniform_blocks(n, 2);
  out.block_types = types;
  const std::vector<geom::Vec2> reference = geom::centered(configs[0]);
  const auto write_row = [&](std::size_t s, const std::vector<geom::Vec2>& points) {
    auto row = out.samples.row(s);
    for (std::size_t i = 0; i < n; ++i) {
      row[2 * i] = points[i].x;
      row[2 * i + 1] = points[i].y;
    }
  };
  write_row(0, reference);
  // A transient pool of every hardware thread, per call: the baseline's
  // own dispatch.
  const support::TaskPool pool(0);
  support::parallel_for(pool.executor(), 1, m, [&](std::size_t s) {
    std::vector<geom::Vec2> moved = geom::centered(configs[s]);
    const align::IcpResult icp =
        prestream::align_icp(moved, types, reference, types,
                             align::IcpOptions{});
    moved = geom::centered(icp.transform.apply(moved));
    const std::vector<std::size_t> match =
        prestream::match_by_type(moved, types, reference, types);
    std::vector<geom::Vec2> permuted(n);
    for (std::size_t i = 0; i < n; ++i) permuted[match[i]] = moved[i];
    write_row(s, permuted);
  });
  return out;
}

// One frame through the frozen pipeline: align, per-type k-means
// coarse-graining (production code — the streaming work left it alone),
// KSG. Returns the frame's multi-information.
double analyze_frame(geom::FrameView frame,
                     const std::vector<sim::TypeId>& types,
                     const core::AnalysisOptions& options,
                     std::size_t frame_index) {
  align::AlignedEnsemble aligned = align_rows(frame, types);
  rng::Xoshiro256 engine = rng::make_stream(
      options.kmeans_seed, static_cast<std::uint64_t>(frame_index));
  aligned =
      align::coarse_grain_ensemble(aligned, options.kmeans_per_type, engine);
  return info::multi_information_ksg(aligned.samples, aligned.blocks,
                                     options.ksg);
}

}  // namespace prestream

// The paper-shaped analyzer row: n = 1024 particles, m = 100 samples on a
// 6-frame recording grid.
core::ExperimentConfig paper_row_experiment() {
  sim::SimulationConfig simulation(default_model(3));
  simulation.types = sim::evenly_distributed_types(1024, 3);
  simulation.cutoff_radius = 3.0;
  simulation.init_disc_radius = 48.0;
  simulation.steps = 40;
  simulation.record_stride = 8;
  simulation.seed = 99;
  core::ExperimentConfig experiment(std::move(simulation));
  experiment.samples = 100;
  return experiment;
}

struct PaperRow {
  std::size_t n = 0;
  std::size_t samples = 0;
  std::size_t frames = 0;
  double frames_per_sec = 0.0;
  double frozen_baseline_frames_per_sec = 0.0;
  bool bitwise_match = false;
};

// Analyzer throughput at the paper row vs the frozen baseline. The
// production run is core::measure_experiment timed end to end (simulation,
// then analysis; the simulation is ~1 s here, analysis dominates). The
// baseline is timed
// on a single frame with a single rep: one frame runs tens of seconds
// through the lifted-tree ICP, which dwarfs timer jitter, and kBenchReps
// of it would triple an already minute-scale benchmark.
PaperRow measure_paper_row() {
  const core::ExperimentConfig experiment = paper_row_experiment();
  PaperRow row;
  row.n = experiment.simulation.types.size();
  row.samples = experiment.samples;

  const core::AnalysisOptions options;
  const auto start = std::chrono::steady_clock::now();
  const core::AnalysisResult measured =
      core::measure_experiment(experiment, options);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  row.frames = measured.points.size();
  row.frames_per_sec = static_cast<double>(row.frames) / seconds;

  const core::EnsembleSeries series = core::run_experiment(experiment);
  const auto baseline_start = std::chrono::steady_clock::now();
  const double baseline_mi =
      prestream::analyze_frame(series.frames[0], series.types, options, 0);
  const double baseline_seconds = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      baseline_start)
                                      .count();
  row.frozen_baseline_frames_per_sec = 1.0 / baseline_seconds;
  row.bitwise_match =
      baseline_mi == measured.points.front().multi_information;
  return row;
}

// Job-layer cost at a small paper-shaped workload: the identical
// experiment run through a one-slot JobManager (the batch CLI's
// configuration since the service refactor) vs a direct run_experiment
// call, plus the submit → first-streamed-sample latency — the time a
// daemon watcher waits before the first kSampleCsv frame has bytes to
// carry. The manager is scheduling only, so the overhead ratio should
// hover at 1.0x; both numbers are recorded ungated (sub-second walls on
// shared runners jitter past any honest tolerance) to make a creeping
// scheduler cost visible in the trend.
struct ServiceBenchRow {
  double direct_seconds = 0.0;
  double manager_seconds = 0.0;
  double submit_to_first_sample_ms = 0.0;
};

ServiceBenchRow measure_service_row() {
  sim::SimulationConfig simulation(default_model(3));
  simulation.types = sim::evenly_distributed_types(256, 3);
  simulation.cutoff_radius = 3.0;
  simulation.init_disc_radius = 24.0;
  simulation.steps = 40;
  simulation.record_stride = 8;
  simulation.seed = 3;
  core::ExperimentConfig experiment(std::move(simulation));
  experiment.samples = 32;

  ServiceBenchRow row;
  const auto direct_start = std::chrono::steady_clock::now();
  const core::EnsembleSeries direct = core::run_experiment(experiment);
  row.direct_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - direct_start)
                           .count();
  benchmark::DoNotOptimize(direct.frames.sample(0, 0).data());

  core::JobLimits limits;
  limits.job_slots = 1;
  core::JobManager manager(limits);
  std::atomic<std::int64_t> first_sample_ns{-1};
  const auto submit_start = std::chrono::steady_clock::now();
  core::JobOptions options;
  options.analysis = core::JobAnalysis::kNone;
  options.events.on_sample_done = [&](const core::JobSampleEvent&) {
    std::int64_t expected = -1;
    const std::int64_t elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - submit_start)
            .count();
    first_sample_ns.compare_exchange_strong(expected, elapsed);
  };
  const std::uint64_t id =
      manager.submit(core::ConfiguredExperiment{experiment, {}}, options);
  const core::JobOutcome outcome = manager.wait(id);
  row.manager_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - submit_start)
                            .count();
  benchmark::DoNotOptimize(outcome.series.frames.sample(0, 0).data());
  row.submit_to_first_sample_ms =
      first_sample_ns.load() >= 0
          ? static_cast<double>(first_sample_ns.load()) / 1e6
          : 0.0;
  return row;
}

// Current resident set of this process in KB (VmRSS via /proc/self/statm);
// 0 when unavailable. Unlike the peak, deltas of the current RSS let one
// process compare the footprint of two storage backings back to back.
long current_rss_kb() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  long size_pages = 0;
  long resident_pages = 0;
  const int fields = std::fscanf(statm, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  return resident_pages * (static_cast<long>(sysconf(_SC_PAGESIZE)) / 1024);
#else
  return 0;
#endif
}

// Resident-set cost of recording a paper-sized ensemble into a FrameStore:
// fills every [frame][sample] slot the way the streamed driver does
// (per-sample, flushing each finished sample's extents), and reports the
// RSS delta while the store is still alive. Heap backing pays the full
// payload; the mapped spill path pushes finished extents to disk and
// drops their pages, so its delta stays far below the store's bytes().
long measure_frame_store_fill_rss_kb(core::StorageMode mode,
                                     std::size_t frames, std::size_t samples,
                                     std::size_t particles) {
  core::FrameStoreOptions options;
  options.mode = mode;
  const long before = current_rss_kb();
  core::FrameStore store(frames, samples, particles, options);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t f = 0; f < frames; ++f) {
      auto slot = store.sample_slot(f, s);
      for (std::size_t i = 0; i < slot.size(); ++i) {
        slot[i] = {static_cast<double>(s + i), static_cast<double>(f)};
      }
    }
    store.flush_samples(s, s + 1);
  }
  const long delta = current_rss_kb() - before;
  benchmark::DoNotOptimize(store.sample(0, 0).data());
  return delta > 0 ? delta : 0;
}

// Peak resident set of this process in KB; 0 when the platform has no
// getrusage. Linux reports ru_maxrss in KB, macOS in bytes.
long peak_rss_kb() {
#if defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss / 1024;
#elif defined(__unix__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return 0;
}

void emit_engine_json() {
  const std::size_t sizes[] = {64, 256, 1024};
  double speedup_at_1024 = 0.0;
  std::FILE* out = std::fopen("BENCH_engine.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_engine.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"engine_step\",\n"
                    "  \"mode\": \"cell_grid\",\n  \"results\": [\n");
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t n = sizes[k];
    const double baseline =
        best_throughput([&] { return measure_steps_per_sec(n, false); });
    const double engine =
        best_throughput([&] { return measure_steps_per_sec(n, true); });
    const double speedup = engine / baseline;
    if (n == 1024) speedup_at_1024 = speedup;
    std::fprintf(out,
                 "    {\"n\": %zu, \"baseline_steps_per_sec\": %.1f, "
                 "\"engine_steps_per_sec\": %.1f, \"speedup\": %.3f, "
                 "\"bytes_per_frame\": %zu}%s\n",
                 n, baseline, engine, speedup, n * sizeof(geom::Vec2),
                 k + 1 < 3 ? "," : "");
    std::printf("engine step n=%zu: baseline %.0f steps/s, engine %.0f "
                "steps/s (%.2fx), %zu bytes/frame\n",
                n, baseline, engine, speedup, n * sizeof(geom::Vec2));
  }

  // The paper's own collective: fig4 on the all-pairs backend, serial.
  const double fig4_rate = best_throughput(measure_fig4_steps_per_sec);
  std::fprintf(out,
               "  ],\n  \"all_pairs\": {\"preset\": \"fig4\", \"n\": 50, "
               "\"samples\": 1, \"threads\": 1, \"steps_per_sec\": %.1f},\n",
               fig4_rate);
  std::printf("all-pairs fig4 n=50 serial: %.0f steps/s\n", fig4_rate);

  // Intra-step sharding: single-sample stepping of one large collective at
  // 1/2/4/8 drift threads, dispatched on the persistent pool. The scaling
  // column is against this build's own threads=1 row, so the number is a
  // pure scaling measurement.
  const std::size_t intra_sizes[] = {1024, 4096, 16384};
  const std::size_t thread_counts[] = {1, 2, 4, 8};
  // The scaling gate reads the widest row the machine can actually run in
  // parallel: min(8, hardware threads), rounded down to a measured width.
  const std::size_t hardware = support::default_thread_count();
  std::size_t gate_threads = 1;
  for (const std::size_t threads : thread_counts) {
    if (threads <= std::min<std::size_t>(8, hardware)) gate_threads = threads;
  }
  std::fprintf(out, "  \"intra_step\": [\n");
  for (std::size_t a = 0; a < 3; ++a) {
    const std::size_t n = intra_sizes[a];
    double serial = 0.0;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t threads = thread_counts[b];
      const double rate = best_throughput(
          [&] { return measure_intra_step_steps_per_sec(n, threads); });
      if (threads == 1) serial = rate;
      const double scaling = serial > 0.0 ? rate / serial : 0.0;
      std::fprintf(out,
                   "    {\"n\": %zu, \"threads\": %zu, "
                   "\"steps_per_sec\": %.1f, \"scaling_vs_serial\": %.3f}%s\n",
                   n, threads, rate, scaling,
                   a + 1 < 3 || b + 1 < 4 ? "," : "");
      std::printf("intra-step n=%zu threads=%zu: %.0f steps/s (%.2fx vs "
                  "serial)\n",
                  n, threads, rate, scaling);
    }
  }
  // The scaling CHECK's own reading: the n = 16384 threads=1 and
  // gate-width rows timed back to back in alternating order, gated on the
  // median of the per-pair ratios. Dividing the two best-of rows above
  // would compare moments minutes apart on a shared host.
  constexpr int kGatePairs = 7;
  double gate_scaling_at_16384 = 0.0;
  if (gate_threads > 1) {
    std::vector<double> ratios;
    for (int pair = 0; pair < kGatePairs; ++pair) {
      double serial = 0.0;
      double wide = 0.0;
      if (pair % 2 == 0) {
        serial = measure_intra_step_steps_per_sec(16384, 1);
        wide = measure_intra_step_steps_per_sec(16384, gate_threads);
      } else {
        wide = measure_intra_step_steps_per_sec(16384, gate_threads);
        serial = measure_intra_step_steps_per_sec(16384, 1);
      }
      ratios.push_back(wide / serial);
    }
    std::sort(ratios.begin(), ratios.end());
    gate_scaling_at_16384 = ratios[kGatePairs / 2];
  }

  // Per-dispatch overhead of an empty batch at the widths kAuto allocates:
  // what one step pays before any drift work. kIntraStepMinParticles is
  // re-derived from this number (see sim/parallel_policy.hpp).
  const std::size_t dispatch_width = 4;
  const double pool_us = measure_dispatch_us(dispatch_width);
  std::fprintf(out,
               "  ],\n  \"dispatch\": {\"width\": %zu, "
               "\"pool_us\": %.2f},\n",
               dispatch_width, pool_us);
  std::printf("dispatch width=%zu: pool %.1f us\n", dispatch_width, pool_us);
  std::fprintf(out,
               "  \"intra_step_min_particles\": {\"pre_executor\": 2048, "
               "\"current\": %zu},\n",
               sim::kIntraStepMinParticles);

  // SoA/SIMD kernel speedup: the single-threaded cell-grid step with the
  // scalar reference kernels vs the vector kernels, same workload as the
  // intra_step series. The ISA label and compiler identity ride along so
  // tools/bench_trend.py can refuse to compare runs across machines whose
  // kernels dispatched differently — a "regression" from avx2 to generic
  // is a hardware change, not a code change. Lane width is pinned
  // (support::kSimdWidth); scalar and vector results are bitwise-identical
  // by contract, so this section is pure throughput, never accuracy.
  const std::size_t simd_sizes[] = {4096, 16384};
  const auto saved_policy = support::simd_policy();
#if defined(__clang__)
  const char* const compiler_id = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* const compiler_id = "gcc " __VERSION__;
#else
  const char* const compiler_id = "unknown";
#endif
  // Single-core cell-grid steps/sec recorded by the last pre-SoA build of
  // this benchmark (intra_step threads=1 rows) — the fixed yardstick for
  // the "SoA + SIMD bought >= 3x" check below.
  const double pre_soa_steps_per_sec[] = {479.7, 113.7};
  double simd_vs_pre_soa[] = {0.0, 0.0};
  double simd_speedup_at_16384 = 0.0;
  std::fprintf(out,
               "  \"simd\": {\"width\": %zu, \"isa\": \"%s\", "
               "\"compiler\": \"%s\", \"arch_flags\": \"%s\", "
               "\"results\": [\n",
               support::kSimdWidth, support::simd_isa(), compiler_id,
               support::cpu_dispatch_avx2() ? "baseline+avx2-dispatch"
                                            : "baseline");
  for (std::size_t k = 0; k < 2; ++k) {
    const std::size_t n = simd_sizes[k];
    support::set_simd_policy(support::SimdPolicy::kScalar);
    const double scalar_rate = best_throughput(
        [&] { return measure_intra_step_steps_per_sec(n, 1); });
    support::set_simd_policy(support::SimdPolicy::kAuto);
    const double simd_rate = best_throughput(
        [&] { return measure_intra_step_steps_per_sec(n, 1); });
    support::set_simd_policy(saved_policy);
    const double speedup = scalar_rate > 0.0 ? simd_rate / scalar_rate : 0.0;
    simd_vs_pre_soa[k] = simd_rate / pre_soa_steps_per_sec[k];
    if (n == 16384) simd_speedup_at_16384 = speedup;
    std::fprintf(out,
                 "    {\"n\": %zu, \"scalar_steps_per_sec\": %.1f, "
                 "\"simd_steps_per_sec\": %.1f, \"speedup\": %.3f}%s\n",
                 n, scalar_rate, simd_rate, speedup, k + 1 < 2 ? "," : "");
    std::printf("simd n=%zu isa=%s: scalar %.0f steps/s, simd %.0f steps/s "
                "(%.2fx)\n",
                n, support::simd_isa(), scalar_rate, simd_rate, speedup);
  }
  std::fprintf(out, "  ]},\n");

  // Analyzer throughput (align → KSG per recorded frame) and this run's
  // peak resident set — both gated by tools/bench_trend.py. The nested
  // paper row is the paper-shaped workload: simulate + analyze frames/sec
  // (gated) against the frozen pre-streaming analysis baseline (recorded,
  // ungated — it is a fixed yardstick, not a trend).
  std::size_t analyzer_frames = 0;
  const double frames_per_sec = measure_analyzer_frames_per_sec(&analyzer_frames);
  std::printf("analyzer: %.1f KSG frames/s (n=24, m=96, %zu frames)\n",
              frames_per_sec, analyzer_frames);
  const PaperRow paper = measure_paper_row();
  const double paper_speedup =
      paper.frozen_baseline_frames_per_sec > 0.0
          ? paper.frames_per_sec / paper.frozen_baseline_frames_per_sec
          : 0.0;
  std::fprintf(out,
               "  \"analyzer\": {\"n\": 24, \"samples\": 96, \"frames\": %zu, "
               "\"frames_per_sec\": %.2f,\n"
               "    \"paper_row\": {\"n\": %zu, \"samples\": %zu, "
               "\"frames\": %zu, \"frames_per_sec\": %.4f, "
               "\"frozen_baseline_frames_per_sec\": %.4f, "
               "\"speedup\": %.2f}},\n",
               analyzer_frames, frames_per_sec, paper.n, paper.samples,
               paper.frames, paper.frames_per_sec,
               paper.frozen_baseline_frames_per_sec, paper_speedup);
  std::printf("paper-row analyzer n=%zu m=%zu F=%zu: %.4f frames/s simulate "
              "+ analyze vs %.4f frames/s frozen baseline (%.2fx), bitwise "
              "%s\n",
              paper.n, paper.samples, paper.frames, paper.frames_per_sec,
              paper.frozen_baseline_frames_per_sec, paper_speedup,
              paper.bitwise_match ? "identical" : "DIVERGED");

  // Read the engine's whole-run high-water mark *before* the frame-store
  // fill below: the fill's deliberate 125 MiB heap allocation would
  // otherwise become the process peak and mask engine RSS regressions.
  const long engine_peak_rss_kb = peak_rss_kb();

  // FrameStore footprint at paper-sized m (the spill path's target
  // workload: m = 500 samples of n = 1024 particles on a long-stride
  // recording grid). Runs last so the 125 MiB fills cannot perturb the
  // timed sections above. bytes_per_frame is the deterministic per-frame
  // payload, gated on growth by bench_trend.py like RSS; the fill deltas
  // record how much of that payload stays resident per backing — the
  // mapped spill must keep the recording footprint well below the heap
  // mode's (recorded, not gated: small RSS numbers jitter).
  const std::size_t fs_frames = 16;
  const std::size_t fs_samples = 500;
  const std::size_t fs_particles = 1024;
  const long heap_fill_kb = measure_frame_store_fill_rss_kb(
      core::StorageMode::kHeap, fs_frames, fs_samples, fs_particles);
  const long mapped_fill_kb = measure_frame_store_fill_rss_kb(
      core::StorageMode::kMapped, fs_frames, fs_samples, fs_particles);
  const std::size_t fs_bytes_per_frame =
      fs_samples * fs_particles * sizeof(geom::Vec2);
  // Checkpoint/restart overhead at the same grid: the size of the shard
  // manifest sidecar a durable recording of F × m × n would carry.
  // Deterministic (header + F-step grid + per-sample entries + bitmap) and
  // tiny next to the payload; recorded so manifest format growth shows up
  // in the trend, ungated so a deliberate format revision does not trip
  // the throughput gate.
  io::ShardManifest fs_manifest;
  fs_manifest.frames = fs_frames;
  fs_manifest.samples_total = fs_samples;
  fs_manifest.particles = fs_particles;
  fs_manifest.slot_begin = 0;
  fs_manifest.slot_end = fs_samples;
  fs_manifest.frame_steps.assign(fs_frames, 0);
  fs_manifest.equilibrium_steps.assign(fs_samples, 0);
  fs_manifest.completed.assign(io::ShardManifest::words_for(fs_samples), 0);
  const std::size_t fs_manifest_bytes = fs_manifest.file_bytes();
  std::fprintf(out,
               "  \"frame_store\": {\"frames\": %zu, \"samples\": %zu, "
               "\"particles\": %zu, \"bytes_per_frame\": %zu, "
               "\"heap_fill_rss_delta_kb\": %ld, "
               "\"mapped_fill_rss_delta_kb\": %ld, "
               "\"manifest_bytes\": %zu},\n",
               fs_frames, fs_samples, fs_particles, fs_bytes_per_frame,
               heap_fill_kb, mapped_fill_kb, fs_manifest_bytes);
  std::printf("frame store m=%zu n=%zu F=%zu: %zu bytes/frame, fill RSS "
              "heap %ld KB vs mapped %ld KB, manifest %zu bytes\n",
              fs_samples, fs_particles, fs_frames, fs_bytes_per_frame,
              heap_fill_kb, mapped_fill_kb, fs_manifest_bytes);

  // Job-service overhead (see measure_service_row): recorded, ungated.
  const ServiceBenchRow service = measure_service_row();
  const double service_overhead =
      service.direct_seconds > 0.0
          ? service.manager_seconds / service.direct_seconds
          : 0.0;
  std::fprintf(out,
               "  \"service\": {\"n\": 256, \"samples\": 32, "
               "\"direct_seconds\": %.4f, \"manager_seconds\": %.4f, "
               "\"overhead_ratio\": %.3f, "
               "\"submit_to_first_sample_ms\": %.3f},\n",
               service.direct_seconds, service.manager_seconds,
               service_overhead, service.submit_to_first_sample_ms);
  std::printf("service n=256 m=32: direct %.3f s, manager %.3f s (%.2fx), "
              "submit->first sample %.2f ms\n",
              service.direct_seconds, service.manager_seconds,
              service_overhead, service.submit_to_first_sample_ms);

  std::fprintf(out, "  \"peak_rss_kb\": %ld,\n", engine_peak_rss_kb);
  std::fprintf(out, "  \"hardware_threads\": %u\n}\n",
               std::thread::hardware_concurrency());
  std::fclose(out);
  std::printf("CHECK %s engine >= 1.5x seed baseline at n=1024 (%.2fx)\n",
              speedup_at_1024 >= 1.5 ? "[PASS]" : "[FAIL]", speedup_at_1024);
  // 37.5% parallel efficiency: the former fixed gate (3x at 8 threads),
  // applied at the width this machine can run. The serial engine-word draw
  // and the per-dispatch wake cost keep a whole step well below linear.
  const double gate_min_scaling = 0.375 * static_cast<double>(gate_threads);
  std::printf("CHECK %s intra-step >= %.2fx at n=16384, threads=%zu = "
              "min(8, %zu hardware threads) (%.3fx, median of %d "
              "interleaved pairs)\n",
              gate_threads < 2 ? "[SKIP, one hardware thread]"
              : gate_scaling_at_16384 >= gate_min_scaling ? "[PASS]"
                                                          : "[FAIL]",
              gate_min_scaling, gate_threads, hardware, gate_scaling_at_16384,
              kGatePairs);
  std::printf("CHECK %s SoA + SIMD single-core step >= 3x the pre-SoA "
              "recording (%.2fx at n=4096, %.2fx at n=16384; simd/scalar "
              "%.2fx at n=16384)\n",
              simd_vs_pre_soa[0] >= 3.0 && simd_vs_pre_soa[1] >= 3.0
                  ? "[PASS]"
                  : "[FAIL]",
              simd_vs_pre_soa[0], simd_vs_pre_soa[1], simd_speedup_at_16384);
  std::printf("CHECK %s paper-row analyzer >= 3x the frozen baseline at "
              "n=1024, m=100 (%.2fx) with bitwise-identical output (%s)\n",
              paper_speedup >= 3.0 && paper.bitwise_match ? "[PASS]"
                                                          : "[FAIL]",
              paper_speedup, paper.bitwise_match ? "identical" : "DIVERGED");
  std::printf("CHECK %s mapped frame store keeps < 50%% of the heap "
              "recording footprint resident (%ld vs %ld KB at m=%zu)\n",
              heap_fill_kb <= 0 ? "[SKIP, no /proc/self/statm]"
              : mapped_fill_kb < heap_fill_kb / 2 ? "[PASS]"
                                                  : "[FAIL]",
              mapped_fill_kb, heap_fill_kb, fs_samples);
  std::printf("series written to BENCH_engine.json\n");
}

// --smoke: a seconds-scale self-check for ctest — steps a small collective
// serially and sharded, verifying the bitwise contract end to end, without
// touching BENCH_engine.json.
int run_smoke() {
  const std::size_t n = 512;
  auto serial_system = random_system(n, 34.0, 3, 7);
  auto sharded_system = serial_system;
  auto pooled_system = serial_system;
  auto scalar_system = serial_system;
  const auto model = default_model(3);
  const sim::PairScalingTable table(model);
  sim::IntegratorParams params;
  rng::Xoshiro256 serial_engine(1);
  rng::Xoshiro256 sharded_engine(1);
  rng::Xoshiro256 pooled_engine(1);
  rng::Xoshiro256 scalar_engine(1);
  std::vector<geom::Vec2> serial_drift;
  std::vector<geom::Vec2> sharded_drift;
  std::vector<geom::Vec2> pooled_drift;
  std::vector<geom::Vec2> scalar_drift;
  geom::NeighborBackend serial_backend(geom::NeighborBackendKind::kCellGrid);
  geom::NeighborBackend sharded_backend(geom::NeighborBackendKind::kCellGrid);
  geom::NeighborBackend pooled_backend(geom::NeighborBackendKind::kCellGrid);
  geom::NeighborBackend scalar_backend(geom::NeighborBackendKind::kCellGrid);
  support::TaskPool pool(4);
  const auto smoke_policy = support::simd_policy();
  for (int step = 0; step < 25; ++step) {
    sim::accumulate_drift(serial_system, table, 3.0, serial_drift,
                          serial_backend, support::serial_executor());
    sim::accumulate_drift(sharded_system, table, 3.0, sharded_drift,
                          sharded_backend, pool.executor().lend(0, 2));
    sim::accumulate_drift(pooled_system, table, 3.0, pooled_drift,
                          pooled_backend, pool.executor());
    // The scalar reference kernels must reproduce whatever the ambient
    // policy (simd, on capable builds) computed, bit for bit.
    support::set_simd_policy(support::SimdPolicy::kScalar);
    sim::accumulate_drift(scalar_system, table, 3.0, scalar_drift,
                          scalar_backend, support::serial_executor());
    support::set_simd_policy(smoke_policy);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(serial_drift[i] == sharded_drift[i]) ||
          !(serial_drift[i] == pooled_drift[i]) ||
          !(serial_drift[i] == scalar_drift[i])) {
        std::fprintf(stderr, "smoke: drift diverged at step %d particle %zu\n",
                     step, i);
        return 1;
      }
    }
    sim::apply_euler_maruyama_update(serial_system, serial_drift, params,
                                     serial_engine);
    sim::apply_euler_maruyama_update(sharded_system, sharded_drift, params,
                                     sharded_engine);
    sim::apply_euler_maruyama_update(pooled_system, pooled_drift, params,
                                     pooled_engine);
    sim::apply_euler_maruyama_update(scalar_system, scalar_drift, params,
                                     scalar_engine);
  }
  std::printf(
      "smoke: 25 steps, serial == 3-wide lent view == 4-wide pool == scalar "
      "bitwise (cell grid; simd policy %s)\n",
      support::simd_isa());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Filtered runs are iteration loops on one benchmark — skip the engine
  // sweep then, so a quick --benchmark_filter run stays quick and does not
  // overwrite BENCH_engine.json with numbers from a loaded machine.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") return run_smoke();
    // CI's perf-trend step wants the JSON without paying for the full
    // google-benchmark suite.
    if (arg == "--engine-json-only") {
      emit_engine_json();
      return 0;
    }
    if (arg.starts_with("--benchmark_filter")) filtered = true;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!filtered) emit_engine_json();
  return 0;
}
