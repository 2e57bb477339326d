#include "sim/forces.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "geom/cell_grid.hpp"
#include "sim/drift_kernel.hpp"
#include "support/parallel_for.hpp"

namespace sops::sim {
namespace {

// Runs body(k, scratch) for every chunk k in [0, count) on
// min(width, count) tasks that claim chunks dynamically, each with its own
// gather scratch (sized here, serially, before the dispatch).
template <typename Body>
void run_claimed_chunks(const support::Executor& executor, std::size_t count,
                        std::vector<geom::GatherScratch>& gather,
                        const Body& body) {
  const std::size_t tasks = std::min(executor.width(), count);
  if (gather.size() < tasks) gather.resize(tasks);
  std::atomic<std::size_t> next{0};
  auto claim = [&](std::size_t task) {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < count; k = next.fetch_add(1, std::memory_order_relaxed)) {
      body(k, gather[task]);
    }
  };
  executor.run(tasks, claim);
}

// The cell-grid drift path: each unordered pair once, over half shells in
// fixed column stripes (sim/drift_kernel.hpp has the order). The grid
// scattered its bucket-ordered coordinate lanes during the rebuild, so only
// the type lane is gathered here (its semantics are ours). Runners claim
// stripes dynamically; each stripe accumulates into its own running sums
// and its halo, then writes its particles' drifts. Once every stripe has
// run, each halo is added to the column it covers, in stripe order. No sum
// depends on which runner took which stripe, so every executor width gives
// the serial bits.
void accumulate_cell_kernel(const ParticleSystem& system,
                            const PairScalingTable& table, double cutoff_radius,
                            std::vector<geom::Vec2>& out,
                            geom::CellGridBackend& backend,
                            const support::Executor& executor) {
  const geom::CellGrid& grid = backend.grid();
  const std::span<const std::uint32_t> entries = grid.bucket_entries();
  const std::span<const std::uint32_t> starts = grid.bucket_starts();
  const DriftKernels& kernels = select_drift_kernels();
  geom::CellGridBackend::DriftScratch& s = backend.drift_scratch();
  grid.stripes(kDriftStripeColumns, s.stripes);
  const std::span<const geom::CellGrid::Stripe> stripes = s.stripes;

  const std::size_t n = system.size();
  s.tags.resize(n);
  for (std::size_t k = 0; k < n; ++k) s.tags[k] = system.types[entries[k]];
  // Stripe k's halo holds the next stripe's first column; halos are packed
  // in stripe order.
  s.halo_at.resize(stripes.size() + 1);
  s.halo_at[0] = 0;
  for (std::size_t k = 0; k < stripes.size(); ++k) {
    s.halo_at[k + 1] = s.halo_at[k] + starts[stripes[k].halo_end] -
                       starts[stripes[k].cell_end];
  }
  s.halo_x.assign(s.halo_at.back(), 0.0);
  s.halo_y.assign(s.halo_at.back(), 0.0);

  run_claimed_chunks(executor, stripes.size(), s.gather,
                     [&](std::size_t k, geom::GatherScratch& g) {
    const geom::CellGrid::Stripe stripe = stripes[k];
    const std::uint32_t first = starts[stripe.cell_begin];
    const std::uint32_t last = starts[stripe.cell_end];
    g.stripe_x.assign(last - first, 0.0);
    g.stripe_y.assign(last - first, 0.0);
    const DenseChunk chunk{grid.bucket_x().data(),
                           grid.bucket_y().data(),
                           s.tags.data(),
                           starts.data(),
                           &grid,
                           0,
                           stripe.cell_begin,
                           stripe.cell_end,
                           g.stripe_x.data(),
                           g.stripe_y.data(),
                           s.halo_x.data() + s.halo_at[k],
                           s.halo_y.data() + s.halo_at[k],
                           &g,
                           cutoff_radius * cutoff_radius};
    kernels.dense_chunk(table, chunk);
    for (std::uint32_t e = first; e < last; ++e) {
      out[entries[e]] = {g.stripe_x[e - first], g.stripe_y[e - first]};
    }
  });
  for (std::size_t k = 0; k < stripes.size(); ++k) {
    const std::uint32_t first = starts[stripes[k].cell_end];
    for (std::uint32_t e = first; e < starts[stripes[k].halo_end]; ++e) {
      const std::size_t h = s.halo_at[k] + (e - first);
      geom::Vec2& drift = out[entries[e]];
      drift = {drift.x + s.halo_x[h], drift.y + s.halo_y[h]};
    }
  }
}

// The all-pairs drift path: each unordered pair once, over fixed tiles of
// kAllPairsTileRows rows in index order (sim/drift_kernel.hpp has the
// order). Tile t is a one-cell chunk, rows [a_t, b_t) against [a_t, n),
// streaming the system's own lanes; its running sums over [a_t, n) are its
// partial sums, packed in tile order. Runners claim tiles dynamically. Once
// every tile has run, a particle's drift is its own tile's sum plus each
// earlier tile's partial, added in tile order, so no sum depends on which
// runner took which tile and every executor width gives the serial bits.
void accumulate_all_pairs_kernel(const ParticleSystem& system,
                                 const PairScalingTable& table,
                                 double cutoff_radius,
                                 std::vector<geom::Vec2>& out,
                                 geom::AllPairsBackend& backend,
                                 const support::Executor& executor) {
  const std::size_t n = system.size();
  const std::size_t rows = kAllPairsTileRows;
  const std::size_t tiles = (n + rows - 1) / rows;
  // Tile t's partials start at Σ_{s<t} (n − a_s) = t·n − rows·t(t−1)/2.
  const auto partial_at = [&](std::size_t t) {
    return t * n - rows * ((t * t - t) / 2);
  };
  const DriftKernels& kernels = select_drift_kernels();
  geom::AllPairsBackend::DriftScratch& s = backend.drift_scratch();
  s.partial_x.resize(partial_at(tiles));
  s.partial_y.resize(partial_at(tiles));

  run_claimed_chunks(executor, tiles, s.gather,
                     [&](std::size_t t, geom::GatherScratch& g) {
    const std::uint32_t starts[2] = {
        static_cast<std::uint32_t>(t * rows),
        static_cast<std::uint32_t>(std::min(n, (t + 1) * rows))};
    double* acc_x = s.partial_x.data() + partial_at(t);
    double* acc_y = s.partial_y.data() + partial_at(t);
    std::fill_n(acc_x, n - starts[0], 0.0);
    std::fill_n(acc_y, n - starts[0], 0.0);
    const DenseChunk chunk{system.x.data(),
                           system.y.data(),
                           system.types.data(),
                           starts,
                           nullptr,
                           static_cast<std::uint32_t>(n),
                           0,
                           1,
                           acc_x,
                           acc_y,
                           nullptr,
                           nullptr,
                           &g,
                           cutoff_radius * cutoff_radius};
    kernels.dense_chunk(table, chunk);
  });
  for (std::size_t u = 0; u < tiles; ++u) {
    const std::size_t a = u * rows;
    for (std::size_t i = a; i < std::min(n, a + rows); ++i) {
      const std::size_t own = partial_at(u) + (i - a);
      geom::Vec2 drift{s.partial_x[own], s.partial_y[own]};
      for (std::size_t t = 0; t < u; ++t) {
        const std::size_t p = partial_at(t) + (i - t * rows);
        drift = {drift.x + s.partial_x[p], drift.y + s.partial_y[p]};
      }
      out[i] = drift;
    }
  }
}

}  // namespace

NeighborMode resolve_neighbor_mode(NeighborMode mode, std::size_t n,
                                   double cutoff_radius) {
  // Exhaustive on purpose: a mode value outside the enum (a cast, a
  // version-skewed config) must fail here, loudly, instead of riding a
  // default branch into whatever backend happens to be listed first.
  switch (mode) {
    case NeighborMode::kAuto: {
      const bool unbounded = !std::isfinite(cutoff_radius);
      return (unbounded || n < 64) ? NeighborMode::kAllPairs
                                   : NeighborMode::kCellGrid;
    }
    case NeighborMode::kAllPairs:
    case NeighborMode::kCellGrid:
    case NeighborMode::kDelaunay:
      return mode;
  }
  support::expect(false, "resolve_neighbor_mode: unknown NeighborMode value");
  return NeighborMode::kAllPairs;
}

geom::NeighborBackendKind neighbor_backend_kind(NeighborMode resolved_mode) {
  switch (resolved_mode) {
    case NeighborMode::kAllPairs:
      return geom::NeighborBackendKind::kAllPairs;
    case NeighborMode::kCellGrid:
      return geom::NeighborBackendKind::kCellGrid;
    case NeighborMode::kDelaunay:
      return geom::NeighborBackendKind::kDelaunay;
    case NeighborMode::kAuto:
      break;
  }
  support::expect(false, "neighbor_backend_kind: mode must be resolved first");
  return geom::NeighborBackendKind::kAllPairs;
}

void accumulate_drift(const ParticleSystem& system, const PairScalingTable& table,
                      double cutoff_radius, std::vector<geom::Vec2>& out,
                      geom::NeighborBackend& backend,
                      const support::Executor& executor) {
  support::expect(cutoff_radius > 0.0, "accumulate_drift: cutoff must be positive");
  support::expect(system.types_within(table.types()),
                  "accumulate_drift: particle type outside the model");
  support::expect(backend.kind() != geom::NeighborBackendKind::kCellGrid ||
                      std::isfinite(cutoff_radius),
                  "accumulate_drift: cell grid needs finite r_c");
  // Executor-aware: the cell grid's counting sort shards on the same lent
  // workers the drift sum uses; the other backends rebuild serially.
  backend.rebuild(system.lanes(), cutoff_radius, executor);

  const std::size_t n = system.size();
  // resize, not assign: every path below writes every out[i] exactly once
  // (each particle belongs to exactly one stripe/chunk), so pre-zeroing n
  // Vec2s per step would be pure memory traffic.
  out.resize(n);
  const double cutoff_sq = cutoff_radius * cutoff_radius;

  // One fused kernel path per backend: candidates flow through the
  // lane-structured drift kernels (sim/drift_kernel.hpp) — half-shell
  // stripes on the cell grid, triangle tiles for all-pairs, indexed rows
  // for Delaunay. Every sum has a fixed order, so any width gives the
  // serial bits, and the scalar/SIMD kernel selection never changes them.
  geom::NeighborBackend::Variant& concrete = backend.get();
  if (auto* cell_backend = std::get_if<geom::CellGridBackend>(&concrete)) {
    accumulate_cell_kernel(system, table, cutoff_radius, out, *cell_backend,
                           executor);
    return;
  }
  if (auto* all_pairs = std::get_if<geom::AllPairsBackend>(&concrete)) {
    accumulate_all_pairs_kernel(system, table, cutoff_radius, out, *all_pairs,
                                executor);
    return;
  }
  // Delaunay rows are pure gathers (out[i] reads only the system), so the
  // equal parallel_for split is scheduling only. Adjacency rows are already
  // pruned by the cut-off at rebuild; the kernel mask is idempotent on them.
  const DriftKernels& kernels = select_drift_kernels();
  const auto& delaunay = std::get<geom::DelaunayBackend>(concrete);
  support::parallel_for(executor, 0, n, [&](std::size_t i) {
    const std::span<const std::uint32_t> adj = delaunay.neighbors(i);
    const IndexedRow row{system.x[i],      system.y[i],
                         system.types[i],  system.x.data(),
                         system.y.data(),  system.types.data(),
                         adj.data(),       adj.size(),
                         cutoff_sq};
    out[i] = kernels.indexed(table, row);
  });
}

double total_drift_norm(std::span<const geom::Vec2> drift) {
  // Kernel-dispatched: norms are computed in lanes but summed strictly in
  // index order, so every policy/ISA returns the same bits as this loop:
  //   for (d : drift) total += sqrt(d.x*d.x + d.y*d.y)
  return select_drift_kernels().drift_norm(drift.data(), drift.size());
}

}  // namespace sops::sim
