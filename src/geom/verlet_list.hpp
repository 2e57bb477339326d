// Verlet/skin neighbor lists: cached fixed-radius pair lists with
// displacement-triggered rebuilds.
//
// The cell-grid backend re-indexes the point set and walks 3×3 cell blocks
// on every step, even when the collective barely moves (the paper's regime
// once alignment sets in). A Verlet list instead caches, per particle, every
// candidate within `radius + skin` at build time; while no particle has
// moved more than skin/2 since that build, the cached rows still contain
// every true pair within `radius` — quiet steps iterate flat CSR rows with
// one distance check per candidate and touch no grid at all. A rebuild is
// triggered only when some particle's displacement since the reference
// build exceeds skin/2 (or the point count / query radius changed).
//
// Quiet-step evaluation: rows are short (a dozen candidates at production
// densities), so the dominant cost of a per-row dispatch is not the row
// math but the per-row overhead around it. The accumulate path therefore
// hands each shard's whole slice of particle-id order to one chunked
// kernel call (sim::IndexedChunk over csr_offsets/csr_indices below), which
// inlines the indexed row body per particle — identical arithmetic to the
// per-row indexed kernel, bitwise, with the call overhead paid once per
// shard. Candidates gather their *current* coordinates from the n-sized,
// cache-resident global lanes; the kernel's live mask zeroes out-of-cutoff
// and coincident candidates in place, which on short over-approximated rows
// beats compressing survivors first for the cheap spring law. The
// double-Gaussian's per-candidate exp flips that: each of its rows is
// compacted to its in-cutoff survivors first (sim::FilterRow, staged
// through ensure_filter_shards / filter_scratch), and the packed survivor
// lanes then run through the dense kernel (sim::DenseRow).
//
// The build is a single pass + stitch: per shard, each grid cell's 3×3
// candidate block is gathered once into contiguous lanes (indices + both
// coordinates), then every point of the cell filters that shared block with
// a plain-loop distance check the compiler auto-vectorizes, appending
// surviving candidates to per-shard row buffers. A serial prefix sum fixes
// the CSR offsets and a second sharded pass stitches the buffered rows into
// place.
//
// Builds are shard-parallel: the internal CellGrid's cell-major partition
// (`CellGrid::shard_bounds`) splits the candidate enumeration into disjoint
// particle ranges, so an `Executor` of any width produces the identical
// list — rows are written per particle, and each row's enumeration order is
// the grid walk's, independent of the partition.
//
// Reproducibility contract (see README "Neighbor backends"): within one
// list lifetime the enumeration order of every row is frozen at build time,
// so consecutive quiet steps are bitwise-stable and the sharded drift path
// equals the serial one bitwise. *When* rebuilds happen depends on the
// trajectory, though, so cross-mode golden pins do not transfer —
// NeighborMode::kAuto therefore never selects this backend; it is opt-in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/cell_grid.hpp"
#include "geom/position_lanes.hpp"
#include "support/executor.hpp"

namespace sops::geom {

/// Default extra shell of the Verlet/skin backend (position units); see
/// VerletListBackend. SimulationConfig::verlet_skin starts here.
inline constexpr double kDefaultVerletSkin = 1.0;

/// Cached-pair-list backend; opt-in via NeighborMode::kVerletSkin. One of
/// the alternatives of geom::NeighborBackend (geom/neighbor_backend.hpp).
class VerletListBackend {
 public:
  /// `skin` is the extra shell (in position units) beyond the query radius
  /// that candidates are cached at; a rebuild triggers once any particle
  /// drifted more than skin/2 from its reference position. Larger skins buy
  /// longer list lifetimes at the price of more candidates per quiet step.
  explicit VerletListBackend(double skin = kDefaultVerletSkin);

  /// Changes the skin; invalidates the cached list when the value differs.
  void set_skin(double skin);
  [[nodiscard]] double skin() const noexcept { return skin_; }

  /// Displacement-gated: a full rebuild (grid + candidate enumeration) only
  /// when the safety condition no longer holds; otherwise records the step
  /// and keeps the cached list. The candidate enumeration shards on
  /// `executor` (the engine's lent step executor); list contents are
  /// identical for any width.
  void rebuild(PositionLanes points, double radius,
               support::Executor& executor = support::serial_executor());

  /// Filters the cached candidate row by the positions of the last
  /// rebuild() call, so the result satisfies the NeighborBackend contract
  /// exactly (all j with ‖p_j − p_i‖ < radius, in frozen build order).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i);

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Contiguous cut of particle-id order, balanced by cached row lengths.
  /// Any cut is bitwise-safe (rows are per-particle gathers), so unlike the
  /// cell grid the partition needs no cell alignment — and id order lets
  /// the chunked drift kernel stream the CSR arrays sequentially.
  [[nodiscard]] std::span<const std::uint32_t> shard_bounds(
      std::size_t max_shards);

  /// Cached candidates of particle i: every j ≠ i within radius + skin of
  /// the reference build (true neighbors are a subset while the list is
  /// valid). Read-only and shared-state-free — the sharded drift kernel
  /// iterates rows from several threads between rebuilds.
  [[nodiscard]] std::span<const std::uint32_t> candidate_row(
      std::size_t i) const noexcept {
    return {indices_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// The raw CSR arrays of the cached list: the row of particle i is
  /// csr_indices()[csr_offsets()[i] .. csr_offsets()[i+1]).
  [[nodiscard]] std::span<const std::size_t> csr_offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> csr_indices() const noexcept {
    return indices_;
  }

  /// Grows the per-shard filter pool to at least `shards` buffers — the
  /// survivor lanes (x/y/tag) the accumulate path compresses each row into
  /// before the dense kernel. Call serially (between parallel phases); the
  /// buffers themselves are then handed out one per shard.
  void ensure_filter_shards(std::size_t shards) {
    if (filter_.size() < shards) filter_.resize(shards);
  }

  /// Filter buffer of shard k — touched only by the worker running shard k.
  [[nodiscard]] GatherScratch& filter_scratch(std::size_t k) noexcept {
    return filter_[k];
  }

  /// Longest cached candidate row of the current list — what a filter
  /// buffer must hold, plus the compress slack.
  [[nodiscard]] std::size_t max_row_count() const noexcept {
    return max_row_count_;
  }

  /// Current-step coordinate lanes (what candidate rows index into).
  [[nodiscard]] PositionLanes points() const noexcept { return points_; }

  /// Rebuild accounting across the backend's lifetime: `steps` counts
  /// rebuild() calls, `builds` the ones that fully rebuilt. The skip rate
  /// is what the opt-in buys; benches and tests assert on it.
  struct Stats {
    std::size_t builds = 0;
    std::size_t steps = 0;
    [[nodiscard]] double skip_rate() const noexcept {
      return steps > 0
                 ? 1.0 - static_cast<double>(builds) / static_cast<double>(steps)
                 : 0.0;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Forces the next rebuild() to rebuild regardless of displacement
  /// (benches measure full-rebuild cost this way; the workspace isolates
  /// runs with it).
  void invalidate() noexcept { valid_ = false; }

 private:
  void build(PositionLanes points, double radius, support::Executor& executor);

  double skin_;
  double radius_ = 0.0;
  bool valid_ = false;
  PositionLanes points_;           // coordinate lanes of the current step
  std::vector<double> ref_x_;      // positions of the last build
  std::vector<double> ref_y_;
  CellGrid grid_;                  // build grid (radius + skin cells)
  std::vector<std::size_t> offsets_;     // per-particle CSR rows
  std::vector<std::uint32_t> indices_;   // candidates, row-contiguous
  std::vector<std::uint32_t> order_;     // frozen cell-major build order
  std::vector<std::uint32_t> counts_;    // per-particle counts (build pass 1)
  std::vector<std::uint32_t> build_bounds_;  // build partition (frozen copy)
  std::vector<GatherScratch> build_scratch_;  // per-shard gather + row buffers
  std::vector<GatherScratch> filter_;    // per-shard survivor lanes
  std::vector<std::uint32_t> scratch_;       // neighbors() filter output
  std::vector<std::uint32_t> shard_bounds_;  // last eval partition
  std::size_t max_row_count_ = 0;      // longest cached row
  std::size_t shard_cache_width_ = 0;  // shard_bounds_ is valid for this width

  Stats stats_;
};

}  // namespace sops::geom
