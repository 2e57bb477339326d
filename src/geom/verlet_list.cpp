#include "geom/verlet_list.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/parallel_for.hpp"

namespace sops::geom {

VerletListBackend::VerletListBackend(double skin) : skin_(skin) {
  support::expect(skin > 0.0 && std::isfinite(skin),
                  "VerletListBackend: skin must be positive and finite");
}

void VerletListBackend::set_skin(double skin) {
  support::expect(skin > 0.0 && std::isfinite(skin),
                  "VerletListBackend::set_skin: skin must be positive and finite");
  if (skin != skin_) {
    skin_ = skin;
    valid_ = false;
  }
}

void VerletListBackend::rebuild(PositionLanes points, double radius,
                                support::Executor& executor) {
  support::expect(radius > 0.0 && std::isfinite(radius),
                  "VerletListBackend: needs a positive finite radius");
  ++stats_.steps;
  points_ = points;
  const std::size_t n = points.size();
  if (!valid_ || radius != radius_ || n != ref_x_.size()) {
    build(points, radius, executor);
    return;
  }

  // Safety condition: while every particle sits within skin/2 of its
  // reference position, any pair now within `radius` was within
  // radius + 2·(skin/2) = radius + skin at build time, i.e. inside the
  // cached rows. One particle past the threshold invalidates the list.
  const double limit_sq = (skin_ / 2.0) * (skin_ / 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = points.x[i] - ref_x_[i];
    const double dy = points.y[i] - ref_y_[i];
    if (dx * dx + dy * dy > limit_sq) {
      build(points, radius, executor);
      return;
    }
  }
}

void VerletListBackend::build(PositionLanes points, double radius,
                              support::Executor& executor) {
  const std::size_t n = points.size();
  radius_ = radius;
  ref_x_.assign(points.x.begin(), points.x.end());
  ref_y_.assign(points.y.begin(), points.y.end());
  const double list_radius = radius + skin_;
  grid_.rebuild(points, list_radius, executor);

  // Freeze the grid's cell-major point order: it is the enumeration
  // backbone of the build.
  const std::span<const std::uint32_t> entries = grid_.bucket_entries();
  order_.assign(entries.begin(), entries.end());
  const std::span<const std::uint32_t> grid_bounds =
      grid_.shard_bounds(executor.width());
  build_bounds_.assign(grid_bounds.begin(), grid_bounds.end());

  // Pass 1 (sharded): walk each shard's cells, gather every cell's 3×3
  // candidate block once into contiguous lanes, and let each point of the
  // cell filter that shared block with a plain-lane distance check the
  // compiler vectorizes. Survivors land row-contiguously in the shard's
  // `out` buffer in exactly the frozen enumeration order, with the row
  // lengths in `counts_`. Shards own disjoint particles, so the writes
  // never race and the rows are width-invariant.
  counts_.assign(n, 0);
  const std::size_t shards = build_bounds_.size() - 1;
  if (build_scratch_.size() < shards) build_scratch_.resize(shards);
  const std::span<const std::uint32_t> starts = grid_.bucket_starts();
  const double list_radius_sq = list_radius * list_radius;
  support::parallel_for_shards(
      executor, std::span<const std::uint32_t>(build_bounds_),
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        GatherScratch& s = build_scratch_[shard];
        s.out.clear();
        // Shard cuts are CSR bucket boundaries, so `begin` opens a cell;
        // bucket starts are strictly increasing (cells are non-empty).
        std::size_t c = static_cast<std::size_t>(
                            std::upper_bound(starts.begin(), starts.end(),
                                             static_cast<std::uint32_t>(begin)) -
                            starts.begin()) -
                        1;
        for (; c + 1 < starts.size() && starts[c] < end; ++c) {
          s.idx.clear();
          grid_.append_block_candidates(c, s.idx);
          const std::size_t m = s.idx.size();
          s.x.resize(m);
          s.y.resize(m);
          s.tag.resize(m);
          for (std::size_t t = 0; t < m; ++t) s.x[t] = points.x[s.idx[t]];
          for (std::size_t t = 0; t < m; ++t) s.y[t] = points.y[s.idx[t]];
          for (std::uint32_t k = starts[c]; k < starts[c + 1]; ++k) {
            const std::uint32_t i = order_[k];
            const double xi = points.x[i];
            const double yi = points.y[i];
            for (std::size_t t = 0; t < m; ++t) {
              const double dx = s.x[t] - xi;
              const double dy = s.y[t] - yi;
              s.tag[t] = static_cast<std::uint32_t>(
                  static_cast<unsigned>(dx * dx + dy * dy < list_radius_sq) &
                  static_cast<unsigned>(s.idx[t] != i));
            }
            const std::size_t before = s.out.size();
            for (std::size_t t = 0; t < m; ++t) {
              if (s.tag[t] != 0) s.out.push_back(s.idx[t]);
            }
            counts_[i] = static_cast<std::uint32_t>(s.out.size() - before);
          }
        }
      });

  offsets_.assign(n + 1, 0);
  max_row_count_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i + 1] = offsets_[i] + counts_[i];
    max_row_count_ = std::max<std::size_t>(max_row_count_, counts_[i]);
  }
  indices_.resize(offsets_[n]);

  // Pass 2 (sharded): stitch each shard's buffered rows into the CSR block.
  // Rows sit in the `out` buffers in frozen-order sequence, so a single
  // cursor walk per shard places every row.
  support::parallel_for_shards(
      executor, std::span<const std::uint32_t>(build_bounds_),
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        const GatherScratch& s = build_scratch_[shard];
        const std::uint32_t* src = s.out.data();
        for (std::size_t k = begin; k < end; ++k) {
          const std::uint32_t i = order_[k];
          const std::size_t len = counts_[i];
          std::copy_n(src, len, indices_.data() + offsets_[i]);
          src += len;
        }
      });

  valid_ = true;
  ++stats_.builds;
  shard_cache_width_ = 0;  // the partition must reflect the new rows
}

std::span<const std::uint32_t> VerletListBackend::neighbors(std::size_t i) {
  const double radius_sq = radius_ * radius_;
  const double xi = points_.x[i];
  const double yi = points_.y[i];
  scratch_.clear();
  for (const std::uint32_t j : candidate_row(i)) {
    const double dx = points_.x[j] - xi;
    const double dy = points_.y[j] - yi;
    if (dx * dx + dy * dy < radius_sq) scratch_.push_back(j);
  }
  return scratch_;
}

std::span<const std::uint32_t> VerletListBackend::shard_bounds(
    std::size_t max_shards) {
  const std::size_t n = size();
  if (max_shards == shard_cache_width_ && !shard_bounds_.empty()) {
    return shard_bounds_;
  }
  shard_bounds_.clear();
  shard_bounds_.push_back(0);
  const auto n32 = static_cast<std::uint32_t>(n);
  if (max_shards <= 1 || n <= 1) {
    shard_bounds_.push_back(n32);
    shard_cache_width_ = max_shards;
    return shard_bounds_;
  }

  // Greedy equal-cost cut of particle-id order, cost = cached row length + 1
  // (the +1 keeps candidate-free particles from piling into one shard).
  // Unlike the cell grid, cuts need no cell alignment: rows are pure
  // per-particle gathers, so any contiguous split is bitwise-safe — and the
  // id-order walk streams the CSR arrays sequentially, which on large sets
  // beats the cell-major walk's scattered row jumps.
  const double total = static_cast<double>(indices_.size() + n);
  double run = 0.0;
  std::size_t shard = 1;
  for (std::size_t i = 0; i < n; ++i) {
    run += static_cast<double>(offsets_[i + 1] - offsets_[i] + 1);
    if (shard < max_shards && i + 1 < n &&
        run * static_cast<double>(max_shards) >=
            total * static_cast<double>(shard)) {
      shard_bounds_.push_back(static_cast<std::uint32_t>(i + 1));
      ++shard;
    }
  }
  shard_bounds_.push_back(n32);
  shard_cache_width_ = max_shards;
  return shard_bounds_;
}

}  // namespace sops::geom
