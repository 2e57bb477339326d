#include "geom/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace sops::geom {

namespace {

// static_cast<int64_t>(std::floor(q)) without the libm call that floor is
// on the baseline ISA: truncate, then step down for negative non-integers.
// Exact wherever the cast is defined; the step is unsigned so it cannot
// overflow on the saturated value a non-finite q casts to.
std::int64_t floor_to_int(double q) noexcept {
  const auto t = static_cast<std::int64_t>(q);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(t) -
                                   (q < static_cast<double>(t) ? 1U : 0U));
}

// Cell coordinates a rebuild accepts: |x / cell_size| < 2^62 keeps every
// key, its ±1 block neighbors and key differences inside int64.
constexpr double kMaxCellCoordinate = 0x1p62;

}  // namespace

CellGrid::CellGrid(PositionLanes points, double cell_size) {
  rebuild(points, cell_size);
}

CellGrid::CellGrid(std::span<const Vec2> points, double cell_size) {
  rebuild(points, cell_size);
}

void CellGrid::rebuild(PositionLanes points) {
  support::expect(cell_size_ > 0.0,
                  "CellGrid::rebuild: no cell size set; build the grid first");
  rebuild(points, cell_size_);
}

void CellGrid::rebuild(std::span<const Vec2> points) {
  deinterleave(points, aos_x_, aos_y_);
  rebuild(PositionLanes{aos_x_, aos_y_});
}

void CellGrid::rebuild(std::span<const Vec2> points, double cell_size) {
  deinterleave(points, aos_x_, aos_y_);
  rebuild(PositionLanes{aos_x_, aos_y_}, cell_size);
}

void CellGrid::rebuild(PositionLanes points, double cell_size,
                       const support::Executor& executor) {
  support::expect(cell_size > 0.0 && std::isfinite(cell_size),
                  "CellGrid: cell size must be positive and finite");
  xs_ = points.x;
  ys_ = points.y;
  cell_size_ = cell_size;
  const std::size_t n = points.size();
  cell_count_ = 0;
  box_valid_ = false;
  entries_.resize(n);
  bucket_x_.resize(n);
  bucket_y_.resize(n);
  if (n == 0) {
    starts_.assign(1, 0);
    return;
  }

  // The point passes split the point range into `chunks` equal, ascending
  // chunks. The scatter pass gives each task one contiguous range of bins
  // holding about n / chunks points, so each task writes one contiguous
  // stretch of the CSR block. Every task touches only its own points or
  // bins and its own scratch (bounds, histogram row), so no pass races.
  const std::size_t chunks = std::min(executor.width(), n);
  const auto chunk_of = [&](std::size_t k) {
    return support::chunk_range(k, n, chunks);
  };

  // Pass 1: each point's cell key, and each chunk's key bounds.
  cell_keys_.resize(n + 1);  // + 1: the bin sweep below stores one past
  cell_of_.resize(n);
  chunk_bounds_.resize(chunks);
  auto key_pass = [&](std::size_t k) {
    const support::ChunkRange r = chunk_of(k);
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    KeyBounds b{kMax, kMin, kMax, kMin};
    for (std::size_t i = r.begin; i < r.end; ++i) {
      // key_of's expressions, range-checked before the int64 conversion
      // (NaN fails the test too).
      const double qx = xs_[i] / cell_size_;
      const double qy = ys_[i] / cell_size_;
      support::expect(std::abs(qx) < kMaxCellCoordinate &&
                          std::abs(qy) < kMaxCellCoordinate,
                      "CellGrid: a point coordinate is NaN, infinite, or too "
                      "far out for the cell size");
      const CellKey key{floor_to_int(qx), floor_to_int(qy)};
      cell_keys_[i] = key;
      b.min_x = std::min(b.min_x, key.x);
      b.max_x = std::max(b.max_x, key.x);
      b.min_y = std::min(b.min_y, key.y);
      b.max_y = std::max(b.max_y, key.y);
    }
    chunk_bounds_[k] = b;
  };
  executor.run(chunks, key_pass);
  KeyBounds box = chunk_bounds_[0];
  for (std::size_t k = 1; k < chunks; ++k) {
    box.min_x = std::min(box.min_x, chunk_bounds_[k].min_x);
    box.max_x = std::max(box.max_x, chunk_bounds_[k].max_x);
    box.min_y = std::min(box.min_y, chunk_bounds_[k].min_y);
    box.max_y = std::max(box.max_y, chunk_bounds_[k].max_y);
  }

  // Spatial ids: column-major ranks of the occupied cells, so a cell
  // block's column runs are id-consecutive (half_shell_spans) and the cell
  // walk sweeps the plane coherently. Points are counted into bins whose
  // order is that rank order. Fast path: when the bounding box is dense
  // enough, the bins are the box's column-major cell indices, and the
  // sweep that ranks them leaves a rank array that doubles as the
  // arithmetic cell lookup. Sparse boxes (far-flung clusters would blow up
  // the box area) bin by the sorted distinct keys instead. Area guard in
  // double: immune to the (pathological) coordinate spans that would
  // overflow integer products.
  const double area = (static_cast<double>(box.max_x - box.min_x) + 1.0) *
                      (static_cast<double>(box.max_y - box.min_y) + 1.0);
  box_valid_ = area <= 8.0 * static_cast<double>(n) + 4096.0;
  std::size_t bins = 0;
  if (box_valid_) {
    box_min_x_ = box.min_x;
    box_min_y_ = box.min_y;
    box_w_ = static_cast<std::size_t>(box.max_x - box.min_x) + 1;
    box_h_ = static_cast<std::size_t>(box.max_y - box.min_y) + 1;
    bins = box_w_ * box_h_;
  } else {
    key_scratch_.assign(cell_keys_.begin(), cell_keys_.begin() + n);
    std::sort(key_scratch_.begin(), key_scratch_.end(), key_before);
    key_scratch_.erase(std::unique(key_scratch_.begin(), key_scratch_.end()),
                       key_scratch_.end());
    bins = key_scratch_.size();
  }

  // Pass 2: each point's bin, counted into the chunk's own histogram row.
  bin_counts_.resize(chunks * bins);
  auto count_pass = [&](std::size_t k) {
    std::uint32_t* counts = bin_counts_.data() + k * bins;
    std::fill(counts, counts + bins, 0);
    const support::ChunkRange r = chunk_of(k);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const CellKey key = cell_keys_[i];
      const auto bin =
          box_valid_
              ? static_cast<std::uint32_t>(
                    static_cast<std::size_t>(key.x - box_min_x_) * box_h_ +
                    static_cast<std::size_t>(key.y - box_min_y_))
              : static_cast<std::uint32_t>(
                    std::lower_bound(key_scratch_.begin(), key_scratch_.end(),
                                     key, key_before) -
                    key_scratch_.begin());
      cell_of_[i] = bin;
      ++counts[bin];
    }
  };
  executor.run(chunks, count_pass);

  // One sweep over the bins: occupied bins become cells in bin order, each
  // bin's first slot becomes its scatter cursor (histogram row 0), and the
  // running point count cuts the bins into `chunks` scatter ranges of about
  // n / chunks points each. The per-point keys are spent (cell_of_ holds
  // bins), so cell_keys_ now takes the cells' keys in rank order — stored
  // unconditionally and kept by advancing the rank, since occupancy is too
  // irregular to branch on.
  if (box_valid_) box_rank_.resize(bins + 1);
  starts_.resize(bins + 1);
  bin_split_.assign(chunks + 1, static_cast<std::uint32_t>(bins));
  bin_split_[0] = 0;
  starts_[0] = 0;
  std::uint32_t slot = 0;
  std::uint32_t rank = 0;
  std::size_t next_split = 1;
  std::int64_t bx = 0;
  std::int64_t by = 0;
  const auto h = static_cast<std::int64_t>(box_h_);
  for (std::size_t bin = 0; bin < bins; ++bin) {
    std::uint32_t count = 0;
    for (std::size_t k = 0; k < chunks; ++k) {
      count += bin_counts_[k * bins + bin];
    }
    bin_counts_[bin] = slot;
    slot += count;
    if (box_valid_) {
      box_rank_[bin] = rank;
      cell_keys_[rank] = CellKey{box_min_x_ + bx, box_min_y_ + by};
      if (++by == h) {
        by = 0;
        ++bx;
      }
    }
    rank += static_cast<std::uint32_t>(count != 0);
    starts_[rank] = slot;
    while (next_split < chunks &&
           static_cast<std::size_t>(slot) * chunks >= next_split * n) {
      bin_split_[next_split++] = static_cast<std::uint32_t>(bin + 1);
    }
  }
  if (box_valid_) {
    box_rank_[bins] = rank;
  } else {
    std::copy(key_scratch_.begin(), key_scratch_.end(), cell_keys_.begin());
  }
  cell_count_ = rank;
  starts_.resize(rank + 1);

  // Pass 3: stable scatter, by bin range. Every task walks all points in
  // ascending order and places those of its own bins, so every bucket ends
  // up sorted by point index (the enumeration order contract) and each
  // task writes only its own stretch of the CSR block. The coordinates are
  // scattered alongside the index, which saves the chunked kernel a
  // separate scattered-read pass to build its bucket-ordered lanes.
  auto scatter_pass = [&](std::size_t t) {
    const std::uint32_t first = bin_split_[t];
    const std::uint32_t width = bin_split_[t + 1] - first;
    std::uint32_t* cursor = bin_counts_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t bin = cell_of_[i];
      if (bin - first >= width) continue;  // another task's bin
      const std::uint32_t pos = cursor[bin]++;
      entries_[pos] = static_cast<std::uint32_t>(i);
      bucket_x_[pos] = xs_[i];
      bucket_y_[pos] = ys_[i];
    }
  };
  executor.run(chunks, scatter_pass);
}

CellGrid::CellKey CellGrid::key_of(Vec2 p) const noexcept {
  return {floor_to_int(p.x / cell_size_), floor_to_int(p.y / cell_size_)};
}

CellGrid::Span CellGrid::column_cells(std::int64_t x, std::int64_t y0,
                                      std::int64_t y1) const noexcept {
  if (box_valid_) {
    // Unsigned differences: a column left of the box wraps to a huge
    // offset, so one comparison rejects both sides without overflow.
    const std::uint64_t bx =
        static_cast<std::uint64_t>(x) - static_cast<std::uint64_t>(box_min_x_);
    if (bx >= box_w_) return {0, 0};
    const std::int64_t lo = std::max(y0, box_min_y_);
    const std::int64_t hi =
        std::min(y1, box_min_y_ + static_cast<std::int64_t>(box_h_) - 1);
    if (lo > hi) return {0, 0};
    const std::size_t base = static_cast<std::size_t>(bx) * box_h_;
    return {box_rank_[base + static_cast<std::size_t>(lo - box_min_y_)],
            box_rank_[base + static_cast<std::size_t>(hi - box_min_y_) + 1]};
  }
  const CellKey* first = cell_keys_.data();
  const CellKey* last = first + cell_count_;
  const CellKey* lo = std::lower_bound(first, last, CellKey{x, y0}, key_before);
  const CellKey* hi = std::upper_bound(lo, last, CellKey{x, y1}, key_before);
  return {static_cast<std::uint32_t>(lo - first),
          static_cast<std::uint32_t>(hi - first)};
}

std::size_t CellGrid::block_spans_at(
    CellKey center, std::array<Span, 3>& spans) const noexcept {
  std::size_t nspans = 0;
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    const Span ids = column_cells(center.x + dx, center.y - 1, center.y + 1);
    if (ids.first == ids.second) continue;
    spans[nspans++] = {starts_[ids.first], starts_[ids.second]};
  }
  return nspans;
}

std::array<CellGrid::Span, 2> CellGrid::half_shell_spans(
    std::size_t cell) const {
  const CellKey key = cell_keys_[cell];
  // The own column from this cell through the one above it, then the
  // right-hand column's three rows.
  const Span up = column_cells(key.x, key.y, key.y + 1);
  const Span right = column_cells(key.x + 1, key.y - 1, key.y + 1);
  return {Span{starts_[cell], starts_[up.second]},
          Span{starts_[right.first], starts_[right.second]}};
}

std::uint32_t CellGrid::first_cell_from_column(std::int64_t x) const noexcept {
  if (box_valid_) {
    const std::int64_t bx = std::clamp<std::int64_t>(
        x - box_min_x_, 0, static_cast<std::int64_t>(box_w_));
    return box_rank_[static_cast<std::size_t>(bx) * box_h_];
  }
  const CellKey* first = cell_keys_.data();
  return static_cast<std::uint32_t>(
      std::lower_bound(first, first + cell_count_,
                       CellKey{x, std::numeric_limits<std::int64_t>::min()},
                       key_before) -
      first);
}

void CellGrid::stripes(std::size_t columns, std::vector<Stripe>& out) const {
  support::expect(columns > 0, "CellGrid::stripes: columns must be positive");
  out.clear();
  if (cell_count_ == 0) return;
  // Keys lie within ±2^62, so column offsets and stripe ends fit int64.
  const std::int64_t x0 = cell_keys_[0].x;
  const auto width = static_cast<std::int64_t>(columns);
  const auto cells = static_cast<std::uint32_t>(cell_count_);
  for (std::uint32_t c = 0; c < cells;) {
    const std::int64_t x_end =
        x0 + ((cell_keys_[c].x - x0) / width + 1) * width;
    const std::uint32_t end = first_cell_from_column(x_end);
    // The last column's half shells reach the next column only when both
    // columns are occupied.
    const bool halo = end < cells && cell_keys_[end].x == x_end &&
                      cell_keys_[end - 1].x == x_end - 1;
    out.push_back({c, end, halo ? first_cell_from_column(x_end + 1) : end});
    c = end;
  }
}

std::vector<std::size_t> CellGrid::neighbors_of(std::size_t i,
                                                double radius) const {
  support::expect(i < size(), "CellGrid::neighbors_of: index out of range");
  support::expect(radius <= cell_size_ * (1.0 + 1e-12),
                  "CellGrid::neighbors_of: radius exceeds cell size");
  std::vector<std::size_t> out;
  for_each_neighbor(i, radius, [&](std::size_t j) { out.push_back(j); });
  return out;
}

}  // namespace sops::geom
