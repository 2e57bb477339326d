#include "sim/drift_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "geom/cell_grid.hpp"
#include "geom/position_lanes.hpp"
#include "support/simd.hpp"

// The 256-bit GNU vector types below never cross a non-inlined function
// boundary (the kernel ABI passes pointers and returns Vec2), so GCC's
// psabi note about 256-bit vector ABI in baseline code is noise here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// The AVX2 variants (SOPS_KERNEL_AVX2, support/simd.hpp) are plain C++
// behind a per-function target attribute, so no inline helper is ever
// compiled under AVX2 flags except where it is force-inlined into the
// wrappers below (which only ever run behind the CPUID check).

#if SOPS_KERNEL_AVX2
#include <immintrin.h>
#endif

namespace sops::sim {
namespace {

using geom::Vec2;
using support::kSimdWidth;

// A particle against candidates whose coordinates/types already sit in
// contiguous lanes: one row of a chunk, over its block's suffix (or over
// the row's compacted survivors).
struct DenseRow {
  double xi;
  double yi;
  TypeId type_i;
  const double* cand_x;
  const double* cand_y;
  const TypeId* cand_type;
  std::size_t count;
  double cutoff_sq;  // may be +inf (unbounded r_c)
};

// A chunk row subtracts each lane term from its candidate's running sum.
// kContiguous rows scatter candidate c into acc_*[c] (masked spring rows
// over the block suffix); kSlots rows into acc_*[slot[c]] (compacted
// double-Gaussian rows, slot = the survivor's position in the suffix).
enum class Scatter { kContiguous, kSlots };

struct RowScatter {
  double* acc_x;
  double* acc_y;
  const std::uint32_t* slot;
};

// A candidate row to be compressed to its live survivors: keep the
// candidates c of `xs`/`ys`/`types` with 0 < ‖Δz‖² < cutoff_sq and write
// their coordinates, types and positions c contiguously into `out_*`. The
// survivor predicate is exactly the masked kernels' live-lane mask, so
// dropped candidates are ones that would have contributed ±0 — filtering
// changes which pairs reach the accumulators, never the force arithmetic.
// Selection is exact comparison arithmetic, so every ISA produces the same
// survivor sequence. `out_*` must have room for count + kSimdWidth
// entries: the vector variants store whole compressed blocks.
struct FilterRow {
  double xi;
  double yi;
  const double* xs;
  const double* ys;
  const TypeId* types;
  std::size_t count;
  double cutoff_sq;
  double* out_x;
  double* out_y;
  TypeId* out_type;
  std::uint32_t* out_slot;
};

// ----------------------------------------------------------------- scalar
// The reference op sequence on plain arrays; every vector path below must
// mirror it lane-for-lane (the header's bitwise contract).

// One block: candidate coordinates and pair-table entry indices already in
// lanes, the tail beyond `m` padded by the caller and masked dead here. The
// lane terms land in `tx`/`ty` and in the row's lane partials.
inline void scalar_block(const PairScalingTable& table, double xi, double yi,
                         double cutoff_sq, std::size_t m, const double* cx,
                         const double* cy, const std::size_t* entry,
                         double* accx, double* accy, double* tx, double* ty) {
  for (std::size_t l = 0; l < kSimdWidth; ++l) {
    const double dx = xi - cx[l];
    const double dy = yi - cy[l];
    const double d2 = dx * dx + dy * dy;
    // Δz = 0 (self, coincident pairs) contributes zero — the
    // undefined-direction rule of accumulate_drift's header.
    const bool live = l < m && d2 < cutoff_sq && d2 != 0.0;
    // Dead lanes skip the law: their weight is 0 whatever it returns (the
    // vector kernels evaluate them at d² = 1 and discard them the same way).
    const std::size_t e = entry[l];
    const double w =
        live ? -force_scaling_of<double, std::uint64_t>(
                   table.kind(), table.k_data()[e], table.r_data()[e],
                   table.c_data()[e], table.a_data()[e], table.b_data()[e], d2)
             : 0.0;
    tx[l] = dx * w;
    ty[l] = dy * w;
    accx[l] += tx[l];
    accy[l] += ty[l];
  }
}

// Subtracts lane terms [0, m) of block `b` from their candidates' sums;
// `Lanes` is a plain array or a vector type.
template <Scatter kScatter, typename Lanes>
__attribute__((always_inline)) inline void scatter_lanes(
    const RowScatter& out, std::size_t b, std::size_t m, const Lanes& tx,
    const Lanes& ty) {
  for (std::size_t l = 0; l < m; ++l) {
    const std::size_t c =
        kScatter == Scatter::kSlots ? out.slot[b + l] : b + l;
    out.acc_x[c] -= tx[l];
    out.acc_y[c] -= ty[l];
  }
}

template <Scatter kScatter>
Vec2 dense_scalar_row(const PairScalingTable& table, const DenseRow& row,
                      const RowScatter& out) {
  const std::size_t base = table.pair_base(row.type_i);
  double accx[kSimdWidth] = {};
  double accy[kSimdWidth] = {};
  for (std::size_t b = 0; b < row.count; b += kSimdWidth) {
    const std::size_t m = std::min(kSimdWidth, row.count - b);
    double cx[kSimdWidth];
    double cy[kSimdWidth];
    std::size_t entry[kSimdWidth];
    for (std::size_t l = 0; l < kSimdWidth; ++l) {
      const std::size_t c = b + (l < m ? l : m - 1);  // pad with last valid
      cx[l] = row.cand_x[c];
      cy[l] = row.cand_y[c];
      entry[l] = base + row.cand_type[c];
    }
    double tx[kSimdWidth];
    double ty[kSimdWidth];
    scalar_block(table, row.xi, row.yi, row.cutoff_sq, m, cx, cy, entry, accx,
                 accy, tx, ty);
    scatter_lanes<kScatter>(out, b, m, tx, ty);
  }
  return {((accx[0] + accx[1]) + accx[2]) + accx[3],
          ((accy[0] + accy[1]) + accy[2]) + accy[3]};
}

// Candidate j of a FilterRow: writes its coordinates/type/position to
// survivor slot `kept` and returns the advanced cursor. Branchless — every
// candidate writes the slot, the cursor only advances past live ones. The
// predicate is scalar_block's live mask verbatim (minus the tail test,
// which the row count supplies), and comparison arithmetic is exact, so
// every ISA keeps the identical survivor sequence.
__attribute__((always_inline)) inline std::size_t filter_one(
    const FilterRow& row, std::size_t j, std::size_t kept) {
  const double cx = row.xs[j];
  const double cy = row.ys[j];
  const double dx = row.xi - cx;
  const double dy = row.yi - cy;
  const double d2 = dx * dx + dy * dy;
  row.out_x[kept] = cx;
  row.out_y[kept] = cy;
  row.out_type[kept] = row.types[j];
  row.out_slot[kept] = static_cast<std::uint32_t>(j);
  return kept + ((d2 < row.cutoff_sq && d2 != 0.0) ? 1 : 0);
}

// The reference compress.
std::size_t filter_scalar(const FilterRow& row) {
  std::size_t kept = 0;
  for (std::size_t c = 0; c < row.count; ++c) kept = filter_one(row, c, kept);
  return kept;
}

template <typename T>
__attribute__((always_inline)) inline void copy_lanes(T* dst, const T* src,
                                                      std::size_t len) {
  std::memcpy(dst, src, len * sizeof(T));
}

// Copies the block `spans` from the chunk's entry-ordered lanes into
// the scratch candidate lanes, and the candidates' running sums (`sum_x`/
// `sum_y`: the first span's, then the second's) into the scratch sum lanes.
// Returns the candidate count m. The block is 2 contiguous entry ranges,
// so this is bulk range copies. The sum lanes keep kSimdWidth of slack past
// the block for the masked rows' whole-block tail stores; with `compact`,
// the candidate lanes also keep room past the block for one row's
// survivors (m + kSimdWidth: FilterRow's compress slack). Scratch only
// ever grows; the kernels read exactly the lanes they were handed.
inline std::size_t gather_cell_block(
    const DenseChunk& chunk, const std::array<geom::CellGrid::Span, 2>& spans,
    const std::array<double*, 2>& sum_x, const std::array<double*, 2>& sum_y,
    bool compact, geom::GatherScratch& s) {
  const std::size_t own = spans[0].second - spans[0].first;
  const std::size_t m = own + (spans[1].second - spans[1].first);
  const std::size_t room = compact ? 2 * m + kSimdWidth : m;
  if (s.x.size() < room) {
    s.x.resize(room);
    s.y.resize(room);
    s.tag.resize(room);
  }
  if (s.acc_x.size() < m + kSimdWidth) {
    s.acc_x.resize(m + kSimdWidth);
    s.acc_y.resize(m + kSimdWidth);
    s.slot.resize(m + kSimdWidth);
  }
  std::size_t off = 0;
  for (const auto& [b, e] : spans) {
    copy_lanes(s.x.data() + off, chunk.sx + b, e - b);
    copy_lanes(s.y.data() + off, chunk.sy + b, e - b);
    copy_lanes(s.tag.data() + off, chunk.stype + b, e - b);
    off += e - b;
  }
  copy_lanes(s.acc_x.data(), sum_x[0], own);
  copy_lanes(s.acc_y.data(), sum_y[0], own);
  copy_lanes(s.acc_x.data() + own, sum_x[1], m - own);
  copy_lanes(s.acc_y.data() + own, sum_y[1], m - own);
  return m;
}

// The chunk loop shared by every dense_chunk variant: gather each cell's
// block (its half shell, or an all-pairs tile's [a_t, n)) and the
// candidates' running sums once, run each of the cell's particles over the
// block suffix after it, and write the sums back.
// Double-Gaussian rows are first compacted by `filter` to their live
// survivors, written just past the block, so the law's two exps run on
// packed lanes; spring rows take the masked suffix directly (their cheap
// law loses more to the compaction than to dead lanes). `Rows` is a
// functor type whose members are force-inlined, so the whole loop (row
// math included) code-generates inside the ISA wrapper it is instantiated
// in; `filter` is a constant per wrapper, so its call is direct.
template <typename Rows>
__attribute__((always_inline)) inline void dense_chunk_loop(
    const PairScalingTable& table, const DenseChunk& chunk, const Rows& rows,
    std::size_t (*filter)(const FilterRow&)) {
  geom::GatherScratch& s = *chunk.scratch;
  const bool compact = table.kind() == ForceLawKind::kDoubleGaussian;
  const std::uint32_t own_begin = chunk.starts[chunk.cell_begin];
  const std::uint32_t own_end = chunk.starts[chunk.cell_end];
  for (std::size_t c = chunk.cell_begin; c < chunk.cell_end; ++c) {
    const std::array<geom::CellGrid::Span, 2> spans =
        chunk.grid != nullptr
            ? chunk.grid->half_shell_spans(c)
            : std::array<geom::CellGrid::Span, 2>{
                  {{chunk.starts[c], chunk.block_end},
                   {chunk.block_end, chunk.block_end}}};
    // The right-hand column's sums: the stripe's own, or, for the last
    // column's right-hand neighbours (the next stripe's), the halo's. An
    // empty span copies nothing.
    const auto right_sums = [&](double* acc, double* halo) {
      const std::uint32_t right = spans[1].first;
      if (right == spans[1].second) return acc;
      return right >= own_end ? halo + (right - own_end)
                              : acc + (right - own_begin);
    };
    const std::uint32_t own_at = spans[0].first - own_begin;
    const std::array<double*, 2> sum_x{chunk.acc_x + own_at,
                                       right_sums(chunk.acc_x, chunk.halo_x)};
    const std::array<double*, 2> sum_y{chunk.acc_y + own_at,
                                       right_sums(chunk.acc_y, chunk.halo_y)};
    const std::size_t m =
        gather_cell_block(chunk, spans, sum_x, sum_y, compact, s);
    const std::size_t rows_in_cell = chunk.starts[c + 1] - chunk.starts[c];
    for (std::size_t q = 0; q < rows_in_cell; ++q) {
      DenseRow row{s.x[q],
                   s.y[q],
                   s.tag[q],
                   s.x.data() + q + 1,
                   s.y.data() + q + 1,
                   s.tag.data() + q + 1,
                   m - q - 1,
                   chunk.cutoff_sq};
      RowScatter out{s.acc_x.data() + q + 1, s.acc_y.data() + q + 1, nullptr};
      Vec2 sum;
      if (compact) {
        const FilterRow survivors{row.xi,          row.yi,
                                  row.cand_x,      row.cand_y,
                                  row.cand_type,   row.count,
                                  chunk.cutoff_sq, s.x.data() + m,
                                  s.y.data() + m,  s.tag.data() + m,
                                  s.slot.data()};
        row.count = filter(survivors);
        row.cand_x = survivors.out_x;
        row.cand_y = survivors.out_y;
        row.cand_type = survivors.out_type;
        out.slot = survivors.out_slot;
        sum = rows.compacted(table, row, out);
      } else {
        sum = rows.masked(table, row, out);
      }
      s.acc_x[q] += sum.x;
      s.acc_y[q] += sum.y;
    }
    const std::size_t own_len = spans[0].second - spans[0].first;
    copy_lanes(sum_x[0], s.acc_x.data(), own_len);
    copy_lanes(sum_y[0], s.acc_y.data(), own_len);
    copy_lanes(sum_x[1], s.acc_x.data() + own_len, m - own_len);
    copy_lanes(sum_y[1], s.acc_y.data() + own_len, m - own_len);
  }
}

struct ScalarRows {
  Vec2 masked(const PairScalingTable& table, const DenseRow& row,
              const RowScatter& out) const {
    return dense_scalar_row<Scatter::kContiguous>(table, row, out);
  }
  Vec2 compacted(const PairScalingTable& table, const DenseRow& row,
                 const RowScatter& out) const {
    return dense_scalar_row<Scatter::kSlots>(table, row, out);
  }
};

void dense_chunk_scalar(const PairScalingTable& table,
                        const DenseChunk& chunk) {
  dense_chunk_loop(table, chunk, ScalarRows{}, filter_scalar);
}

double drift_norm_scalar(const Vec2* drift, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::sqrt(drift[i].x * drift[i].x + drift[i].y * drift[i].y);
  }
  return total;
}

Vec2 indexed_scalar(const PairScalingTable& table, const IndexedRow& row) {
  const std::size_t base = table.pair_base(row.type_i);
  double accx[kSimdWidth] = {};
  double accy[kSimdWidth] = {};
  for (std::size_t b = 0; b < row.count; b += kSimdWidth) {
    const std::size_t m = std::min(kSimdWidth, row.count - b);
    double cx[kSimdWidth];
    double cy[kSimdWidth];
    std::size_t entry[kSimdWidth];
    for (std::size_t l = 0; l < kSimdWidth; ++l) {
      const std::size_t c = b + (l < m ? l : m - 1);  // pad with last valid
      const std::size_t j = row.candidates[c];
      cx[l] = row.xs[j];
      cy[l] = row.ys[j];
      entry[l] = base + row.types[j];
    }
    double tx[kSimdWidth];
    double ty[kSimdWidth];
    scalar_block(table, row.xi, row.yi, row.cutoff_sq, m, cx, cy, entry, accx,
                 accy, tx, ty);
  }
  return {((accx[0] + accx[1]) + accx[2]) + accx[3],
          ((accy[0] + accy[1]) + accy[2]) + accy[3]};
}

#if defined(SOPS_HAVE_VECTOR_EXT)

// ----------------------------------------------------------------- vector
// The identical sequence on GNU vector types. Bodies are force-inlined into
// thin per-ISA wrappers; the target attribute on the AVX2 wrappers re-codes
// the same IEEE ops, so all wrappers produce the same bits.

using support::v4d;
using support::v4m;

// All-ones lane prefixes: kLaneMask[m] keeps the first m lanes live.
constexpr v4m kLaneMask[kSimdWidth + 1] = {
    {0, 0, 0, 0},
    {-1, 0, 0, 0},
    {-1, -1, 0, 0},
    {-1, -1, -1, 0},
    {-1, -1, -1, -1},
};

__attribute__((always_inline)) inline v4d v4_select(v4m mask, v4d a, v4d b) {
  return std::bit_cast<v4d>((std::bit_cast<v4m>(a) & mask) |
                            (std::bit_cast<v4m>(b) & ~mask));
}

// Table lane t of the four entries, built in registers.
__attribute__((always_inline)) inline v4d gather_lanes(
    const double* t, const std::size_t* entry) {
  return v4d{t[entry[0]], t[entry[1]], t[entry[2]], t[entry[3]]};
}

// scalar_block on lanes: the law runs fully in lanes (force_scaling_of on
// v4d, lane_exp for F²), dead lanes at d² = 1 and discarded by the weight.
// Each law gathers only the coefficient lanes it reads; the others are
// passed k, never read. The law is a template parameter so each row loop
// is compiled for one law: the double-Gaussian's exp constants would
// otherwise crowd the spring loop's accumulators out of registers.
template <ForceLawKind kKind>
__attribute__((always_inline)) inline void vector_block(
    const PairScalingTable& table, v4d xiv, v4d yiv, v4d cutv, v4m tail,
    v4d cxv, v4d cyv, const std::size_t* entry, v4d& accx, v4d& accy,
    v4d& tx, v4d& ty) {
  const v4d ones = {1.0, 1.0, 1.0, 1.0};
  const v4d zeros = {0.0, 0.0, 0.0, 0.0};
  const v4d dxv = xiv - cxv;
  const v4d dyv = yiv - cyv;
  const v4d d2v = dxv * dxv + dyv * dyv;
  const v4m live =
      std::bit_cast<v4m>(d2v < cutv) & std::bit_cast<v4m>(d2v != zeros) & tail;
  const v4d d2m = v4_select(live, d2v, ones);
  const v4d k = gather_lanes(table.k_data(), entry);
  v4d sv;
  if constexpr (kKind == ForceLawKind::kSpring) {
    sv = force_scaling_of<v4d, support::v4w>(
        kKind, k, gather_lanes(table.r_data(), entry), k, k, k, d2m);
  } else {
    sv = force_scaling_of<v4d, support::v4w>(
        kKind, k, k, gather_lanes(table.c_data(), entry),
        gather_lanes(table.a_data(), entry),
        gather_lanes(table.b_data(), entry), d2m);
  }
  const v4d wv = v4_select(live, -sv, zeros);
  tx = dxv * wv;
  ty = dyv * wv;
  accx += tx;
  accy += ty;
}

// scatter_lanes on lanes. Contiguous rows store the whole block: the lanes
// past the row's tail subtract ±0 from the sum lanes' slack.
template <Scatter kScatter>
__attribute__((always_inline)) inline void vector_scatter(
    const RowScatter& out, std::size_t b, std::size_t m, v4d tx, v4d ty) {
  if constexpr (kScatter == Scatter::kSlots) {
    scatter_lanes<kScatter>(out, b, m, tx, ty);
  } else {
    v4d gx;
    v4d gy;
    std::memcpy(&gx, out.acc_x + b, sizeof(gx));
    std::memcpy(&gy, out.acc_y + b, sizeof(gy));
    gx -= tx;
    gy -= ty;
    std::memcpy(out.acc_x + b, &gx, sizeof(gx));
    std::memcpy(out.acc_y + b, &gy, sizeof(gy));
  }
}

template <ForceLawKind kKind, Scatter kScatter>
__attribute__((always_inline)) inline Vec2 dense_vector_law(
    const PairScalingTable& table, const DenseRow& row, const RowScatter& out) {
  const std::size_t base = table.pair_base(row.type_i);
  const v4d xiv = {row.xi, row.xi, row.xi, row.xi};
  const v4d yiv = {row.yi, row.yi, row.yi, row.yi};
  const v4d cutv = {row.cutoff_sq, row.cutoff_sq, row.cutoff_sq,
                    row.cutoff_sq};
  v4d accx = {0.0, 0.0, 0.0, 0.0};
  v4d accy = {0.0, 0.0, 0.0, 0.0};
  v4d tx;
  v4d ty;
  std::size_t entry[kSimdWidth];
  std::size_t b = 0;
  for (; b + kSimdWidth <= row.count; b += kSimdWidth) {
    const v4d cxv = {row.cand_x[b], row.cand_x[b + 1], row.cand_x[b + 2],
                     row.cand_x[b + 3]};
    const v4d cyv = {row.cand_y[b], row.cand_y[b + 1], row.cand_y[b + 2],
                     row.cand_y[b + 3]};
    for (std::size_t l = 0; l < kSimdWidth; ++l) {
      entry[l] = base + row.cand_type[b + l];
    }
    vector_block<kKind>(table, xiv, yiv, cutv, kLaneMask[kSimdWidth], cxv,
                        cyv, entry, accx, accy, tx, ty);
    vector_scatter<kScatter>(out, b, kSimdWidth, tx, ty);
  }
  if (b < row.count) {
    const std::size_t m = row.count - b;
    v4d cxv;
    v4d cyv;
    for (std::size_t l = 0; l < kSimdWidth; ++l) {
      const std::size_t c = b + (l < m ? l : m - 1);  // pad with last valid
      cxv[l] = row.cand_x[c];
      cyv[l] = row.cand_y[c];
      entry[l] = base + row.cand_type[c];
    }
    vector_block<kKind>(table, xiv, yiv, cutv, kLaneMask[m], cxv, cyv, entry,
                        accx, accy, tx, ty);
    vector_scatter<kScatter>(out, b, m, tx, ty);
  }
  return {((accx[0] + accx[1]) + accx[2]) + accx[3],
          ((accy[0] + accy[1]) + accy[2]) + accy[3]};
}

template <ForceLawKind kKind>
__attribute__((always_inline)) inline Vec2 indexed_vector_law(
    const PairScalingTable& table, const IndexedRow& row) {
  const std::size_t base = table.pair_base(row.type_i);
  const v4d xiv = {row.xi, row.xi, row.xi, row.xi};
  const v4d yiv = {row.yi, row.yi, row.yi, row.yi};
  const v4d cutv = {row.cutoff_sq, row.cutoff_sq, row.cutoff_sq,
                    row.cutoff_sq};
  v4d accx = {0.0, 0.0, 0.0, 0.0};
  v4d accy = {0.0, 0.0, 0.0, 0.0};
  std::size_t entry[kSimdWidth];
  for (std::size_t b = 0; b < row.count; b += kSimdWidth) {
    const std::size_t m = std::min(kSimdWidth, row.count - b);
    v4d cxv;
    v4d cyv;
    for (std::size_t l = 0; l < kSimdWidth; ++l) {
      const std::size_t c = b + (l < m ? l : m - 1);  // pad with last valid
      const std::size_t j = row.candidates[c];
      cxv[l] = row.xs[j];
      cyv[l] = row.ys[j];
      entry[l] = base + row.types[j];
    }
    v4d tx;
    v4d ty;
    vector_block<kKind>(table, xiv, yiv, cutv, kLaneMask[m], cxv, cyv, entry,
                        accx, accy, tx, ty);
  }
  return {((accx[0] + accx[1]) + accx[2]) + accx[3],
          ((accy[0] + accy[1]) + accy[2]) + accy[3]};
}

__attribute__((always_inline)) inline Vec2 indexed_vector_body(
    const PairScalingTable& table, const IndexedRow& row) {
  return table.kind() == ForceLawKind::kSpring
             ? indexed_vector_law<ForceLawKind::kSpring>(table, row)
             : indexed_vector_law<ForceLawKind::kDoubleGaussian>(table, row);
}

// The force-inlined row functors for the chunk loops: inlining the members
// (rather than a lambda, whose operator() would not force-inline) is what
// guarantees the row math code-generates under the wrapper's target ISA.
// Masked rows are spring rows, compacted rows double-Gaussian ones.
struct VectorRows {
  __attribute__((always_inline)) Vec2 masked(const PairScalingTable& table,
                                             const DenseRow& row,
                                             const RowScatter& out) const {
    return dense_vector_law<ForceLawKind::kSpring, Scatter::kContiguous>(
        table, row, out);
  }
  __attribute__((always_inline)) Vec2 compacted(const PairScalingTable& table,
                                                const DenseRow& row,
                                                const RowScatter& out) const {
    return dense_vector_law<ForceLawKind::kDoubleGaussian, Scatter::kSlots>(
        table, row, out);
  }
};

Vec2 indexed_vector_generic(const PairScalingTable& table,
                            const IndexedRow& row) {
  return indexed_vector_body(table, row);
}

// The generic tier keeps the scalar filter: compress has no portable
// vector form, and the selection being exact arithmetic means there is no
// bitwise contract to re-prove — only the AVX2 tier swaps in intrinsics.
void dense_chunk_generic(const PairScalingTable& table,
                         const DenseChunk& chunk) {
  dense_chunk_loop(table, chunk, VectorRows{}, filter_scalar);
}

// Per-element norms in 4-lane batches, summed strictly in index order —
// the same mul/add/sqrt per element as the scalar loop, so the same bits.
__attribute__((always_inline)) inline double drift_norm_body(const Vec2* drift,
                                                             std::size_t n) {
  double total = 0.0;
  std::size_t i = 0;
  for (; i + kSimdWidth <= n; i += kSimdWidth) {
    v4d nv;
    for (std::size_t l = 0; l < kSimdWidth; ++l) {
      const Vec2 d = drift[i + l];
      nv[l] = d.x * d.x + d.y * d.y;
    }
    for (std::size_t l = 0; l < kSimdWidth; ++l) nv[l] = std::sqrt(nv[l]);
    for (std::size_t l = 0; l < kSimdWidth; ++l) total += nv[l];
  }
  for (; i < n; ++i) {
    total += std::sqrt(drift[i].x * drift[i].x + drift[i].y * drift[i].y);
  }
  return total;
}

double drift_norm_generic(const Vec2* drift, std::size_t n) {
  return drift_norm_body(drift, n);
}

#if SOPS_KERNEL_AVX2

__attribute__((target("avx2"))) Vec2 indexed_vector_avx2(
    const PairScalingTable& table, const IndexedRow& row) {
  // Per-lane load/insert chains, not hardware gathers: vgatherdpd was
  // measured ~35% slower on this path's short rows (the gather micro-op
  // sequence loses to four scalar loads the OoO core overlaps freely).
  return indexed_vector_body(table, row);
}

__attribute__((target("avx2"))) double drift_norm_avx2(const Vec2* drift,
                                                       std::size_t n) {
  return drift_norm_body(drift, n);
}

// Left-pack tables indexed by a 4-bit survivor mask. kCompressD[m] is a
// permutevar8x32 control moving the set lanes' double halves (32-bit lanes
// 2l, 2l+1) to the front; kCompressB[m] does the same for the four 32-bit
// type tags and positions via a byte shuffle. Slack lanes past the survivors hold lane 0
// — the store clobbers them, which is why FilterRow demands
// count + kSimdWidth of output room.
alignas(32) constexpr std::uint32_t kCompressD[16][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},  // 0b0000
    {0, 1, 0, 0, 0, 0, 0, 0},  // 0b0001
    {2, 3, 0, 0, 0, 0, 0, 0},  // 0b0010
    {0, 1, 2, 3, 0, 0, 0, 0},  // 0b0011
    {4, 5, 0, 0, 0, 0, 0, 0},  // 0b0100
    {0, 1, 4, 5, 0, 0, 0, 0},  // 0b0101
    {2, 3, 4, 5, 0, 0, 0, 0},  // 0b0110
    {0, 1, 2, 3, 4, 5, 0, 0},  // 0b0111
    {6, 7, 0, 0, 0, 0, 0, 0},  // 0b1000
    {0, 1, 6, 7, 0, 0, 0, 0},  // 0b1001
    {2, 3, 6, 7, 0, 0, 0, 0},  // 0b1010
    {0, 1, 2, 3, 6, 7, 0, 0},  // 0b1011
    {4, 5, 6, 7, 0, 0, 0, 0},  // 0b1100
    {0, 1, 4, 5, 6, 7, 0, 0},  // 0b1101
    {2, 3, 4, 5, 6, 7, 0, 0},  // 0b1110
    {0, 1, 2, 3, 4, 5, 6, 7},  // 0b1111
};
alignas(16) constexpr std::uint8_t kCompressB[16][16] = {
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},          // 0b0000
    {0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},          // 0b0001
    {4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},          // 0b0010
    {0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0},          // 0b0011
    {8, 9, 10, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},        // 0b0100
    {0, 1, 2, 3, 8, 9, 10, 11, 0, 0, 0, 0, 0, 0, 0, 0},        // 0b0101
    {4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 0, 0, 0, 0, 0, 0},        // 0b0110
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 0, 0},        // 0b0111
    {12, 13, 14, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},      // 0b1000
    {0, 1, 2, 3, 12, 13, 14, 15, 0, 0, 0, 0, 0, 0, 0, 0},      // 0b1001
    {4, 5, 6, 7, 12, 13, 14, 15, 0, 0, 0, 0, 0, 0, 0, 0},      // 0b1010
    {0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15, 0, 0, 0, 0},      // 0b1011
    {8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 0, 0, 0, 0, 0, 0},    // 0b1100
    {0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 0, 0},    // 0b1101
    {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 0, 0},    // 0b1110
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},    // 0b1111
};

// _CMP_LT_OQ and _CMP_NEQ_UQ reproduce C++ `<` / `!=` NaN semantics
// exactly, and sub/mul/add never contract (no -mfma anywhere in the
// build), so the movemask equals the scalar predicate bit-for-bit and the
// compressed stores emit filter_scalar's survivor sequence.
__attribute__((target("avx2"))) std::size_t filter_avx2(const FilterRow& row) {
  const __m256d xiv = _mm256_set1_pd(row.xi);
  const __m256d yiv = _mm256_set1_pd(row.yi);
  const __m256d cutv = _mm256_set1_pd(row.cutoff_sq);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t kept = 0;
  std::size_t c = 0;
  for (; c + kSimdWidth <= row.count; c += kSimdWidth) {
    const __m256d cxv = _mm256_loadu_pd(row.xs + c);
    const __m256d cyv = _mm256_loadu_pd(row.ys + c);
    const __m128i tags =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row.types + c));
    const __m128i slots = _mm_add_epi32(
        _mm_set1_epi32(static_cast<int>(c)), _mm_setr_epi32(0, 1, 2, 3));
    const __m256d dxv = _mm256_sub_pd(xiv, cxv);
    const __m256d dyv = _mm256_sub_pd(yiv, cyv);
    const __m256d d2v =
        _mm256_add_pd(_mm256_mul_pd(dxv, dxv), _mm256_mul_pd(dyv, dyv));
    const __m256d live = _mm256_and_pd(_mm256_cmp_pd(d2v, cutv, _CMP_LT_OQ),
                                       _mm256_cmp_pd(d2v, zero, _CMP_NEQ_UQ));
    const int m = _mm256_movemask_pd(live);
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompressD[m]));
    _mm256_storeu_pd(row.out_x + kept,
                     _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                         _mm256_castpd_si256(cxv), perm)));
    _mm256_storeu_pd(row.out_y + kept,
                     _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                         _mm256_castpd_si256(cyv), perm)));
    const __m128i ctrl =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompressB[m]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row.out_type + kept),
                     _mm_shuffle_epi8(tags, ctrl));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row.out_slot + kept),
                     _mm_shuffle_epi8(slots, ctrl));
    kept += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(m)));
  }
  for (; c < row.count; ++c) kept = filter_one(row, c, kept);
  return kept;
}

// Flattened so the per-row filter call inlines: filter_avx2 shares this
// wrapper's target, which an always_inline chain through the untargeted
// chunk loop cannot express.
__attribute__((target("avx2"), flatten)) void dense_chunk_avx2(
    const PairScalingTable& table, const DenseChunk& chunk) {
  dense_chunk_loop(table, chunk, VectorRows{}, filter_avx2);
}

#endif  // SOPS_KERNEL_AVX2

#endif  // SOPS_HAVE_VECTOR_EXT

}  // namespace

const DriftKernels& scalar_drift_kernels() noexcept {
  static const DriftKernels kScalar{indexed_scalar, dense_chunk_scalar,
                                    drift_norm_scalar};
  return kScalar;
}

const DriftKernels& select_drift_kernels() noexcept {
#if defined(SOPS_HAVE_VECTOR_EXT)
  static const DriftKernels kGeneric{indexed_vector_generic,
                                     dense_chunk_generic, drift_norm_generic};
  if (!support::simd_enabled()) return scalar_drift_kernels();
#if SOPS_KERNEL_AVX2
  static const DriftKernels kAvx2{indexed_vector_avx2, dense_chunk_avx2,
                                  drift_norm_avx2};
  if (support::cpu_dispatch_avx2()) return kAvx2;
#endif
  return kGeneric;
#else
  return scalar_drift_kernels();
#endif
}

}  // namespace sops::sim
