// Lane-structured pair-drift kernels — the innermost loops of
// accumulate_drift, batched over blocks of support::kSimdWidth candidates.
//
// Two row shapes cover every neighbor backend:
//
//  - IndexedRow: the candidates are an index row (Delaunay adjacency rows)
//    into the global coordinate/type lanes; the kernel gathers per block.
//  - DenseChunk: a stripe of cell-grid cells, or one tile of all-pairs
//    rows. Each unordered pair is computed once (Newton's third law): row
//    i adds its term and candidate j receives the negated one.
//
// Each pair term is, for row particle i and candidate j,
//
//   t_ij = −F_αβ(‖Δz_ij‖) · Δz_ij,   Δz_ij = z_i − z_j,
//
// masked to zero for Δz = 0 (self, coincident pairs) and at or beyond the
// cut-off. The candidate mask is idempotent: rows already pruned by the
// cut-off (Delaunay) pass through unchanged. The law itself is
// force_scaling_of on the lanes' squared distances: F¹'s k·(1 − r/√d²) and
// F²'s c·exp(a·d²) − k·exp(b·d²) both run entirely in lanes
// (support::lane_exp for F²), with no per-lane libm call. Since
// F_αβ = F_βα and IEEE negation is exact, t_ji = −t_ij bit for bit, which
// is what lets the cell grid and all-pairs evaluate each pair once.
//
// Bitwise contract (the reason this is a hand-written op sequence and not
// "whatever auto-vectorization does"): a row's candidates are processed in
// order in blocks of 4 — lane l of block b holds candidate 4b+l, the tail
// padded with the last valid candidate and masked dead. Each lane carries
// its own partial accumulator; the row reduces as ((l0+l1)+l2)+l3. The
// scalar kernels execute this exact sequence on plain arrays, the vector
// kernels on GNU vector types; every lane op is the same IEEE operation
// either way, so scalar and SIMD results are bitwise-identical — which the
// parity fuzzer asserts across every backend. Lane width never varies with
// the ISA (support::kSimdWidth is pinned); AVX2 dispatch only changes the
// instruction encoding of the identical 4-lane sequence.
//
// The pair-once order (DenseChunk). A chunk is a run of cells, each with a
// candidate block that starts with the cell's own particles. The particle
// in position q of the cell runs over the block's suffix after q. Every
// particle keeps one running sum per chunk, starting at +0. Row q
// subtracts each lane term from its candidate's sum as the term's block is
// evaluated, then adds its reduced row total to its own sum.
// Double-Gaussian rows are first compacted to their live survivors and the
// lanes run over those: lane l of block b then holds the (4b+l)-th
// survivor in candidate order. Selection is exact comparison arithmetic,
// so every tier compacts identically. No sum depends on which worker runs
// a chunk, so the result is the same at every executor width.
//
// Cell grid: cells are visited in dense-id order (column-major) within a
// stripe of kDriftStripeColumns cell columns. A cell's block is its half
// shell (geom::CellGrid::half_shell_spans): the cell and the cell above
// it, then the right-hand column's three cells, so each unordered pair of
// particles in neighboring cells appears in exactly one row. The sums of
// the next stripe's first column, which the stripe's last column reaches,
// are kept in a halo that also starts at +0; after every stripe has run,
// each halo is added to the sums of the column it covers (own + halo).
//
// All-pairs: the particles in index order, cut into tiles of
// kAllPairsTileRows rows. Tile t is one cell holding rows [a_t, b_t) whose
// block is [a_t, n): row i runs over the j > i, and the tile's running
// sums cover [a_t, n). A particle's drift is its own tile's sum, then each
// earlier tile's sum for it added in tile order. A collective of at most
// kAllPairsTileRows particles (every paper preset) is a single tile with
// nothing to merge.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geom/vec2.hpp"
#include "sim/forces.hpp"

namespace sops::geom {
class CellGrid;
struct GatherScratch;
}  // namespace sops::geom

namespace sops::sim {

/// The number of integer cell columns in one stripe of the cell-grid drift
/// partition. Part of the bitwise contract (a stripe boundary places a halo
/// sum), so it is a constant and never a function of the executor width.
inline constexpr std::size_t kDriftStripeColumns = 4;

/// Identifies the cell-grid summation order in experiment config hashes:
/// bump it whenever the cell-grid drift's op sequence changes, so shards
/// recorded under another order neither resume nor merge.
inline constexpr std::uint64_t kCellGridDriftOrder = 2;

/// The number of rows in one tile of the all-pairs drift partition. Part
/// of the bitwise contract (a tile boundary starts new partial sums), so it
/// is a constant and never a function of the executor width. The tiles'
/// partial sums take about n²·8/kAllPairsTileRows bytes (1 MiB at
/// n = 4096). Chosen by measurement over 32/64/128/256 (4-core AVX2 Xeon,
/// drift µs per step at widths 1 and 4): 128 was best or within 10% of
/// best at n = 256, 1024 and 4096 under both laws, while 64 ran the
/// double-Gaussian law 1.27x slower at n = 1024 and 256 lost 1.3–1.7x at
/// width 4 for n ≤ 1024 (too few tiles to share).
inline constexpr std::size_t kAllPairsTileRows = 128;

/// Identifies the all-pairs summation order in experiment config hashes,
/// as kCellGridDriftOrder does for the grid: bump it whenever the
/// all-pairs drift's op sequence changes.
inline constexpr std::uint64_t kAllPairsDriftOrder = 1;

/// A particle against an index row into the global coordinate/type lanes.
struct IndexedRow {
  double xi;
  double yi;
  TypeId type_i;
  const double* xs;
  const double* ys;
  const TypeId* types;
  const std::uint32_t* candidates;
  std::size_t count;
  double cutoff_sq;  ///< may be +inf (unbounded r_c)
};

/// One chunk of the pair-once drift, processed in a single kernel call in
/// the order the header describes: a stripe of cell-grid cells
/// (geom::CellGrid::stripes), or, with no grid, one all-pairs tile. Rows
/// and candidates stream from position-ordered lanes (`sx[k]` = x of entry
/// k: the grid's bucket order, or particle index order for all-pairs); each
/// cell's candidate block is bulk-copied from at most two contiguous spans.
/// The kernel adds the chunk's pair terms into the running sums `acc_*`
/// (entry starts[cell_begin] + i at index i) and `halo_*` (entry
/// starts[cell_end] + i at index i); the caller zeroes both first and
/// merges the halo afterwards.
struct DenseChunk {
  const double* sx;             ///< entry-ordered x
  const double* sy;             ///< entry-ordered y
  const TypeId* stype;          ///< entry-ordered types
  const std::uint32_t* starts;  ///< CSR cell starts, read up to cell_end
  /// The cells' half_shell_spans() source. Null for an all-pairs tile: the
  /// block of cell c is then the one span [starts[c], block_end), and
  /// `acc_*` covers all of it.
  const geom::CellGrid* grid;
  std::uint32_t block_end;      ///< all-pairs only: one past the last entry
  std::size_t cell_begin;       ///< first cell of the chunk
  std::size_t cell_end;         ///< one past the last cell
  double* acc_x;                ///< running sums of the chunk's entries
  double* acc_y;
  double* halo_x;               ///< running sums of the next stripe's first
  double* halo_y;               ///< column, from entry starts[cell_end]
  geom::GatherScratch* scratch; ///< per-task candidate lane buffers
  double cutoff_sq;             ///< may be +inf (unbounded r_c)
};

/// The kernel set accumulate_drift dispatches through. Plain function
/// pointers: the AVX2 variants live behind a CPUID check, and no vector
/// type ever crosses this ABI boundary.
struct DriftKernels {
  geom::Vec2 (*indexed)(const PairScalingTable& table, const IndexedRow& row);
  void (*dense_chunk)(const PairScalingTable& table, const DenseChunk& chunk);
  /// Σ‖drift_i‖ with the summation strictly in index order — only the
  /// independent per-element norms are batched, so every variant returns
  /// the scalar loop's exact bits.
  double (*drift_norm)(const geom::Vec2* drift, std::size_t n);
};

/// Kernels for the current support::simd_policy(): the scalar reference
/// under kScalar, otherwise the vector kernels for the best ISA this build
/// carries and the CPU supports. Cheap; call per accumulation.
[[nodiscard]] const DriftKernels& select_drift_kernels() noexcept;

/// The scalar reference kernels, unconditionally — the anchor the parity
/// fuzzer compares every other configuration against.
[[nodiscard]] const DriftKernels& scalar_drift_kernels() noexcept;

}  // namespace sops::sim
