// Lane-structured pair-drift kernels — the innermost loops of
// accumulate_drift, batched over blocks of support::kSimdWidth candidates.
//
// Three row shapes cover every neighbor backend:
//
//  - DenseRow: the candidates' coordinates and types already sit in
//    contiguous lanes (the whole particle set for all-pairs). The kernel
//    streams them directly.
//  - IndexedRow: the candidates are an index row (Delaunay adjacency rows)
//    into the global coordinate/type lanes; the kernel gathers per block.
//  - DenseChunk: a stripe of cell-grid cells. Each unordered pair is
//    computed once (Newton's third law): row i adds its term and candidate
//    j receives the negated one.
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
// is what lets the cell grid evaluate each pair once.
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
// The cell-grid order (DenseChunk). Cells are visited in dense-id order
// (column-major) within a stripe of kDriftStripeColumns cell columns. A
// cell's candidate block is its half shell (geom::CellGrid::
// half_shell_spans): the cell and the cell above it, then the right-hand
// column's three cells. The particle in bucket position q of the cell runs
// over the block's suffix after q. Every particle keeps one running sum
// per step, starting at +0. Row q subtracts each lane term from its
// candidate's sum as the term's block is evaluated, then adds its reduced
// row total to its own sum. Each pair is thus evaluated once, and each
// unordered pair of particles in neighboring cells appears in exactly one
// row.
// The sums of the next stripe's first column, which the stripe's last
// column reaches, are kept in a halo that also starts at +0; after every
// stripe has run, each halo is added to the sums of the column it covers
// (own + halo). Double-Gaussian rows are first compacted to their live
// survivors and the lanes run over those: lane l of block b then holds the
// (4b+l)-th survivor in candidate order. Selection is exact comparison
// arithmetic, so every tier compacts identically. No sum depends on which
// worker runs a stripe, so the result is the same at every executor width.
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

/// A particle against candidates whose coordinates/types are already
/// gathered into contiguous lanes (the whole particle set for all-pairs).
/// `cand_*` must stay valid for the call.
struct DenseRow {
  double xi;
  double yi;
  TypeId type_i;
  const double* cand_x;
  const double* cand_y;
  const TypeId* cand_type;
  std::size_t count;
  double cutoff_sq;  ///< may be +inf (unbounded r_c)
};

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

/// One stripe of the cell-grid drift path (geom::CellGrid::stripes),
/// processed in a single kernel call in the order the header describes.
/// Rows and candidates stream from bucket-ordered lanes (`sx[k]` = x of CSR
/// entry k); each cell's half shell is bulk-copied from the two contiguous
/// spans of geom::CellGrid::half_shell_spans(). The kernel adds the
/// stripe's pair terms into the running sums `acc_*` (the stripe's own
/// entries: entry starts[cell_begin] + i at index i) and `halo_*` (entry
/// starts[cell_end] + i at index i); the caller zeroes both first and
/// merges the halo afterwards.
struct DenseChunk {
  const double* sx;             ///< bucket-ordered x: sx[k] = x[order[k]]
  const double* sy;             ///< bucket-ordered y
  const TypeId* stype;          ///< bucket-ordered types
  const std::uint32_t* starts;  ///< CSR bucket starts (cell_count + 1)
  const geom::CellGrid* grid;   ///< half_shell_spans() source for each cell
  std::size_t cell_begin;       ///< first cell of the stripe
  std::size_t cell_end;         ///< one past the last cell
  double* acc_x;                ///< running sums of the stripe's entries
  double* acc_y;
  double* halo_x;               ///< running sums of the next stripe's first
  double* halo_y;               ///< column, from entry starts[cell_end]
  geom::GatherScratch* scratch; ///< per-task candidate lane buffers
  double cutoff_sq;
};

/// The kernel set accumulate_drift dispatches through. Plain function
/// pointers: the AVX2 variants live behind a CPUID check, and no vector
/// type ever crosses this ABI boundary.
struct DriftKernels {
  geom::Vec2 (*dense)(const PairScalingTable& table, const DenseRow& row);
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
