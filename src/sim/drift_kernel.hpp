// Lane-structured pair-drift kernels — the innermost loops of
// accumulate_drift, batched over blocks of support::kSimdWidth candidates.
//
// Two row shapes cover every neighbor backend:
//
//  - DenseRow: the candidates' coordinates and types already sit in
//    contiguous lanes (a cell's 3×3 block gathered once per cell, or the
//    whole particle set for all-pairs). The kernel streams them directly.
//  - IndexedRow: the candidates are an index row (Delaunay adjacency rows,
//    generic neighbor spans) into the global coordinate/type lanes; the
//    kernel gathers per block.
//
// Both kernels compute, for row particle i,
//
//   drift_i = Σ_{candidates j} −F_αβ(‖Δz_ij‖) · Δz_ij
//
// masking out candidates with Δz = 0 (self in dense blocks, coincident
// pairs — the old path's zero contribution) and those at or beyond the
// cut-off. The candidate mask is idempotent: rows already pruned by the
// cut-off (Delaunay, generic neighbor spans) pass through unchanged. The
// law itself is force_scaling_of on the lanes' squared distances: F¹'s
// k·(1 − r/√d²) and F²'s c·exp(a·d²) − k·exp(b·d²) both run entirely in
// lanes (support::lane_exp for F²), with no per-lane libm call.
//
// Bitwise contract (the reason this is a hand-written op sequence and not
// "whatever auto-vectorization does"): candidates are processed in index
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
// Double-Gaussian rows on the cell grid (DenseChunk) are first compacted
// to their live survivors (FilterRow), and the lanes above run over those
// survivors: lane l of block b then holds the (4b+l)-th survivor in
// candidate order. Selection is exact comparison arithmetic, so every tier
// compacts identically and the contract holds per shape; a compacted row
// is a different lane grouping, hence a different (pinned) summation order,
// than the masked row would be.
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

/// A particle against candidates whose coordinates/types are already
/// gathered into contiguous lanes: a cell's 3×3 block, the whole particle
/// set, or the survivor lanes FilterRow packs from a block. `cand_*` must
/// stay valid for the call.
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

/// A candidate row to be compressed to its live survivors: read candidate
/// c's coordinates/type from lane c of `xs`/`ys`/`types` (a gathered cell
/// block), keep those with 0 < ‖Δz‖² < cutoff_sq, and write their
/// coordinates/types contiguously into `out_*`. The survivor predicate is
/// exactly the dense kernels' live-lane mask, so dropped candidates are ones
/// that would have contributed +0.0 — filtering changes which pairs reach
/// the accumulator, never the force arithmetic. Selection is exact comparison arithmetic, so
/// every ISA produces the same survivor sequence. Returns the survivor
/// count. `out_*` must have room for count + support::kSimdWidth entries:
/// the vector variants store whole compressed blocks, so up to one block of
/// slack past the final survivor is clobbered.
struct FilterRow {
  double xi;
  double yi;
  const double* xs;
  const double* ys;
  const TypeId* types;
  std::size_t count;
  double cutoff_sq;  ///< may be +inf (unbounded r_c)
  double* out_x;
  double* out_y;
  TypeId* out_type;
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

/// A contiguous run of cells of a grid — one shard chunk of the cell-grid
/// drift path — processed in a single kernel call. Rows and candidates
/// stream from bucket-ordered lanes (`sx[k]` = x of CSR entry k), so the
/// kernel call overhead and the scaling-table loads are paid once per
/// chunk, each cell's 3×3 block is bulk-copied from the contiguous spans
/// of geom::CellGrid::block_spans(), and the per-row arithmetic is exactly
/// DenseRow's — the chunk entry changes scheduling, never the sequence.
/// Spring rows run on the masked block; double-Gaussian rows are first
/// compacted by the filter kernel into `scratch`, past the block.
struct DenseChunk {
  const double* sx;             ///< bucket-ordered x: sx[k] = x[order[k]]
  const double* sy;             ///< bucket-ordered y
  const TypeId* stype;          ///< bucket-ordered types
  const std::uint32_t* order;   ///< CSR entries: slot k → particle index
  const std::uint32_t* starts;  ///< CSR bucket starts (cell_count + 1)
  const geom::CellGrid* grid;   ///< block_spans() source for each cell
  std::size_t cell_begin;       ///< first cell of the chunk
  std::size_t cell_end;         ///< one past the last cell
  geom::GatherScratch* scratch; ///< per-shard candidate lane buffers
  geom::Vec2* out;              ///< drift output, indexed by particle id
  double cutoff_sq;
};

/// The kernel set accumulate_drift dispatches through. Plain function
/// pointers: the AVX2 variants live behind a CPUID check, and no vector
/// type ever crosses this ABI boundary.
struct DriftKernels {
  geom::Vec2 (*dense)(const PairScalingTable& table, const DenseRow& row);
  std::size_t (*filter)(const FilterRow& row);
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
