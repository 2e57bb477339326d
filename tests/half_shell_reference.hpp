// Plain scalar references for the pair-once drift's summation orders
// (sim/drift_kernel.hpp), built without geom::CellGrid or the kernels.
//
// Both walk rows the same way: a row particle runs over the candidates
// after itself in 4-lane blocks (double-Gaussian rows compacted to their
// live survivors first, or never when `compact` is false), adds each lane
// term to its lane partial and subtracts it from the candidate's running
// sum, then adds ((l0+l1)+l2)+l3 to its own.
//
// half_shell_reference: particles are binned by floor(z / r_c) into an
// ordered map, so cells come out column-major with ascending particle index
// inside each cell. For each stripe of kDriftStripeColumns columns and each
// cell in it, the candidate block is the cell, the cell above, and the
// right-hand column's three cells. A candidate in the next stripe takes the
// term in its halo sum instead; the drift is own + halo.
//
// all_pairs_reference: particles in index order, cut into tiles of
// kAllPairsTileRows rows. Row i of tile t runs over every j > i; the
// tile's sums start at +0 for every particle. A particle's drift is its own
// tile's sum, then each earlier tile's sum for it, added in tile order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/drift_kernel.hpp"
#include "sim/force_law.hpp"
#include "sim/forces.hpp"
#include "sim/particle_system.hpp"

namespace sops::testing {
namespace detail {

// The lane term of candidate j for row particle i; a dead lane (a pad,
// out of range, or coincident) weighs its Δz by 0.
inline geom::Vec2 pair_term(const sim::ParticleSystem& system,
                            const sim::PairScalingTable& table,
                            double cutoff_sq, std::size_t i, std::size_t j,
                            bool pad, bool& live) {
  const double dx = system.x[i] - system.x[j];
  const double dy = system.y[i] - system.y[j];
  const double d2 = dx * dx + dy * dy;
  live = !pad && d2 < cutoff_sq && d2 != 0.0;
  if (!live) return geom::Vec2{dx * 0.0, dy * 0.0};
  const std::size_t e = table.pair_base(system.types[i]) + system.types[j];
  const double w = -sim::force_scaling_of<double, std::uint64_t>(
      table.kind(), table.k_data()[e], table.r_data()[e], table.c_data()[e],
      table.a_data()[e], table.b_data()[e], d2);
  return geom::Vec2{dx * w, dy * w};
}

// Row particle i over block[from..]: subtracts each live or masked lane
// term from sum_of(c), c the candidate's block position, as its lane block
// is evaluated, and returns the row total ((l0+l1)+l2)+l3.
template <typename SumOf>
geom::Vec2 walk_row(const sim::ParticleSystem& system,
                    const sim::PairScalingTable& table, double cutoff_sq,
                    std::size_t i, const std::vector<std::size_t>& block,
                    std::size_t from, bool compact, SumOf&& sum_of) {
  constexpr std::size_t kLanes = 4;
  std::vector<std::size_t> row;  // block positions of the row's lanes
  for (std::size_t c = from; c < block.size(); ++c) {
    bool live = false;
    (void)pair_term(system, table, cutoff_sq, i, block[c], false, live);
    if (live || !compact) row.push_back(c);
  }
  double lx[kLanes] = {};
  double ly[kLanes] = {};
  for (std::size_t b = 0; b < row.size(); b += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Pad lanes repeat the last candidate and come out dead.
      const bool pad = b + l >= row.size();
      const std::size_t c = row[pad ? row.size() - 1 : b + l];
      bool live = false;
      const geom::Vec2 t =
          pair_term(system, table, cutoff_sq, i, block[c], pad, live);
      lx[l] += t.x;
      ly[l] += t.y;
      if (pad) continue;
      geom::Vec2& sum = sum_of(c);
      sum.x -= t.x;
      sum.y -= t.y;
    }
  }
  return {((lx[0] + lx[1]) + lx[2]) + lx[3],
          ((ly[0] + ly[1]) + ly[2]) + ly[3]};
}

}  // namespace detail

inline std::vector<geom::Vec2> half_shell_reference(
    const sim::ParticleSystem& system, const sim::PairScalingTable& table,
    double cutoff, bool compact) {
  using Key = std::pair<std::int64_t, std::int64_t>;
  std::map<Key, std::vector<std::size_t>> cells;
  for (std::size_t i = 0; i < system.size(); ++i) {
    cells[{static_cast<std::int64_t>(std::floor(system.x[i] / cutoff)),
           static_cast<std::int64_t>(std::floor(system.y[i] / cutoff))}]
        .push_back(i);
  }
  const std::size_t n = system.size();
  std::vector<geom::Vec2> own(n);
  std::vector<geom::Vec2> halo(n);
  if (cells.empty()) return own;
  const std::int64_t x0 = cells.begin()->first.first;
  const auto stripe_of = [&](std::int64_t x) {
    return (x - x0) / static_cast<std::int64_t>(sim::kDriftStripeColumns);
  };
  const auto members = [&](std::int64_t x, std::int64_t y) {
    const auto it = cells.find({x, y});
    return it == cells.end() ? std::vector<std::size_t>{} : it->second;
  };

  for (const auto& [key, cell] : cells) {
    const auto [x, y] = key;
    std::vector<std::size_t> block = cell;
    std::vector<std::size_t> right;
    for (const std::size_t j : members(x, y + 1)) block.push_back(j);
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (const std::size_t j : members(x + 1, y + dy)) right.push_back(j);
    }
    const std::size_t in_stripe = block.size();
    block.insert(block.end(), right.begin(), right.end());
    const bool right_is_halo = stripe_of(x + 1) != stripe_of(x);
    for (std::size_t q = 0; q < cell.size(); ++q) {
      const std::size_t i = cell[q];
      const geom::Vec2 total = detail::walk_row(
          system, table, cutoff * cutoff, i, block, q + 1, compact,
          [&](std::size_t c) -> geom::Vec2& {
            return c >= in_stripe && right_is_halo ? halo[block[c]]
                                                   : own[block[c]];
          });
      own[i].x += total.x;
      own[i].y += total.y;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t x =
        static_cast<std::int64_t>(std::floor(system.x[i] / cutoff));
    // Only a stripe's first column is ever owed a halo.
    if (x != x0 && stripe_of(x - 1) != stripe_of(x)) {
      own[i] = {own[i].x + halo[i].x, own[i].y + halo[i].y};
    }
  }
  return own;
}

// `cutoff` may be +inf (unbounded r_c).
inline std::vector<geom::Vec2> all_pairs_reference(
    const sim::ParticleSystem& system, const sim::PairScalingTable& table,
    double cutoff, bool compact) {
  const std::size_t n = system.size();
  const std::size_t rows = sim::kAllPairsTileRows;
  std::vector<std::size_t> block(n);
  std::iota(block.begin(), block.end(), std::size_t{0});
  std::vector<std::vector<geom::Vec2>> tile_sums;
  for (std::size_t a = 0; a < n; a += rows) {
    std::vector<geom::Vec2> sums(n);
    for (std::size_t i = a; i < std::min(n, a + rows); ++i) {
      const geom::Vec2 total = detail::walk_row(
          system, table, cutoff * cutoff, i, block, i + 1, compact,
          [&](std::size_t c) -> geom::Vec2& { return sums[c]; });
      sums[i].x += total.x;
      sums[i].y += total.y;
    }
    tile_sums.push_back(std::move(sums));
  }
  std::vector<geom::Vec2> drift(n);
  for (std::size_t i = 0; i < n; ++i) {
    drift[i] = tile_sums[i / rows][i];
    for (std::size_t t = 0; t < i / rows; ++t) {
      drift[i] = {drift[i].x + tile_sums[t][i].x,
                  drift[i].y + tile_sums[t][i].y};
    }
  }
  return drift;
}

}  // namespace sops::testing
