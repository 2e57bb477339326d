// Randomized backend-parity fuzzer.
//
// ~50 seeded random configurations (collective size, type count, force law,
// cut-off, initialization disc — all drawn from rng/) assert the engine's
// structural invariants on every one:
//
//  1. all-pairs and cell-grid enumerate the same pair set, so their drifts
//     agree to 1e-12 (the summation orders differ, hence not bitwise);
//  2. a backend reused across cases (n, types and r_c change between
//     them) gives the bits of a fresh backend per case: a rebuild keeps
//     capacity, never state that reaches the sums;
//  3. the Delaunay backend's radius-pruned adjacency matches a direct
//     tessellation + pruning reference to 1e-12;
//  4. the intra-step path (all-pairs row tiles, the cell grid's stripes,
//     or Delaunay's equal row chunks) is bitwise-equal to the serial loop
//     for every backend kind, also for collectives smaller than the
//     executor width.
//
// This replaces the previous hand-picked parity cases: random geometry
// exercises hash-grid cell boundaries, duplicate-distance ties, and sparse/
// dense occupancy mixes that fixed fixtures never reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/delaunay.hpp"
#include "geom/neighbor_backend.hpp"
#include "half_shell_reference.hpp"
#include "rng/samplers.hpp"
#include "sim/drift_kernel.hpp"
#include "sim/forces.hpp"
#include "support/executor.hpp"
#include "support/simd.hpp"

namespace {

using sops::geom::NeighborBackend;
using sops::geom::NeighborBackendKind;
using sops::geom::Vec2;
using sops::sim::accumulate_drift;
using sops::sim::ForceLawKind;
using sops::sim::InteractionModel;
using sops::sim::PairParams;
using sops::sim::PairScalingTable;
using sops::sim::ParticleSystem;
using sops::support::serial_executor;

struct FuzzCase {
  ParticleSystem system;
  InteractionModel model;
  double cutoff;
};

FuzzCase draw_case(std::uint64_t case_id) {
  sops::rng::Xoshiro256 engine(0xF022 + case_id * 7919);
  const std::size_t n = 8 + engine() % 280;
  const std::size_t types = 1 + engine() % 5;
  const double disc_radius = sops::rng::uniform(engine, 2.0, 12.0);
  const double cutoff = sops::rng::uniform(engine, 1.0, 6.0);
  const ForceLawKind kind =
      case_id % 2 == 0 ? ForceLawKind::kSpring : ForceLawKind::kDoubleGaussian;
  const PairParams params{sops::rng::uniform(engine, 0.5, 2.0),
                          sops::rng::uniform(engine, 1.0, 3.0),
                          sops::rng::uniform(engine, 0.5, 2.0),
                          sops::rng::uniform(engine, 2.5, 5.0)};

  std::vector<Vec2> positions;
  std::vector<sops::sim::TypeId> type_ids;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(sops::rng::uniform_disc(engine, disc_radius));
    type_ids.push_back(static_cast<sops::sim::TypeId>(engine() % types));
  }
  return {ParticleSystem(std::move(positions), std::move(type_ids)),
          InteractionModel(kind, types, params), cutoff};
}

constexpr std::uint64_t kCases = 50;

TEST(ParityFuzz, AllPairsVsCellGridWithin1e12) {
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const FuzzCase fuzz = draw_case(c);
    const PairScalingTable table(fuzz.model);
    std::vector<Vec2> brute;
    std::vector<Vec2> grid;
    NeighborBackend all_pairs(NeighborBackendKind::kAllPairs);
    NeighborBackend cell_grid(NeighborBackendKind::kCellGrid);
    accumulate_drift(fuzz.system, table, fuzz.cutoff, brute, all_pairs,
                     serial_executor());
    accumulate_drift(fuzz.system, table, fuzz.cutoff, grid, cell_grid,
                     serial_executor());
    for (std::size_t i = 0; i < fuzz.system.size(); ++i) {
      ASSERT_NEAR(brute[i].x, grid[i].x, 1e-12) << "case " << c << " i " << i;
      ASSERT_NEAR(brute[i].y, grid[i].y, 1e-12) << "case " << c << " i " << i;
    }
  }
}

TEST(ParityFuzz, ReusedBackendMatchesFreshBackendBitwise) {
  // The engine keeps one backend for a whole run and SimulationWorkspace
  // keeps it across runs; each call rebuilds it. Walking every fuzz case
  // through one backend per kind must give the bits of a fresh backend.
  for (const NeighborBackendKind kind :
       {NeighborBackendKind::kAllPairs, NeighborBackendKind::kCellGrid,
        NeighborBackendKind::kDelaunay}) {
    NeighborBackend reused(kind);
    for (std::uint64_t c = 0; c < kCases; ++c) {
      const FuzzCase fuzz = draw_case(c);
      const PairScalingTable table(fuzz.model);
      std::vector<Vec2> via_reused;
      std::vector<Vec2> via_fresh;
      accumulate_drift(fuzz.system, table, fuzz.cutoff, via_reused, reused,
                       serial_executor());
      NeighborBackend fresh(kind);
      accumulate_drift(fuzz.system, table, fuzz.cutoff, via_fresh, fresh,
                       serial_executor());
      ASSERT_EQ(via_reused.size(), fuzz.system.size());
      ASSERT_EQ(via_fresh.size(), fuzz.system.size());
      for (std::size_t i = 0; i < via_fresh.size(); ++i) {
        ASSERT_EQ(via_reused[i], via_fresh[i])
            << "case " << c << " kind " << static_cast<int>(kind) << " i "
            << i;
      }
    }
  }
}

TEST(ParityFuzz, DelaunayBackendMatchesPrunedTessellationWithin1e12) {
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const FuzzCase fuzz = draw_case(c);
    const PairScalingTable table(fuzz.model);
    const double cutoff_sq = fuzz.cutoff * fuzz.cutoff;

    // Reference: direct tessellation, pruned by the cut-off, in adjacency
    // order — computed without any backend machinery.
    const auto adjacency =
        sops::geom::delaunay_adjacency(fuzz.system.positions_aos());
    std::vector<Vec2> reference(fuzz.system.size());
    for (std::size_t i = 0; i < fuzz.system.size(); ++i) {
      Vec2 drift{};
      for (const std::size_t j : adjacency[i]) {
        const Vec2 delta = fuzz.system.position(i) - fuzz.system.position(j);
        const double d_sq = sops::geom::norm_sq(delta);
        if (d_sq >= cutoff_sq || d_sq == 0.0) continue;
        const double scaling = fuzz.model.scaling(
            fuzz.system.types[i], fuzz.system.types[j], std::sqrt(d_sq));
        drift += delta * (-scaling);
      }
      reference[i] = drift;
    }

    std::vector<Vec2> via_backend;
    sops::geom::NeighborBackend backend(
        sops::geom::NeighborBackendKind::kDelaunay);
    accumulate_drift(fuzz.system, table, fuzz.cutoff, via_backend, backend,
                     serial_executor());
    for (std::size_t i = 0; i < fuzz.system.size(); ++i) {
      ASSERT_NEAR(reference[i].x, via_backend[i].x, 1e-12)
          << "case " << c << " i " << i;
      ASSERT_NEAR(reference[i].y, via_backend[i].y, 1e-12)
          << "case " << c << " i " << i;
    }
  }
}

// ------------------------------------------------- scalar vs SIMD parity

// Pins the runtime SIMD policy for a scope and restores the previous value
// on exit, so parity tests cannot leak a forced policy into later tests.
class SimdPolicyGuard {
 public:
  explicit SimdPolicyGuard(sops::support::SimdPolicy policy)
      : saved_(sops::support::simd_policy()) {
    sops::support::set_simd_policy(policy);
  }
  ~SimdPolicyGuard() { sops::support::set_simd_policy(saved_); }
  SimdPolicyGuard(const SimdPolicyGuard&) = delete;
  SimdPolicyGuard& operator=(const SimdPolicyGuard&) = delete;

 private:
  sops::support::SimdPolicy saved_;
};

std::vector<Vec2> drift_under_policy(sops::support::SimdPolicy policy,
                                     const ParticleSystem& system,
                                     const PairScalingTable& table,
                                     double cutoff,
                                     sops::geom::NeighborBackendKind kind) {
  const SimdPolicyGuard guard(policy);
  sops::geom::NeighborBackend backend(kind);
  std::vector<Vec2> out;
  accumulate_drift(system, table, cutoff, out, backend, serial_executor());
  return out;
}

void expect_scalar_simd_bitwise(const ParticleSystem& system,
                                const PairScalingTable& table, double cutoff,
                                sops::geom::NeighborBackendKind kind,
                                const char* label) {
  const std::vector<Vec2> scalar = drift_under_policy(
      sops::support::SimdPolicy::kScalar, system, table, cutoff, kind);
  const std::vector<Vec2> simd = drift_under_policy(
      sops::support::SimdPolicy::kAuto, system, table, cutoff, kind);
  ASSERT_EQ(scalar.size(), simd.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i], simd[i])
        << label << " kind " << static_cast<int>(kind) << " i " << i;
  }
}

constexpr auto kCellGrid = sops::geom::NeighborBackendKind::kCellGrid;

constexpr sops::geom::NeighborBackendKind kAllBackendKinds[] = {
    sops::geom::NeighborBackendKind::kAllPairs,
    sops::geom::NeighborBackendKind::kCellGrid,
    sops::geom::NeighborBackendKind::kDelaunay,
};

TEST(SimdParity, ScalarVsSimdBitwiseAcrossBackendsAndLaws) {
  // The whole random sweep (both force-law families, 1–5 types, random
  // density), every backend, forced-scalar against forced-SIMD: the vector
  // kernels pin lane partials in index order, so the results must be
  // bitwise-identical, not merely close.
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const FuzzCase fuzz = draw_case(c);
    const PairScalingTable table(fuzz.model);
    for (const auto kind : kAllBackendKinds) {
      expect_scalar_simd_bitwise(fuzz.system, table, fuzz.cutoff, kind,
                                 "fuzz");
    }
  }
}

TEST(SimdParity, LaneRemainderSizesBitwise) {
  // Collective sizes straddling the 4-lane width, n ≡ 0..3 (mod 4),
  // including n = 1 (empty candidate rows) — the tail-block path (pad with
  // the last valid candidate, mask the dead lanes) must not perturb bits.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 13u}) {
    sops::rng::Xoshiro256 engine(0x1A4E + n);
    std::vector<Vec2> positions;
    std::vector<sops::sim::TypeId> type_ids;
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(sops::rng::uniform_disc(engine, 3.0));
      type_ids.push_back(static_cast<sops::sim::TypeId>(i % 2));
    }
    const ParticleSystem system(positions, type_ids);
    for (const ForceLawKind kind :
         {ForceLawKind::kSpring, ForceLawKind::kDoubleGaussian}) {
      const InteractionModel model(kind, 2, PairParams{1.2, 1.5, 0.8, 3.0});
      const PairScalingTable table(model);
      // Delaunay needs a non-degenerate tessellation; the small-n sweep
      // sticks to the two radius-pruned backends.
      for (const auto backend_kind :
           {sops::geom::NeighborBackendKind::kAllPairs,
            sops::geom::NeighborBackendKind::kCellGrid}) {
        expect_scalar_simd_bitwise(system, table, 2.5, backend_kind,
                                   "lane remainder");
      }
    }
  }
}

TEST(SimdParity, CoincidentParticlesBitwiseAndFinite) {
  // Exactly coincident particles hit the d² == 0 lane mask (undefined
  // direction, excluded from the sum) inside otherwise-live blocks.
  std::vector<Vec2> positions{{0.0, 0.0}, {0.0, 0.0}, {1.0, 0.5},
                              {1.0, 0.5}, {0.25, -1.0}, {0.0, 0.0},
                              {-1.5, 0.75}};
  std::vector<sops::sim::TypeId> type_ids(positions.size(), 0);
  const ParticleSystem system(positions, type_ids);
  for (const ForceLawKind kind :
       {ForceLawKind::kSpring, ForceLawKind::kDoubleGaussian}) {
    const InteractionModel model(kind, 1, PairParams{1.0, 2.0, 1.0, 3.0});
    const PairScalingTable table(model);
    for (const auto backend_kind :
         {sops::geom::NeighborBackendKind::kAllPairs,
          sops::geom::NeighborBackendKind::kCellGrid}) {
      expect_scalar_simd_bitwise(system, table, 3.0, backend_kind,
                                 "coincident");
      const std::vector<Vec2> drift =
          drift_under_policy(sops::support::SimdPolicy::kAuto, system, table,
                             3.0, backend_kind);
      for (const Vec2 d : drift) {
        EXPECT_TRUE(std::isfinite(d.x) && std::isfinite(d.y));
      }
    }
  }
}

TEST(SimdParity, SpringNearZeroSeparationBitwise) {
  // F¹ diverges as x → 0 (scaling k·(1 − r/x)); a pair at separation
  // 1e-120 makes the masked-lane blend (d² → 1.0 before the sqrt) load
  // bearing — an unmasked dead lane would divide by a denormal instead.
  const std::vector<Vec2> positions{
      {0.0, 0.0}, {1e-120, 0.0}, {0.5, 0.5}, {-0.5, 0.25}, {0.125, -0.75}};
  const std::vector<sops::sim::TypeId> type_ids(positions.size(), 0);
  const ParticleSystem system(positions, type_ids);
  const InteractionModel model(ForceLawKind::kSpring, 1,
                               PairParams{1.0, 2.0, 1.0, 1.0});
  const PairScalingTable table(model);
  for (const auto backend_kind :
       {sops::geom::NeighborBackendKind::kAllPairs,
        sops::geom::NeighborBackendKind::kCellGrid}) {
    expect_scalar_simd_bitwise(system, table, 2.0, backend_kind, "near zero");
    const std::vector<Vec2> drift = drift_under_policy(
        sops::support::SimdPolicy::kAuto, system, table, 2.0, backend_kind);
    for (const Vec2 d : drift) {
      EXPECT_TRUE(std::isfinite(d.x) && std::isfinite(d.y));
    }
  }
}

TEST(SimdParity, CompactedChunkRowsMatchMaskedRows) {
  // The cell-grid chunk kernel compacts each double-Gaussian row to its
  // live survivors before the law; the masked half-shell walk of
  // half_shell_reference.hpp is the other summation order of the same rows.
  // Three claims, per SIMD policy, through the chunk kernel:
  //  - compacted rows reproduce the compacting reference bitwise;
  //  - they agree with the masked walk to 1e-12 (compaction only regroups
  //    survivors into earlier lanes);
  //  - where every candidate survives (a cluster inside one cell, no
  //    coincidences) the lane grouping is identical, so they are bitwise
  //    equal to the masked walk — the filter keeps exactly the live lanes.
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const FuzzCase fuzz = draw_case(c);
    if (fuzz.model.kind() != ForceLawKind::kDoubleGaussian) continue;
    const PairScalingTable table(fuzz.model);
    sops::rng::Xoshiro256 engine(0xC0DE + c);
    std::vector<Vec2> cluster;
    const std::size_t cluster_size =
        std::min<std::size_t>(3 + engine() % 40, fuzz.system.size());
    for (std::size_t i = 0; i < cluster_size; ++i) {
      // Inside cell (2, 1) and within r_c of each other.
      cluster.push_back({fuzz.cutoff * sops::rng::uniform(engine, 2.15, 2.85),
                         fuzz.cutoff * sops::rng::uniform(engine, 1.15, 1.85)});
    }
    const ParticleSystem all_kept(
        cluster,
        std::vector<sops::sim::TypeId>(fuzz.system.types.begin(),
                                       fuzz.system.types.begin() +
                                           static_cast<long>(cluster_size)));
    const auto compacted = sops::testing::half_shell_reference(
        fuzz.system, table, fuzz.cutoff, true);
    const auto masked = sops::testing::half_shell_reference(
        fuzz.system, table, fuzz.cutoff, false);
    const auto masked_kept = sops::testing::half_shell_reference(
        all_kept, table, fuzz.cutoff, false);
    for (const auto policy : {sops::support::SimdPolicy::kScalar,
                              sops::support::SimdPolicy::kAuto}) {
      const auto drift = drift_under_policy(policy, fuzz.system, table,
                                            fuzz.cutoff, kCellGrid);
      for (std::size_t i = 0; i < drift.size(); ++i) {
        ASSERT_EQ(drift[i], compacted[i]) << "case " << c << " i " << i;
        ASSERT_NEAR(drift[i].x, masked[i].x, 1e-12) << "case " << c;
        ASSERT_NEAR(drift[i].y, masked[i].y, 1e-12) << "case " << c;
      }
      const auto kept = drift_under_policy(policy, all_kept, table,
                                           fuzz.cutoff, kCellGrid);
      for (std::size_t i = 0; i < kept.size(); ++i) {
        ASSERT_EQ(kept[i], masked_kept[i]) << "all-kept case " << c << " i "
                                           << i;
      }
    }
  }
}

TEST(SimdParity, DoubleGaussianCompactionSurvivorCounts) {
  // Double-Gaussian rows are compacted to their in-cutoff survivors before
  // the law, on the cell grid (inside the chunk kernel).
  // One cluster per survivor count s = 0…9, far apart: a center with s
  // neighbours inside r_c and a ring of candidates just outside it, so the
  // centers' rows are all dead (s = 0), exactly one lane block (s = 4) and
  // ragged tails, among the other particles' counts. The scalar reference
  // and the vector kernels the build selects (AVX2 where the CPU has it,
  // the generic ones in a dispatch-off build) must give the same bits, at
  // every executor width, and the sum must be the pair sum of the law.
  constexpr double kCutoff = 2.0;
  std::vector<Vec2> positions;
  std::vector<sops::sim::TypeId> type_ids;
  std::vector<std::size_t> centers;
  for (std::size_t s = 0; s <= 9; ++s) {
    const Vec2 origin{40.0 * static_cast<double>(s), 0.0};
    centers.push_back(positions.size());
    positions.push_back(origin);
    type_ids.push_back(static_cast<sops::sim::TypeId>(s % 3));
    for (std::size_t j = 0; j < s; ++j) {
      const double angle = 0.3 + 6.283185307179586 * static_cast<double>(j) /
                                     static_cast<double>(s);
      const double radius = 0.5 + 0.12 * static_cast<double>(j);
      positions.push_back(
          origin + Vec2{radius * std::cos(angle), radius * std::sin(angle)});
      type_ids.push_back(static_cast<sops::sim::TypeId>((s + j) % 3));
    }
    for (std::size_t j = 0; j < 5; ++j) {
      const double angle = 6.283185307179586 * static_cast<double>(j) / 5.0;
      positions.push_back(origin +
                          Vec2{2.3 * std::cos(angle), 2.3 * std::sin(angle)});
      type_ids.push_back(static_cast<sops::sim::TypeId>(j % 3));
    }
  }
  const ParticleSystem system(positions, type_ids);
  const std::size_t n = system.size();
  InteractionModel model(ForceLawKind::kDoubleGaussian, 3,
                         PairParams{1.3, 1.0, 0.8, 2.5});
  model.set_k(0, 2, 0.7).set_sigma(1, 1, 1.6).set_tau(1, 2, 1.2);
  const PairScalingTable table(model);

  // Brute-force survivor counts and the pair-sum reference.
  std::vector<std::size_t> survivors(n, 0);
  std::vector<Vec2> reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Vec2 delta = system.position(i) - system.position(j);
      const double d_sq = sops::geom::norm_sq(delta);
      if (d_sq == 0.0 || d_sq >= kCutoff * kCutoff) continue;
      ++survivors[i];
      reference[i] += delta * (-model.scaling(system.types[i], system.types[j],
                                              std::sqrt(d_sq)));
    }
  }
  for (std::size_t s = 0; s <= 9; ++s) {
    ASSERT_EQ(survivors[centers[s]], s);
  }

  const sops::support::SimdPolicy policies[] = {
      sops::support::SimdPolicy::kScalar, sops::support::SimdPolicy::kAuto};
  const auto kind = sops::geom::NeighborBackendKind::kCellGrid;
  const std::vector<Vec2> anchor = drift_under_policy(
      sops::support::SimdPolicy::kScalar, system, table, kCutoff, kind);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(anchor[i].x, reference[i].x, 1e-12) << "i " << i;
    ASSERT_NEAR(anchor[i].y, reference[i].y, 1e-12) << "i " << i;
  }
  for (const auto policy : policies) {
    const SimdPolicyGuard guard(policy);
    for (std::size_t width = 1; width <= 4; ++width) {
      sops::geom::NeighborBackend backend(kind);
      sops::support::TaskPool pool(width);
      std::vector<Vec2> out;
      accumulate_drift(system, table, kCutoff, out, backend, pool.executor());
      ASSERT_EQ(out.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], anchor[i])
            << "policy " << static_cast<int>(policy) << " width " << width
            << " i " << i;
      }
    }
  }
}

TEST(ParityFuzz, ShardedPathBitwiseEqualsSerialForEveryBackend) {
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const FuzzCase fuzz = draw_case(c);
    const PairScalingTable table(fuzz.model);
    for (const sops::geom::NeighborBackendKind kind :
         {sops::geom::NeighborBackendKind::kAllPairs,
          sops::geom::NeighborBackendKind::kCellGrid,
          sops::geom::NeighborBackendKind::kDelaunay}) {
      sops::geom::NeighborBackend serial_backend(kind);
      sops::geom::NeighborBackend sharded_backend(kind);
      sops::support::TaskPool pool(3);
      std::vector<Vec2> serial;
      std::vector<Vec2> sharded;
      accumulate_drift(fuzz.system, table, fuzz.cutoff, serial, serial_backend,
                       serial_executor());
      accumulate_drift(fuzz.system, table, fuzz.cutoff, sharded,
                       sharded_backend, pool.executor());
      ASSERT_EQ(serial.size(), sharded.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i], sharded[i])
            << "case " << c << " kind " << static_cast<int>(kind) << " i "
            << i;
      }
    }
  }
}

TEST(ParityFuzz, CollectivesSmallerThanTheWidthBitwiseEqualSerial) {
  // n ≤ 3 at widths 1–5: Delaunay's equal row split gets fewer rows than
  // runners (min(width, n) chunks), all-pairs one tile and the cell grid
  // one stripe for all of them.
  // Every width must give the serial bits. Every pair is within
  // r_c, so from n = 2 on every backend sees interactions (two points are a
  // collinear set, which delaunay_adjacency links as a chain), and a lone
  // particle's drift is exactly zero.
  constexpr double kCutoff = 2.5;
  for (const std::size_t n : {1u, 2u, 3u}) {
    sops::rng::Xoshiro256 engine(0x5A11 + n);
    std::vector<Vec2> positions;
    std::vector<sops::sim::TypeId> type_ids;
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(sops::rng::uniform_disc(engine, 1.0));
      type_ids.push_back(static_cast<sops::sim::TypeId>(i % 2));
    }
    const ParticleSystem system(positions, type_ids);
    for (const ForceLawKind law :
         {ForceLawKind::kSpring, ForceLawKind::kDoubleGaussian}) {
      const PairScalingTable table(
          InteractionModel(law, 2, PairParams{1.2, 1.5, 0.8, 3.0}));
      for (const NeighborBackendKind kind : kAllBackendKinds) {
        NeighborBackend serial_backend(kind);
        std::vector<Vec2> serial;
        accumulate_drift(system, table, kCutoff, serial, serial_backend,
                         serial_executor());
        ASSERT_EQ(serial.size(), n);
        const bool all_zero =
            std::all_of(serial.begin(), serial.end(),
                        [](Vec2 d) { return d == Vec2{}; });
        EXPECT_EQ(all_zero, n == 1)
            << "n " << n << " kind " << static_cast<int>(kind);
        for (std::size_t width = 1; width <= 5; ++width) {
          sops::support::TaskPool pool(width);
          NeighborBackend backend(kind);
          std::vector<Vec2> out;
          accumulate_drift(system, table, kCutoff, out, backend,
                           pool.executor());
          ASSERT_EQ(out.size(), n);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i], serial[i])
                << "n " << n << " kind " << static_cast<int>(kind)
                << " width " << width << " i " << i;
          }
        }
      }
    }
  }
}

}  // namespace
