// FrameNeighborCache + tree-backed estimator parity: the cache (read by the
// KL entropies) and the kBlockedTree search (read by the conditional MI
// behind transfer entropy) are pure throughput knobs, so each must return
// the exact bits of its exhaustive reference on any input — including
// degenerate ones with duplicated rows (ε ties, zero marginal counts). The
// KSG multi-information builds no trees and ignores the cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "info/decomposition.hpp"
#include "info/entropy.hpp"
#include "info/ksg.hpp"
#include "info/neighbor_cache.hpp"
#include "info/transfer_entropy.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::conditional_mutual_information_ksg;
using sops::info::entropy_kl;
using sops::info::entropy_kl_block;
using sops::info::FrameNeighborCache;
using sops::info::KsgOptions;
using sops::info::multi_information_ksg;
using sops::info::NeighborSearch;
using sops::info::SampleMatrix;
using sops::info::TransferEntropyOptions;
using sops::rng::Xoshiro256;

SampleMatrix fuzzed_matrix(std::size_t m, std::size_t dim, std::uint64_t seed,
                           std::size_t duplicated_rows = 0) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, dim);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      samples(s, d) = sops::rng::standard_normal(engine);
    }
  }
  // Duplicates exercise ε = 0 ties and empty strict-< neighborhoods.
  for (std::size_t s = 0; s + 1 < m && s + 1 <= duplicated_rows; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      samples(m - 1 - s, d) = samples(s, d);
    }
  }
  return samples;
}

TEST(NeighborCache, EntropyBlockTreeMatchesExhaustiveBitwise) {
  // One cache serves every marginal and the joint of the same matrix; each
  // cached estimate equals the cacheless exhaustive scan.
  sops::support::TaskPool pool(3);
  const std::vector<Block> blocks = {{0, 2}, {2, 2}, {4, 2}, {2, 4}, {0, 6}};
  for (const std::uint64_t seed : {7u, 19u, 23u}) {
    for (const std::size_t duplicates : {std::size_t{0}, std::size_t{6}}) {
      const SampleMatrix samples = fuzzed_matrix(60, 6, seed, duplicates);
      FrameNeighborCache cache(samples);
      for (const Block& block : blocks) {
        const double reference =
            entropy_kl_block(samples, block, 4, pool.executor());
        EXPECT_EQ(entropy_kl_block(samples, block, 4, pool.executor(), &cache),
                  reference);
        EXPECT_EQ(entropy_kl_block(samples, block, 4,
                                   sops::support::serial_executor(), &cache),
                  reference);
      }
      EXPECT_EQ(cache.tree_count(), blocks.size());
    }
  }
}

TEST(NeighborCache, ConditionalMiTreeMatchesBruteForceBitwise) {
  const Block a{0, 2};
  const Block b{2, 2};
  const Block c{4, 2};
  for (const std::uint64_t seed : {5u, 17u}) {
    for (const std::size_t duplicates : {std::size_t{0}, std::size_t{7}}) {
      const SampleMatrix samples = fuzzed_matrix(50, 6, seed, duplicates);
      TransferEntropyOptions brute;
      brute.search = NeighborSearch::kBruteForce;
      TransferEntropyOptions tree;
      const double reference =
          conditional_mutual_information_ksg(samples, a, b, c, brute);
      EXPECT_EQ(conditional_mutual_information_ksg(samples, a, b, c, tree),
                reference);
    }
  }
}

TEST(NeighborCache, EntropyCacheMatchesExhaustiveBitwise) {
  sops::support::TaskPool pool(2);
  for (const std::size_t duplicates : {std::size_t{0}, std::size_t{5}}) {
    const SampleMatrix samples = fuzzed_matrix(40, 4, 13, duplicates);
    FrameNeighborCache cache(samples);
    EXPECT_EQ(entropy_kl(samples, 4, pool.executor(), &cache),
              entropy_kl(samples, 4, pool.executor()));
    const Block block{2, 2};
    EXPECT_EQ(entropy_kl_block(samples, block, 4, pool.executor(), &cache),
              entropy_kl_block(samples, block, 4, pool.executor()));
  }
}

TEST(NeighborCache, DecompositionIgnoresTheKsgCacheField) {
  const SampleMatrix samples = fuzzed_matrix(45, 6, 29);
  const auto blocks = sops::info::uniform_blocks(3, 2);
  const sops::info::ObserverGrouping grouping = {{0, 1}, {2}};

  FrameNeighborCache cache(samples);
  KsgOptions cached;
  cached.cache = &cache;
  const auto with_cache = sops::info::decompose_multi_information(
      samples, blocks, grouping, cached);
  const auto without = sops::info::decompose_multi_information(
      samples, blocks, grouping, KsgOptions{});
  EXPECT_EQ(with_cache.total, without.total);
  EXPECT_EQ(with_cache.between_groups, without.between_groups);
  ASSERT_EQ(with_cache.within_group.size(), without.within_group.size());
  for (std::size_t g = 0; g < without.within_group.size(); ++g) {
    EXPECT_EQ(with_cache.within_group[g], without.within_group[g]);
  }
  // KSG builds no trees, so the cache it was handed stays empty.
  EXPECT_EQ(cache.tree_count(), 0u);
  EXPECT_EQ(multi_information_ksg(samples, 2, cached),
            multi_information_ksg(samples, 2));
  EXPECT_EQ(cache.tree_count(), 0u);
}

TEST(NeighborCache, SubspaceTreesAreBuiltOnceAndShared) {
  const SampleMatrix samples = fuzzed_matrix(30, 6, 3);
  FrameNeighborCache cache(samples);
  EXPECT_EQ(cache.tree_count(), 0u);

  const Block b0{0, 2};
  const FrameNeighborCache::SubspaceTree& first = cache.tree_for({&b0, 1});
  EXPECT_EQ(cache.tree_count(), 1u);
  // Same key → same tree, no rebuild.
  EXPECT_EQ(&cache.tree_for({&b0, 1}), &first);
  EXPECT_EQ(cache.tree_count(), 1u);

  // The per-block entropies reuse b0's tree and add one for b1; a second
  // round adds nothing.
  sops::support::TaskPool pool(2);
  const Block b1{2, 2};
  const double h0 = entropy_kl_block(samples, b0, 4, pool.executor(), &cache);
  const double h1 = entropy_kl_block(samples, b1, 4, pool.executor(), &cache);
  EXPECT_EQ(cache.tree_count(), 2u);
  EXPECT_EQ(entropy_kl_block(samples, b0, 4, pool.executor(), &cache), h0);
  EXPECT_EQ(entropy_kl_block(samples, b1, 4, pool.executor(), &cache), h1);
  EXPECT_EQ(&cache.tree_for({&b0, 1}), &first);
  EXPECT_EQ(cache.tree_count(), 2u);
}

TEST(NeighborCache, ContiguousPrefixIsZeroCopy) {
  const SampleMatrix samples = fuzzed_matrix(20, 4, 11);
  FrameNeighborCache cache(samples);
  // Blocks tiling the full row in order index the matrix storage directly.
  const std::vector<Block> full = {{0, 2}, {2, 2}};
  const auto& joint = cache.tree_for(full);
  EXPECT_TRUE(joint.storage.empty());
  EXPECT_EQ(joint.points.data(), samples.flat().data());
  // A strict subspace gathers.
  const Block tail{2, 2};
  const auto& marginal = cache.tree_for({&tail, 1});
  EXPECT_FALSE(marginal.storage.empty());
}

}  // namespace
