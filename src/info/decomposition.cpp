#include "info/decomposition.hpp"

#include <algorithm>

namespace sops::info {
namespace {

// Gathers the coordinates of a group of fine blocks into contiguous columns
// of a new SampleMatrix, returning also the fine blocks re-based onto the
// new layout. This keeps every estimator input in the canonical
// "contiguous blocks covering all dims" form.
struct GatheredGroup {
  SampleMatrix samples;
  std::vector<Block> blocks;
};

GatheredGroup gather(const SampleMatrix& source, std::span<const Block> blocks,
                     std::span<const std::size_t> member_indices) {
  std::size_t total_dim = 0;
  for (const std::size_t b : member_indices) total_dim += blocks[b].dim;

  GatheredGroup out;
  out.samples = SampleMatrix(source.count(), total_dim);
  out.blocks.reserve(member_indices.size());

  std::size_t cursor = 0;
  for (const std::size_t b : member_indices) {
    const Block& block = blocks[b];
    for (std::size_t s = 0; s < source.count(); ++s) {
      for (std::size_t d = 0; d < block.dim; ++d) {
        out.samples(s, cursor + d) = source(s, block.offset + d);
      }
    }
    out.blocks.push_back({cursor, block.dim});
    cursor += block.dim;
  }
  return out;
}

}  // namespace

void validate_grouping(const ObserverGrouping& grouping,
                       std::size_t block_count) {
  support::expect(!grouping.empty(), "validate_grouping: empty grouping");
  std::vector<char> seen(block_count, 0);
  for (const auto& group : grouping) {
    support::expect(!group.empty(), "validate_grouping: empty group");
    for (const std::size_t b : group) {
      support::expect(b < block_count, "validate_grouping: block index range");
      support::expect(!seen[b], "validate_grouping: block in multiple groups");
      seen[b] = 1;
    }
  }
  support::expect(
      std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; }),
      "validate_grouping: not all blocks grouped");
}

Decomposition decompose_multi_information(const SampleMatrix& samples,
                                          std::span<const Block> blocks,
                                          const ObserverGrouping& grouping,
                                          const KsgOptions& options) {
  validate_blocks(blocks, samples.dim());
  validate_grouping(grouping, blocks.size());

  Decomposition result;
  result.total = multi_information_ksg(samples, blocks, options);

  // Between-groups: one merged block per group. The KSG metric needs
  // contiguous blocks, so gather all groups into a fresh layout.
  if (grouping.size() >= 2) {
    std::vector<Block> merged_blocks;
    SampleMatrix merged(samples.count(), samples.dim());
    std::size_t cursor = 0;
    for (const auto& group : grouping) {
      const GatheredGroup gathered = gather(samples, blocks, group);
      for (std::size_t s = 0; s < samples.count(); ++s) {
        for (std::size_t d = 0; d < gathered.samples.dim(); ++d) {
          merged(s, cursor + d) = gathered.samples(s, d);
        }
      }
      merged_blocks.push_back({cursor, gathered.samples.dim()});
      cursor += gathered.samples.dim();
    }
    result.between_groups =
        multi_information_ksg(merged, merged_blocks, options);
  }

  // Within-group terms.
  result.within_group.reserve(grouping.size());
  for (const auto& group : grouping) {
    if (group.size() < 2) {
      result.within_group.push_back(0.0);
      continue;
    }
    const GatheredGroup gathered = gather(samples, blocks, group);
    result.within_group.push_back(
        multi_information_ksg(gathered.samples, gathered.blocks, options));
  }
  return result;
}

ObserverGrouping group_blocks_by_type(std::span<const std::uint32_t> types,
                                      std::size_t type_count) {
  support::expect(type_count > 0, "group_blocks_by_type: no types");
  ObserverGrouping grouping(type_count);
  for (std::size_t i = 0; i < types.size(); ++i) {
    support::expect(types[i] < type_count,
                    "group_blocks_by_type: type id out of range");
    grouping[types[i]].push_back(i);
  }
  // Drop types with no particles (keeps the partition property).
  grouping.erase(std::remove_if(grouping.begin(), grouping.end(),
                                [](const auto& g) { return g.empty(); }),
                 grouping.end());
  return grouping;
}

}  // namespace sops::info
