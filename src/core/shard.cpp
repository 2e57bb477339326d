#include "core/shard.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "io/mapped_buffer.hpp"
#include "sim/drift_kernel.hpp"
#include "sim/forces.hpp"
#include "support/error.hpp"

namespace sops::core {
namespace {

// FNV-1a 64. A content hash, not a cryptographic one: it guards against
// *mistakes* (resuming a shard with the wrong config file, merging shards
// of different experiments), not adversaries.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;

  void bytes(const void* data, std::size_t count) noexcept {
    const auto* cursor = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < count; ++i) {
      state ^= cursor[i];
      state *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t value) noexcept { bytes(&value, sizeof(value)); }
  void f64(double value) noexcept { u64(std::bit_cast<std::uint64_t>(value)); }
};

void hash_matrix(Fnv1a& hash, const sim::SymmetricMatrix& matrix) {
  const std::size_t types = matrix.types();
  hash.u64(types);
  for (std::size_t a = 0; a < types; ++a) {
    for (std::size_t b = a; b < types; ++b) hash.f64(matrix(a, b));
  }
}

std::string manifest_path_for(const std::string& data_path) {
  return data_path + ".manifest";
}

[[noreturn]] void merge_fail(const std::string& shard, const std::string& what) {
  throw Error("merge: shard '" + shard + "': " + what);
}

// The header fields two shards of one experiment must share (everything
// except the slot range and completion state).
bool same_experiment(const io::ShardManifest& a, const io::ShardManifest& b) {
  return a.frames == b.frames && a.samples_total == b.samples_total &&
         a.particles == b.particles && a.master_seed == b.master_seed &&
         a.config_hash == b.config_hash && a.frame_steps == b.frame_steps;
}

}  // namespace

std::uint64_t experiment_config_hash(const ExperimentConfig& config) {
  const sim::SimulationConfig& simulation = config.simulation;
  Fnv1a hash;
  hash.u64(static_cast<std::uint64_t>(simulation.model.kind()));
  hash_matrix(hash, simulation.model.k_matrix());
  hash_matrix(hash, simulation.model.r_matrix());
  hash_matrix(hash, simulation.model.sigma_matrix());
  hash_matrix(hash, simulation.model.tau_matrix());
  hash.u64(simulation.types.size());
  for (const sim::TypeId type : simulation.types) hash.u64(type);
  hash.f64(simulation.cutoff_radius);
  const sim::NeighborMode mode = sim::resolve_neighbor_mode(
      simulation.neighbor_mode, simulation.types.size(),
      simulation.cutoff_radius);
  hash.u64(static_cast<std::uint64_t>(mode));
  // The pair-once backends carry their summation order's tag, added when
  // each order first changed; Delaunay's order never has, so its shards
  // from before the tags still resume and merge.
  if (mode == sim::NeighborMode::kCellGrid) hash.u64(sim::kCellGridDriftOrder);
  if (mode == sim::NeighborMode::kAllPairs) hash.u64(sim::kAllPairsDriftOrder);
  hash.f64(simulation.init_disc_radius);
  hash.f64(simulation.integrator.dt);
  hash.f64(simulation.integrator.noise_variance);
  hash.f64(simulation.integrator.max_step);
  hash.u64(simulation.steps);
  hash.u64(simulation.record_stride);
  // Equilibrium parameters never move positions, but their *outputs*
  // (equilibrium_steps) are recorded in the manifest — shards disagreeing
  // on them would merge inconsistent per-sample diagnostics.
  hash.f64(simulation.equilibrium.threshold);
  hash.u64(simulation.equilibrium.hold_steps);
  hash.u64(simulation.track_equilibrium ? 1 : 0);
  hash.u64(simulation.seed);
  hash.u64(config.samples);
  return hash.state;
}

io::ShardManifest expected_shard_manifest(const ExperimentConfig& config) {
  support::expect(config.shard.count >= 1 &&
                      config.shard.index < config.shard.count,
                  "shard: index must lie in [0, count)");
  support::expect(config.shard.count <= config.samples,
                  "shard: more shards than samples");
  const support::ChunkRange slots = support::chunk_range(
      config.shard.index, config.samples, config.shard.count);
  const std::vector<std::size_t> grid = sim::recording_steps(
      config.simulation.steps, config.simulation.record_stride);

  io::ShardManifest manifest;
  manifest.frames = grid.size();
  manifest.samples_total = config.samples;
  manifest.particles = config.simulation.types.size();
  manifest.slot_begin = slots.begin;
  manifest.slot_end = slots.end;
  manifest.master_seed = config.simulation.seed;
  manifest.config_hash = experiment_config_hash(config);
  manifest.frame_steps.assign(grid.begin(), grid.end());
  manifest.equilibrium_steps.assign(manifest.slots(), io::kNoEquilibriumStep);
  manifest.completed.assign(io::ShardManifest::words_for(manifest.slots()), 0);
  return manifest;
}

MergeResult merge_shards(const std::vector<std::string>& shard_paths,
                         const std::string& out_path) {
  support::expect(!shard_paths.empty(), "merge: no shards given");
  support::expect(!out_path.empty(), "merge: output path must be non-empty");

  struct Shard {
    std::string path;
    io::ShardManifest manifest;
  };
  std::vector<Shard> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    Shard shard{path, io::ShardManifestFile::load(manifest_path_for(path))};
    if (!shard.manifest.all_complete()) {
      merge_fail(path, "incomplete — " +
                           std::to_string(shard.manifest.complete_count()) +
                           " of " + std::to_string(shard.manifest.slots()) +
                           " samples recorded; finish or --resume it first");
    }
    shards.push_back(std::move(shard));
  }

  const io::ShardManifest& reference = shards.front().manifest;
  for (const Shard& shard : shards) {
    if (!same_experiment(reference, shard.manifest)) {
      merge_fail(shard.path,
                 "does not match '" + shards.front().path +
                     "' (different dims, frame grid, seed, or config hash)");
    }
  }

  // Slot ranges must tile [0, samples_total) exactly: sort, then check
  // each begins where the previous ended.
  std::sort(shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
    return a.manifest.slot_begin < b.manifest.slot_begin;
  });
  std::uint64_t cursor = 0;
  for (const Shard& shard : shards) {
    if (shard.manifest.slot_begin < cursor) {
      merge_fail(shard.path, "slot range overlaps the previous shard");
    }
    if (shard.manifest.slot_begin > cursor) {
      merge_fail(shard.path,
                 "slot gap: samples [" + std::to_string(cursor) + ", " +
                     std::to_string(shard.manifest.slot_begin) +
                     ") are in no shard");
    }
    cursor = shard.manifest.slot_end;
  }
  if (cursor != reference.samples_total) {
    merge_fail(shards.back().path,
               "slot ranges cover only " + std::to_string(cursor) + " of " +
                   std::to_string(reference.samples_total) + " samples");
  }

  const std::size_t frames = reference.frames;
  const std::size_t particles = reference.particles;
  const std::size_t samples_total = reference.samples_total;
  const std::size_t row_bytes = particles * sizeof(geom::Vec2);
  const std::size_t out_bytes = frames * samples_total * row_bytes;

  io::MappedBuffer out(out_path, out_bytes,
                       io::MappedBuffer::Lifetime::kPersist);
  if (!out.mapped()) {
    throw Error("merge: cannot create '" + out_path +
                "': " + out.failure_reason());
  }

  io::ShardManifest merged = reference;
  merged.slot_begin = 0;
  merged.slot_end = samples_total;
  merged.equilibrium_steps.assign(samples_total, io::kNoEquilibriumStep);
  merged.completed.assign(io::ShardManifest::words_for(samples_total), 0);

  auto* out_bytes_ptr = static_cast<std::byte*>(out.data());
  for (const Shard& shard : shards) {
    const std::size_t local_samples = shard.manifest.slots();
    const std::size_t in_bytes = frames * local_samples * row_bytes;
    // open_existing validates the data file's size against its manifest's
    // geometry — a truncated or foreign file fails here, named.
    io::MappedBuffer in = io::MappedBuffer::open_existing(shard.path, in_bytes);
    if (!in.mapped()) {
      merge_fail(shard.path, "cannot map data file: " + in.failure_reason());
    }
    in.advise_sequential();
    const auto* in_ptr = static_cast<const std::byte*>(in.data());
    // Frame f of the merged store holds the shard's rows at sample offset
    // slot_begin — one contiguous extent per frame, disjoint across shards.
    for (std::size_t f = 0; f < frames; ++f) {
      std::memcpy(out_bytes_ptr +
                      (f * samples_total + shard.manifest.slot_begin) *
                          row_bytes,
                  in_ptr + f * local_samples * row_bytes,
                  local_samples * row_bytes);
    }
    for (std::size_t s = 0; s < local_samples; ++s) {
      merged.equilibrium_steps[shard.manifest.slot_begin + s] =
          shard.manifest.equilibrium_steps[s];
      merged.set_complete(shard.manifest.slot_begin + s);
    }
  }

  // Destroying `out` (persist) MS_SYNCs the payload; write the manifest
  // after so a crash mid-merge leaves no complete-looking manifest over a
  // half-copied file.
  { io::MappedBuffer finished = std::move(out); }
  (void)io::ShardManifestFile::create(manifest_path_for(out_path), merged);

  MergeResult result;
  result.data_path = out_path;
  result.manifest_path = manifest_path_for(out_path);
  result.shard_count = shards.size();
  result.samples_total = samples_total;
  result.payload_bytes = out_bytes;
  return result;
}

}  // namespace sops::core
