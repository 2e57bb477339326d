// Builds experiment configurations from key=value config files — the
// backend of the `sops_run` CLI. Kept in the library (not the tool) so the
// mapping is unit-testable.
//
// Recognized keys (all optional unless noted):
//
//   preset        fig3 | fig4 | fig5 | fig12 | control — start from a
//                 paper preset; remaining keys override its fields
//   force         spring | double_gaussian       (custom systems)
//   types         number of types l
//   particles     number of particles n
//   k, r, sigma, tau   either a single number (all pairs) or an l×l
//                 matrix with rows separated by ';'
//   rc            cut-off radius (number or 'inf')
//   neighbor      auto | all_pairs | cell_grid | delaunay
//   frame_storage heap | mapped | auto — backing of the recorded FrameStore
//                 (auto spills to a memory-mapped file once the projected
//                 recording crosses spill_threshold_mb)
//   spill_dir     directory mapped recordings spill into (default '.')
//   spill_threshold_mb   auto-spill threshold in MiB ('inf' = never)
//   steps, stride, samples, seed, dt, noise, init_radius, max_step
//   equilibrium_threshold, equilibrium_hold
//   analysis_k            KSG neighbor order
//   entropies, decomposition    booleans
//   kmeans_per_type, coarse_grain_above
#pragma once

#include "core/analyzer.hpp"
#include "io/config.hpp"

namespace sops::core {

/// A fully-specified run: the experiment plus what to compute on it.
struct ConfiguredExperiment {
  ExperimentConfig experiment;
  AnalysisOptions analysis;
};

/// Builds from a parsed config; throws sops::Error with a named key on any
/// inconsistency (wrong matrix shape, unknown enum value, …).
[[nodiscard]] ConfiguredExperiment build_experiment(const io::Config& config);

/// Keys this builder understands (the CLI warns about anything else).
[[nodiscard]] const std::vector<std::string>& known_config_keys();

}  // namespace sops::core
