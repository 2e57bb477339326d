#include "core/config_builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/presets.hpp"
#include "support/error.hpp"

namespace sops::core {
namespace {

sim::SymmetricMatrix matrix_from_config(const io::Config& config,
                                        const std::string& key,
                                        std::size_t types, double fallback) {
  const auto rows = config.get_matrix(key);
  if (rows.empty()) {
    // Maybe a scalar.
    const double value = config.get_double(key, fallback);
    return sim::SymmetricMatrix(types, value);
  }
  if (rows.size() == 1 && rows[0].size() == 1) {
    return sim::SymmetricMatrix(types, rows[0][0]);
  }
  if (rows.size() != types) {
    throw Error("config: matrix '" + key + "' has " +
                std::to_string(rows.size()) + " rows, expected " +
                std::to_string(types));
  }
  for (const auto& row : rows) {
    if (row.size() != types) {
      throw Error("config: matrix '" + key + "' is not square");
    }
  }
  return sim::SymmetricMatrix::from_full(rows);
}

sim::SimulationConfig base_simulation(const io::Config& config) {
  const std::string preset = config.get_string("preset", "");
  if (!preset.empty()) {
    if (preset == "fig3") return presets::fig3_single_type_grid();
    if (preset == "fig4") return presets::fig4_three_type_collective();
    if (preset == "fig5") return presets::fig5_single_type_rings();
    if (preset == "fig12") return presets::fig12_enclosed_structure();
    if (preset == "control") {
      return presets::noninteracting_control(config.get_size("particles", 20));
    }
    throw Error("config: unknown preset '" + preset + "'");
  }

  // Custom system.
  const std::size_t types = config.get_size("types", 1);
  if (types == 0) throw Error("config: 'types' must be positive");
  sim::ForceLawKind kind = sim::ForceLawKind::kSpring;
  const std::string force = config.get_string("force", "spring");
  if (force == "spring") {
    kind = sim::ForceLawKind::kSpring;
  } else if (force == "double_gaussian") {
    kind = sim::ForceLawKind::kDoubleGaussian;
  } else {
    throw Error("config: unknown force '" + force + "'");
  }

  sim::InteractionModel model(
      kind, matrix_from_config(config, "k", types, 1.0),
      matrix_from_config(config, "r", types, 1.0),
      matrix_from_config(config, "sigma", types, 1.0),
      matrix_from_config(config, "tau", types, 1.0));
  sim::SimulationConfig simulation(std::move(model));
  simulation.types =
      sim::evenly_distributed_types(config.get_size("particles", 20), types);
  return simulation;
}

}  // namespace

ConfiguredExperiment build_experiment(const io::Config& config) {
  sim::SimulationConfig simulation = base_simulation(config);

  simulation.cutoff_radius =
      config.get_double("rc", simulation.cutoff_radius);
  simulation.init_disc_radius =
      config.get_double("init_radius", simulation.init_disc_radius);
  simulation.steps = config.get_size("steps", simulation.steps);
  simulation.record_stride =
      config.get_size("stride", simulation.record_stride);
  simulation.seed = config.get_size("seed", simulation.seed);
  simulation.integrator.dt = config.get_double("dt", simulation.integrator.dt);
  simulation.integrator.noise_variance =
      config.get_double("noise", simulation.integrator.noise_variance);
  simulation.integrator.max_step =
      config.get_double("max_step", simulation.integrator.max_step);
  simulation.equilibrium.threshold = config.get_double(
      "equilibrium_threshold", simulation.equilibrium.threshold);
  simulation.equilibrium.hold_steps =
      config.get_size("equilibrium_hold", simulation.equilibrium.hold_steps);

  // Validated here, where the error can name the key: a zero, negative or
  // non-finite disc radius gives initial positions no run can start from.
  if (!(simulation.init_disc_radius > 0.0) ||
      !std::isfinite(simulation.init_disc_radius)) {
    throw Error("config: 'init_radius' must be positive and finite, got '" +
                config.get_string("init_radius", "") + "'");
  }
  // The integrator keys likewise: a non-finite step or noise turns the
  // first position update into inf/NaN, and a negative cap lets any step
  // through, so a bad value would simulate the whole job and only then fail
  // in the analysis, with an error that names no key.
  const sim::IntegratorParams& integrator = simulation.integrator;
  if (!(integrator.dt > 0.0) || !std::isfinite(integrator.dt)) {
    throw Error("config: 'dt' must be positive and finite, got '" +
                config.get_string("dt", "") + "'");
  }
  if (!(integrator.noise_variance >= 0.0) ||
      !std::isfinite(integrator.noise_variance)) {
    throw Error("config: 'noise' must be finite and >= 0, got '" +
                config.get_string("noise", "") + "'");
  }
  if (!(integrator.max_step >= 0.0) || !std::isfinite(integrator.max_step)) {
    throw Error(
        "config: 'max_step' must be finite and >= 0 (0 disables the cap), "
        "got '" +
        config.get_string("max_step", "") + "'");
  }

  const std::string neighbor = config.get_string("neighbor", "auto");
  if (neighbor == "auto") {
    simulation.neighbor_mode = sim::NeighborMode::kAuto;
  } else if (neighbor == "all_pairs") {
    simulation.neighbor_mode = sim::NeighborMode::kAllPairs;
  } else if (neighbor == "cell_grid") {
    simulation.neighbor_mode = sim::NeighborMode::kCellGrid;
  } else if (neighbor == "delaunay") {
    simulation.neighbor_mode = sim::NeighborMode::kDelaunay;
  } else {
    throw Error("config: unknown neighbor mode '" + neighbor + "'");
  }
  ConfiguredExperiment configured{ExperimentConfig(std::move(simulation)), {}};
  configured.experiment.samples = config.get_size("samples", 200);

  const std::string storage = config.get_string("frame_storage", "heap");
  if (storage == "heap") {
    configured.experiment.storage.mode = StorageMode::kHeap;
  } else if (storage == "mapped") {
    configured.experiment.storage.mode = StorageMode::kMapped;
  } else if (storage == "auto") {
    configured.experiment.storage.mode = StorageMode::kAuto;
  } else {
    throw Error("config: unknown frame_storage mode '" + storage + "'");
  }
  configured.experiment.storage.spill_dir =
      config.get_string("spill_dir", configured.experiment.storage.spill_dir);
  const double threshold_mb = config.get_double(
      "spill_threshold_mb",
      static_cast<double>(configured.experiment.storage.auto_spill_bytes) /
          (1024.0 * 1024.0));
  if (!(threshold_mb >= 0.0)) {
    throw Error("config: 'spill_threshold_mb' must be non-negative");
  }
  const double threshold_bytes = threshold_mb * 1024.0 * 1024.0;
  // "inf" (or any value past 2^64) means "never auto-spill".
  configured.experiment.storage.auto_spill_bytes =
      threshold_bytes >= 18446744073709551616.0
          ? std::numeric_limits<std::size_t>::max()
          : static_cast<std::size_t>(threshold_bytes);

  // The analysis counts likewise: KSG needs k ≥ 1 neighbours and k-means
  // at least one observer per type, and a 0 would otherwise surface only
  // after the whole ensemble was simulated. Whether samples exceed k
  // depends on the job (record-only jobs run one sample), so that stays
  // with the estimator.
  configured.analysis.ksg.k = config.get_size("analysis_k", 4);
  if (configured.analysis.ksg.k == 0) {
    throw Error("config: 'analysis_k' must be >= 1, got '" +
                config.get_string("analysis_k", "") + "'");
  }
  configured.analysis.compute_entropies =
      config.get_bool("entropies", false);
  configured.analysis.compute_decomposition =
      config.get_bool("decomposition", false);
  configured.analysis.kmeans_per_type = config.get_size("kmeans_per_type", 4);
  if (configured.analysis.kmeans_per_type == 0) {
    throw Error("config: 'kmeans_per_type' must be >= 1, got '" +
                config.get_string("kmeans_per_type", "") + "'");
  }
  configured.analysis.coarse_grain_above =
      config.get_size("coarse_grain_above", 60);
  return configured;
}

const std::vector<std::string>& known_config_keys() {
  static const std::vector<std::string> keys{
      "preset", "force", "types", "particles", "k", "r", "sigma", "tau",
      "rc", "neighbor", "steps", "stride", "samples", "seed",
      "frame_storage", "spill_dir", "spill_threshold_mb",
      "dt", "noise",
      "init_radius", "max_step", "equilibrium_threshold", "equilibrium_hold",
      "analysis_k", "entropies", "decomposition", "kmeans_per_type",
      "coarse_grain_above", "output"};
  return keys;
}

}  // namespace sops::core
