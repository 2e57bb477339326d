// Umbrella header: the full public API of the sops library.
//
// Quickstart:
//
//   #include "core/sops.hpp"
//   using namespace sops;
//
//   auto config = core::presets::fig4_three_type_collective();
//   core::ExperimentConfig experiment(config);
//   experiment.samples = 200;
//   auto result = core::measure_experiment(experiment);
//   // result.points[i].multi_information is I(W₁⁽ᵗ⁾,…,W_n⁽ᵗ⁾) in bits
//   // result.self_organizing() applies the paper's verdict
#pragma once

#include "align/ensemble.hpp"
#include "align/icp.hpp"
#include "cluster/kmeans.hpp"
#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/frame_store.hpp"
#include "core/hierarchy.hpp"
#include "core/config_builder.hpp"
#include "core/job_manager.hpp"
#include "core/presets.hpp"
#include "geom/aabb.hpp"
#include "geom/cell_grid.hpp"
#include "geom/delaunay.hpp"
#include "geom/frame_view.hpp"
#include "geom/kdtree.hpp"
#include "geom/neighbor_backend.hpp"
#include "geom/rigid_transform.hpp"
#include "geom/vec2.hpp"
#include "info/binning.hpp"
#include "info/decomposition.hpp"
#include "info/entropy.hpp"
#include "info/kde.hpp"
#include "info/neighbor_cache.hpp"
#include "info/transfer_entropy.hpp"
#include "info/ksg.hpp"
#include "io/ascii_chart.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/frame_protocol.hpp"
#include "io/svg.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "sim/asymmetric.hpp"
#include "sim/detectors.hpp"
#include "sim/generators.hpp"
#include "sim/observables.hpp"
#include "sim/parallel_policy.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
