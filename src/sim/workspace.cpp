#include "sim/workspace.hpp"

#include "sim/simulation.hpp"
#include "support/error.hpp"

namespace sops::sim {

void SimulationWorkspace::prepare(const SimulationConfig& config) {
  const NeighborMode resolved = resolve_neighbor_mode(
      config.neighbor_mode, config.types.size(), config.cutoff_radius);
  const geom::NeighborBackendKind kind = neighbor_backend_kind(resolved);
  if (!backend_ || backend_->kind() != kind) backend_.emplace(kind);
  scaling_table_.emplace(config.model);
  drift_.reserve(config.types.size());

  // A lender already resolved the budget; its view's width is
  // authoritative.
  if (lent_) return;
  const std::size_t step_threads =
      resolve_parallel_policy(config.parallel_policy, config.types.size(), 1,
                              config.threads)
          .step_threads;
  // The pool persists across prepare() calls (and therefore across runs);
  // it is only rebuilt when the resolved width actually changes. A width of
  // 1 keeps any existing pool parked and steps serially.
  if (step_threads > 1 &&
      (!owned_pool_ || owned_pool_->width() != step_threads)) {
    owned_pool_ = std::make_unique<support::TaskPool>(step_threads);
  }
  step_executor_ =
      step_threads > 1 ? owned_pool_->executor() : support::Executor{};
}

geom::NeighborBackend& SimulationWorkspace::backend() {
  support::expect(backend_.has_value(),
                  "SimulationWorkspace::backend: prepare() a run first");
  return *backend_;
}

const PairScalingTable& SimulationWorkspace::scaling_table() const {
  support::expect(scaling_table_.has_value(),
                  "SimulationWorkspace::scaling_table: prepare() a run first");
  return *scaling_table_;
}

}  // namespace sops::sim
