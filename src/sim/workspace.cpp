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

  if (lent_executor_ != nullptr) {
    // The lender already resolved the budget; its width is authoritative.
    step_threads_ = lent_executor_->width();
    return;
  }
  step_threads_ = resolve_parallel_policy(config.parallel_policy,
                                          config.types.size(), 1,
                                          config.threads)
                      .step_threads;
  // The pool persists across prepare() calls (and therefore across runs);
  // it is only rebuilt when the resolved width actually changes. A width of
  // 1 keeps any existing pool parked and steps serially.
  if (step_threads_ > 1 &&
      (!owned_pool_ || owned_pool_->width() != step_threads_)) {
    owned_pool_ = std::make_unique<support::TaskPool>(step_threads_);
  }
}

support::Executor& SimulationWorkspace::step_executor() noexcept {
  if (lent_executor_ != nullptr) return *lent_executor_;
  if (step_threads_ > 1 && owned_pool_ != nullptr) {
    return owned_pool_->executor();
  }
  return support::serial_executor();
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
