// Workload entry points. Each fills `report` with the run's jobs, checks
// and metrics: end-to-end metrics untraced, per-layer metrics when
// options.trace is set.
#pragma once

#include "common.hpp"

namespace e2e {

/// fig4_m500, coarse_n512, collective_16k (batch.cpp).
void run_batch(const Options& options, Report& report);

/// sopsd_closed3 (service.cpp).
void run_service(const Options& options, Report& report);

}  // namespace e2e
