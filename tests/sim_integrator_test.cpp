// Euler–Maruyama integrator tests: deterministic limit, convergence to the
// preferred distance, noise statistics, and the stability clamp. A step is
// the engine's sequence: accumulate_drift on a persistent backend, then
// total_drift_norm, then apply_euler_maruyama_update.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/rigid_transform.hpp"
#include "rng/samplers.hpp"
#include "rng/step_noise.hpp"
#include "sim/integrator.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/simd.hpp"

namespace {

using sops::geom::NeighborBackend;
using sops::geom::NeighborBackendKind;
using sops::geom::Vec2;
using sops::sim::accumulate_drift;
using sops::sim::apply_euler_maruyama_update;
using sops::sim::ForceLawKind;
using sops::sim::IntegratorParams;
using sops::sim::InteractionModel;
using sops::sim::kUnboundedRadius;
using sops::sim::PairParams;
using sops::sim::PairScalingTable;
using sops::sim::ParticleSystem;
using sops::support::serial_executor;

InteractionModel spring_model(double k, double r) {
  return InteractionModel(ForceLawKind::kSpring, 1, PairParams{k, r, 1, 1});
}

IntegratorParams no_noise(double dt = 0.05) {
  IntegratorParams params;
  params.dt = dt;
  params.noise_variance = 0.0;
  return params;
}

TEST(Integrator, DeterministicWithoutNoise) {
  const PairScalingTable table(spring_model(1.0, 2.0));
  ParticleSystem a({{0.0, 0.0}, {1.0, 0.0}}, {0, 0});
  ParticleSystem b = a;
  sops::rng::Xoshiro256 ea(1);
  sops::rng::Xoshiro256 eb(999);  // different engines, zero noise
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  for (int i = 0; i < 50; ++i) {
    accumulate_drift(a, table, kUnboundedRadius, drift, backend,
                     serial_executor());
    apply_euler_maruyama_update(a, drift, no_noise(), ea);
    accumulate_drift(b, table, kUnboundedRadius, drift, backend,
                     serial_executor());
    apply_euler_maruyama_update(b, drift, no_noise(), eb);
  }
  EXPECT_EQ(a.position(0), b.position(0));
  EXPECT_EQ(a.position(1), b.position(1));
}

TEST(Integrator, PairConvergesToPreferredDistance) {
  const double r = 2.0;
  const PairScalingTable table(spring_model(1.0, r));
  ParticleSystem system({{0.0, 0.0}, {0.5, 0.0}}, {0, 0});
  sops::rng::Xoshiro256 engine(1);
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  for (int i = 0; i < 2000; ++i) {
    accumulate_drift(system, table, kUnboundedRadius, drift, backend,
                     serial_executor());
    apply_euler_maruyama_update(system, drift, no_noise(0.02), engine);
  }
  EXPECT_NEAR(dist(system.position(0), system.position(1)), r, 1e-6);
}

TEST(Integrator, PairApproachesFromOutside) {
  const double r = 2.0;
  const PairScalingTable table(spring_model(1.0, r));
  ParticleSystem system({{0.0, 0.0}, {6.0, 0.0}}, {0, 0});
  sops::rng::Xoshiro256 engine(1);
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  for (int i = 0; i < 2000; ++i) {
    accumulate_drift(system, table, kUnboundedRadius, drift, backend,
                     serial_executor());
    apply_euler_maruyama_update(system, drift, no_noise(0.02), engine);
  }
  EXPECT_NEAR(dist(system.position(0), system.position(1)), r, 1e-6);
}

TEST(Integrator, CentroidConservedWithoutNoise) {
  // Symmetric interactions: drift sums to zero, so the centroid is a
  // conserved quantity of the deterministic flow.
  const PairScalingTable table(spring_model(1.5, 2.0));
  ParticleSystem system({{0, 0}, {1, 0}, {0, 2}, {3, 1}}, {0, 0, 0, 0});
  const Vec2 before = sops::geom::centroid(system.positions_aos());
  sops::rng::Xoshiro256 engine(1);
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  for (int i = 0; i < 200; ++i) {
    accumulate_drift(system, table, kUnboundedRadius, drift, backend,
                     serial_executor());
    apply_euler_maruyama_update(system, drift, no_noise(), engine);
  }
  const Vec2 after = sops::geom::centroid(system.positions_aos());
  EXPECT_NEAR(before.x, after.x, 1e-9);
  EXPECT_NEAR(before.y, after.y, 1e-9);
}

TEST(Integrator, PreStepResidualIsTheDriftNorm) {
  ParticleSystem system({{0.0, 0.0}, {1.0, 0.0}}, {0, 0});
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  accumulate_drift(system, PairScalingTable(spring_model(1.0, 2.0)),
                   kUnboundedRadius, drift, backend, serial_executor());
  // Pair at distance 1 with r = 2: each particle feels |F|·x = |1 − 2|·1 = 1.
  EXPECT_NEAR(sops::sim::total_drift_norm(drift), 2.0, 1e-12);
}

TEST(Integrator, NoiseOnlyDiffusionStatistics) {
  // With k = 0 the update is z += √dt·ς·ξ; after T steps the displacement
  // variance per axis is T·dt·ς².
  const PairScalingTable table(spring_model(0.0, 1.0));
  IntegratorParams params;
  params.dt = 0.1;
  params.noise_variance = 0.05;
  const int steps = 100;
  const int particles = 2000;

  std::vector<Vec2> start(particles, Vec2{});
  ParticleSystem system(start, std::vector<sops::sim::TypeId>(particles, 0));
  sops::rng::Xoshiro256 engine(77);
  NeighborBackend backend(NeighborBackendKind::kCellGrid);
  std::vector<Vec2> drift;
  for (int t = 0; t < steps; ++t) {
    accumulate_drift(system, table, 0.5, drift, backend, serial_executor());
    apply_euler_maruyama_update(system, drift, params, engine);
  }
  double var_x = 0.0;
  for (const Vec2 p : system.positions_aos()) var_x += p.x * p.x;
  var_x /= particles;
  const double expected = steps * params.dt * params.noise_variance;
  EXPECT_NEAR(var_x, expected, expected * 0.15);
}

TEST(Integrator, MaxStepClampsDrift) {
  // Huge k would fling the pair apart in one explicit step; the clamp caps
  // the displacement magnitude at max_step.
  IntegratorParams params = no_noise(1.0);
  params.max_step = 0.5;
  ParticleSystem system({{0.0, 0.0}, {0.1, 0.0}}, {0, 0});
  sops::rng::Xoshiro256 engine(1);
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  accumulate_drift(system, PairScalingTable(spring_model(1e6, 2.0)),
                   kUnboundedRadius, drift, backend, serial_executor());
  apply_euler_maruyama_update(system, drift, params, engine);
  EXPECT_LE(norm(system.position(0)), 0.5 + 1e-12);
}

TEST(Integrator, ClampDisabledAllowsLargeSteps) {
  IntegratorParams params = no_noise(1.0);
  params.max_step = 0.0;
  ParticleSystem system({{0.0, 0.0}, {0.1, 0.0}}, {0, 0});
  sops::rng::Xoshiro256 engine(1);
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  std::vector<Vec2> drift;
  accumulate_drift(system, PairScalingTable(spring_model(1e6, 2.0)),
                   kUnboundedRadius, drift, backend, serial_executor());
  apply_euler_maruyama_update(system, drift, params, engine);
  EXPECT_GT(norm(system.position(0)), 10.0);
}

TEST(Integrator, InvalidParamsThrow) {
  ParticleSystem system({{0.0, 0.0}}, {0});
  sops::rng::Xoshiro256 engine(1);
  const std::vector<Vec2> drift(1, Vec2{});
  IntegratorParams bad_dt;
  bad_dt.dt = 0.0;
  EXPECT_THROW(apply_euler_maruyama_update(system, drift, bad_dt, engine),
               sops::PreconditionError);
  IntegratorParams bad_noise;
  bad_noise.noise_variance = -0.1;
  EXPECT_THROW(apply_euler_maruyama_update(system, drift, bad_noise, engine),
               sops::PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  IntegratorParams inf_dt;
  inf_dt.dt = inf;
  EXPECT_THROW(apply_euler_maruyama_update(system, drift, inf_dt, engine),
               sops::PreconditionError);
  IntegratorParams inf_noise;
  inf_noise.noise_variance = inf;
  EXPECT_THROW(apply_euler_maruyama_update(system, drift, inf_noise, engine),
               sops::PreconditionError);
  // A drift of the wrong length is rejected too.
  EXPECT_THROW(apply_euler_maruyama_update(system, std::vector<Vec2>(2),
                                           IntegratorParams{}, engine),
               sops::PreconditionError);
  // A rejected update neither moves the particle nor draws a step key.
  EXPECT_EQ(system.position(0), (Vec2{0.0, 0.0}));
  sops::rng::Xoshiro256 fresh(1);
  EXPECT_EQ(engine(), fresh());
}

TEST(Integrator, NoiseDrawsAreSequencedPerParticle) {
  // Two identical engines must produce identical trajectories when stepping
  // the same system — the step noise is part of the contract
  // (reproducibility does not depend on neighbor strategy or thread count).
  const PairScalingTable table(spring_model(1.0, 2.0));
  IntegratorParams params;
  params.dt = 0.05;
  params.noise_variance = 0.05;

  ParticleSystem a({{0, 0}, {1, 0}, {0, 1}}, {0, 0, 0});
  ParticleSystem b = a;
  sops::rng::Xoshiro256 ea(42);
  sops::rng::Xoshiro256 eb(42);
  NeighborBackend all_pairs(NeighborBackendKind::kAllPairs);
  NeighborBackend cell_grid(NeighborBackendKind::kCellGrid);
  std::vector<Vec2> drift;
  for (int i = 0; i < 20; ++i) {
    accumulate_drift(a, table, kUnboundedRadius, drift, all_pairs,
                     serial_executor());
    apply_euler_maruyama_update(a, drift, params, ea);
    accumulate_drift(b, table, 100.0, drift, cell_grid, serial_executor());
    apply_euler_maruyama_update(b, drift, params, eb);
  }
  // Same pair sets (everything within 100 > any distance): identical paths.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.position(i).x, b.position(i).x, 1e-9);
    EXPECT_NEAR(a.position(i).y, b.position(i).y, 1e-9);
  }
}

// Pins the runtime SIMD policy for a scope and restores the previous value
// on exit, so a forced policy cannot leak into later tests.
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

// The update at executor widths 1–5, under the scalar and the SIMD noise
// kernels, against the 4-argument serial form: every position bit and the
// engine's next draw must agree.
TEST(Integrator, ShardedUpdateBitwiseMatchesSerial) {
  sops::rng::Xoshiro256 setup(31);
  std::vector<Vec2> positions;
  std::vector<Vec2> drift;
  for (int i = 0; i < 1001; ++i) {
    positions.push_back(sops::rng::uniform_disc(setup, 20.0));
    // Every 7th drift is huge, so max_step clipping engages.
    const double scale = i % 7 == 0 ? 1e4 : 1.0;
    drift.push_back(Vec2{sops::rng::uniform(setup, -scale, scale),
                         sops::rng::uniform(setup, -scale, scale)});
  }
  const std::vector<sops::sim::TypeId> types(positions.size(), 0);

  IntegratorParams noisy;
  noisy.dt = 0.05;
  noisy.noise_variance = 0.05;
  noisy.max_step = 0.5;
  for (const IntegratorParams& params : {noisy, no_noise()}) {
    ParticleSystem serial(positions, types);
    sops::rng::Xoshiro256 serial_engine(77);
    {
      const SimdPolicyGuard scalar(sops::support::SimdPolicy::kScalar);
      for (int step = 0; step < 3; ++step) {
        apply_euler_maruyama_update(serial, drift, params,
                                               serial_engine);
      }
    }
    for (const auto policy : {sops::support::SimdPolicy::kScalar,
                              sops::support::SimdPolicy::kAuto}) {
      const SimdPolicyGuard guard(policy);
      for (std::size_t width = 1; width <= 5; ++width) {
        sops::support::TaskPool pool(width);
        ParticleSystem sharded(positions, types);
        sops::rng::Xoshiro256 engine(77);
        for (int step = 0; step < 3; ++step) {
          apply_euler_maruyama_update(sharded, drift, params,
                                                 engine, pool.executor());
        }
        for (std::size_t i = 0; i < positions.size(); ++i) {
          ASSERT_EQ(sharded.position(i), serial.position(i))
              << "width " << width << " particle " << i;
        }
        sops::rng::Xoshiro256 serial_next = serial_engine;
        EXPECT_EQ(engine(), serial_next()) << "width " << width;
      }
    }
  }
}

TEST(Integrator, EngineAdvancesOneWordPerNoisyStepAndNonePerQuiet) {
  ParticleSystem system({{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}},
                        {0, 0, 0, 0, 0});
  const std::vector<Vec2> drift(system.size(), Vec2{0.25, -0.5});
  IntegratorParams noisy;
  sops::rng::Xoshiro256 engine(9);
  sops::rng::Xoshiro256 shadow(9);
  sops::support::TaskPool pool(3);
  for (int step = 0; step < 4; ++step) {
    apply_euler_maruyama_update(system, drift, noisy, engine,
                                           pool.executor());
    (void)shadow();
    apply_euler_maruyama_update(system, drift, no_noise(), engine);
    sops::rng::Xoshiro256 probe = engine;
    sops::rng::Xoshiro256 shadow_probe = shadow;
    EXPECT_EQ(probe(), shadow_probe()) << "step " << step;
  }
}

TEST(Integrator, NoiseIsTheStepKeysCounterStream) {
  // Zero drift: each particle moves by exactly √dt·ς·ξ_i, with ξ the step
  // noise of the engine's next word at particle i.
  std::vector<Vec2> positions;
  for (int i = 0; i < 37; ++i) positions.push_back({0.5 * i, -0.25 * i});
  ParticleSystem system(positions,
                        std::vector<sops::sim::TypeId>(positions.size(), 0));
  const std::vector<Vec2> drift(positions.size(), Vec2{});
  IntegratorParams params;
  sops::rng::Xoshiro256 engine(123);
  sops::rng::Xoshiro256 peek = engine;
  const std::uint64_t key = peek();
  std::vector<double> xi_x(positions.size());
  std::vector<double> xi_y(positions.size());
  sops::rng::scalar_step_noise_kernels().normal_pairs(
      key, 0, positions.size(), xi_x.data(), xi_y.data());
  apply_euler_maruyama_update(system, drift, params, engine);
  const double scale =
      std::sqrt(params.dt) * std::sqrt(params.noise_variance);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec2 expected = positions[i] + Vec2{xi_x[i], xi_y[i]} * scale;
    EXPECT_EQ(system.position(i), expected) << i;
  }
}

}  // namespace
