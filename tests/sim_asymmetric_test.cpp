// Asymmetric-interaction tests: exact reduction to the symmetric path,
// the §4.1 cycling phenomenology, and model validation.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/asymmetric.hpp"
#include "sim/detectors.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::Vec2;
using sops::sim::accumulate_drift;
using sops::sim::accumulate_drift_asymmetric;
using sops::sim::AsymmetricInteractionModel;
using sops::sim::ForceLawKind;
using sops::sim::FullMatrix;
using sops::sim::InteractionModel;
using sops::sim::kUnboundedRadius;
using sops::sim::make_chaser_evader_model;
using sops::sim::PairParams;
using sops::sim::ParticleSystem;

TEST(FullMatrix, StoresOrderedEntries) {
  FullMatrix m(2);
  m.set(0, 1, 3.0);
  m.set(1, 0, 7.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_FALSE(m.is_symmetric());
  m.set(1, 0, 3.0);
  EXPECT_TRUE(m.is_symmetric());
}

TEST(FullMatrix, OutOfRangeThrows) {
  FullMatrix m(2);
  EXPECT_THROW((void)m(0, 2), sops::PreconditionError);
  EXPECT_THROW(m.set(2, 0, 1.0), sops::PreconditionError);
}

TEST(AsymmetricModel, SymmetricSpecialCaseMatchesSymmetricPath) {
  // With symmetric parameters, the asymmetric drift must equal the
  // symmetric accumulate_drift exactly.
  InteractionModel symmetric(ForceLawKind::kSpring, 2,
                             PairParams{1.5, 2.0, 1.0, 1.0});
  symmetric.set_r(0, 1, 3.0);

  AsymmetricInteractionModel asymmetric(ForceLawKind::kSpring, 2,
                                        PairParams{1.5, 2.0, 1.0, 1.0});
  asymmetric.set_r(0, 1, 3.0);
  asymmetric.set_r(1, 0, 3.0);
  EXPECT_TRUE(asymmetric.is_symmetric());

  ParticleSystem system({{0, 0}, {1.2, 0.4}, {-0.7, 2.0}, {3.0, 1.0}},
                        {0, 1, 0, 1});
  std::vector<Vec2> a;
  std::vector<Vec2> b;
  sops::geom::NeighborBackend backend(sops::geom::NeighborBackendKind::kAllPairs);
  accumulate_drift(system, sops::sim::PairScalingTable(symmetric),
                   kUnboundedRadius, a, backend, sops::support::serial_executor());
  accumulate_drift_asymmetric(system, asymmetric, kUnboundedRadius, b);
  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_NEAR(a[i].x, b[i].x, 1e-12) << i;
    EXPECT_NEAR(a[i].y, b[i].y, 1e-12) << i;
  }
}

TEST(AsymmetricModel, OrderedPairsFeelDifferentForces) {
  const AsymmetricInteractionModel model = make_chaser_evader_model(1.0, 3.0);
  ParticleSystem system({{0, 0}, {2, 0}}, {0, 1});
  std::vector<Vec2> drift;
  accumulate_drift_asymmetric(system, model, kUnboundedRadius, drift);
  // Chaser (type 0) at distance 2 > chase r = 1: attracted (+x toward prey).
  EXPECT_GT(drift[0].x, 0.0);
  // Evader (type 1) at distance 2 < evade r = 3: repelled (+x away from 0).
  EXPECT_GT(drift[1].x, 0.0);
  // Net momentum is NOT conserved (no action–reaction): totals differ from 0.
  EXPECT_NE(drift[0].x + drift[1].x, 0.0);
}

TEST(AsymmetricModel, ChaserEvaderNeverEquilibrates) {
  // The §4.1 claim: mutually incompatible preferred distances produce
  // persistent motion — the equilibrium criterion never fires.
  const AsymmetricInteractionModel model = make_chaser_evader_model(1.0, 3.0);
  ParticleSystem system({{0, 0}, {2, 0}}, {0, 1});
  sops::rng::Xoshiro256 engine(3);
  sops::sim::IntegratorParams params;
  params.noise_variance = 0.0;  // cycling is deterministic, not noise-driven
  sops::sim::EquilibriumDetector detector(0.05, 10);
  std::vector<Vec2> scratch;
  bool equilibrated = false;
  for (int step = 0; step < 3000; ++step) {
    const double residual = sops::sim::euler_maruyama_step_asymmetric(
        system, model, kUnboundedRadius, params, engine, scratch);
    equilibrated |= detector.update(residual);
  }
  EXPECT_FALSE(equilibrated);
  // Yet the pair remains bounded (a chase, not an explosion): the distance
  // stays between the two preferred radii once the transient passes.
  const double d = dist(system.position(0), system.position(1));
  EXPECT_GT(d, 0.5);
  EXPECT_LT(d, 10.0);
}

TEST(AsymmetricModel, SymmetricSystemDoesEquilibrate) {
  // Control for the test above: the symmetric version of the same geometry
  // settles (showing it is the asymmetry that prevents equilibrium).
  AsymmetricInteractionModel model(ForceLawKind::kSpring, 2,
                                   PairParams{1.0, 2.0, 1.0, 1.0});
  ParticleSystem system({{0, 0}, {0.5, 0}}, {0, 1});
  sops::rng::Xoshiro256 engine(5);
  sops::sim::IntegratorParams params;
  params.noise_variance = 0.0;
  sops::sim::EquilibriumDetector detector(0.05, 10);
  std::vector<Vec2> scratch;
  bool equilibrated = false;
  for (int step = 0; step < 3000 && !equilibrated; ++step) {
    const double residual = sops::sim::euler_maruyama_step_asymmetric(
        system, model, kUnboundedRadius, params, engine, scratch);
    equilibrated = detector.update(residual);
  }
  EXPECT_TRUE(equilibrated);
}

TEST(AsymmetricModel, CutoffRespected) {
  const AsymmetricInteractionModel model = make_chaser_evader_model();
  ParticleSystem system({{0, 0}, {50, 0}}, {0, 1});
  std::vector<Vec2> drift;
  accumulate_drift_asymmetric(system, model, 5.0, drift);
  EXPECT_DOUBLE_EQ(drift[0].x, 0.0);
  EXPECT_DOUBLE_EQ(drift[1].x, 0.0);
}

TEST(AsymmetricModel, ValidationThrows) {
  EXPECT_THROW(AsymmetricInteractionModel(ForceLawKind::kSpring, 0),
               sops::PreconditionError);
  AsymmetricInteractionModel model(ForceLawKind::kSpring, 2);
  EXPECT_THROW(model.set_r(0, 1, -1.0), sops::PreconditionError);
  EXPECT_THROW(model.set_sigma(0, 1, 0.0), sops::PreconditionError);
  EXPECT_THROW((void)make_chaser_evader_model(3.0, 1.0),
               sops::PreconditionError);  // evade must exceed chase

  ParticleSystem system({{0, 0}}, {5});
  std::vector<Vec2> drift;
  EXPECT_THROW(accumulate_drift_asymmetric(system, model, 1.0, drift),
               sops::PreconditionError);
}

}  // namespace
