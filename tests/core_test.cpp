// Core pipeline tests: ensemble experiments, the self-organization
// analyzer, presets, and the paper's central integration claims —
// an interacting collective self-organizes (ΔI > 0), a non-interacting
// one does not (§3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"

namespace {

using sops::core::AnalysisOptions;
using sops::core::AnalysisResult;
using sops::core::analyze_self_organization;
using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::run_experiment;

// Small-but-real experiment: Fig. 4 system scaled down for test budget.
ExperimentConfig small_experiment(std::size_t samples = 40,
                                  std::size_t steps = 30) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = steps;
  simulation.record_stride = steps;  // record only first and last frame
  ExperimentConfig experiment(simulation);
  experiment.samples = samples;
  return experiment;
}

TEST(Experiment, ShapeOfSeries) {
  const EnsembleSeries series = run_experiment(small_experiment(10, 20));
  EXPECT_EQ(series.sample_count(), 10u);
  EXPECT_EQ(series.particle_count(), 50u);
  EXPECT_EQ(series.frame_steps, (std::vector<std::size_t>{0, 20}));
  EXPECT_EQ(series.frames.size(), 2u);
  EXPECT_EQ(series.frames[0].size(), 10u);
  EXPECT_EQ(series.equilibrium_steps.size(), 10u);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const EnsembleSeries a = run_experiment(small_experiment(6, 10));
  const EnsembleSeries b = run_experiment(small_experiment(6, 10));
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    for (std::size_t s = 0; s < a.frames[f].size(); ++s) {
      for (std::size_t i = 0; i < a.frames[f][s].size(); ++i) {
        EXPECT_EQ(a.frames[f][s][i], b.frames[f][s][i]);
      }
    }
  }
}

TEST(Experiment, ThreadCountDoesNotChangeTrajectories) {
  ExperimentConfig serial = small_experiment(6, 10);
  serial.threads = 1;
  ExperimentConfig parallel = small_experiment(6, 10);
  parallel.threads = 4;
  const EnsembleSeries a = run_experiment(serial);
  const EnsembleSeries b = run_experiment(parallel);
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    for (std::size_t s = 0; s < a.frames[f].size(); ++s) {
      for (std::size_t i = 0; i < a.frames[f][s].size(); ++i) {
        EXPECT_EQ(a.frames[f][s][i], b.frames[f][s][i]);
      }
    }
  }
}

TEST(Experiment, SamplesDiffer) {
  const EnsembleSeries series = run_experiment(small_experiment(3, 5));
  EXPECT_NE(series.frames[0][0][0], series.frames[0][1][0]);
}

TEST(Experiment, StopAtEquilibriumRejected) {
  ExperimentConfig config = small_experiment(3, 5);
  config.simulation.stop_at_equilibrium = true;
  EXPECT_THROW((void)run_experiment(config), sops::PreconditionError);
}

TEST(Experiment, EquilibriumFractionInRange) {
  const EnsembleSeries series = run_experiment(small_experiment(8, 15));
  EXPECT_GE(series.equilibrium_fraction(), 0.0);
  EXPECT_LE(series.equilibrium_fraction(), 1.0);
}

TEST(Analyzer, InteractingCollectiveSelfOrganizes) {
  // The headline claim: the Fig. 4 system shows increasing
  // multi-information (§6).
  const EnsembleSeries series = run_experiment(small_experiment(80, 80));
  const AnalysisResult result = analyze_self_organization(series);
  EXPECT_EQ(result.observer_count, 50u);
  EXPECT_FALSE(result.coarse_grained);
  EXPECT_GT(result.delta_mi(), 0.5) << "expected self-organization";
  EXPECT_TRUE(result.self_organizing());
}

TEST(Analyzer, NonInteractingControlDoesNot) {
  // §3.1: "for a completely random process this measure never detects any
  // self-organization."
  sops::sim::SimulationConfig simulation =
      sops::core::presets::noninteracting_control(12);
  simulation.steps = 40;
  simulation.record_stride = 40;
  ExperimentConfig experiment(simulation);
  experiment.samples = 60;
  const AnalysisResult result =
      analyze_self_organization(run_experiment(experiment));
  EXPECT_LT(std::abs(result.delta_mi()), 0.6);
  EXPECT_FALSE(result.self_organizing(0.6));
}

TEST(Analyzer, PointsCarryStepsAndCurveHelpers) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 20;
  simulation.record_stride = 10;
  ExperimentConfig experiment(simulation);
  experiment.samples = 12;
  const AnalysisResult result =
      analyze_self_organization(run_experiment(experiment));
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.points[0].step, 0u);
  EXPECT_EQ(result.points[1].step, 10u);
  EXPECT_EQ(result.points[2].step, 20u);
  EXPECT_EQ(result.steps(), (std::vector<double>{0.0, 10.0, 20.0}));
  EXPECT_EQ(result.mi_values().size(), 3u);
}

TEST(Analyzer, EntropyCurvesOnRequest) {
  ExperimentConfig experiment = small_experiment(30, 20);
  AnalysisOptions options;
  options.compute_entropies = true;
  const AnalysisResult result =
      analyze_self_organization(run_experiment(experiment), options);
  for (const auto& point : result.points) {
    EXPECT_TRUE(std::isfinite(point.joint_entropy));
    EXPECT_TRUE(std::isfinite(point.marginal_entropy_sum));
  }
  // §6: "over time, the marginal entropies decrease". The 2-D marginal KL
  // estimates are reliable at this sample size (unlike the 100-D joint,
  // whose small-m bias dwarfs the signal — hence no joint-based assertion).
  EXPECT_LT(result.points.back().marginal_entropy_sum,
            result.points.front().marginal_entropy_sum);
}

TEST(Analyzer, DecompositionOnRequest) {
  ExperimentConfig experiment = small_experiment(30, 20);
  AnalysisOptions options;
  options.compute_decomposition = true;
  const AnalysisResult result =
      analyze_self_organization(run_experiment(experiment), options);
  const auto& d = result.points.back().decomposition;
  EXPECT_EQ(d.within_group.size(), 3u);  // three types
  EXPECT_TRUE(std::isfinite(d.between_groups));
  EXPECT_TRUE(std::isfinite(d.reconstructed()));
  // The exact Eq. (5) identity is verified in info_decomposition_test at a
  // proper m/n ratio; at m = 30 samples of 50 observers the per-term biases
  // dominate, so here we only require each term to be a plausible
  // information value (the within/between split not exploding).
  EXPECT_GT(d.reconstructed(), -1.0);
  EXPECT_LT(d.reconstructed(), 60.0);
}

TEST(Analyzer, CoarseGrainingKicksInAboveThreshold) {
  ExperimentConfig experiment = small_experiment(12, 10);
  AnalysisOptions options;
  options.coarse_grain_above = 10;  // n = 50 > 10 → coarse-grained
  options.kmeans_per_type = 3;
  const AnalysisResult result =
      analyze_self_organization(run_experiment(experiment), options);
  EXPECT_TRUE(result.coarse_grained);
  EXPECT_EQ(result.observer_count, 9u);  // 3 types × 3 clusters
}

TEST(Analyzer, DeltaHelpersOnSyntheticPoints) {
  AnalysisResult result;
  result.points = {{0, 1.0, 0, 0, {}}, {10, 3.0, 0, 0, {}}, {20, 2.0, 0, 0, {}}};
  EXPECT_DOUBLE_EQ(result.delta_mi(), 1.0);
  EXPECT_DOUBLE_EQ(result.peak_delta_mi(), 2.0);
  EXPECT_TRUE(result.self_organizing(0.5));
  EXPECT_FALSE(result.self_organizing(1.5));
}

TEST(Analyzer, PreconditionsEnforced) {
  const EnsembleSeries series = run_experiment(small_experiment(5, 5));
  AnalysisOptions options;
  options.ksg.k = 4;  // needs ≥ 5 samples
  EXPECT_NO_THROW((void)analyze_self_organization(series, options));
  options.ksg.k = 5;
  EXPECT_THROW((void)analyze_self_organization(series, options),
               sops::PreconditionError);
}

AnalysisOptions full_analysis() {
  AnalysisOptions options;
  options.compute_entropies = true;
  options.compute_decomposition = true;
  return options;
}

// Every curve the analyzer computes, compared bit for bit.
void expect_identical(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.observer_count, b.observer_count);
  EXPECT_EQ(a.coarse_grained, b.coarse_grained);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t f = 0; f < a.points.size(); ++f) {
    const auto& p = a.points[f];
    const auto& q = b.points[f];
    EXPECT_EQ(p.step, q.step);
    EXPECT_EQ(p.multi_information, q.multi_information);
    EXPECT_EQ(p.joint_entropy, q.joint_entropy);
    EXPECT_EQ(p.marginal_entropy_sum, q.marginal_entropy_sum);
    EXPECT_EQ(p.decomposition.total, q.decomposition.total);
    EXPECT_EQ(p.decomposition.between_groups, q.decomposition.between_groups);
    EXPECT_EQ(p.decomposition.within_group, q.decomposition.within_group);
  }
}

TEST(Analyzer, CacheKnobDoesNotChangeResults) {
  const EnsembleSeries series = run_experiment(small_experiment(12, 20));
  AnalysisOptions uncached = full_analysis();
  uncached.reuse_neighbor_cache = false;
  expect_identical(analyze_self_organization(series, full_analysis()),
                   analyze_self_organization(series, uncached));
}

TEST(Analyzer, FullyResumedShardAnalyzesLikeTheFreshRun) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "analyzer_resume.shard")
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");

  ExperimentConfig experiment = small_experiment(12, 20);
  experiment.shard.path = path;
  const AnalysisResult fresh =
      analyze_self_organization(run_experiment(experiment), full_analysis());

  // The resumed run finds every sample complete and simulates none: its
  // whole recording is read back from the shard file.
  experiment.shard.resume = true;
  const EnsembleSeries resumed = run_experiment(experiment);
  EXPECT_EQ(resumed.resumed_samples, resumed.sample_count());
  expect_identical(analyze_self_organization(resumed, full_analysis()), fresh);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
}

TEST(Analyzer, RaisedTokenCancelsBeforeAnyFrame) {
  const EnsembleSeries series = run_experiment(small_experiment(12, 10));
  // An analysis whose first frame would throw a PreconditionError
  // (coarse_grain_ensemble rejects zero clusters): only CancelledError
  // escaping shows that no frame was analyzed.
  AnalysisOptions options;
  options.coarse_grain_above = 10;
  options.kmeans_per_type = 0;
  EXPECT_THROW((void)analyze_self_organization(series, options),
               sops::PreconditionError);
  sops::support::CancelToken token;
  token.request();
  EXPECT_THROW((void)analyze_self_organization(series, options, &token),
               sops::CancelledError);
  // An unraised token changes nothing.
  const sops::support::CancelToken idle;
  expect_identical(analyze_self_organization(series, {}, &idle),
                   analyze_self_organization(series));
}

TEST(Presets, Fig4MatchesCaption) {
  const auto config = sops::core::presets::fig4_three_type_collective();
  EXPECT_EQ(config.types.size(), 50u);
  EXPECT_EQ(config.model.types(), 3u);
  EXPECT_DOUBLE_EQ(config.cutoff_radius, 5.0);
  EXPECT_DOUBLE_EQ(config.model.pair(0, 1).r, 5.0);
  EXPECT_DOUBLE_EQ(config.model.pair(1, 2).r, 2.0);
  EXPECT_DOUBLE_EQ(config.model.pair(0, 2).r, 4.0);
  EXPECT_DOUBLE_EQ(config.model.pair(0, 0).r, 2.5);
}

TEST(Presets, Fig5IsSingleTypeUnbounded) {
  const auto config = sops::core::presets::fig5_single_type_rings();
  EXPECT_EQ(config.model.types(), 1u);
  EXPECT_EQ(config.types.size(), 20u);
  EXPECT_FALSE(std::isfinite(config.cutoff_radius));
}

TEST(Presets, Fig9CutoffAndRangesHonored) {
  const auto config = sops::core::presets::fig9_random_types(20, 7.5, 0);
  EXPECT_EQ(config.model.types(), 20u);
  EXPECT_DOUBLE_EQ(config.cutoff_radius, 7.5);
  for (std::size_t a = 0; a < 20; ++a) {
    for (std::size_t b = a; b < 20; ++b) {
      EXPECT_DOUBLE_EQ(config.model.pair(a, b).k, 1.0);
      EXPECT_GE(config.model.pair(a, b).r, 2.0);
      EXPECT_LE(config.model.pair(a, b).r, 8.0);
    }
  }
}

TEST(Presets, Fig9MatrixIndexChangesModel) {
  const auto a = sops::core::presets::fig9_random_types(5, 10.0, 0);
  const auto b = sops::core::presets::fig9_random_types(5, 10.0, 1);
  EXPECT_NE(a.model.r_matrix(), b.model.r_matrix());
}

TEST(Presets, Fig8RealizesPreferredDistances) {
  const auto config = sops::core::presets::fig8_f2_random_types(20, 4, 0);
  EXPECT_EQ(config.model.kind(), sops::sim::ForceLawKind::kDoubleGaussian);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a; b < 4; ++b) {
      const auto crossing = sops::sim::preferred_distance(
          sops::sim::ForceLawKind::kDoubleGaussian, config.model.pair(a, b));
      ASSERT_TRUE(crossing.has_value());
      EXPECT_GE(*crossing, 1.0 - 1e-6);
      EXPECT_LE(*crossing, 5.0 + 1e-6);
    }
  }
}

TEST(Presets, ControlHasZeroCoupling) {
  const auto config = sops::core::presets::noninteracting_control(10);
  EXPECT_DOUBLE_EQ(config.model.pair(0, 0).k, 0.0);
}

}  // namespace
