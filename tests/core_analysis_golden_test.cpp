// Golden pins for the analysis layer: the I(t) curve of two small fixed-seed
// jobs, bit for bit. Engine pins (engine_backend_test) fix the recordings;
// these fix everything downstream of them — centering, ICP alignment, the
// same-type matcher, k-means coarse-graining, and the KSG estimator. The
// values were captured from the cold-start ICP descent (every
// correspondence query unbounded); warm-started queries must reproduce them
// exactly. Any change here is a numerics change under the golden-pin policy;
// the t > 0 values were re-captured when the step noise became the
// counter-based stream of rng/step_noise.hpp, the spring collective's
// again when the cell grid's drift began computing each pair once, and the
// fig4 collective's when the all-pairs drift did too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/config_builder.hpp"
#include "io/config.hpp"

namespace {

struct Pin {
  std::size_t step;
  double multi_information;
};

void expect_result(const sops::core::AnalysisResult& result, bool coarse,
                   std::size_t observers, const std::vector<Pin>& pins) {
  EXPECT_EQ(result.coarse_grained, coarse);
  EXPECT_EQ(result.observer_count, observers);
  ASSERT_EQ(result.points.size(), pins.size());
  for (std::size_t f = 0; f < pins.size(); ++f) {
    EXPECT_EQ(result.points[f].step, pins[f].step);
    EXPECT_EQ(result.points[f].multi_information, pins[f].multi_information)
        << "frame " << f << ": got " << std::hexfloat
        << result.points[f].multi_information;
  }
}

// Checks the pins at the default pool width (0: every hardware thread) and
// at widths 1, 2, 3 and 5 — the 3-frame jobs meet fewer frames than workers
// and widths that divide no row count.
void expect_pinned(const std::string& config_text, bool coarse,
                   std::size_t observers, const std::vector<Pin>& pins) {
  const sops::core::ConfiguredExperiment configured =
      sops::core::build_experiment(sops::io::Config::parse(config_text));
  const sops::core::EnsembleSeries series =
      sops::core::run_experiment(configured.experiment);
  for (const std::size_t threads : {0, 1, 2, 3, 5}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    sops::core::AnalysisOptions options = configured.analysis;
    options.threads = threads;
    expect_result(sops::core::analyze_self_organization(series, options),
                  coarse, observers, pins);
  }
}

// n = 128 spring collective: above coarse_grain_above, so every frame runs
// ICP on 128-point clouds, then k-means to 3 types x 4 observers.
TEST(AnalysisGolden, CoarseGrainedSpringCollective) {
  expect_pinned(
      "types = 3\nforce = spring\nk = 1\n"
      "r = 2.5 5 4; 5 2.5 2; 4 2 3.5\nrc = 5\n"
      "particles = 128\ninit_radius = 8\nsamples = 24\n"
      "steps = 50\nstride = 25\nseed = 1000\n",
      true, 12,
      {{0, 0x1.1b29ec4ebfe5ap-4},
       {25, -0x1.78c2b83653abdp-5},
       {50, 0x1.1d308dd7c6691p-2}});
}

// The paper's fig4 collective (n = 50, every particle an observer).
TEST(AnalysisGolden, Fig4Collective) {
  expect_pinned(
      "preset = fig4\nsamples = 40\nsteps = 50\nstride = 25\nseed = 1000\n",
      false, 50,
      {{0, -0x1.e63c9067da297p-7},
       {25, 0x1.679cc7fac498ap-1},
       {50, 0x1.3356baac6ad03p+0}});
}

}  // namespace
