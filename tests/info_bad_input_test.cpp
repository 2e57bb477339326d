// Bad estimator input gives a named error: a non-finite coordinate or an
// empty / out-of-range block throws PreconditionError from every estimator,
// instead of a finite-looking number, a NaN, or an out-of-bounds read.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "info/binning.hpp"
#include "info/entropy.hpp"
#include "info/kde.hpp"
#include "info/ksg.hpp"
#include "info/neighbor_cache.hpp"
#include "info/transfer_entropy.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::SampleMatrix;
using sops::support::serial_executor;

SampleMatrix gaussian_matrix(std::size_t m, std::size_t dim) {
  sops::rng::Xoshiro256 engine(97);
  SampleMatrix samples(m, dim);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      samples(s, d) = sops::rng::standard_normal(engine);
    }
  }
  return samples;
}

struct BadInput {
  std::string name;
  SampleMatrix samples;  // 200 × 4
  Block probe;           // the block each estimator is handed first
};

// Each estimator takes the matrix and the probe block: the single-block
// entry points estimate on the probe, the multi-block ones use it as the
// first observer next to valid blocks over columns 2 and 3.
struct Estimator {
  std::string name;
  std::function<void(const SampleMatrix&, const Block&)> call;
};

TEST(EstimatorInput, BadInputThrowsPreconditionErrorFromEveryEstimator) {
  const SampleMatrix clean = gaussian_matrix(200, 4);
  SampleMatrix with_nan = clean;
  with_nan(17, 1) = std::numeric_limits<double>::quiet_NaN();
  SampleMatrix with_inf = clean;
  with_inf(17, 1) = std::numeric_limits<double>::infinity();
  const std::vector<BadInput> inputs = {
      {"NaN coordinate", with_nan, Block{0, 2}},
      {"+inf coordinate", with_inf, Block{0, 2}},
      {"empty block", clean, Block{0, 0}},
      {"block past the last column", clean, Block{3, 5}},
  };

  const std::vector<Estimator> estimators = {
      {"multi_information_ksg",
       [](const SampleMatrix& samples, const Block& probe) {
         const std::vector<Block> blocks = {probe, Block{2, 2}};
         (void)sops::info::multi_information_ksg(samples, blocks);
       }},
      {"entropy_kl_block",
       [](const SampleMatrix& samples, const Block& probe) {
         (void)sops::info::entropy_kl_block(samples, probe, 4,
                                            serial_executor());
       }},
      {"multi_information_kl",
       [](const SampleMatrix& samples, const Block& probe) {
         const std::vector<Block> blocks = {probe, Block{2, 2}};
         (void)sops::info::multi_information_kl(samples, blocks, 4,
                                                serial_executor());
       }},
      {"conditional_mutual_information_ksg",
       [](const SampleMatrix& samples, const Block& probe) {
         (void)sops::info::conditional_mutual_information_ksg(
             samples, probe, Block{2, 1}, Block{3, 1});
       }},
      {"kde_log2_density",
       [](const SampleMatrix& samples, const Block& probe) {
         (void)sops::info::kde_log2_density(samples, probe);
       }},
      {"binned_entropy",
       [](const SampleMatrix& samples, const Block& probe) {
         (void)sops::info::binned_entropy(samples, probe,
                                          sops::info::BinningOptions{});
       }},
      {"multi_information_binned",
       [](const SampleMatrix& samples, const Block& probe) {
         const std::vector<Block> blocks = {probe, Block{2, 2}};
         (void)sops::info::multi_information_binned(samples, blocks);
       }},
  };

  for (const BadInput& input : inputs) {
    for (const Estimator& estimator : estimators) {
      EXPECT_THROW(estimator.call(input.samples, input.probe),
                   sops::PreconditionError)
          << estimator.name << " accepted a " << input.name;
    }
  }

  // The whole-matrix entry points reject a non-finite coordinate too, on
  // the exhaustive and the cached-tree KL paths alike.
  for (const SampleMatrix* samples : {&with_nan, &with_inf}) {
    EXPECT_THROW((void)sops::info::entropy_kl(*samples, 4, serial_executor()),
                 sops::PreconditionError);
    sops::info::FrameNeighborCache cache(*samples);
    EXPECT_THROW(
        (void)sops::info::entropy_kl(*samples, 4, serial_executor(), &cache),
        sops::PreconditionError);
    const std::vector<Block> blocks = {Block{0, 2}, Block{2, 2}};
    EXPECT_THROW((void)sops::info::multi_information_kde(*samples, blocks),
                 sops::PreconditionError);
  }

  // A non-finite coordinate outside a single-block estimator's block is
  // not its input: the block's estimate stays defined.
  EXPECT_NO_THROW((void)sops::info::entropy_kl_block(with_nan, Block{2, 2}, 4,
                                                     serial_executor()));
  EXPECT_NO_THROW((void)sops::info::kde_log2_density(with_nan, Block{2, 2}));
  EXPECT_NO_THROW((void)sops::info::binned_entropy(
      with_nan, Block{2, 2}, sops::info::BinningOptions{}));
}

}  // namespace
