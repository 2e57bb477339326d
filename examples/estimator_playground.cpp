// Estimator playground — measure multi-information of your own ensembles.
//
// Generates three reference ensembles with known ground truth (independent,
// pairwise-correlated, globally-coupled) and runs all three estimators of
// the library on each, so you can see what the numbers mean before pointing
// the pipeline at a particle system.
//
//   ./estimator_playground [samples] [dimensions]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include "example_args.hpp"

#include "core/sops.hpp"

namespace {

using namespace sops;

info::SampleMatrix make_ensemble(std::size_t m, std::size_t dim, double coupling,
                                 std::uint64_t seed) {
  rng::Xoshiro256 engine(seed);
  info::SampleMatrix samples(m, dim);
  for (std::size_t s = 0; s < m; ++s) {
    const double shared = rng::standard_normal(engine);
    for (std::size_t d = 0; d < dim; ++d) {
      samples(s, d) = coupling * shared +
                      std::sqrt(1.0 - coupling * coupling) *
                          rng::standard_normal(engine);
    }
  }
  return samples;
}

// Closed-form multi-information (bits) of d standard normals that all load
// on one shared factor with loading a: the covariance is (1−a²)I + a²·11ᵀ.
double equicorrelated_multi_information(std::size_t dim, double loading) {
  const double rho = loading * loading;
  const double d = static_cast<double>(dim);
  // I = ½ log₂ [ 1 / ((1 + (d−1)ρ)(1−ρ)^{d−1}) ].
  return -0.5 * (std::log2(1.0 + (d - 1.0) * rho) +
                 (d - 1.0) * std::log2(1.0 - rho));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = sops::examples::smoke_mode(argc, argv);
  const std::size_t m = smoke ? 60 : sops::examples::arg_or(argc, argv, 1, 600);
  const std::size_t dim = smoke ? 4 : sops::examples::arg_or(argc, argv, 2, 6);

  const auto blocks = info::uniform_blocks(dim, 1);
  // One pool of every hardware thread serves all the estimator calls.
  support::TaskPool pool(0);
  info::KsgOptions ksg_options;
  ksg_options.executor = &pool.executor();
  info::KdeOptions kde_options;
  kde_options.executor = &pool.executor();
  std::cout << "m = " << m << " samples, " << dim
            << " scalar observers\n\n"
            << std::setw(22) << "ensemble" << std::setw(10) << "truth"
            << std::setw(10) << "KSG" << std::setw(10) << "KL"
            << std::setw(10) << "KDE" << std::setw(12) << "binning\n";

  for (const auto& [name, coupling] :
       std::vector<std::pair<std::string, double>>{
           {"independent", 0.0}, {"weakly coupled", 0.45},
           {"strongly coupled", 0.85}}) {
    const info::SampleMatrix samples = make_ensemble(m, dim, coupling, 42);
    const double truth = equicorrelated_multi_information(dim, coupling);
    const double ksg =
        info::multi_information_ksg(samples, blocks, ksg_options);
    const double kl =
        info::multi_information_kl(samples, blocks, 4, pool.executor());
    const double kde =
        info::multi_information_kde(samples, blocks, kde_options);
    info::BinningOptions ml;
    ml.james_stein_shrinkage = false;
    const double binned = info::multi_information_binned(samples, blocks, ml);
    std::cout << std::setw(22) << name << std::fixed << std::setprecision(3)
              << std::setw(10) << truth << std::setw(10) << ksg
              << std::setw(10) << kl << std::setw(10) << kde << std::setw(10)
              << binned << "\n";
  }

  std::cout << "\nNotes: KSG is the paper's estimator (Eq. 18). KL is the\n"
               "entropy-difference cross-check. KDE and ML binning are the\n"
               "paper's rejected baselines — watch binning inflate with\n"
               "dimension (rerun with dimensions = 10).\n";
  return 0;
}
