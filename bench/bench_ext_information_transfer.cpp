// Extension — per-particle information transfer (the paper's §7.3 future
// work: "The methods developed in [24] promise to furnish tools to
// investigate the information dynamics between individual particles over
// time. We tried to measure the information transfer between particles, but
// so far the results are still inconclusive").
//
// We implement KSG-style transfer entropy and apply it twice:
//  (1) a validation rig with known directional coupling (leader/follower),
//      where TE must recover the direction; and
//  (2) the Fig. 4 collective, asking whether interacting neighbors exchange
//      more information than distant particles — the paper's open question.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  const auto args = bench::parse_args(argc, argv);
  bench::print_header(
      "Extension (par. 7.3): transfer entropy between particles",
      "TE recovers known coupling direction; in the collective, interacting "
      "pairs exchange more information than distant pairs",
      args);

  // One pool of every hardware thread serves every estimator call.
  support::TaskPool pool(0);
  info::TransferEntropyOptions te_options;
  te_options.executor = &pool.executor();

  // --- (1) Validation: leader/follower with known direction. -------------
  rng::Xoshiro256 engine(0x7E57);
  std::vector<std::vector<geom::Vec2>> chase_frames;
  geom::Vec2 leader{0, 0};
  geom::Vec2 follower{2, 0};
  const std::size_t chase_steps = args.steps(1500, 4000);
  for (std::size_t t = 0; t < chase_steps; ++t) {
    chase_frames.push_back({leader, follower});
    follower += (leader - follower) * 0.25 + rng::normal_vec2(engine, 0.05);
    leader += rng::normal_vec2(engine, 0.3);
  }
  const double te_forward =
      info::particle_transfer_entropy(chase_frames, 0, 1, te_options);
  const double te_backward =
      info::particle_transfer_entropy(chase_frames, 1, 0, te_options);
  std::cout << "leader -> follower TE: " << te_forward << " bits\n"
            << "follower -> leader TE: " << te_backward << " bits\n\n";

  // --- (2) The collective: TE vs interaction distance. -------------------
  sim::SimulationConfig simulation = core::presets::fig4_three_type_collective();
  simulation.steps = args.steps(2000, 4000);  // long series for the estimator
  simulation.record_stride = 1;
  simulation.seed = 0x7E58;
  const sim::Trajectory trajectory = sim::run_simulation(simulation);

  // Classify particle pairs by their mean distance over the second half of
  // the run (interacting: within r_c; distant: beyond 2 r_c).
  const std::size_t n = trajectory.particle_count();
  const std::size_t half = trajectory.frames.size() / 2;
  auto mean_distance = [&](std::size_t a, std::size_t b) {
    double total = 0.0;
    for (std::size_t f = half; f < trajectory.frames.size(); ++f) {
      total += geom::dist(trajectory.frames[f][a], trajectory.frames[f][b]);
    }
    return total / static_cast<double>(trajectory.frames.size() - half);
  };

  std::vector<double> near_te;
  std::vector<double> far_te;
  // Sample a deterministic subset of pairs to keep the run short.
  for (std::size_t a = 0; a < n && near_te.size() + far_te.size() < 60;
       a += 3) {
    for (std::size_t b = a + 1; b < n; b += 5) {
      const double d = mean_distance(a, b);
      if (d < simulation.cutoff_radius && near_te.size() < 30) {
        near_te.push_back(info::particle_transfer_entropy(
            trajectory.frames, a, b, te_options));
      } else if (d > 2.0 * simulation.cutoff_radius && far_te.size() < 30) {
        far_te.push_back(info::particle_transfer_entropy(
            trajectory.frames, a, b, te_options));
      }
    }
  }
  auto mean_of = [](const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return values.empty() ? 0.0 : total / static_cast<double>(values.size());
  };
  const double near_mean = mean_of(near_te);
  const double far_mean = mean_of(far_te);
  std::cout << "interacting pairs (d < r_c):  mean TE = " << near_mean
            << " bits over " << near_te.size() << " pairs\n"
            << "distant pairs (d > 2 r_c):    mean TE = " << far_mean
            << " bits over " << far_te.size() << " pairs\n\n";

  io::CsvTable table;
  table.header = {"pair_class", "mean_te_bits", "pairs"};
  table.add_row({0.0, near_mean, static_cast<double>(near_te.size())});
  table.add_row({1.0, far_mean, static_cast<double>(far_te.size())});
  bench::dump_csv("ext_information_transfer.csv", table);

  bool all = true;
  all &= bench::check(te_forward > 2.0 * std::max(te_backward, 0.01),
                      "TE recovers the known leader->follower direction");
  all &= bench::check(te_backward < 0.15,
                      "no spurious reverse transfer on the validation rig");
  all &= bench::check(!near_te.empty() && !far_te.empty(),
                      "both pair classes sampled in the collective");
  all &= bench::check(near_mean > far_mean,
                      "interacting pairs exchange more information than "
                      "distant pairs (the paper's open question, answered "
                      "affirmatively here)");

  std::cout << (all ? "RESULT: extension validated\n"
                    : "RESULT: MISMATCH against expectation\n");
  return 0;
}
