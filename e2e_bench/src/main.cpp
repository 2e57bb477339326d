// e2e_bench — the end-to-end job benchmark program (see ../README.md).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --sopsd <path> [--tiny] [--commit <sha>] [--source-digest <hex>]
//
// Every job gets the machine's thread budget (the CPUs this process may run
// on, as `nproc` counts them). Trace files and sopsd's private directories
// go to .bench_out/ under the working directory.
//
// Prints one `metric <name> = <value> <unit> (<how measured>)` line per
// metric, the failures if any, the error rate, and as the last line the
// JSON result {"correct", "attempted", "failed", "metrics"}. Exits 0 only
// when every job succeeded and every correctness check held.
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int usage() {
  std::cerr << "usage: e2e_bench --workload <fig4_m500|coarse_n512|collective_16k|"
               "sopsd_closed3> --seed <n> --seconds <s> --trace <0|1> --sopsd <path>\n"
               "                 [--tiny] [--commit <sha>] [--source-digest <hex>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.threads = available_cpus();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--tiny") {
        options.tiny = true;
      } else if (!has_value) {
        return usage();
      } else if (arg == "--workload") {
        options.workload = argv[++i];
      } else if (arg == "--seed") {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace") {
        options.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--sopsd") {
        options.sopsd = argv[++i];
      } else if (arg == "--commit") {
        options.commit = argv[++i];
      } else if (arg == "--source-digest") {
        options.source_digest = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!e2e::is_workload(options.workload)) return usage();

  e2e::install_signal_handlers();
  std::cout << "host " << e2e::host_json(options) << "\n"
            << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace " << options.trace
            << (options.tiny ? " tiny" : "") << std::endl;

  e2e::Report report;
  try {
    e2e::warm_up(options.threads, options.tiny ? 0.05 : 1.0);
    if (options.workload == e2e::kService) {
      e2e::run_service(options, report);
    } else {
      e2e::run_batch(options, report);
    }
  } catch (const e2e::Interrupted&) {
    std::cerr << "e2e_bench: interrupted\n";
    return 130;
  } catch (const std::exception& error) {
    report.check(false, std::string("run aborted: ") + error.what());
  }
  if (e2e::g_interrupted.load()) {
    std::cerr << "e2e_bench: interrupted\n";
    return 130;
  }

  // Every metric of this mode's set, in its unit, finite — and nothing else.
  const auto& specs =
      options.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
  std::set<std::string> expected;
  for (const e2e::MetricSpec& spec : specs) {
    expected.insert(spec.name);
    report.check(report.reports(spec.name, spec.unit),
                 std::string("metric ") + spec.name + " reported, finite, in " +
                     spec.unit);
  }
  for (const std::string& name : report.metric_names()) {
    report.check(expected.count(name) != 0, "unexpected metric " + name);
  }

  report.print(std::cout);
  return report.correct() ? 0 : 1;
}
