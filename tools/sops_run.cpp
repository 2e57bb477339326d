// sops_run — configuration-driven experiment runner and sopsd client.
//
// Batch mode runs a full measure-self-organization pipeline from a
// key=value config file (see core/config_builder.hpp for the key
// reference), prints the I(t) curve, and writes the per-step results as
// CSV:
//
//   sops_run experiment.conf [output.csv]
//
// Example config:
//
//   preset  = fig4        # or a custom system, see docs
//   samples = 200
//   steps   = 250
//   stride  = 25
//   entropies = true
//   output  = fig4.csv
//
// Batch runs execute through the same core::JobManager the sopsd daemon
// uses — one job slot spanning the whole machine — so batch and service
// execution are literally the same code path, Ctrl-C drains cleanly
// (cooperative cancellation: spill files unlinked, shard manifests left
// valid), and a spill-flush I/O error fails the run with a named error
// instead of reporting success over a recording that never reached disk.
//
// Distributed / crash-safe ensembles record into durable shards:
//
//   sops_run experiment.conf --shard k/N --out runs/shard_k.shard
//       runs sample slots chunk k of N into a persist-mode shard file plus
//       a `.manifest` sidecar tracking per-sample completion. Disjoint
//       shards of one ensemble can run concurrently in separate processes.
//   sops_run experiment.conf --shard k/N --out runs/shard_k.shard --resume
//       reopens a matching shard (validated against the config) and skips
//       samples already marked complete — restart after a crash or kill
//       and the combined recording is bitwise-identical to an
//       uninterrupted run.
//   sops_run --merge runs/full.shard runs/shard_0.shard runs/shard_1.shard ...
//       verifies N completed shards (same config hash/grid/seed, disjoint
//       slot ranges covering every sample) and assembles them into one
//       recording — itself a valid 1-shard file.
//   sops_run experiment.conf --out runs/full.shard --resume
//       on a fully-complete shard (e.g. a merge output) runs zero samples
//       and goes straight to analysis — the "analyze a recording" path.
//
// Analysis runs once the last sample is recorded, frame by frame on the
// job's whole thread budget; the reported analysis time covers that phase
// alone.
//
// Against a running `sopsd` daemon (see tools/sopsd.cpp), the client
// subcommands speak the unix-socket frame protocol:
//
//   sops_run submit <config-file>      [--socket <path>]
//   sops_run status [<job-id>]         [--socket <path>]
//   sops_run cancel <job-id>           [--socket <path>]
//   sops_run watch  <job-id>           [--socket <path>] [--save <dir>]
//
// `watch` streams the job live: one status line per state change, one
// frame per finished sample, and the analysis curve at the end. With
// `--save <dir>` the streamed bytes are written out as
// `sample_<k>.csv` / `curve.csv` — byte-identical to what a batch run of
// the same config would produce, which the integration tests assert.
//
// `sops_run --smoke` runs a tiny built-in Fig. 4 configuration instead of a
// config file — the ctest smoke entry that keeps the CLI pipeline honest.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_builder.hpp"
#include "core/job_manager.hpp"
#include "core/shard.hpp"
#include "core/sops.hpp"
#include "io/frame_protocol.hpp"

namespace {

constexpr const char* kDefaultSocket = "sopsd.sock";

// SIGINT/SIGTERM → the batch JobManager's shutdown token. request() is
// async-signal-safe; the run unwinds at its next poll point through the
// normal cleanup path (spill unlink, manifest sync, pool teardown).
std::atomic<sops::support::CancelToken*> g_cancel_token{nullptr};

void handle_signal(int /*signum*/) {
  sops::support::CancelToken* token =
      g_cancel_token.load(std::memory_order_acquire);
  if (token != nullptr) token->request();
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int run_smoke() {
  using namespace sops;
  core::ExperimentConfig experiment(core::presets::fig4_three_type_collective());
  experiment.samples = 6;
  experiment.simulation.steps = 10;
  experiment.simulation.record_stride = 5;
  const core::EnsembleSeries series = core::run_experiment(experiment);
  const core::AnalysisResult result = core::analyze_self_organization(series);
  std::cout << "smoke: " << series.sample_count() << " samples, "
            << result.points.size() << " analysis points, delta-I = "
            << result.delta_mi() << " bits\n";
  return 0;
}

int run_merge(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::cerr << "usage: sops_run --merge <output.shard> <shard...>\n";
    return 2;
  }
  const std::string out = args.front();
  const std::vector<std::string> shards(args.begin() + 1, args.end());
  const sops::core::MergeResult result = sops::core::merge_shards(shards, out);
  std::cout << "merged " << result.shard_count << " shards ("
            << result.samples_total << " samples, "
            << result.payload_bytes / (1024 * 1024) << " MiB) into "
            << result.data_path << "\n";
  return 0;
}

// "k/N" -> (k, N); throws sops::Error on anything else.
void parse_shard_spec(const std::string& spec, std::size_t* index,
                      std::size_t* count) {
  const std::size_t slash = spec.find('/');
  std::size_t index_end = 0;
  std::size_t count_end = 0;
  try {
    if (slash == std::string::npos) throw std::invalid_argument(spec);
    *index = std::stoul(spec.substr(0, slash), &index_end);
    *count = std::stoul(spec.substr(slash + 1), &count_end);
    if (index_end != slash || count_end != spec.size() - slash - 1) {
      throw std::invalid_argument(spec);
    }
  } catch (const std::exception&) {
    throw sops::Error("--shard expects k/N (e.g. 0/4), got '" + spec + "'");
  }
  if (*count == 0 || *index >= *count) {
    throw sops::Error("--shard " + spec + ": index must lie in [0, count)");
  }
}

void report_spill(const sops::core::EnsembleSeries& series,
                  const sops::core::ExperimentConfig& experiment) {
  using sops::core::StorageMode;
  const bool shard = !experiment.shard.path.empty();
  if (series.frames.storage() != StorageMode::kMapped) return;
  const std::size_t bytes = series.frames.bytes();
  std::cout << (shard ? "shard recorded to " : "recording spilled to ")
            << series.frames.spill_path();
  if (bytes >= 1024 * 1024) {
    std::cout << " (" << bytes / (1024 * 1024) << " MiB mapped)\n";
  } else {
    std::cout << " (" << bytes / 1024 << " KiB mapped)\n";
  }
}

// ---------------------------------------------------------------------------
// Daemon client subcommands.

/// Closes the protocol fd on every exit path.
struct ClientConnection {
  explicit ClientConnection(const std::string& socket_path)
      : fd(sops::io::connect_unix(socket_path)) {}
  ~ClientConnection() { ::close(fd); }
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;
  const int fd;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw sops::Error("cannot read config file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << contents) || !out.flush()) {
    throw sops::Error("cannot write " + path);
  }
}

int cmd_submit(const std::string& socket_path, const std::string& config_path) {
  const ClientConnection connection(socket_path);
  sops::io::write_frame(connection.fd, sops::io::FrameType::kSubmit,
                        read_file(config_path));
  const auto reply = sops::io::read_frame(connection.fd);
  if (!reply.has_value()) throw sops::Error("daemon closed the connection");
  if (reply->type == sops::io::FrameType::kSubmitted) {
    std::cout << "submitted job " << reply->payload << "\n";
    return 0;
  }
  std::cerr << "error: " << reply->payload << "\n";
  return 1;
}

int cmd_status(const std::string& socket_path, const std::string& id) {
  const ClientConnection connection(socket_path);
  sops::io::write_frame(connection.fd, sops::io::FrameType::kStatus, id);
  const auto reply = sops::io::read_frame(connection.fd);
  if (!reply.has_value()) throw sops::Error("daemon closed the connection");
  if (reply->type == sops::io::FrameType::kStatusReport) {
    std::cout << reply->payload;
    if (!reply->payload.empty() && reply->payload.back() != '\n') {
      std::cout << "\n";
    }
    return 0;
  }
  std::cerr << "error: " << reply->payload << "\n";
  return 1;
}

int cmd_cancel(const std::string& socket_path, const std::string& id) {
  const ClientConnection connection(socket_path);
  sops::io::write_frame(connection.fd, sops::io::FrameType::kCancel, id);
  const auto reply = sops::io::read_frame(connection.fd);
  if (!reply.has_value()) throw sops::Error("daemon closed the connection");
  if (reply->type == sops::io::FrameType::kStatusReport) {
    std::cout << reply->payload << "\n";
    return 0;
  }
  std::cerr << "error: " << reply->payload << "\n";
  return 1;
}

int cmd_watch(const std::string& socket_path, const std::string& id,
              const std::string& save_dir) {
  const ClientConnection connection(socket_path);
  sops::io::write_frame(connection.fd, sops::io::FrameType::kWatch, id);
  for (;;) {
    const auto frame = sops::io::read_frame(connection.fd);
    if (!frame.has_value()) {
      std::cerr << "error: daemon closed the stream before job_done\n";
      return 1;
    }
    switch (frame->type) {
      case sops::io::FrameType::kJobEvent:
        std::cout << frame->payload << "\n";
        break;
      case sops::io::FrameType::kSampleCsv: {
        // First line is "job=N sample=K done=D total=T"; the rest is the
        // sample's CSV, byte-identical to the batch serialization.
        const std::size_t newline = frame->payload.find('\n');
        const std::string meta = frame->payload.substr(0, newline);
        std::cout << meta << "\n";
        if (!save_dir.empty()) {
          const std::size_t key = meta.find("sample=");
          std::size_t sample = 0;
          if (key != std::string::npos) {
            sample = std::stoul(meta.substr(key + 7));
          }
          write_file(save_dir + "/sample_" + std::to_string(sample) + ".csv",
                     frame->payload.substr(newline + 1));
        }
        break;
      }
      case sops::io::FrameType::kCurveCsv:
        std::cout << "analysis curve: " << frame->payload.size() << " bytes\n";
        if (!save_dir.empty()) {
          write_file(save_dir + "/curve.csv", frame->payload);
        }
        break;
      case sops::io::FrameType::kJobDone: {
        std::cout << frame->payload << "\n";
        const bool done =
            frame->payload.find("\"state\":\"done\"") != std::string::npos;
        return done ? 0 : 3;
      }
      case sops::io::FrameType::kError:
        std::cerr << "error: " << frame->payload << "\n";
        return 1;
      default:
        std::cerr << "error: unexpected frame "
                  << sops::io::to_string(frame->type) << "\n";
        return 1;
    }
  }
}

int run_client(const std::string& command, std::vector<std::string> args) {
  std::string socket_path = kDefaultSocket;
  std::string save_dir;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--socket" && i + 1 < args.size()) {
      socket_path = args[++i];
    } else if (args[i] == "--save" && i + 1 < args.size()) {
      save_dir = args[++i];
    } else if (!args[i].empty() && args[i].front() == '-') {
      std::cerr << "unknown option '" << args[i] << "'\n";
      return 2;
    } else {
      positional.push_back(args[i]);
    }
  }
  if (command == "submit") {
    if (positional.size() != 1) {
      std::cerr << "usage: sops_run submit <config-file> [--socket <path>]\n";
      return 2;
    }
    return cmd_submit(socket_path, positional[0]);
  }
  if (command == "status") {
    return cmd_status(socket_path, positional.empty() ? "" : positional[0]);
  }
  if (command == "cancel") {
    if (positional.size() != 1) {
      std::cerr << "usage: sops_run cancel <job-id> [--socket <path>]\n";
      return 2;
    }
    return cmd_cancel(socket_path, positional[0]);
  }
  // watch
  if (positional.size() != 1) {
    std::cerr << "usage: sops_run watch <job-id> [--socket <path>] "
                 "[--save <dir>]\n";
    return 2;
  }
  return cmd_watch(socket_path, positional[0], save_dir);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sops;

  if (argc > 1) {
    const std::string_view first(argv[1]);
    if (first == "submit" || first == "status" || first == "cancel" ||
        first == "watch") {
      try {
        return run_client(std::string(first),
                          std::vector<std::string>(argv + 2, argv + argc));
      } catch (const sops::Error& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
      }
    }
  }

  std::vector<std::string> positional;
  std::string shard_spec;
  std::string shard_out;
  bool resume = false;
  bool merge = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") return run_smoke();
    if (arg == "--merge") {
      merge = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--shard" && i + 1 < argc) {
      shard_spec = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      shard_out = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    } else {
      positional.emplace_back(arg);
    }
  }

  try {
    if (merge) return run_merge(positional);
    if (positional.empty()) {
      std::cerr << "usage: sops_run <config-file> [output.csv]\n"
                   "       sops_run <config-file> --shard k/N --out "
                   "<file.shard> [--resume]\n"
                   "       sops_run --merge <output.shard> <shard...>\n"
                   "       sops_run submit|status|cancel|watch ... "
                   "[--socket <path>]\n";
      return 2;
    }
    const io::Config config = io::Config::load(positional[0]);

    // Warn about unknown keys — almost always a typo in an experiment file.
    const auto& known = core::known_config_keys();
    for (const std::string& key : config.keys()) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        std::cerr << "warning: unknown config key '" << key << "'\n";
      }
    }

    core::ConfiguredExperiment configured = core::build_experiment(config);
    core::ExperimentConfig& experiment = configured.experiment;
    if (!shard_spec.empty() || !shard_out.empty() || resume) {
      if (shard_out.empty()) {
        throw Error("--shard/--resume need --out <file.shard>");
      }
      experiment.shard.path = shard_out;
      experiment.shard.resume = resume;
      if (!shard_spec.empty()) {
        parse_shard_spec(shard_spec, &experiment.shard.index,
                         &experiment.shard.count);
      }
    }

    const bool partial_shard = experiment.shard.count > 1;

    std::cout << "running " << experiment.samples << " samples of "
              << experiment.simulation.types.size() << " particles for "
              << experiment.simulation.steps << " steps...\n";

    // Batch mode is a one-slot JobManager: the same admission/cancellation/
    // flush-error semantics as the daemon, with the whole machine as the
    // job's slice. SIGINT/SIGTERM raise the manager's shutdown token.
    core::JobLimits limits;
    limits.job_slots = 1;
    limits.machine_threads = experiment.threads;
    core::JobManager manager(limits);
    g_cancel_token.store(&manager.shutdown_token(), std::memory_order_release);
    install_signal_handlers();

    core::JobOptions job_options;
    job_options.analysis =
        partial_shard ? core::JobAnalysis::kNone : core::JobAnalysis::kPostHoc;
    // The moment the job's simulation hands over to analysis — the batch
    // report splits its timing there.
    std::atomic<std::chrono::steady_clock::time_point::rep> analysis_start_rep{0};
    job_options.events.on_state_change = [&](const core::JobStatus& status) {
      if (status.state == core::JobState::kStreaming) {
        analysis_start_rep.store(
            std::chrono::steady_clock::now().time_since_epoch().count(),
            std::memory_order_relaxed);
      }
    };

    const std::uint64_t job = manager.submit(configured, job_options);
    core::JobOutcome outcome;
    try {
      outcome = manager.wait(job);
    } catch (const CancelledError& cancelled) {
      g_cancel_token.store(nullptr, std::memory_order_release);
      std::cerr << "cancelled: " << cancelled.what()
                << " (partial state cleaned up; durable shards keep their "
                   "completed samples)\n";
      return 130;
    }
    g_cancel_token.store(nullptr, std::memory_order_release);
    const core::EnsembleSeries& series = outcome.series;

    report_spill(series, experiment);
    if (!experiment.shard.path.empty()) {
      const std::size_t ran = series.sample_count() - series.resumed_samples;
      std::cout << "shard " << experiment.shard.index << "/"
                << experiment.shard.count << ": samples ["
                << series.slot_begin << ", "
                << series.slot_begin + series.sample_count() << ") complete ("
                << ran << " simulated, " << series.resumed_samples
                << " resumed)\n";
    }
    if (partial_shard) {
      // A shard holds one slice of the ensemble; the self-organization
      // measure needs all of it. Merge the completed shards, then analyze
      // the merged file via `--out merged.shard --resume`.
      std::cout << "partial ensemble — skipping analysis (merge the shards "
                   "first: sops_run --merge <out> <shards...>)\n";
      return 0;
    }
    const core::AnalysisResult& result = *outcome.analysis;
    const auto analysis_end = std::chrono::steady_clock::now();
    const auto analysis_start = std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            analysis_start_rep.load(std::memory_order_relaxed)));
    const double analysis_seconds =
        std::chrono::duration<double>(analysis_end - analysis_start).count();
    const double frames_per_sec =
        analysis_seconds > 0.0
            ? static_cast<double>(result.points.size()) / analysis_seconds
            : 0.0;
    std::printf("analysis: %.2f s for %zu frames (%.3f frames/s)\n",
                analysis_seconds, result.points.size(), frames_per_sec);

    std::vector<io::Series> chart{{"I(W1..Wn) [bits]", result.steps(),
                                   result.mi_values()}};
    io::ChartOptions chart_options;
    chart_options.y_label = "multi-information (bits)";
    std::cout << io::render_chart(chart, chart_options) << "\n";

    const io::CsvTable table = core::analysis_csv_table(
        result, configured.analysis.compute_entropies);
    const std::string output =
        positional.size() > 1 ? positional[1]
                              : config.get_string("output", "sops_run.csv");
    io::write_csv_file(output, table);
    std::cout << "results written to " << output << "\n"
              << "Delta-I = " << result.delta_mi() << " bits — "
              << (result.self_organizing() ? "self-organizing"
                                           : "no self-organization detected")
              << "\n";
    return 0;
  } catch (const sops::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
