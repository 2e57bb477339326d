// sopsd — the streaming experiment daemon.
//
// One process owns a core::JobManager (one machine-wide TaskPool, carved
// into per-job slices under admission control) and serves the frame
// protocol (io/frame_protocol.hpp) on a local unix socket:
//
//   sopsd [--socket <path>] [--slots N] [--threads N] [--mem-mb N]
//         [--spill-dir <dir>]
//
// Clients (`sops_run submit/status/cancel/watch`) submit the same key=value
// config text the batch CLI reads; every finished sample is pushed to
// watchers as the exact CSV bytes the batch path would write, and once the
// last sample is in, the job is analyzed post-hoc on its slot's share of
// the machine, exactly as a batch job is. Streamed output is byte-identical
// to a batch run of the same config, because both go through
// core::sample_recording_csv / core::analysis_csv_table.
//
// Watchers attaching mid-run miss nothing: a running job's frames are kept
// and replayed to a late subscriber before it switches to live delivery.
// Nothing outlives its delivery (core::JobBroadcast): a job's frames are
// freed once every watcher live at its end has them, and a job that ends
// unwatched is replayed once, to the first watch; any later watch of it
// gets its terminal job_done status alone.
//
// SIGINT/SIGTERM raise the manager's shutdown token (async-signal-safe) and
// poke a self-pipe to wake the accept loop; every job drains at its next
// poll point, durable shard manifests stay valid (sync-before-bit-flip plus
// RAII sync on destruction), scratch spill files are unlinked, and watchers
// receive a terminal job_done frame before their connections close.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config_builder.hpp"
#include "core/job_manager.hpp"
#include "core/job_stream.hpp"
#include "core/sops.hpp"
#include "io/frame_protocol.hpp"

namespace {

using namespace sops;

constexpr const char* kDefaultSocket = "sopsd.sock";

// Signal plumbing: the handler may only touch async-signal-safe state — it
// raises the shutdown token and writes one byte into the self-pipe so the
// poll()-based accept loop wakes immediately.
std::atomic<support::CancelToken*> g_shutdown_token{nullptr};
int g_wake_pipe[2] = {-1, -1};

void handle_signal(int /*signum*/) {
  support::CancelToken* token = g_shutdown_token.load(std::memory_order_acquire);
  if (token != nullptr) token->request();
  const char byte = 1;
  [[maybe_unused]] const ssize_t wrote = ::write(g_wake_pipe[1], &byte, 1);
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked syscalls return EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon
}

struct DaemonOptions {
  std::string socket_path = kDefaultSocket;
  std::string spill_dir = ".";
  core::JobLimits limits{};
};

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options)
      : options_(options), manager_(options.limits) {}

  core::JobManager& manager() { return manager_; }

  std::uint64_t submit(const std::string& config_text) {
    core::ConfiguredExperiment configured =
        core::build_experiment(io::Config::parse(config_text));
    configured.experiment.storage.spill_dir = options_.spill_dir;

    core::JobOptions job_options;
    job_options.events.on_state_change = [this](const core::JobStatus& status) {
      // Terminal frames are pushed by the waiter thread (which also owns
      // the curve), so a watcher always sees curve_csv before job_done.
      if (core::is_terminal(status.state)) return;
      broadcast_.push(status.id, io::FrameType::kJobEvent,
                      core::job_status_json(status));
    };
    job_options.events.on_sample_done = [this](const core::JobSampleEvent& e) {
      std::string payload = "job=" + std::to_string(e.job) +
                            " sample=" + std::to_string(e.local_sample) +
                            " done=" + std::to_string(e.samples_done) +
                            " total=" + std::to_string(e.samples_total) + "\n";
      payload += core::sample_recording_csv(*e.series, e.local_sample);
      broadcast_.push(e.job, io::FrameType::kSampleCsv, std::move(payload));
    };

    const bool with_entropies = configured.analysis.compute_entropies;
    const std::uint64_t id = manager_.submit(std::move(configured), job_options);
    {
      const std::lock_guard<std::mutex> lock(waiters_mutex_);
      waiters_.emplace_back([this, id, with_entropies] {
        finish_job(id, with_entropies);
      });
    }
    return id;
  }

  void serve(int listen_fd) {
    std::vector<std::thread> connections;
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_wake_pipe[0], POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) {
          if (manager_.shutdown_token().requested()) break;
          continue;
        }
        std::cerr << "sopsd: poll failed: " << std::strerror(errno) << "\n";
        break;
      }
      if ((fds[1].revents & POLLIN) != 0 ||
          manager_.shutdown_token().requested()) {
        break;
      }
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        std::cerr << "sopsd: accept failed: " << std::strerror(errno) << "\n";
        break;
      }
      connections.emplace_back([this, client] { handle(client); });
    }
    std::cout << "sopsd: shutting down, draining jobs...\n";
    // Cancel everything so every job drains and every watch stream ends
    // with its terminal frame; join the connection handlers first (they
    // may still submit, adding waiters), then the per-job waiters.
    manager_.shutdown_token().request();
    for (std::thread& connection : connections) connection.join();
    for (std::thread& waiter : take_waiters()) waiter.join();
  }

 private:
  /// Per-job completion thread: blocks in wait(), then emits the analysis
  /// curve (on success) and the terminal status — the only writer of a
  /// job's job_done frame.
  void finish_job(std::uint64_t id, bool with_entropies) {
    try {
      const core::JobOutcome outcome = manager_.wait(id);
      if (outcome.analysis.has_value()) {
        std::ostringstream curve;
        io::write_csv(curve,
                      core::analysis_csv_table(*outcome.analysis, with_entropies));
        broadcast_.push(id, io::FrameType::kCurveCsv, curve.str());
      }
    } catch (const std::exception&) {
      // Failure/cancellation detail rides in the terminal status below.
    }
    broadcast_.push(id, io::FrameType::kJobDone,
                    core::job_status_json(manager_.status(id)),
                    /*terminal=*/true);
  }

  void handle(int client) {
    // A connected-but-silent client must not pin the handler (and the
    // daemon's shutdown join) forever: bound the wait for its request.
    const timeval timeout{30, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    try {
      const std::optional<io::Frame> request = io::read_frame(client);
      if (!request.has_value()) {
        ::close(client);
        return;
      }
      switch (request->type) {
        case io::FrameType::kSubmit: {
          try {
            const std::uint64_t id = submit(request->payload);
            io::write_frame(client, io::FrameType::kSubmitted,
                            std::to_string(id));
          } catch (const Error& error) {
            io::write_frame(client, io::FrameType::kError, error.what());
          }
          break;
        }
        case io::FrameType::kStatus: {
          std::string report;
          if (request->payload.empty()) {
            for (const core::JobStatus& status : manager_.statuses()) {
              report += core::job_status_json(status);
              report += "\n";
            }
          } else {
            report =
                core::job_status_json(manager_.status(parse_id(request->payload)));
          }
          io::write_frame(client, io::FrameType::kStatusReport, report);
          break;
        }
        case io::FrameType::kCancel: {
          const std::uint64_t id = parse_id(request->payload);
          manager_.cancel(id);
          io::write_frame(client, io::FrameType::kStatusReport,
                          core::job_status_json(manager_.status(id)));
          break;
        }
        case io::FrameType::kWatch: {
          watch(client, parse_id(request->payload));
          break;
        }
        default:
          io::write_frame(client, io::FrameType::kError,
                          std::string("unexpected frame type: ") +
                              io::to_string(request->type));
      }
    } catch (const std::exception& error) {
      try {
        io::write_frame(client, io::FrameType::kError, error.what());
      } catch (...) {
        // The client is gone; nothing left to tell it.
      }
    }
    ::close(client);
  }

  void watch(int client, std::uint64_t id) {
    (void)manager_.status(id);  // throws on unknown id, before subscribing
    const std::shared_ptr<core::FrameQueue> sub = broadcast_.subscribe(
        id, [&] { return core::is_terminal(manager_.status(id).state); });
    if (sub == nullptr) {
      // The stream was handed out already; only the outcome is left.
      io::write_frame(client, io::FrameType::kJobDone,
                      core::job_status_json(manager_.status(id)));
      return;
    }
    try {
      while (const core::SharedFrame frame = sub->pop()) {
        io::write_frame(client, frame->type, frame->payload);
      }
    } catch (...) {
      broadcast_.unsubscribe(id, sub);  // client hung up mid-stream
      throw;
    }
    broadcast_.unsubscribe(id, sub);
  }

  static std::uint64_t parse_id(const std::string& text) {
    try {
      std::size_t end = 0;
      const unsigned long long id = std::stoull(text, &end);
      if (end != text.size() || id == 0) throw std::invalid_argument(text);
      return id;
    } catch (const std::exception&) {
      throw Error("expected a job id, got '" + text + "'");
    }
  }

  std::vector<std::thread> take_waiters() {
    const std::lock_guard<std::mutex> lock(waiters_mutex_);
    std::vector<std::thread> taken;
    taken.swap(waiters_);
    return taken;
  }

  DaemonOptions options_;
  core::JobManager manager_;
  core::JobBroadcast broadcast_;
  std::mutex waiters_mutex_;
  std::vector<std::thread> waiters_;
};

constexpr std::size_t kMaxCount = static_cast<std::size_t>(-1);

/// A flag's value as a decimal count in [0, max], or nullopt after naming
/// the flag and the bad text on stderr: a sign, trailing junk or a value
/// past `max` (for --mem-mb, the largest that survives `<< 20`).
std::optional<std::size_t> parse_count(const std::string& flag,
                                       const std::string& text,
                                       std::size_t max) {
  std::size_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc{} && ptr == end && value <= max) return value;
  std::cerr << "sopsd: " << flag << " expects an integer in [0, " << max
            << "], got '" << text << "'\n";
  return std::nullopt;
}

int usage() {
  std::cerr << "usage: sopsd [--socket <path>] [--slots N] [--threads N] "
               "[--mem-mb N] [--spill-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--socket" && has_value) {
      options.socket_path = argv[++i];
    } else if (arg == "--slots" && has_value) {
      const auto value = parse_count(arg, argv[++i], kMaxCount);
      if (!value) return usage();
      options.limits.job_slots = *value;
    } else if (arg == "--threads" && has_value) {
      const auto value = parse_count(arg, argv[++i], kMaxCount);
      if (!value) return usage();
      options.limits.machine_threads = *value;
    } else if (arg == "--mem-mb" && has_value) {
      const auto value = parse_count(arg, argv[++i], kMaxCount >> 20);
      if (!value) return usage();
      options.limits.memory_budget_bytes = *value << 20;
    } else if (arg == "--spill-dir" && has_value) {
      options.spill_dir = argv[++i];
    } else {
      return usage();
    }
  }

  try {
    // Reclaim spill files a crashed predecessor leaked before any new job
    // creates its own.
    sops::core::sweep_stale_spill_files(options.spill_dir);

    if (::pipe(g_wake_pipe) != 0) {
      std::cerr << "sopsd: pipe failed: " << std::strerror(errno) << "\n";
      return 1;
    }

    Daemon daemon(options);
    g_shutdown_token.store(&daemon.manager().shutdown_token(),
                           std::memory_order_release);
    install_signal_handlers();

    const int listen_fd = sops::io::listen_unix(options.socket_path);
    std::cout << "sopsd: listening on " << options.socket_path << " ("
              << daemon.manager().limits().job_slots << " job slots, "
              << daemon.manager().limits().machine_threads
              << " threads)\n";
    daemon.serve(listen_fd);

    g_shutdown_token.store(nullptr, std::memory_order_release);
    ::close(listen_fd);
    ::unlink(options.socket_path.c_str());
    std::cout << "sopsd: stopped\n";
    return 0;
  } catch (const sops::Error& error) {
    std::cerr << "sopsd: " << error.what() << "\n";
    return 1;
  }
}
