// End-to-end daemon smoke test: spawn the real `sopsd` binary, talk the
// real wire protocol, and hold it to the layer's core promise — a job
// streamed out of the daemon is byte-identical to the same config run in
// batch, a cancelled neighbor job doesn't perturb it, and a job finished
// before anyone watched is replayed once, byte for byte.
//
// The `integration_` prefix keeps this out of the CI TSan regex: the test
// forks+execs a child process, which TSan interceptors do not survive.
// core_job_test, core_job_stream_test and io_frame_protocol_test cover the
// in-process pieces under TSan; this test covers the process seam.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/job_manager.hpp"
#include "core/config_builder.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/frame_protocol.hpp"
#include "support/error.hpp"

namespace {

using sops::io::Frame;
using sops::io::FrameType;

// Small enough to finish in seconds on one core; big enough that several
// sample frames actually stream.
constexpr const char kSmallConfig[] =
    "preset = fig4\n"
    "steps = 20\n"
    "stride = 10\n"
    "samples = 6\n"
    "seed = 99\n";

// Long enough that a cancel lands mid-run even on a fast machine.
constexpr const char kLongConfig[] =
    "preset = fig4\n"
    "steps = 200000\n"
    "stride = 1000\n"
    "samples = 8\n"
    "seed = 7\n";

std::string temp_path(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// One request/reply exchange on a fresh connection (the protocol's shape).
Frame exchange(const std::string& socket_path, FrameType type,
               const std::string& payload) {
  const int fd = sops::io::connect_unix(socket_path);
  sops::io::write_frame(fd, type, payload);
  const auto reply = sops::io::read_frame(fd);
  ::close(fd);
  if (!reply.has_value()) {
    throw sops::Error("daemon closed the connection without replying");
  }
  return *reply;
}

pid_t spawn_daemon(const std::string& socket_path,
                   const std::string& spill_dir) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: exec the daemon built next to this test (ctest runs from the
    // build root). _exit on failure — never return into gtest.
    ::execl("./sopsd", "sopsd", "--socket", socket_path.c_str(), "--slots",
            "2", "--spill-dir", spill_dir.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

bool wait_for_socket(const std::string& socket_path, pid_t daemon) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(daemon, &status, WNOHANG) != 0) return false;  // died
    try {
      const int fd = sops::io::connect_unix(socket_path);
      ::close(fd);
      return true;
    } catch (const sops::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return false;
}

std::uint64_t parse_submitted_id(const Frame& reply) {
  EXPECT_EQ(reply.type, FrameType::kSubmitted) << reply.payload;
  return std::stoull(reply.payload);
}

// Starts the daemon and waits for its socket; `daemon` stays 0 on failure.
void start_daemon(const std::string& socket_path, const std::string& spill_dir,
                  pid_t& daemon) {
  std::filesystem::create_directories(spill_dir);
  std::filesystem::remove(socket_path);
  // Fork while this process is still single-threaded.
  const pid_t pid = spawn_daemon(socket_path, spill_dir);
  ASSERT_GT(pid, 0);
  if (!wait_for_socket(socket_path, pid)) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    FAIL() << "sopsd did not come up (is ./sopsd next to the test cwd?)";
  }
  daemon = pid;
}

// SIGTERM → drain → exit 0, socket unlinked, no scratch spill file left.
void stop_daemon(pid_t daemon, const std::string& socket_path,
                 const std::string& spill_dir) {
  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(std::filesystem::exists(socket_path))
      << "daemon must unlink its socket on exit";
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir)) {
    EXPECT_NE(entry.path().extension(), ".spill")
        << "leaked spill file: " << entry.path();
  }
  std::filesystem::remove_all(spill_dir);
}

// Everything one watch connection received, up to job_done and EOF.
struct WatchedStream {
  std::map<std::size_t, std::string> sample_csv;  // sample index → bytes
  std::string curve_csv;
  std::string final_status;
  std::size_t events = 0;
  std::size_t frames = 0;
};

void watch_job(const std::string& socket_path, std::uint64_t id,
               WatchedStream& out) {
  const int fd = sops::io::connect_unix(socket_path);
  sops::io::write_frame(fd, FrameType::kWatch, std::to_string(id));
  for (;;) {
    const auto frame = sops::io::read_frame(fd);
    ASSERT_TRUE(frame.has_value()) << "watch stream ended before job_done";
    ++out.frames;
    if (frame->type == FrameType::kJobEvent) {
      ++out.events;
    } else if (frame->type == FrameType::kSampleCsv) {
      // Payload: "job=N sample=K done=D total=T\n" + CSV bytes.
      const std::size_t eol = frame->payload.find('\n');
      ASSERT_NE(eol, std::string::npos);
      const std::string meta = frame->payload.substr(0, eol);
      const std::size_t pos = meta.find("sample=");
      ASSERT_NE(pos, std::string::npos) << meta;
      const std::size_t sample = std::stoul(meta.substr(pos + 7));
      EXPECT_EQ(out.sample_csv.count(sample), 0u)
          << "sample " << sample << " streamed twice";
      out.sample_csv[sample] = frame->payload.substr(eol + 1);
    } else if (frame->type == FrameType::kCurveCsv) {
      EXPECT_TRUE(out.curve_csv.empty());
      out.curve_csv = frame->payload;
    } else if (frame->type == FrameType::kJobDone) {
      out.final_status = frame->payload;
      break;
    } else {
      FAIL() << "unexpected frame type " << sops::io::to_string(frame->type)
             << ": " << frame->payload;
    }
  }
  // job_done terminates the stream; the server closes the connection.
  EXPECT_FALSE(sops::io::read_frame(fd).has_value());
  ::close(fd);
}

// Byte parity: the streamed frames vs an in-process batch run of the
// identical config text, serialized through the same functions.
void expect_batch_bytes(const WatchedStream& stream, const char* config_text) {
  const sops::core::ConfiguredExperiment configured =
      sops::core::build_experiment(sops::io::Config::parse(config_text));
  const sops::core::EnsembleSeries reference =
      sops::core::run_experiment(configured.experiment);
  ASSERT_EQ(stream.sample_csv.size(), reference.sample_count());
  for (std::size_t s = 0; s < reference.sample_count(); ++s) {
    ASSERT_TRUE(stream.sample_csv.count(s)) << "sample " << s
                                            << " never streamed";
    EXPECT_EQ(stream.sample_csv.at(s),
              sops::core::sample_recording_csv(reference, s))
        << "streamed sample " << s << " differs from batch bytes";
  }
  const sops::core::AnalysisResult analysis =
      sops::core::analyze_self_organization(reference, configured.analysis);
  std::ostringstream batch_curve;
  sops::io::write_csv(batch_curve,
                      sops::core::analysis_csv_table(
                          analysis, configured.analysis.compute_entropies));
  EXPECT_EQ(stream.curve_csv, batch_curve.str())
      << "streamed curve differs from batch bytes";
}

TEST(IntegrationDaemon, StreamedJobMatchesBatchWhileNeighborIsCancelled) {
  const std::string socket_path = temp_path("sopsd_itest.sock");
  const std::string spill_dir = temp_path("sopsd_itest_spill");
  pid_t daemon = 0;
  ASSERT_NO_FATAL_FAILURE(start_daemon(socket_path, spill_dir, daemon));

  // Submit the long job first so it occupies a slot, then the small one.
  const std::uint64_t long_id = parse_submitted_id(
      exchange(socket_path, FrameType::kSubmit, kLongConfig));
  const std::uint64_t small_id = parse_submitted_id(
      exchange(socket_path, FrameType::kSubmit, kSmallConfig));
  EXPECT_NE(long_id, small_id);

  // Cancel the long job mid-run.
  const Frame cancel_reply = exchange(socket_path, FrameType::kCancel,
                                      std::to_string(long_id));
  EXPECT_EQ(cancel_reply.type, FrameType::kStatusReport) << cancel_reply.payload;

  // Watch the small job to completion, collecting the streamed bytes.
  WatchedStream stream;
  ASSERT_NO_FATAL_FAILURE(watch_job(socket_path, small_id, stream));
  EXPECT_NE(stream.final_status.find("\"state\":\"done\""), std::string::npos)
      << stream.final_status;
  EXPECT_GT(stream.events, 0u);
  EXPECT_FALSE(stream.curve_csv.empty()) << "curve frame must precede job_done";

  // The cancelled neighbor must report a terminal cancelled state.
  const auto cancel_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string long_status;
  for (;;) {
    long_status = exchange(socket_path, FrameType::kStatus,
                           std::to_string(long_id))
                      .payload;
    if (long_status.find("\"state\":\"cancelled\"") != std::string::npos) break;
    ASSERT_LT(std::chrono::steady_clock::now(), cancel_deadline)
        << "long job never reached cancelled: " << long_status;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  expect_batch_bytes(stream, kSmallConfig);
  stop_daemon(daemon, socket_path, spill_dir);
}

// A job that finishes with nobody watching keeps its stream for exactly one
// watch, which replays it byte for byte; any later watch of the job gets
// only its terminal status.
TEST(IntegrationDaemon, UnwatchedJobReplaysOnceThenReportsItsStatus) {
  const std::string socket_path = temp_path("sopsd_replay.sock");
  const std::string spill_dir = temp_path("sopsd_replay_spill");
  pid_t daemon = 0;
  ASSERT_NO_FATAL_FAILURE(start_daemon(socket_path, spill_dir, daemon));

  const std::uint64_t id = parse_submitted_id(
      exchange(socket_path, FrameType::kSubmit, kSmallConfig));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const std::string status =
        exchange(socket_path, FrameType::kStatus, std::to_string(id)).payload;
    if (status.find("\"state\":\"done\"") != std::string::npos) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job never reached done: " << status;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  WatchedStream replay;
  ASSERT_NO_FATAL_FAILURE(watch_job(socket_path, id, replay));
  EXPECT_NE(replay.final_status.find("\"state\":\"done\""), std::string::npos)
      << replay.final_status;
  EXPECT_GT(replay.events, 0u) << "the replay starts at the queued event";
  expect_batch_bytes(replay, kSmallConfig);

  WatchedStream again;
  ASSERT_NO_FATAL_FAILURE(watch_job(socket_path, id, again));
  EXPECT_EQ(again.frames, 1u) << "only job_done is left to send";
  EXPECT_NE(again.final_status.find("\"state\":\"done\""), std::string::npos)
      << again.final_status;
  EXPECT_EQ(again.final_status, replay.final_status);

  stop_daemon(daemon, socket_path, spill_dir);
}

// Runs `./sopsd` with `args` and returns its exit code, its stderr in
// `err`. Only for argument lists the daemon rejects before it starts.
int run_rejected_daemon(const std::vector<std::string>& args,
                        std::string& err) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv{const_cast<char*>("sopsd")};
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv("./sopsd", argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  char buffer[512];
  ssize_t got = 0;
  while ((got = ::read(pipe_fds[0], buffer, sizeof buffer)) > 0) {
    err.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// Bad numbers end in a named error and usage with exit 2 — not an uncaught
// std::invalid_argument / std::out_of_range abort, and not a silently
// wrapped budget.
TEST(IntegrationDaemon, RejectsBadNumericFlags) {
  const std::vector<std::vector<std::string>> cases{
      {"--slots", "abc"},
      {"--threads", "99999999999999999999"},
      {"--slots", "-1"},
      {"--mem-mb", "17592186044416"},  // 2^44: << 20 overflows 64 bits
  };
  for (const std::vector<std::string>& args : cases) {
    std::string err;
    EXPECT_EQ(run_rejected_daemon(args, err), 2) << args[0] << " " << args[1];
    EXPECT_NE(err.find(args[0] + " expects an integer"), std::string::npos)
        << err;
    EXPECT_NE(err.find("'" + args[1] + "'"), std::string::npos) << err;
    EXPECT_NE(err.find("usage: sopsd"), std::string::npos) << err;
  }
}

}  // namespace

#else  // !(__unix__ || __APPLE__)

TEST(IntegrationDaemon, SkippedOnThisPlatform) {
  GTEST_SKIP() << "daemon integration test requires POSIX fork/exec";
}

#endif
