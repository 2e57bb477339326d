// sopsd_closed3: a closed-loop service load. A private sopsd (2 job slots,
// the machine's threads, 256 MiB admission budget, its own socket and spill
// directory) serves 3 client threads; each submits a small fig4 job over the
// frame protocol, watches it to job_done, then submits the next. A round is
// a fixed number of jobs on a fresh daemon, so per-round daemon memory does
// not depend on how fast the jobs ran.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "core/config_builder.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/frame_protocol.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace sops;
namespace fs = std::filesystem;

constexpr std::size_t kClients = 3;
constexpr std::size_t kMinRounds = 3;
constexpr double kMaxMeasureSeconds = 100.0;
constexpr double kMiB = 1024.0 * 1024.0;

std::size_t round_jobs(bool tiny) { return tiny ? 6 : 24; }

/// A private sopsd child process. The destructor SIGTERMs and reaps it and
/// removes its directory, so every exit path — a failed check, an
/// exception, Ctrl-C (the signal handler SIGTERMs it first) — leaves no
/// daemon behind; PR_SET_PDEATHSIG covers the benchmark being killed.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& dir, std::size_t threads)
      : dir_(dir), socket_(dir + "/sock"), spill_(dir + "/spill") {
    fs::create_directories(spill_);
    const std::string log = dir_ + "/log";
    std::vector<std::string> args{exe,       "--socket",  socket_,
                                  "--slots", "2",         "--threads",
                                  std::to_string(threads), "--mem-mb", "256",
                                  "--spill-dir", spill_};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    start_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed: " + std::string(std::strerror(errno)));
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(126);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    g_daemon_pid.store(pid_);
  }

  ~Daemon() {
    stop();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the socket accepts a connection; returns seconds since
  /// the fork (exec, static start-up, JobManager construction, listen).
  double wait_ready() {
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        g_daemon_pid.store(0);
        throw std::runtime_error("sopsd exited before accepting: " + log());
      }
      if (accepts()) return seconds_since(start_);
      throw_if_interrupted();
      if (seconds_since(start_) > 20.0) {
        throw std::runtime_error("sopsd did not accept within 20 s: " + log());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// SIGTERM, then reap (SIGKILL after 20 s). Returns the exit code, or
  /// 128 + signal. Idempotent.
  int stop() {
    if (pid_ <= 0) return exit_code_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    for (;;) {
      const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
      if (reaped == pid_) break;
      if (reaped < 0 && errno != EINTR) break;
      if (seconds_since(t0) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    pid_ = -1;
    g_daemon_pid.store(0);
    return exit_code_;
  }

  /// What a stopped daemon left behind (empty = nothing).
  [[nodiscard]] std::string leftovers() const {
    std::string found;
    if (fs::exists(socket_)) found += "socket " + socket_ + " left behind; ";
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(spill_, ec)) {
      if (entry.path().extension() == ".spill") {
        found += "spill file " + entry.path().string() + " left behind; ";
      }
    }
    return found;
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

 private:
  [[nodiscard]] bool accepts() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, socket_.c_str(), sizeof address.sun_path - 1);
    const bool ok =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) == 0;
    ::close(fd);
    return ok;
  }

  [[nodiscard]] std::string log() const {
    std::ifstream in(dir_ + "/log");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

  std::string dir_;
  std::string socket_;
  std::string spill_;
  pid_t pid_ = -1;
  int exit_code_ = -1;
  Clock::time_point start_;
};

/// Closes a protocol connection on every path.
struct Connection {
  explicit Connection(const std::string& socket) : fd(io::connect_unix(socket)) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  const int fd;
};

/// One job as a client sees it, timed from frame arrivals.
struct ServiceJob {
  bool ok = false;
  std::string error;
  double total_s = 0.0;         ///< submit sent → job_done received
  double submit_rtt_s = 0.0;    ///< submit sent → submitted reply
  double first_sample_s = 0.0;  ///< running event → first sample_csv
  double queued_s = 0.0;        ///< submit sent → admitted event
  double run_s = 0.0;           ///< running event → streaming event
  double tail_s = 0.0;          ///< streaming event → job_done
  std::size_t bytes = 0;        ///< payload bytes of every streamed frame
  std::size_t samples = 0;
  std::string curve;
  std::map<std::size_t, std::string> sample_csv;  ///< kept on request
};

std::string state_of(const std::string& status_json) {
  const std::string key = "\"state\":\"";
  const std::size_t at = status_json.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return status_json.substr(begin, status_json.find('"', begin) - begin);
}

ServiceJob run_service_job(const std::string& socket, const std::string& config,
                           bool keep, Tracer* tracer, std::int64_t job) {
  ServiceJob out;
  const auto t0 = Clock::now();
  std::optional<Clock::time_point> submitted, admitted, running, streaming,
      first_sample;
  try {
    std::string id;
    {
      const Connection connection(socket);
      io::write_frame(connection.fd, io::FrameType::kSubmit, config);
      const std::optional<io::Frame> reply = io::read_frame(connection.fd);
      if (!reply || reply->type != io::FrameType::kSubmitted) {
        out.error = "submit refused: " + (reply ? reply->payload : "connection closed");
        return out;
      }
      id = reply->payload;
      submitted = Clock::now();
    }
    const Connection watch(socket);
    io::write_frame(watch.fd, io::FrameType::kWatch, id);
    for (;;) {
      const std::optional<io::Frame> frame = io::read_frame(watch.fd);
      const auto at = Clock::now();
      if (!frame) {
        out.error = "job " + id + ": stream closed before job_done";
        return out;
      }
      out.bytes += frame->payload.size();
      switch (frame->type) {
        case io::FrameType::kJobEvent: {
          const std::string state = state_of(frame->payload);
          if (state == "admitted" && !admitted) admitted = at;
          if (state == "running" && !running) running = at;
          if (state == "streaming" && !streaming) streaming = at;
          break;
        }
        case io::FrameType::kSampleCsv: {
          ++out.samples;
          if (!first_sample) first_sample = at;
          if (keep) {
            // "job=N sample=K done=D total=T\n" then the sample's CSV.
            const std::size_t newline = frame->payload.find('\n');
            const std::size_t key = frame->payload.find("sample=");
            if (newline != std::string::npos && key < newline) {
              out.sample_csv[std::stoul(frame->payload.substr(key + 7))] =
                  frame->payload.substr(newline + 1);
            }
          }
          break;
        }
        case io::FrameType::kCurveCsv:
          out.curve = frame->payload;
          break;
        case io::FrameType::kJobDone: {
          out.ok = state_of(frame->payload) == "done";
          if (!out.ok) out.error = "job " + id + " ended: " + frame->payload;
          const auto started = admitted ? *admitted : running.value_or(at);
          const auto sim_end = streaming.value_or(at);
          out.total_s = seconds_between(t0, at);
          out.submit_rtt_s = seconds_between(t0, *submitted);
          out.first_sample_s =
              seconds_between(running.value_or(started), first_sample.value_or(at));
          out.queued_s = seconds_between(t0, started);
          out.run_s = seconds_between(running.value_or(started), sim_end);
          out.tail_s = seconds_between(sim_end, at);
          if (tracer != nullptr) {
            const auto span = [&](const char* name, std::uint64_t parent,
                                  Clock::time_point from, Clock::time_point to) {
              Tracer::Span s;
              s.name = name;
              s.id = tracer->next_id();
              s.parent = parent;
              s.start_ns = tracer->to_ns(from);
              s.end_ns = tracer->to_ns(to);
              s.job = job;
              tracer->record(s);
              return s.id;
            };
            const std::uint64_t root = span("service.job", 0, t0, at);
            span("service.submit", root, t0, *submitted);
            span("service.queued", root, t0, started);
            span("service.run", root, running.value_or(started), sim_end);
            span("service.tail", root, sim_end, at);
          }
          return out;
        }
        default:
          out.error = "job " + id + ": " + io::to_string(frame->type) + " frame: " +
                      frame->payload;
          return out;
      }
    }
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  return out;
}

struct Round {
  std::vector<ServiceJob> jobs;
  double wall_s = 0.0;  ///< first submit → last job_done
};

/// `count` jobs through 3 closed-loop clients; job i of the run gets seed
/// job_seed(seed, first_index + i).
Round run_round(const std::string& socket, const Options& options,
                std::size_t first_index, std::size_t count, Tracer* tracer) {
  Round round;
  round.jobs.resize(count);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next++; i < count && !g_interrupted.load(); i = next++) {
          const std::size_t index = first_index + i;
          round.jobs[i] = run_service_job(
              socket, workload_config(kService, job_seed(options.seed, index), options.tiny),
              index == 0, tracer, static_cast<std::int64_t>(index));
        }
      });
    }
  }
  round.wall_s = seconds_since(t0);
  throw_if_interrupted();
  return round;
}

void count_jobs(const Round& round, std::size_t samples, Report& report) {
  for (const ServiceJob& job : round.jobs) {
    const bool complete = job.ok && job.samples == samples && !job.curve.empty();
    report.job(complete, job.ok ? "incomplete stream (" + std::to_string(job.samples) +
                                      " samples)"
                                : job.error);
  }
}

/// Stops the daemon and checks it went cleanly, leaving nothing behind.
void stop_and_check(Daemon& daemon, Report& report) {
  const int code = daemon.stop();
  report.check(code == 0, "sopsd exits 0 on SIGTERM (got " + std::to_string(code) + ")");
  const std::string left = daemon.leftovers();
  report.check(left.empty(), left);
}

/// Streamed-vs-batch parity of the run's first job: the same config run
/// in-process through a one-slot JobManager, post-hoc. Returns that batch
/// job for the traced layer breakdown.
TimedJob check_parity(const Options& options, const core::ConfiguredExperiment& configured,
                      const ServiceJob& streamed, Report& report) {
  core::JobLimits limits;
  limits.job_slots = 1;
  limits.machine_threads = options.threads;
  core::JobManager manager(limits);
  TimedJob batch = run_timed_job(manager, configured, core::JobAnalysis::kPostHoc);
  report.job(batch.ok, batch.error);
  if (!batch.ok || !batch.outcome.analysis) return batch;
  std::ostringstream curve;
  io::write_csv(curve, core::analysis_csv_table(*batch.outcome.analysis,
                                                configured.analysis.compute_entropies));
  report.check(curve.str() == streamed.curve,
               "streamed curve bytes equal write_csv(analysis_csv_table) of the batch run");
  const core::EnsembleSeries& series = batch.outcome.series;
  bool samples_equal = streamed.sample_csv.size() == series.sample_count();
  for (std::size_t s = 0; samples_equal && s < series.sample_count(); ++s) {
    const auto it = streamed.sample_csv.find(s);
    samples_equal = it != streamed.sample_csv.end() &&
                    it->second == core::sample_recording_csv(series, s);
  }
  report.check(samples_equal, "streamed sample CSVs equal the batch recording");
  return batch;
}

std::string private_dir(std::size_t round) {
  return std::string(kOutDir) + "/sopsd-" + std::to_string(::getpid()) + "-" +
         std::to_string(round);
}

}  // namespace

void run_service(const Options& options, Report& report) {
  const std::size_t per_round = round_jobs(options.tiny);
  const core::ConfiguredExperiment first_config = core::build_experiment(
      io::Config::parse(workload_config(kService, job_seed(options.seed, 0), options.tiny)));
  const std::size_t samples = first_config.experiment.samples;

  if (options.trace) {
    Tracer tracer;
    Round untraced, traced;
    double rss_growth = 0.0;
    {
      Daemon daemon(options.sopsd, private_dir(0), options.threads);
      (void)daemon.wait_ready();
      const double rss_ready = proc_status_mib(daemon.pid(), "VmRSS");
      untraced = run_round(daemon.socket(), options, 0, per_round, nullptr);
      traced = run_round(daemon.socket(), options, per_round, per_round, &tracer);
      rss_growth = (proc_status_mib(daemon.pid(), "VmRSS") - rss_ready) /
                   static_cast<double>(2 * per_round);
      stop_and_check(daemon, report);
    }
    count_jobs(untraced, samples, report);
    count_jobs(traced, samples, report);
    const TimedJob batch = check_parity(options, first_config, untraced.jobs.front(), report);
    if (!batch.ok) return;
    // Job ids 0 … 2·per_round−1 are the rounds' jobs; the in-process
    // recomposition of job 0's config gets the next one.
    (void)trace_layers(first_config, core::JobAnalysis::kPostHoc, batch.outcome,
                       options.threads, static_cast<std::int64_t>(2 * per_round),
                       tracer, report);

    std::vector<double> rtt, queued, run, tail;
    double bytes = 0.0;
    for (const ServiceJob& job : traced.jobs) {
      rtt.push_back(job.submit_rtt_s);
      queued.push_back(job.queued_s);
      run.push_back(job.run_s);
      tail.push_back(job.tail_s);
      bytes += static_cast<double>(job.bytes);
    }
    const std::string jobs = std::to_string(traced.jobs.size()) + " jobs";
    report.metric("service.submit_rtt_ms", median(rtt) * 1e3, "ms", jobs);
    report.metric("service.queued_p50_s", median(queued), "s", jobs);
    report.metric("service.run_p50_s", median(run), "s", jobs);
    report.metric("service.tail_p50_s", median(tail), "s", jobs);
    report.metric("io.stream_mb_per_job",
                  bytes / kMiB / static_cast<double>(traced.jobs.size()), "MiB",
                  "measured: every frame payload a watcher received, " + jobs);
    report.metric("sopsd.rss_growth_mb_per_job", rss_growth, "MiB/job",
                  "daemon VmRSS from ready to after " + std::to_string(2 * per_round) +
                      " jobs");
    report.metric("trace.overhead_frac", (traced.wall_s - untraced.wall_s) / untraced.wall_s,
                  "ratio", "traced round vs untraced round of " +
                               std::to_string(per_round) + " jobs");
    write_trace(tracer, options, report);
    return;
  }

  std::vector<double> ready_s, round_s, job_s, first_s, hwm_mb;
  std::optional<ServiceJob> first_job;
  std::size_t jobs_total = 0;
  const auto start = Clock::now();
  while (round_s.size() < kMinRounds ||
         fits_another(seconds_since(start), round_s, options.seconds)) {
    if (seconds_since(start) > kMaxMeasureSeconds && !round_s.empty()) break;
    Round round;
    {
      Daemon daemon(options.sopsd, private_dir(round_s.size()), options.threads);
      ready_s.push_back(daemon.wait_ready());
      round = run_round(daemon.socket(), options, jobs_total, per_round, nullptr);
      hwm_mb.push_back(proc_status_mib(daemon.pid(), "VmHWM"));
      stop_and_check(daemon, report);
    }
    count_jobs(round, samples, report);
    for (const ServiceJob& job : round.jobs) {
      job_s.push_back(job.total_s);
      first_s.push_back(job.first_sample_s);
    }
    if (!first_job) first_job = std::move(round.jobs.front());
    jobs_total += per_round;
    round_s.push_back(round.wall_s);
  }
  (void)check_parity(options, first_config, *first_job, report);

  double busy_s = 0.0;
  for (const double s : round_s) busy_s += s;
  const std::string rounds =
      sample_note(round_s, "rounds of " + std::to_string(per_round) + " jobs");
  const std::string jobs = sample_note(job_s, "jobs");
  report.metric("wall_s", median(round_s), "s", rounds);
  report.metric("job_p50_s", median(job_s), "s", jobs);
  report.info("job_p90_s", quantile(job_s, 0.9), "s", jobs);
  report.metric("first_sample_p50_s", median(first_s), "s", sample_note(first_s, "jobs"));
  report.metric("jobs_per_s", static_cast<double>(job_s.size()) / busy_s, "1/s", rounds);
  report.metric("setup_s", median(ready_s), "s",
                "exec until the socket accepts, " + sample_note(ready_s, "starts"));
  report.metric("peak_rss_mb", median(hwm_mb), "MiB",
                "daemon VmHWM at round end, " + sample_note(hwm_mb, "rounds"));
}

}  // namespace e2e
