#include "common.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/cancel.hpp"
#include "support/simd.hpp"

namespace e2e {

std::atomic<bool> g_interrupted{false};
std::atomic<pid_t> g_daemon_pid{0};
std::atomic<sops::support::CancelToken*> g_cancel_token{nullptr};

namespace {

void handle_signal(int /*signum*/) {
  g_interrupted.store(true);
  const pid_t daemon = g_daemon_pid.load();
  if (daemon > 0) ::kill(daemon, SIGTERM);
  sops::support::CancelToken* token = g_cancel_token.load();
  if (token != nullptr) token->request();
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == kFig4 || name == kCoarse || name == kCollective ||
         name == kService;
}

std::string workload_config(const std::string& workload, std::uint64_t job_seed,
                            bool tiny) {
  std::ostringstream text;
  if (workload == kFig4) {
    text << "preset = fig4\n"
         << "samples = " << (tiny ? 40 : 500) << "\n"
         << "steps = " << (tiny ? 50 : 250) << "\n"
         << "stride = 25\n";
  } else if (workload == kCoarse) {
    text << "types = 3\nforce = spring\nk = 1\n"
         << "r = 2.5 5 4; 5 2.5 2; 4 2 3.5\nrc = 5\n"
         << "particles = " << (tiny ? 128 : 512) << "\n"
         << "init_radius = " << (tiny ? 8 : 16) << "\n"
         << "samples = " << (tiny ? 24 : 100) << "\n"
         << "steps = " << (tiny ? 50 : 250) << "\n"
         << "stride = " << (tiny ? 25 : 50) << "\n";
  } else if (workload == kCollective) {
    // Five recorded frames in both sizes: the off-path analysis probe
    // treats them as a five-row ensemble, and KSG needs k + 1 = 5 rows.
    text << "types = 3\nforce = double_gaussian\nk = 1\nr = 2\n"
         << "sigma = 1\ntau = 1\nrc = 3\n"
         << "particles = " << (tiny ? 2048 : 16384) << "\n"
         << "init_radius = " << (tiny ? 68 : 192) << "\n"
         << "samples = 1\n"
         << "steps = " << (tiny ? 120 : 600) << "\n"
         << "stride = " << (tiny ? 30 : 150) << "\n";
  } else if (workload == kService) {
    text << "preset = fig4\n"
         << "samples = " << (tiny ? 8 : 32) << "\n"
         << "steps = " << (tiny ? 50 : 250) << "\n"
         << "stride = 25\n";
  }
  text << "seed = " << job_seed << "\n";
  return text.str();
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = position - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

bool fits_another(double elapsed, const std::vector<double>& done, double budget) {
  double mean = 0.0;
  for (const double s : done) mean += s;
  if (!done.empty()) mean /= static_cast<double>(done.size());
  return elapsed + mean <= budget;
}

std::string sample_note(const std::vector<double>& values,
                        const std::string& what) {
  if (values.empty()) return "0 " + what;
  const auto [low, high] = std::minmax_element(values.begin(), values.end());
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, ", min %.6g max %.6g", *low, *high);
  return std::to_string(values.size()) + " " + what + buffer;
}

double proc_status_mib(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kib = -1.0;
      fields >> kib;
      return kib < 0.0 ? -1.0 : kib / 1024.0;
    }
  }
  return -1.0;
}

void warm_up(std::size_t threads, double seconds) {
  const auto until = Clock::now() + std::chrono::duration<double>(seconds);
  const auto spin = [until] {
    double x = 1.0;
    while (Clock::now() < until) {
      for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 1e-9;
    }
    return x;
  };
  std::vector<std::jthread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(spin);
  (void)spin();
}

std::string host_json(const Options& options) {
  std::ostringstream out;
  out << "{\"nproc\":" << options.threads
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"compiler\":" << json_string(E2E_CXX_COMPILER)
      << ",\"simd_isa\":" << json_string(sops::support::simd_isa())
      << ",\"build_type\":" << json_string(E2E_BUILD_TYPE)
      << ",\"commit\":" << json_string(options.commit)
      << ",\"source_digest\":" << json_string(options.source_digest) << "}";
  return out.str();
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A daemon that dies mid-write must fail a check, not kill the client.
  signal(SIGPIPE, SIG_IGN);
}

void Report::job(bool ok, const std::string& what) {
  ++attempted_;
  ++jobs_;
  if (!ok) {
    ++failed_;
    ++failed_jobs_;
    failures_.push_back("job: " + what);
  }
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back("check: " + what);
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

bool Report::reports(const std::string& name, const std::string& unit) const {
  const auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.unit == unit &&
         std::isfinite(it->second.value);
}

std::vector<std::string> Report::metric_names() const {
  std::vector<std::string> names;
  for (const auto& entry : metrics_) names.push_back(entry.first);
  return names;
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  infos_[name] = Metric{value, unit, note};
}

void Report::print(std::ostream& out) const {
  char buffer[64];
  for (const auto* lines : {&metrics_, &infos_}) {
    for (const auto& [name, metric] : *lines) {
      std::snprintf(buffer, sizeof buffer, "%.6g", metric.value);
      out << (lines == &metrics_ ? "metric " : "info ") << name << " = " << buffer
          << " " << metric.unit;
      if (!metric.note.empty()) out << "  (" << metric.note << ")";
      out << "\n";
    }
  }
  for (const std::string& failure : failures_) out << "FAILED " << failure << "\n";
  // error_rate = failed / attempted over jobs and checks alike; it is 0 on
  // a healthy run, so it is printed here rather than carried as a bounded
  // metric (see README.md).
  std::snprintf(buffer, sizeof buffer, "%.6g",
                attempted_ == 0 ? 1.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_));
  out << "error_rate = " << buffer << " ratio (" << failed_ << " failed of "
      << attempted_ << " attempted; jobs " << failed_jobs_ << " of " << jobs_
      << ")\n";

  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(buffer, sizeof buffer, "%.17g",
                  std::isfinite(metric.value) ? metric.value : -1.0);
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << buffer
        << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  out << "}}" << std::endl;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"wall_s", "s"},        {"setup_s", "s"},
      {"peak_rss_mb", "MiB"}, {"job_p50_s", "s"},
      {"first_sample_p50_s", "s"}, {"jobs_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"core.sim_s", "s"},
      {"core.analysis_s", "s"},
      {"core.record_mb", "MiB"},
      {"support.dispatch_us", "us"},
      {"sim.drift_us", "us"},
      {"geom.rebuild_us", "us"},
      {"sim.integrate_us", "us"},
      {"sim.residual_us", "us"},
      {"sim.pairs_per_step", "count"},
      {"sim.drift_ns_per_pair", "ns"},
      {"sim.drift_scaling", "x"},
      {"align.align_ms", "ms"},
      {"cluster.coarse_grain_ms", "ms"},
      {"info.cache_build_ms", "ms"},
      {"info.ksg_ms", "ms"},
      {"info.dims", "count"},
      {"service.submit_rtt_ms", "ms"},
      {"service.queued_p50_s", "s"},
      {"service.run_p50_s", "s"},
      {"service.tail_p50_s", "s"},
      {"io.sample_csv_us", "us"},
      {"io.stream_mb_per_job", "MiB"},
      {"sopsd.rss_growth_mb_per_job", "MiB/job"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

}  // namespace e2e
