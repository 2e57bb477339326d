#include "core/streaming_analyzer.hpp"

#include <chrono>
#include <utility>

#include "support/executor.hpp"

namespace sops::core {

StreamingAnalyzer::StreamingAnalyzer(AnalysisOptions options,
                                     const support::CancelToken* cancel)
    : options_(std::move(options)), cancel_(cancel) {}

StreamingAnalyzer::~StreamingAnalyzer() { abort(); }

void StreamingAnalyzer::on_recording_started(const EnsembleSeries& series) {
  support::expect(!started_,
                  "StreamingAnalyzer: already observing a recording");
  // The same preconditions analyze_self_organization enforces — checked
  // here, on the producer's calling thread, so a misconfigured analysis
  // fails before any sample simulates.
  support::expect(series.frame_count() >= 1, "analyze: empty series");
  support::expect(series.sample_count() >= options_.ksg.k + 1,
                  "analyze: need more samples than the estimator's k");
  support::expect(series.particle_count() >= 2,
                  "analyze: need at least two particles");

  frame_count_ = series.frame_count();
  samples_ = series.sample_count();
  types_ = series.types;
  frame_steps_ = series.frame_steps;
  coarse_ = series.particle_count() > options_.coarse_grain_above;

  // Frame views into the store, captured now: the store's backing
  // allocation is stable across the series' later move to the caller, so
  // the views stay valid until finish()/abort().
  frames_.clear();
  frames_.reserve(frame_count_);
  for (std::size_t f = 0; f < frame_count_; ++f) {
    frames_.push_back(series.frames[f]);
  }

  arrivals_ = std::make_unique<std::atomic<std::size_t>[]>(frame_count_);
  points_.assign(frame_count_, TimePoint{});
  observer_counts_.assign(frame_count_, 0);
  ready_.clear();
  next_ready_ = 0;
  frames_done_ = 0;
  stop_ = false;
  error_ = nullptr;
  started_ = true;
  consumer_ = std::thread([this] { consume(); });
}

void StreamingAnalyzer::on_frames_recorded(std::size_t begin_frame,
                                           std::size_t end_frame,
                                           std::size_t /*local_sample*/) {
  for (std::size_t f = begin_frame; f < end_frame; ++f) {
    const std::size_t arrived =
        arrivals_[f].fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == samples_) {
      // Exactly one sample observes the completing count, so the enqueue
      // is single-shot per frame. Samples record frames in grid order,
      // which makes the queue ascending in f (see file comment).
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ready_.push_back(f);
      }
      cv_.notify_all();
    }
  }
}

void StreamingAnalyzer::consume() {
  try {
    // The consumer owns the whole analysis thread budget, and every worker
    // serves the current frame's inner loops (the alignment rows and the
    // estimators' passes): analyze_self_organization's schedule.
    support::TaskPool pool(options_.threads);
    support::Executor& executor = pool.executor();
    while (true) {
      std::size_t f = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto frame_ready = [&] {
          return stop_ || next_ready_ < ready_.size();
        };
        if (cancel_ == nullptr) {
          cv_.wait(lock, frame_ready);
        } else {
          // Nothing notifies the condition variable when a token is
          // raised (request() is signal-safe, so it cannot lock), so a
          // cancellation-aware consumer polls on a short timeout while
          // idle.
          while (!frame_ready()) {
            support::CancelToken::check(cancel_,
                                        "streaming analysis cancelled");
            cv_.wait_for(lock, std::chrono::milliseconds(50), frame_ready);
          }
        }
        if (stop_) return;
        f = ready_[next_ready_++];
      }
      // Between-frames poll point: a cancelled drain stops after the
      // in-flight frame, and the CancelledError surfaces out of finish()
      // via the consumer's normal error path.
      support::CancelToken::check(cancel_, "streaming analysis cancelled");
      FrameAnalysis frame = analyze_frame(frames_[f], types_, frame_steps_[f],
                                          f, coarse_, options_, executor);
      observer_counts_[f] = frame.observer_count;
      points_[f] = std::move(frame.point);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++frames_done_;
        if (frames_done_ == frame_count_) {
          cv_.notify_all();
          return;
        }
      }
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::current_exception();
    cv_.notify_all();
  }
}

AnalysisResult StreamingAnalyzer::finish() {
  support::expect(started_, "StreamingAnalyzer::finish: no recording started");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return error_ != nullptr || frames_done_ == frame_count_;
    });
  }
  if (consumer_.joinable()) consumer_.join();
  started_ = false;
  frames_.clear();
  if (error_ != nullptr) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    std::rethrow_exception(error);
  }

  AnalysisResult result;
  result.coarse_grained = coarse_;
  result.points = std::move(points_);
  result.observer_count = observer_counts_.front();
  return result;
}

void StreamingAnalyzer::abort() noexcept {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (consumer_.joinable()) consumer_.join();
  started_ = false;
  frames_.clear();
  error_ = nullptr;
}

AnalysisResult measure_experiment_streamed(const ExperimentConfig& config,
                                           const AnalysisOptions& options) {
  StreamingAnalyzer analyzer(options);
  ExperimentConfig streamed = config;
  streamed.observer = &analyzer;
  try {
    // The series must outlive finish(): the consumer reads frame views
    // into its store until the last frame is analyzed.
    const EnsembleSeries series = run_experiment(streamed);
    return analyzer.finish();
  } catch (...) {
    analyzer.abort();
    throw;
  }
}

}  // namespace sops::core
