// Outside-in instrumentation for the repository benchmark.
//
// Every per-layer number the benchmark reports is taken from outside the
// library: decorators around the public CampaignPolicy and
// MeasurementBackend interfaces, a wrapper on PerformanceTask::measure, the
// public stats structs, and the spans the library already emits through
// obs::trace. Nothing here changes what the wrapped objects compute — the
// decorators forward every call unchanged and only read clocks and public
// stats (pinned by perfbench_selftest: decorated runs are bit-identical to
// undecorated ones).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "unicorn/backend/backend.h"
#include "unicorn/campaign.h"
#include "unicorn/task.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- percentiles ------------------------------------------------------------

// Nearest-rank percentile: the sample at rank ceil(p/100 * n) of the sorted
// samples. `beyond` counts the samples ranked after it; `ok` says at least
// `min_beyond` of them exist, so the tail the percentile claims to describe
// was actually observed (p90 needs >= 100 samples for 10 beyond it).
struct Percentile {
  double value = 0.0;
  size_t beyond = 0;
  bool ok = false;
};
Percentile NearestRank(std::vector<double> samples, double p, size_t min_beyond);
// Nearest-rank median (0 for no samples).
double Median(std::vector<double> samples);

// --- span self times ----------------------------------------------------------

// Per span key: total duration and self time (duration minus what direct
// child spans on the same thread cover), in seconds. The key is the span
// name, suffixed with "#<level>" when the span carries a `level` arg
// (skeleton.level spans, one per skeleton depth).
struct SpanTime {
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTime> SpanTimes(const std::vector<unicorn::obs::trace::Event>& events);

// --- the observation ledger ---------------------------------------------------

// Everything the decorators observed during campaigns. Timing samples are
// per event (one per refresh, per round, per device attempt).
struct Observations {
  std::vector<double> refresh_s;       // every engine refresh
  std::vector<double> warm_refresh_s;  // warm-started ones
  std::vector<double> full_refresh_s;  // exact relearns (cold + re-anchors)
  std::vector<double> round_s;         // gap between a tenant's consecutive Proposes
  std::vector<double> refresh_wait_s;  // WantsRefresh -> Propose minus own refresh
  std::vector<double> service_s;       // one backend Measure call
  double propose_s = 0.0;
  double absorb_s = 0.0;
  size_t rounds = 0;
  size_t pairs_total = 0;
  size_t pairs_reused = 0;

  void Merge(const Observations& other);
};

// Collects observations from the campaign thread (policy decorators) and
// from fleet workers (backend decorators). All methods are thread-safe.
class Recorder {
 public:
  // Records every refresh `engine` completed since the last call for it:
  // EngineStats::refresh_seconds when exactly one is new, otherwise the
  // cumulative time delta spread evenly over the unseen refreshes.
  void NoteRefreshes(const unicorn::CausalModelEngine& engine);
  void AddRound(double seconds, double propose_seconds);
  void AddRefreshWait(double seconds);
  void AddAbsorb(double seconds);
  void AddService(double seconds);

  // Returns what was recorded since the last Take and starts afresh (the
  // per-engine refresh bookmarks are dropped too: engines die with their
  // campaign).
  Observations Take();

 private:
  struct Seen {
    size_t refreshes = 0;
    double total_seconds = 0.0;
  };
  std::mutex mu_;
  Observations obs_;
  std::unordered_map<const unicorn::CausalModelEngine*, Seen> seen_;
};

// CampaignPolicy decorator: forwards every callback to `inner` and
// timestamps WantsRefresh, Propose and Absorb.
class ObservedPolicy : public unicorn::CampaignPolicy {
 public:
  ObservedPolicy(unicorn::CampaignPolicy* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  bool WantsRefresh(const unicorn::CampaignContext& ctx) override;
  std::vector<std::vector<double>> Propose(unicorn::CampaignContext& ctx) override;
  std::vector<std::string> ProposalEnvironments(size_t proposal_size) override {
    return inner_->ProposalEnvironments(proposal_size);
  }
  void Absorb(const std::vector<std::vector<double>>& configs,
              const std::vector<std::vector<double>>& rows,
              unicorn::CampaignContext& ctx) override;
  bool Finished() const override { return inner_->Finished(); }
  void Finalize(unicorn::CampaignContext& ctx) override;

 private:
  unicorn::CampaignPolicy* inner_;
  Recorder* recorder_;
  bool wants_pending_ = false;
  Clock::time_point wants_at_{};
  size_t refreshes_at_wants_ = 0;
  bool proposed_before_ = false;
  Clock::time_point last_propose_{};
};

// MeasurementBackend decorator: forwards to `inner` and times Measure.
class TimedBackend : public unicorn::MeasurementBackend {
 public:
  TimedBackend(std::unique_ptr<unicorn::MeasurementBackend> inner, Recorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  const std::string& name() const override { return inner_->name(); }
  int concurrency() const override { return inner_->concurrency(); }
  const std::string& environment() const override { return inner_->environment(); }
  bool Supports(const std::vector<double>& config) const override {
    return inner_->Supports(config);
  }
  unicorn::MeasureOutcome Measure(const std::vector<double>& config, int attempt) override;

 private:
  std::unique_ptr<unicorn::MeasurementBackend> inner_;
  Recorder* recorder_;
};

// Simulator call ledger filled by CountedTask.
struct SimCounter {
  std::atomic<long long> calls{0};
  std::atomic<long long> nanos{0};
};

// `task` with measure wrapped to count and time every simulator call.
// `counter` must outlive every copy of the returned task.
unicorn::PerformanceTask CountedTask(unicorn::PerformanceTask task, SimCounter* counter);

// --- process probes -----------------------------------------------------------

// Samples `Threads:` of /proc/self/status every 20 ms on a
// background thread; Peak() is the largest value seen (the sampler itself
// included). Joins on destruction.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int Peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// One JSON object describing the host and the build (nproc, CPU model,
// compiler, build type, compile-time switches). The source revision is added
// by the wrapper script, which can see the checkout.
std::string FingerprintJson();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
