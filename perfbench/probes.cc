#include "probes.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "unicorn/model_learner.h"

namespace perfbench {

using unicorn::CampaignContext;
using unicorn::CausalModelEngine;
using unicorn::obs::trace::Event;

Percentile NearestRank(std::vector<double> samples, double p, size_t min_beyond) {
  Percentile out;
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // p * n first keeps integral ranks exact (90 * 100 / 100 = 90, not 90.000..1).
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.ok = out.beyond >= min_beyond;
  return out;
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0, 0).value;
}

std::map<std::string, SpanTime> SpanTimes(const std::vector<Event>& events) {
  // Timestamps are rounded independently at Begin and End, so a child may
  // end a hair after its parent; treat sub-microsecond overhang as nested.
  constexpr double kEpsUs = 0.5;
  std::map<uint32_t, std::vector<const Event*>> by_thread;
  for (const Event& ev : events) {
    if (ev.phase == 'X' && ev.name != nullptr) {
      by_thread[ev.tid].push_back(&ev);
    }
  }
  std::map<std::string, SpanTime> out;
  for (auto& [tid, spans] : by_thread) {
    (void)tid;
    // Parents start no later than their children and, on a tie, last longer.
    std::sort(spans.begin(), spans.end(), [](const Event* a, const Event* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<double> covered(spans.size(), 0.0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Event& ev = *spans[i];
      while (!stack.empty()) {
        const Event& top = *spans[stack.back()];
        if (ev.ts_us < top.ts_us + top.dur_us - kEpsUs) {
          break;
        }
        stack.pop_back();
      }
      if (!stack.empty()) {
        covered[stack.back()] += ev.dur_us;
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Event& ev = *spans[i];
      std::string key = ev.name;
      for (int k = 0; k < 2; ++k) {
        if (ev.arg_key[k] != nullptr && std::strcmp(ev.arg_key[k], "level") == 0) {
          key += "#" + std::to_string(static_cast<long long>(ev.arg_value[k]));
        }
      }
      SpanTime& t = out[key];
      t.total_s += ev.dur_us * 1e-6;
      t.self_s += std::max(0.0, ev.dur_us - covered[i]) * 1e-6;
    }
  }
  return out;
}

void Observations::Merge(const Observations& other) {
  const auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&refresh_s, other.refresh_s);
  append(&warm_refresh_s, other.warm_refresh_s);
  append(&full_refresh_s, other.full_refresh_s);
  append(&round_s, other.round_s);
  append(&refresh_wait_s, other.refresh_wait_s);
  append(&service_s, other.service_s);
  propose_s += other.propose_s;
  absorb_s += other.absorb_s;
  rounds += other.rounds;
  pairs_total += other.pairs_total;
  pairs_reused += other.pairs_reused;
}

void Recorder::NoteRefreshes(const CausalModelEngine& engine) {
  const unicorn::EngineStats& stats = engine.stats();
  std::lock_guard<std::mutex> lock(mu_);
  Seen& seen = seen_[&engine];
  if (stats.refreshes <= seen.refreshes) {
    return;
  }
  const size_t fresh = stats.refreshes - seen.refreshes;
  const double each = fresh == 1 ? stats.refresh_seconds
                                 : (stats.total_seconds - seen.total_seconds) /
                                       static_cast<double>(fresh);
  for (size_t i = 0; i < fresh; ++i) {
    obs_.refresh_s.push_back(each);
    (stats.warm ? obs_.warm_refresh_s : obs_.full_refresh_s).push_back(each);
  }
  obs_.pairs_total += stats.pairs_total * fresh;
  obs_.pairs_reused += stats.pairs_reused;
  seen.refreshes = stats.refreshes;
  seen.total_seconds = stats.total_seconds;
}

void Recorder::AddRound(double seconds, double propose_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seconds >= 0.0) {
    obs_.round_s.push_back(seconds);
  }
  obs_.propose_s += propose_seconds;
  ++obs_.rounds;
}

void Recorder::AddRefreshWait(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.refresh_wait_s.push_back(seconds);
}

void Recorder::AddAbsorb(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.absorb_s += seconds;
}

void Recorder::AddService(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.service_s.push_back(seconds);
}

Observations Recorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  Observations out = std::move(obs_);
  obs_ = Observations{};
  seen_.clear();
  return out;
}

bool ObservedPolicy::WantsRefresh(const CampaignContext& ctx) {
  const bool wants = inner_->WantsRefresh(ctx);
  if (wants) {
    wants_pending_ = true;
    wants_at_ = Clock::now();
    refreshes_at_wants_ = ctx.engine.stats().refreshes;
  }
  return wants;
}

std::vector<std::vector<double>> ObservedPolicy::Propose(CampaignContext& ctx) {
  const auto now = Clock::now();
  recorder_->NoteRefreshes(ctx.engine);
  if (wants_pending_) {
    wants_pending_ = false;
    const unicorn::EngineStats& stats = ctx.engine.stats();
    const double own_refresh =
        stats.refreshes > refreshes_at_wants_ ? stats.refresh_seconds : 0.0;
    recorder_->AddRefreshWait(
        std::max(0.0, std::chrono::duration<double>(now - wants_at_).count() - own_refresh));
  }
  const double round =
      proposed_before_ ? std::chrono::duration<double>(now - last_propose_).count() : -1.0;
  proposed_before_ = true;
  last_propose_ = now;
  std::vector<std::vector<double>> proposal = inner_->Propose(ctx);
  recorder_->AddRound(round, SecondsSince(now));
  return proposal;
}

void ObservedPolicy::Absorb(const std::vector<std::vector<double>>& configs,
                            const std::vector<std::vector<double>>& rows,
                            CampaignContext& ctx) {
  const auto start = Clock::now();
  inner_->Absorb(configs, rows, ctx);
  recorder_->AddAbsorb(SecondsSince(start));
}

void ObservedPolicy::Finalize(CampaignContext& ctx) {
  recorder_->NoteRefreshes(ctx.engine);
  inner_->Finalize(ctx);
}

unicorn::MeasureOutcome TimedBackend::Measure(const std::vector<double>& config, int attempt) {
  const auto start = Clock::now();
  unicorn::MeasureOutcome outcome = inner_->Measure(config, attempt);
  recorder_->AddService(SecondsSince(start));
  return outcome;
}

unicorn::PerformanceTask CountedTask(unicorn::PerformanceTask task, SimCounter* counter) {
  auto inner = std::move(task.measure);
  task.measure = [inner = std::move(inner), counter](const std::vector<double>& config) {
    const auto start = Clock::now();
    std::vector<double> row = inner(config);
    counter->nanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count(),
        std::memory_order_relaxed);
    counter->calls.fetch_add(1, std::memory_order_relaxed);
    return row;
  };
  return task;
}

namespace {

int CurrentThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      const size_t start =
          colon == std::string::npos ? colon : line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

ThreadSampler::ThreadSampler() {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const int threads = CurrentThreads();
      int seen = peak_.load();
      while (threads > seen && !peak_.compare_exchange_weak(seen, threads)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string FingerprintJson() {
#ifdef UNICORN_NO_OBS
  const bool no_obs = true;
#else
  const bool no_obs = false;
#endif
#ifdef UNICORN_NO_SIMD
  const bool no_simd = true;
#else
  const bool no_simd = false;
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"UNICORN_NO_OBS\": " << (no_obs ? "true" : "false")
      << ", \"UNICORN_NO_SIMD\": " << (no_simd ? "true" : "false") << "}";
  return out.str();
}

}  // namespace perfbench
