// Self-test of the benchmark's own helpers:
//   * nearest-rank percentiles and the ten-samples-beyond rule;
//   * span self times on nested spans;
//   * decorated campaigns (policy/backend decorators, counted simulator) are
//     bit-identical to undecorated ones, on every workload at small scale.
//
//   perfbench_selftest <work-dir>
//
// Prints one line per failed check and exits non-zero if there was any.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  const Percentile p90 = NearestRank(hundred, 90.0, 10);
  Expect(Near(p90.value, 90.0) && p90.beyond == 10 && p90.ok, "p90 of 1..100 is 90, 10 beyond");
  hundred.pop_back();  // 99 samples: the p90 rank is 90, only 9 beyond
  const Percentile short90 = NearestRank(hundred, 90.0, 10);
  Expect(short90.beyond == 9 && !short90.ok, "p90 of 99 samples fails the ten-beyond rule");
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of {3,1,2} is 2");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.0), "nearest-rank median of 4 samples is rank 2");
  Expect(!NearestRank({}, 50.0, 0).ok && Median({}) == 0.0, "no samples, no percentile");
  Expect(Near(NearestRank({5.0}, 99.0, 0).value, 5.0), "one sample is every percentile");
}

unicorn::obs::trace::Event Span(const char* name, uint32_t tid, double ts, double dur,
                                double level = -1.0) {
  unicorn::obs::trace::Event ev;
  ev.name = name;
  ev.tid = tid;
  ev.ts_us = ts;
  ev.dur_us = dur;
  if (level >= 0.0) {
    ev.arg_key[0] = "level";
    ev.arg_value[0] = level;
  }
  return ev;
}

void TestSelfTimes() {
  // Thread 1: A[0,100) holds B[10,40) (which holds D[20,30)) and C[50,60);
  // F[200,300) shares its start with its child G[200,250).
  // Thread 2: E[0,50) overlaps A in time but is on another thread.
  const std::vector<unicorn::obs::trace::Event> events = {
      Span("D", 1, 20, 10), Span("A", 1, 0, 100), Span("C", 1, 50, 10),
      Span("B", 1, 10, 30), Span("E", 2, 0, 50),  Span("G", 1, 200, 50),
      Span("F", 1, 200, 100), Span("skeleton.level", 1, 400, 10, 1.0),
  };
  const auto times = SpanTimes(events);
  const auto self_us = [&](const std::string& key) {
    const auto it = times.find(key);
    return it == times.end() ? -1.0 : it->second.self_s * 1e6;
  };
  Expect(Near(self_us("A"), 60.0), "A self = 100 - B 30 - C 10");
  Expect(Near(self_us("B"), 20.0), "B self = 30 - D 10");
  Expect(Near(self_us("C"), 10.0) && Near(self_us("D"), 10.0), "leaves keep their duration");
  Expect(Near(self_us("E"), 50.0), "spans on another thread are not children");
  Expect(Near(self_us("F"), 50.0) && Near(self_us("G"), 50.0), "same-start child nests");
  Expect(Near(self_us("skeleton.level#1"), 10.0), "level arg keys the span");
  Expect(Near(times.at("A").total_s * 1e6, 100.0), "total keeps the full duration");
}

void TestDecoratorsAreTransparent(const std::string& work_dir) {
  for (const std::string& name : WorkloadNames()) {
    auto plain = MakeWorkload(name, 5, /*small=*/true, work_dir, Probes{});
    const CampaignOutcome a = plain->RunCampaign(0);
    Recorder recorder;
    SimCounter sim;
    auto decorated = MakeWorkload(name, 5, /*small=*/true, work_dir, Probes{&recorder, &sim});
    const CampaignOutcome b = decorated->RunCampaign(0);
    const Observations seen = recorder.Take();
    Expect(a.signature == b.signature, name + ": decorated campaign is bit-identical");
    Expect(a.errors.empty() && b.errors.empty(), name + ": output checks pass");
    Expect(!seen.refresh_s.empty() && seen.rounds > 0 && sim.calls.load() > 0,
           name + ": decorators observed refreshes, rounds and simulator calls");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <work-dir>\n");
    return 2;
  }
  perfbench::TestPercentiles();
  perfbench::TestSelfTimes();
  perfbench::TestDecoratorsAreTransparent(argv[1]);
  std::printf("perfbench_selftest: %s\n", perfbench::failures == 0 ? "ok" : "FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
