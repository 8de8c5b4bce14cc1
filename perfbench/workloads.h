// The benchmark's three campaign workloads. Each is set up from a seed
// (simulator, curated faults, warm tables, recordings) and then runs timed
// campaigns through the public campaign/debugger/optimizer/broker/backend
// APIs. Every campaign is a closed loop: a tenant proposes again only after
// its rows are absorbed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "unicorn/engine_pool.h"
#include "unicorn/measurement_broker.h"

namespace perfbench {

// The decorators a workload installs. Null members mean "run undecorated";
// the self-test compares both ways bit for bit.
struct Probes {
  Recorder* recorder = nullptr;
  SimCounter* sim = nullptr;
};

// What one timed campaign produced.
struct CampaignOutcome {
  double wall_s = 0.0;
  // Hash of everything the campaign must reproduce exactly: per-shard table
  // fingerprints, per-policy results and the CI tests requested.
  uint64_t signature = 0;
  double repair_gain_pct = 0.0;  // mean over debug tenants
  double opt_gain_pct = 0.0;     // mean over optimize tenants (0 if none)
  unicorn::BrokerStats broker;
  unicorn::FleetStats fleet;  // empty for a pool-mode broker
  unicorn::ShardPoolStats pool;
  size_t ci_cache_entries = 0;  // shared CI cache at campaign end
  // Persistence (transfer-warm only).
  double table_load_s = 0.0;
  double cache_load_s = 0.0;
  double table_save_s = 0.0;
  double cache_save_s = 0.0;
  double persist_bytes = 0.0;
  std::vector<std::string> errors;  // failed output checks
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Instances of the seed the timed loop cycles through (faults, tenant
  // mixes or source sessions); RunCampaign takes an index below this.
  virtual size_t variants() const = 0;
  // Hash of the set-up's products; repeated set-ups must agree.
  virtual uint64_t SetupDigest() const = 0;
  virtual CampaignOutcome RunCampaign(size_t variant) = 0;
  // Checks a campaign signature against an independent oracle run, where the
  // workload has one. Returns failed checks.
  virtual std::vector<std::string> CheckOracle(size_t variant, uint64_t signature) {
    (void)variant;
    (void)signature;
    return {};
  }
};

const std::vector<std::string>& WorkloadNames();

// Sets up workload `name` (nullptr for an unknown name). `small` shrinks
// every size for the self-test. `work_dir` receives the files the workload
// persists; it must exist.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool small,
                                       const std::string& work_dir, Probes probes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
