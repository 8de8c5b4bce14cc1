#include "workloads.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <type_traits>

#include "eval/harness.h"
#include "eval/metrics.h"
#include "stats/ci_cache.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/backend/backend_fleet.h"
#include "unicorn/backend/binary_table.h"
#include "unicorn/backend/in_process_backend.h"
#include "unicorn/campaign.h"
#include "unicorn/debugger.h"
#include "unicorn/optimizer.h"

namespace perfbench {

using namespace unicorn;  // NOLINT: the benchmark drives this library only

namespace {

// FNV-1a over the bytes of what is added: campaign signatures.
class Hasher {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (value >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const T& v : values) {
      Add(static_cast<std::conditional_t<std::is_floating_point_v<T>, double, uint64_t>>(v));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

PerformanceTask Instrument(PerformanceTask task, const Probes& probes) {
  return probes.sim != nullptr ? CountedTask(std::move(task), probes.sim) : task;
}

std::unique_ptr<MeasurementBackend> Timed(std::unique_ptr<MeasurementBackend> backend,
                                          const Probes& probes) {
  if (probes.recorder == nullptr) {
    return backend;
  }
  return std::make_unique<TimedBackend>(std::move(backend), probes.recorder);
}

// Decorates policies for one campaign when a recorder is installed; the
// decorators live as long as this object.
class PolicyWrapper {
 public:
  explicit PolicyWrapper(Recorder* recorder) : recorder_(recorder) {}
  CampaignPolicy* operator()(CampaignPolicy* policy) {
    if (recorder_ == nullptr) {
      return policy;
    }
    observed_.push_back(std::make_unique<ObservedPolicy>(policy, recorder_));
    return observed_.back().get();
  }

 private:
  Recorder* recorder_;
  std::vector<std::unique_ptr<ObservedPolicy>> observed_;
};

size_t LatencyVar(const SystemModel& model) {
  const auto index = DataTable(model.variables()).IndexOf(kLatencyName);
  if (!index.has_value()) {
    throw std::runtime_error("system model has no latency objective");
  }
  return *index;
}

// Up to `count` curated latency faults with known root causes, cycling
// through the ones found when there are fewer.
std::vector<Fault> LatencyFaults(const FaultCuration& curation, size_t latency, size_t count) {
  std::vector<Fault> found;
  for (const Fault& fault : FaultsOn(curation, latency)) {
    if (!fault.root_causes.empty()) {
      found.push_back(fault);
    }
  }
  if (found.empty()) {
    throw std::runtime_error("no curated latency fault with a known root cause");
  }
  std::vector<Fault> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(found[i % found.size()]);
  }
  return out;
}

uint64_t DigestFaults(const std::vector<Fault>& faults,
                      const std::vector<std::vector<ObjectiveGoal>>& goals) {
  Hasher h;
  for (const Fault& fault : faults) {
    h.Add(fault.config);
    h.Add(fault.measurement);
  }
  for (const auto& goal_set : goals) {
    for (const ObjectiveGoal& goal : goal_set) {
      h.Add(static_cast<uint64_t>(goal.var));
      h.Add(goal.threshold);
    }
  }
  return h.value();
}

// Goals at 1% of the curation's 2nd-percentile target: never met, so every
// debug tenant spends its full repair budget and campaigns of one workload
// do comparable work whatever fault the seed picked.
std::vector<ObjectiveGoal> UnattainableGoals(const FaultCuration& curation, const Fault& fault) {
  std::vector<ObjectiveGoal> goals = GoalsForFault(curation, fault, 0.02);
  for (ObjectiveGoal& goal : goals) {
    goal.threshold *= 0.01;
  }
  return goals;
}

void AddDebugResult(Hasher* h, const DebugResult& result) {
  for (const auto& step : result.objective_trajectory) {
    h->Add(step);
  }
  h->Add(result.selected_options);
  h->Add(result.fixed_config);
  h->Add(static_cast<uint64_t>(result.measurements_used));
}

void AddOptimizeResult(Hasher* h, const OptimizeResult& result) {
  h->Add(result.best_config);
  h->Add(result.best_value);
  h->Add(static_cast<uint64_t>(result.measurements_used));
}

double RepairGain(const Fault& fault, const DebugResult& result, size_t latency) {
  return result.fixed_measurement.empty()
             ? 0.0
             : Gain(fault.measurement[latency], result.fixed_measurement[latency]);
}

// Improvement of the final best value over the best value after bootstrap.
double OptimizeGain(const OptimizeResult& result, size_t bootstrap) {
  const auto& trajectory = result.best_trajectory;
  if (trajectory.empty() || bootstrap == 0) {
    return 0.0;
  }
  return Gain(trajectory[std::min(bootstrap, trajectory.size()) - 1], trajectory.back());
}

void FillStats(CampaignRunner& runner, CampaignOutcome* out) {
  out->broker = runner.broker().stats();
  out->fleet = runner.broker().fleet_stats();
  out->pool = runner.pool().stats();
  out->ci_cache_entries = runner.pool().shared_cache().size();
}

// --- debug-incremental --------------------------------------------------------
//
// The Table-3 shape: UnicornDebugger's loop on SQLite with 242 options and
// 288 events, warm-started refreshes with an exact re-anchor every 8th, a
// pool-mode broker. Reasoning-bound: measurement is a rounding error. Each
// variant debugs another curated fault for 24 repair rounds.
class DebugIncremental final : public Workload {
 public:
  DebugIncremental(uint64_t seed, bool small, Probes probes)
      : seed_(seed), small_(small), probes_(probes) {
    SystemSpec spec;
    spec.num_events = small ? 19 : 288;
    spec.extended_options = true;
    model_ = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
    Rng rng(seed);
    curation_ =
        CurateFaults(*model_, Xavier(), DefaultWorkload(), small ? 300 : 1200, &rng, 0.97);
    latency_ = LatencyVar(*model_);
    faults_ = LatencyFaults(curation_, latency_, kFaults);
    for (const Fault& fault : faults_) {
      goals_.push_back(UnattainableGoals(curation_, fault));
    }
    task_ = Instrument(MakeSimulatedTask(model_, Xavier(), DefaultWorkload(), seed + 1), probes);
  }

  size_t variants() const override { return faults_.size(); }
  uint64_t SetupDigest() const override { return DigestFaults(faults_, goals_); }

  CampaignOutcome RunCampaign(size_t variant) override {
    const DebugOptions options = Options(variant);
    CampaignRunner runner(task_, ToCampaignOptions(options));
    DebugPolicy policy(options, faults_[variant].config, goals_[variant]);
    PolicyWrapper wrap(probes_.recorder);
    const auto start = Clock::now();
    runner.Run({wrap(&policy)});
    CampaignOutcome out;
    out.wall_s = SecondsSince(start);
    FillStats(runner, &out);
    Hasher h;
    h.Add(runner.engine().data_fingerprint());
    AddDebugResult(&h, policy.result());
    h.Add(static_cast<uint64_t>(out.pool.tests_requested));
    out.signature = h.value();
    out.repair_gain_pct = RepairGain(faults_[variant], policy.result(), latency_);
    return out;
  }

 private:
  static constexpr size_t kFaults = 6;

  DebugOptions Options(size_t variant) const {
    DebugOptions o;
    o.initial_samples = 25;
    o.max_iterations = small_ ? 6 : 24;
    o.stall_termination = 1000;
    o.repairs_per_iteration = 2;
    o.model.fci.skeleton.alpha = 0.1;
    o.model.fci.skeleton.max_cond_size = 1;
    o.model.fci.skeleton.max_subsets = 8;
    o.model.fci.max_pds_cond_size = 1;
    o.model.fci.use_possible_dsep = false;
    o.model.entropic.latent.restarts = 1;
    o.model.entropic.latent.iterations = 20;
    o.engine.stale_epsilon = 0.05;
    o.engine.full_refresh_every = 8;
    o.engine.num_threads = 4;  // the shipped Table-3 engine thread count
    o.engine.use_ci_cache = true;
    o.broker.num_threads = 1;  // pool mode, measured inline: engine threads use the cores
    o.seed = seed_ * 31 + variant;
    return o;
  }

  uint64_t seed_;
  bool small_;
  Probes probes_;
  std::shared_ptr<SystemModel> model_;
  FaultCuration curation_;
  size_t latency_ = 0;
  std::vector<Fault> faults_;
  std::vector<std::vector<ObjectiveGoal>> goals_;
  PerformanceTask task_;
};

// --- fleet-multitenant ----------------------------------------------------------
//
// The pipelined 16-tenant mix of bench/table_pipeline.cc, scaled down: heavy
// DebugPolicys over big transferred tables and light OptimizePolicys over
// small ones, one objective group each, on 4 sleeping simulated TX2 devices
// with transient failures. Measurement- and scheduling-bound.
class FleetMultitenant final : public Workload {
 public:
  FleetMultitenant(uint64_t seed, bool small, Probes probes)
      : seed_(seed), small_(small), probes_(probes) {
    heavy_ = small ? 2 : 4;
    light_ = small ? 4 : 12;
    SystemSpec spec;
    spec.num_events = small ? 8 : 12;
    model_ = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
    Rng rng(seed);
    curation_ = CurateFaults(*model_, Tx2(), DefaultWorkload(), small ? 300 : 2000, &rng, 0.97);
    latency_ = LatencyVar(*model_);
    task_ = Instrument(
        MakeSimulatedTask(model_, Tx2(), DefaultWorkload(), seed * 1000 + 1120), probes);
    const std::vector<Fault> faults = LatencyFaults(curation_, latency_, heavy_ * kInstances);
    for (size_t k = 0; k < kInstances; ++k) {
      // Transferred tables: seeded jittered resamples of one measured base
      // per instance, so the CI tests stream realistically correlated
      // columns at little simulator cost, and instances stay independent.
      std::vector<std::vector<double>> base;
      Rng base_rng(seed * 64 + 499 + k);
      for (size_t i = 0; i < (small ? 200 : kBaseRows); ++i) {
        base.push_back(task_.measure(task_.sample_config(&base_rng)));
      }
      Instance instance;
      for (size_t i = 0; i < heavy_; ++i) {
        instance.faults.push_back(faults[k * heavy_ + i]);
        instance.goals.push_back(UnattainableGoals(curation_, instance.faults.back()));
        instance.warm.push_back(
            Derive(base, small ? 300 : kHeavyRows, seed * 7 + 500 + 16 * k + i));
      }
      for (size_t i = 0; i < light_; ++i) {
        instance.warm_light.push_back(Derive(base, kLightRows, seed * 7 + 600 + 16 * k + i));
      }
      instances_.push_back(std::move(instance));
    }
  }

  size_t variants() const override { return instances_.size(); }

  uint64_t SetupDigest() const override {
    Hasher h;
    for (const Instance& instance : instances_) {
      h.Add(DigestFaults(instance.faults, instance.goals));
      for (const auto* tables : {&instance.warm, &instance.warm_light}) {
        for (const DataTable& table : *tables) {
          for (size_t v = 0; v < table.NumVars(); ++v) {
            h.Add(table.Col(v));
          }
        }
      }
    }
    return h.value();
  }

  CampaignOutcome RunCampaign(size_t variant) override {
    CampaignRunner runner(task_, Options(), MakeFleet());
    return Run(&runner, instances_[variant], /*oracle=*/false);
  }

  std::vector<std::string> CheckOracle(size_t variant, uint64_t signature) override {
    // The synchronous RunGrouped loop on a pool-mode broker: same rows
    // (measurement is pure per configuration), no sleeping devices.
    CampaignRunner runner(task_, Options());
    const CampaignOutcome oracle = Run(&runner, instances_[variant], /*oracle=*/true);
    if (oracle.signature != signature) {
      return {"fleet-multitenant: pipelined campaign diverged from the RunGrouped oracle"};
    }
    return {};
  }

 private:
  static constexpr size_t kInstances = 3;
  static constexpr int kDevices = 4;
  static constexpr size_t kBaseRows = 4000;
  static constexpr size_t kHeavyRows = 2500;
  static constexpr size_t kLightRows = 150;

  // One campaign's inputs: a fault and a transferred table per tenant.
  struct Instance {
    std::vector<Fault> faults;
    std::vector<std::vector<ObjectiveGoal>> goals;
    std::vector<DataTable> warm;        // per heavy tenant
    std::vector<DataTable> warm_light;  // per light tenant
  };

  DataTable Derive(const std::vector<std::vector<double>>& base, size_t rows,
                   uint64_t seed) const {
    DataTable table(task_.variables);
    Rng rng(seed);
    std::vector<bool> is_option(task_.variables.size(), false);
    for (size_t v : task_.option_vars) {
      is_option[v] = true;
    }
    for (size_t i = 0; i < rows; ++i) {
      std::vector<double> row = base[rng.UniformInt(base.size())];
      for (size_t v = 0; v < row.size(); ++v) {
        if (!is_option[v]) {
          row[v] *= 1.0 + rng.Uniform(-0.005, 0.005);
        }
      }
      table.AddRow(row);
    }
    return table;
  }

  DebugOptions HeavyOptions(size_t index) const {
    DebugOptions o;
    o.initial_samples = 4;
    o.max_iterations = small_ ? 2 : 4;
    o.stall_termination = 1000;
    o.repairs_per_iteration = 2;
    o.model.fci.skeleton.max_cond_size = 3;
    o.model.fci.skeleton.max_subsets = small_ ? 32 : 96;
    o.model.fci.max_pds_cond_size = small_ ? 1 : 2;
    o.model.entropic.latent.restarts = 1;
    o.model.entropic.latent.iterations = 20;
    o.seed = seed_ * 13 + 7 + index;
    return o;
  }

  OptimizeOptions LightOptions(size_t index) const {
    OptimizeOptions o;
    o.initial_samples = 4;
    o.candidates_per_round = 1;
    // Lights outlast the heavy refresh chain, so refreshes keep overlapping
    // device work until the campaign ends.
    o.max_iterations = small_ ? 8 : 80;
    o.relearn_every = 16;
    o.explore_probability = 0.65;
    o.seed = seed_ * 17 + 113 + index;
    return o;
  }

  CampaignOptions Options() const {
    CampaignOptions c = ToCampaignOptions(HeavyOptions(0));
    // Three refresh workers plus the campaign thread: the cores, no more.
    c.refresh_threads = 3;
    c.pipeline = true;
    return c;
  }

  std::unique_ptr<BackendFleet> MakeFleet() const {
    std::vector<std::unique_ptr<MeasurementBackend>> backends;
    for (int b = 0; b < kDevices; ++b) {
      DeviceProfile profile;
      profile.name = "tx2-" + std::to_string(b);
      profile.environment = Tx2().name;
      // The device draws from seed ^ attempt: spacing the seeds 256 apart
      // keeps every (device, attempt) stream distinct, so a retry on another
      // device never replays the failure it is retrying.
      profile.seed = (seed_ * 16 + static_cast<uint64_t>(b)) << 8;
      profile.service_time_mean = small_ ? 0.002 : 0.030;
      profile.service_time_jitter = 0.3;
      profile.sleep = true;
      profile.transient_failure_rate = 0.02;
      backends.push_back(Timed(std::make_unique<SimulatedDeviceBackend>(task_, profile), probes_));
    }
    return std::make_unique<BackendFleet>(std::move(backends));
  }

  CampaignOutcome Run(CampaignRunner* runner, const Instance& instance, bool oracle) {
    std::vector<std::unique_ptr<OptimizePolicy>> lights;
    std::vector<std::unique_ptr<DebugPolicy>> heavies;
    PolicyWrapper wrap(oracle ? nullptr : probes_.recorder);
    std::vector<GroupedPolicy> grouped;
    // Lights first: their small bootstraps are in steady cadence by the time
    // the heavy refresh chain starts.
    for (size_t i = 0; i < light_; ++i) {
      lights.push_back(std::make_unique<OptimizePolicy>(
          LightOptions(i), std::vector<size_t>{latency_}, &instance.warm_light[i]));
      grouped.push_back(GroupedPolicy{wrap(lights.back().get()), "opt-" + std::to_string(i)});
    }
    for (size_t i = 0; i < heavy_; ++i) {
      heavies.push_back(std::make_unique<DebugPolicy>(
          HeavyOptions(i), instance.faults[i].config, instance.goals[i], &instance.warm[i]));
      grouped.push_back(GroupedPolicy{wrap(heavies.back().get()), "debug-" + std::to_string(i)});
    }
    const auto start = Clock::now();
    if (oracle) {
      runner->RunGrouped(grouped);
    } else {
      runner->RunAsyncGrouped(grouped);
    }
    CampaignOutcome out;
    out.wall_s = SecondsSince(start);
    FillStats(*runner, &out);
    Hasher h;
    double repair = 0.0, opt = 0.0;
    for (size_t i = 0; i < heavy_; ++i) {
      const DebugResult& r = heavies[i]->result();
      h.Add(runner->pool().shard(r.shard).data_fingerprint());
      AddDebugResult(&h, r);
      repair += RepairGain(instance.faults[i], r, latency_);
    }
    for (const auto& light : lights) {
      const OptimizeResult& r = light->result();
      h.Add(runner->pool().shard(r.shard).data_fingerprint());
      AddOptimizeResult(&h, r);
      opt += OptimizeGain(r, 4);
    }
    h.Add(static_cast<uint64_t>(out.pool.tests_requested));
    out.signature = h.value();
    out.repair_gain_pct = repair / static_cast<double>(heavy_);
    out.opt_gain_pct = opt / static_cast<double>(light_);
    return out;
  }

  uint64_t seed_;
  bool small_;
  Probes probes_;
  size_t heavy_ = 0;
  size_t light_ = 0;
  std::shared_ptr<SystemModel> model_;
  FaultCuration curation_;
  size_t latency_ = 0;
  PerformanceTask task_;
  std::vector<Instance> instances_;
};

// --- transfer-warm ----------------------------------------------------------------
//
// The paper's transfer scenario: a source-hardware (Xavier) recording and a
// CI-cache snapshot persisted by a previous session seed the target (TX2)
// shard; a debug and an optimize tenant share that shard under the
// synchronous loop with the library-default (paper) FCI options, and the
// grown table and cache are persisted again at the end.
class TransferWarm final : public Workload {
 public:
  TransferWarm(uint64_t seed, bool small, const std::string& work_dir, Probes probes)
      : seed_(seed), small_(small), probes_(probes) {
    SystemSpec spec;
    spec.num_events = 19;
    model_ = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
    latency_ = LatencyVar(*model_);
    grown_table_path_ = work_dir + "/transfer-grown.utbl";
    grown_cache_path_ = work_dir + "/transfer-grown.ucic";
    Rng curation_rng(seed + 1);
    curation_ =
        CurateFaults(*model_, Tx2(), DefaultWorkload(), small ? 200 : 1000, &curation_rng, 0.97);
    const std::vector<Fault> faults = LatencyFaults(curation_, latency_, kInstances);
    const PerformanceTask source =
        Instrument(MakeSimulatedTask(model_, Xavier(), DefaultWorkload(), seed + 11), probes);
    for (size_t k = 0; k < kInstances; ++k) {
      instances_.push_back(Record(source, work_dir, k, faults[k]));
    }
    task_ = Instrument(MakeSimulatedTask(model_, Tx2(), DefaultWorkload(), seed + 12), probes);
  }

  size_t variants() const override { return instances_.size(); }

  uint64_t SetupDigest() const override {
    Hasher h;
    for (const Instance& instance : instances_) {
      h.Add(instance.source_digest);
      h.Add(DigestFaults({instance.fault}, {instance.goals}));
    }
    return h.value();
  }

  CampaignOutcome RunCampaign(size_t variant) override {
    const Instance& instance = instances_[variant];
    CampaignOutcome out;
    std::vector<std::unique_ptr<MeasurementBackend>> backends;
    for (int b = 0; b < kBackends; ++b) {
      backends.push_back(Timed(std::make_unique<InProcessBackend>(
                                   task_, "tx2-inproc-" + std::to_string(b), 1, Tx2().name),
                               probes_));
    }
    CampaignRunner runner(task_, ToCampaignOptions(DebugOpts()),
                          std::make_unique<BackendFleet>(std::move(backends)));
    CausalModelEngine& engine = runner.engine();
    CICache& cache = runner.pool().shared_cache();

    const auto start = Clock::now();
    // Seeding: the recorded table and the cache snapshot restore the source
    // session's state on the target shard.
    auto t = Clock::now();
    if (engine.SeedFromFile(instance.table_path) != instance.source_rows) {
      out.errors.push_back("transfer-warm: seeding from the recorded table failed");
    }
    out.table_load_s = SecondsSince(t);
    t = Clock::now();
    if (cache.LoadFrom(instance.cache_path, 0) < 0) {
      out.errors.push_back("transfer-warm: loading the CI-cache snapshot failed");
    }
    out.cache_load_s = SecondsSince(t);
    engine.ShareCICache(&cache, 0);
    // The transferred model: the first refresh runs on exactly the recorded
    // rows, so the restored cache should serve it.
    runner.pool().RefreshShards({0}, RefreshSeed());
    const EngineStats& first = engine.stats();
    if (static_cast<double>(first.cache_hits) < 0.8 * static_cast<double>(first.tests_requested)) {
      out.errors.push_back("transfer-warm: restored cache served under 80% of the first refresh");
    }
    if (probes_.recorder != nullptr) {
      probes_.recorder->NoteRefreshes(engine);
    }

    // The campaign: two tenants reasoning on the one transferred shard.
    DebugPolicy debug(DebugOpts(), instance.fault.config, instance.goals);
    OptimizeOptions opt_options;
    opt_options.initial_samples = kOptBootstrap;
    opt_options.max_iterations = small_ ? 4 : 24;
    opt_options.relearn_every = 4;
    opt_options.explore_probability = 0.3;
    opt_options.seed = seed_ * 19 + 5;
    OptimizePolicy optimize(opt_options, {latency_});
    PolicyWrapper wrap(probes_.recorder);
    runner.Run({wrap(&debug), wrap(&optimize)});

    // Persisting: the grown table and cache for the next session.
    t = Clock::now();
    const DataTable& data = engine.data();
    BinaryTableWriter writer(task_.option_vars.size(), data.NumVars());
    for (size_t r = 0; r < data.NumRows(); ++r) {
      const std::vector<double> row = data.Row(r);
      writer.AddRow(task_.ConfigOf(row), row,
                    engine.provenance_of(r) == RowProvenance::kSource ? "source" : "target");
    }
    const bool table_saved = writer.WriteFile(grown_table_path_);
    out.table_save_s = SecondsSince(t);
    t = Clock::now();
    const bool cache_saved = cache.SaveTo(grown_cache_path_);
    out.cache_save_s = SecondsSince(t);
    out.wall_s = SecondsSince(start);
    if (!table_saved || !cache_saved) {
      out.errors.push_back("transfer-warm: persisting the grown table or cache failed");
    } else {
      out.persist_bytes = static_cast<double>(std::filesystem::file_size(grown_table_path_) +
                                              std::filesystem::file_size(grown_cache_path_));
    }

    FillStats(runner, &out);
    Hasher h;
    h.Add(engine.data_fingerprint());
    AddDebugResult(&h, debug.result());
    AddOptimizeResult(&h, optimize.result());
    h.Add(static_cast<uint64_t>(out.pool.tests_requested));
    out.signature = h.value();
    out.repair_gain_pct = RepairGain(instance.fault, debug.result(), latency_);
    out.opt_gain_pct = OptimizeGain(optimize.result(), kOptBootstrap);
    return out;
  }

 private:
  static constexpr size_t kInstances = 24;
  static constexpr size_t kSourceRows = 500;
  static constexpr size_t kOptBootstrap = 6;
  static constexpr int kBackends = 2;

  // One campaign's inputs: a persisted source session and a target fault.
  struct Instance {
    std::string table_path;  // UNICTBL1 recording
    std::string cache_path;  // UNCICHE1 snapshot of the refresh it fed
    size_t source_rows = 0;
    uint64_t source_digest = 0;
    Fault fault;
    std::vector<ObjectiveGoal> goals;
  };

  // The source session of instance `k`: record on Xavier, persist as
  // UNICTBL1, refresh a model on it and persist the CI cache it filled.
  Instance Record(const PerformanceTask& source, const std::string& work_dir, size_t k,
                  const Fault& fault) const {
    Instance instance;
    instance.table_path = work_dir + "/transfer-source-" + std::to_string(k) + ".utbl";
    instance.cache_path = work_dir + "/transfer-source-" + std::to_string(k) + ".ucic";
    instance.fault = fault;
    instance.goals = UnattainableGoals(curation_, fault);
    MeasurementTable table;
    table.num_options = source.option_vars.size();
    table.num_vars = source.variables.size();
    Rng rng(seed_ * 1000 + k);
    for (size_t i = 0; i < (small_ ? 60 : kSourceRows); ++i) {
      std::vector<double> config = source.sample_config(&rng);
      std::vector<double> row = source.measure(config);
      table.entries.push_back({std::move(config), std::move(row), Xavier().name});
    }
    if (!SaveMeasurementTableBinary(instance.table_path, table)) {
      throw std::runtime_error("transfer-warm: cannot write " + instance.table_path);
    }
    instance.source_rows = table.entries.size();
    CICache cache;
    CausalModelEngine engine(model_->variables(), ModelOptions(), EngineOpts());
    if (engine.SeedFromFile(instance.table_path) != instance.source_rows) {
      throw std::runtime_error("transfer-warm: cannot seed from " + instance.table_path);
    }
    engine.ShareCICache(&cache, 0);
    engine.Refresh(RefreshSeed());
    engine.ShareCICache(nullptr, 0);
    if (!cache.SaveTo(instance.cache_path)) {
      throw std::runtime_error("transfer-warm: cannot write " + instance.cache_path);
    }
    Hasher h;
    h.Add(engine.data_fingerprint());
    h.Add(static_cast<uint64_t>(cache.size()));
    instance.source_digest = h.value();
    return instance;
  }

  // Library-default (paper) FCI and entropic options.
  static CausalModelOptions ModelOptions() { return CausalModelOptions{}; }

  static EngineOptions EngineOpts() {
    EngineOptions e;
    e.num_threads = 2;  // plus two in-process backends: the cores, no more
    return e;
  }

  uint64_t RefreshSeed() const { return seed_ * 23 + 1; }

  DebugOptions DebugOpts() const {
    DebugOptions o;
    o.initial_samples = 10;
    o.max_iterations = small_ ? 3 : 12;
    o.stall_termination = 1000;
    o.repairs_per_iteration = 2;
    o.model = ModelOptions();
    o.engine = EngineOpts();
    o.seed = seed_ * 29 + 3;
    return o;
  }

  uint64_t seed_;
  bool small_;
  Probes probes_;
  std::shared_ptr<SystemModel> model_;
  size_t latency_ = 0;
  std::string grown_table_path_, grown_cache_path_;
  FaultCuration curation_;
  std::vector<Instance> instances_;
  PerformanceTask task_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"debug-incremental", "fleet-multitenant",
                                                 "transfer-warm"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool small,
                                       const std::string& work_dir, Probes probes) {
  if (name == "debug-incremental") {
    return std::make_unique<DebugIncremental>(seed, small, probes);
  }
  if (name == "fleet-multitenant") {
    return std::make_unique<FleetMultitenant>(seed, small, probes);
  }
  if (name == "transfer-warm") {
    return std::make_unique<TransferWarm>(seed, small, work_dir, probes);
  }
  return nullptr;
}

}  // namespace perfbench
