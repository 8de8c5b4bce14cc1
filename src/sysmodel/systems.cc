#include "sysmodel/systems.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/rng.h"

namespace unicorn {
namespace {

// Incremental construction of a SystemModel.
class Builder {
 public:
  size_t AddOption(const std::string& name, VarType type, std::vector<double> domain) {
    Variable v;
    v.name = name;
    v.type = type;
    v.role = VarRole::kOption;
    v.domain = std::move(domain);
    vars_.push_back(std::move(v));
    mechs_.emplace_back();
    return vars_.size() - 1;
  }

  size_t AddBinaryOption(const std::string& name) {
    return AddOption(name, VarType::kBinary, {0.0, 1.0});
  }

  size_t AddNode(const std::string& name, VarRole role, Mechanism mech) {
    Variable v;
    v.name = name;
    v.type = VarType::kContinuous;
    v.role = role;
    vars_.push_back(std::move(v));
    mechs_.push_back(std::move(mech));
    return vars_.size() - 1;
  }

  void AddRule(FaultRule rule) { rules_.push_back(std::move(rule)); }

  // Appends a mechanism term to an existing (event/objective) node.
  void AddTermTo(size_t node, MechanismTerm term) {
    mechs_[node].terms.push_back(std::move(term));
  }

  const std::vector<Variable>& vars() const { return vars_; }

  std::vector<size_t> OptionIds() const {
    std::vector<size_t> out;
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i].role == VarRole::kOption) {
        out.push_back(i);
      }
    }
    return out;
  }

  SystemModel Build(std::string name) {
    return SystemModel(std::move(name), std::move(vars_), std::move(mechs_), std::move(rules_));
  }

 private:
  std::vector<Variable> vars_;
  std::vector<Mechanism> mechs_;
  std::vector<FaultRule> rules_;
};

// The 22 kernel options of appendix Table 8.
void AddKernelOptions(Builder* b) {
  b->AddOption("vm.vfs_cache_pressure", VarType::kDiscrete, {1, 100, 500});
  b->AddOption("vm.swappiness", VarType::kDiscrete, {10, 60, 90});
  b->AddOption("vm.dirty_bytes", VarType::kDiscrete, {30, 60});
  b->AddOption("vm.dirty_background_ratio", VarType::kDiscrete, {10, 80});
  b->AddOption("vm.dirty_background_bytes", VarType::kDiscrete, {30, 60});
  b->AddOption("vm.dirty_ratio", VarType::kDiscrete, {5, 50});
  b->AddOption("vm.nr_hugepages", VarType::kDiscrete, {0, 1, 2});
  b->AddOption("vm.overcommit_ratio", VarType::kDiscrete, {50, 80});
  b->AddOption("vm.overcommit_memory", VarType::kDiscrete, {0, 2});
  b->AddOption("vm.overcommit_hugepages", VarType::kDiscrete, {0, 1, 2});
  b->AddOption("kernel.cpu_time_max_percent", VarType::kContinuous, {10, 100});
  b->AddOption("kernel.max_pids", VarType::kDiscrete, {32768, 65536});
  b->AddOption("kernel.numa_balancing", VarType::kBinary, {0, 1});
  b->AddOption("kernel.sched_latency_ns", VarType::kDiscrete, {24000000, 48000000});
  b->AddOption("kernel.sched_nr_migrate", VarType::kDiscrete, {32, 64, 128});
  b->AddOption("kernel.sched_rt_period_us", VarType::kDiscrete, {1000000, 2000000});
  b->AddOption("kernel.sched_rt_runtime_us", VarType::kDiscrete, {500000, 950000});
  b->AddOption("kernel.sched_time_avg_ms", VarType::kDiscrete, {1000, 2000});
  b->AddOption("kernel.sched_child_runs_first", VarType::kBinary, {0, 1});
  b->AddOption("swap_memory_gb", VarType::kDiscrete, {1, 2, 3, 4});
  b->AddOption("scheduler_policy", VarType::kBinary, {0, 1});  // CFP / NOOP
  b->AddOption("drop_caches", VarType::kDiscrete, {0, 1, 2, 3});
}

// The 4 hardware options of appendix Table 9.
void AddHardwareOptions(Builder* b) {
  b->AddOption("cpu_cores", VarType::kDiscrete, {1, 2, 3, 4});
  b->AddOption("cpu_frequency_ghz", VarType::kContinuous, {0.3, 2.0});
  b->AddOption("gpu_frequency_ghz", VarType::kContinuous, {0.1, 1.3});
  b->AddOption("emc_frequency_ghz", VarType::kContinuous, {0.1, 1.8});
}

// The 19 perf events of appendix Table 10 (base magnitudes are arbitrary but
// realistic orders of magnitude).
const struct EventSpec {
  const char* name;
  double base;
} kEventSpecs[] = {
    {"context_switches", 1e4},   {"major_faults", 1e2},
    {"minor_faults", 1e4},       {"migrations", 1e3},
    {"sched_wait_time", 1e3},    {"sched_sleep_time", 1e3},
    {"cycles", 1e9},             {"instructions", 1e9},
    {"syscall_enter", 1e5},      {"syscall_exit", 1e5},
    {"l1_dcache_load_misses", 1e7}, {"l1_dcache_loads", 1e8},
    {"l1_dcache_stores", 1e8},   {"branch_loads", 1e8},
    {"branch_load_misses", 1e6}, {"branch_misses", 1e6},
    {"cache_references", 1e8},   {"cache_misses", 1e7},
    {"emulation_faults", 1e1},
};

constexpr size_t kNumNamedEvents = sizeof(kEventSpecs) / sizeof(kEventSpecs[0]);
const char* const kTracepointSubsystems[] = {"block", "sched", "irq", "ext4"};

// Wires events and objectives with deterministic pseudo-random sparse
// structure, then injects fault rules.
void WireSystem(Builder* b, uint64_t seed, int num_events, bool include_heat,
                int num_fault_rules) {
  Rng rng(seed);
  const std::vector<size_t> options = b->OptionIds();

  // --- events ---------------------------------------------------------
  std::vector<size_t> events;
  std::map<size_t, std::vector<size_t>> event_option_inputs;
  for (int e = 0; e < num_events; ++e) {
    Mechanism mech;
    mech.bias = rng.Uniform(-0.3, 0.5);
    mech.noise_sigma = rng.Uniform(0.02, 0.08);
    double base = 0.0;
    std::string name;
    if (static_cast<size_t>(e) < kNumNamedEvents) {
      name = kEventSpecs[e].name;
      base = kEventSpecs[e].base;
    } else {
      const size_t sub = static_cast<size_t>(e) % 4;
      name = std::string("tracepoint_") + kTracepointSubsystems[sub] + "_" +
             std::to_string(e - static_cast<int>(kNumNamedEvents));
      base = std::pow(10.0, rng.Uniform(2.0, 6.0));
    }
    mech.base = base;
    // 2-4 option parents.
    std::vector<size_t> option_inputs;
    const int num_parents = static_cast<int>(rng.UniformInt(2, 4));
    for (int p = 0; p < num_parents; ++p) {
      MechanismTerm term;
      const size_t opt = options[rng.UniformInt(static_cast<uint64_t>(options.size()))];
      option_inputs.push_back(opt);
      term.inputs = {opt};
      term.coeff = rng.Uniform(0.4, 1.5) * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
      term.saturating = rng.Bernoulli(0.3);
      mech.terms.push_back(std::move(term));
    }
    // One pairwise option interaction.
    if (rng.Bernoulli(0.6)) {
      MechanismTerm term;
      const size_t a = options[rng.UniformInt(static_cast<uint64_t>(options.size()))];
      size_t c = options[rng.UniformInt(static_cast<uint64_t>(options.size()))];
      if (a != c) {
        term.inputs = {a, c};
        term.coeff = rng.Uniform(0.5, 1.8) * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
        term.saturating = rng.Bernoulli(0.4);
        mech.terms.push_back(std::move(term));
      }
    }
    // Occasionally depend on an earlier event (event chains).
    if (!events.empty() && rng.Bernoulli(0.35)) {
      MechanismTerm term;
      term.inputs = {events[rng.UniformInt(static_cast<uint64_t>(events.size()))]};
      term.coeff = rng.Uniform(0.3, 1.0);
      mech.terms.push_back(std::move(term));
    }
    const size_t node = b->AddNode(name, VarRole::kEvent, std::move(mech));
    event_option_inputs[node] = std::move(option_inputs);
    events.push_back(node);
  }

  // --- objectives -----------------------------------------------------
  std::map<size_t, std::vector<size_t>> objective_event_parents;
  auto make_objective = [&](const std::string& name, double base, double positivity) {
    Mechanism mech;
    mech.bias = rng.Uniform(0.4, 1.0);
    mech.noise_sigma = rng.Uniform(0.02, 0.05);
    mech.base = base;
    // Sparse, strong dependencies (cf. the learned graphs in the paper's
    // Fig. 6 / Table 3): a handful of event parents with sizeable
    // coefficients keeps every causal link statistically visible at the
    // small sample sizes Unicorn operates with.
    const int num_event_parents = static_cast<int>(
        rng.UniformInt(3, std::min<int64_t>(5, static_cast<int64_t>(events.size()))));
    std::vector<size_t> shuffled = events;
    rng.Shuffle(&shuffled);
    std::vector<size_t> parents;
    for (int p = 0; p < num_event_parents; ++p) {
      MechanismTerm term;
      term.inputs = {shuffled[static_cast<size_t>(p)]};
      parents.push_back(shuffled[static_cast<size_t>(p)]);
      term.coeff = rng.Uniform(0.5, 1.3) * (rng.Bernoulli(positivity) ? 1.0 : -1.0);
      term.saturating = rng.Bernoulli(0.3);
      mech.terms.push_back(std::move(term));
    }
    // One direct option parent (e.g. a hardware frequency effect not
    // mediated by any measured event).
    {
      MechanismTerm term;
      term.inputs = {options[rng.UniformInt(static_cast<uint64_t>(options.size()))]};
      term.coeff = rng.Uniform(0.4, 1.0) * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
      mech.terms.push_back(std::move(term));
    }
    const size_t node = b->AddNode(name, VarRole::kObjective, std::move(mech));
    objective_event_parents[node] = std::move(parents);
    return node;
  };

  const size_t latency = make_objective(kLatencyName, 20.0, 0.75);
  const size_t energy = make_objective(kEnergyName, 120.0, 0.7);
  size_t heat = static_cast<size_t>(-1);
  if (include_heat) {
    heat = make_objective(kHeatName, 45.0, 0.65);
  }

  // --- fault rules ------------------------------------------------------
  // Configuration cliffs: conjunction of normalized option ranges. Most rules
  // involve >= 4 options (matching the paper's observation that 411 of 494
  // faults had five or more root causes), a few involve 1-2.
  for (int r = 0; r < num_fault_rules; ++r) {
    FaultRule rule;
    rule.name = "rule_" + std::to_string(r);
    int size = 0;
    if (r == 0) {
      size = 1;  // the rare single-root-cause fault
    } else if (r % 5 == 1) {
      size = static_cast<int>(rng.UniformInt(2, 3));
    } else {
      size = static_cast<int>(rng.UniformInt(5, 6));
    }
    // Target objective: mostly latency or energy; every 4th rule also gets a
    // twin rule on the other objective -> multi-objective faults.
    const bool on_latency = rng.Bernoulli(0.5);
    rule.objective = on_latency ? latency : energy;
    rule.penalty = rng.Uniform(3.0, 8.0);

    // Misconfigurations involve *influential* options (the paper's case
    // studies are CUDA flags and hardware clocks, not dead knobs): bias the
    // condition pool toward options that already drive the events feeding
    // the penalized objective.
    std::vector<size_t> influential;
    for (size_t e : objective_event_parents[rule.objective]) {
      for (size_t opt : event_option_inputs[e]) {
        if (std::find(influential.begin(), influential.end(), opt) == influential.end()) {
          influential.push_back(opt);
        }
      }
    }
    std::vector<size_t> pool;
    if (size <= 3) {
      // Small rules must stay rare: anchor them on continuous options where
      // a narrow window gives a low trigger probability.
      for (size_t opt : options) {
        if (b->vars()[opt].type == VarType::kContinuous) {
          pool.push_back(opt);
        }
      }
      rng.Shuffle(&pool);
    } else {
      // ~2/3 influential options, the rest random.
      rng.Shuffle(&influential);
      const size_t take = std::min(influential.size(), static_cast<size_t>(size * 2 / 3 + 1));
      pool.assign(influential.begin(), influential.begin() + static_cast<long>(take));
      std::vector<size_t> rest = options;
      rng.Shuffle(&rest);
      for (size_t opt : rest) {
        if (std::find(pool.begin(), pool.end(), opt) == pool.end()) {
          pool.push_back(opt);
        }
      }
    }
    if (pool.size() < static_cast<size_t>(size)) {
      pool = options;
      rng.Shuffle(&pool);
    }
    for (int c = 0; c < size && c < static_cast<int>(pool.size()); ++c) {
      FaultCondition cond;
      cond.var = pool[static_cast<size_t>(c)];
      // Windows are anchored on actual option levels so that every condition
      // is satisfiable; widths keep the per-rule trigger probability in the
      // low-percent range (the 99th-percentile tail the paper debugs).
      const Variable& var = b->vars()[cond.var];
      const double lo_dom = var.domain.front();
      const double hi_dom = var.domain.back();
      if (var.type == VarType::kContinuous) {
        double width = 0.0;
        if (size == 1) {
          width = rng.Uniform(0.010, 0.020);  // single-cause faults stay rare
        } else if (size <= 3) {
          width = rng.Uniform(0.08, 0.15);
        } else {
          width = rng.Uniform(0.3, 0.45);
        }
        const double start = rng.Uniform(0.0, 1.0 - width);
        cond.lo = start;
        cond.hi = start + width;
      } else {
        // Pick a single target level; the window covers exactly it in
        // normalized space.
        const size_t idx = rng.UniformInt(static_cast<uint64_t>(var.domain.size()));
        const double span = hi_dom > lo_dom ? hi_dom - lo_dom : 1.0;
        const double center = (var.domain[idx] - lo_dom) / span;
        const double half = 0.02;
        cond.lo = std::max(0.0, center - half);
        cond.hi = std::min(1.0, center + half);
      }
      rule.conditions.push_back(cond);
    }
    // Root-cause options must be observable outside the cliff too: each
    // condition option also influences (with high probability) an event that
    // feeds the penalized objective. Misconfigured knobs in real systems
    // shift performance continuously in addition to falling off cliffs —
    // this is what lets causal discovery put them on causal paths.
    const auto& feed_events = objective_event_parents[rule.objective];
    for (const auto& cond : rule.conditions) {
      if (feed_events.empty() || !rng.Bernoulli(0.85)) {
        continue;
      }
      MechanismTerm term;
      // push_back, not `= {cond.var}`: GCC 12 at -O3 inlines that
      // initializer-list assign here into a spurious -Wnonnull warning.
      term.inputs.push_back(cond.var);
      term.coeff = rng.Uniform(0.35, 0.9) * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
      term.saturating = rng.Bernoulli(0.25);
      b->AddTermTo(feed_events[rng.UniformInt(static_cast<uint64_t>(feed_events.size()))],
                   std::move(term));
    }
    const bool twin = r % 4 == 0;
    FaultRule twin_rule = rule;
    b->AddRule(std::move(rule));
    if (twin) {
      twin_rule.name += "_twin";
      twin_rule.objective = on_latency ? energy : latency;
      twin_rule.penalty = rng.Uniform(2.5, 6.0);
      b->AddRule(std::move(twin_rule));
    } else if (include_heat && r % 7 == 3) {
      twin_rule.name += "_heat";
      twin_rule.objective = heat;
      twin_rule.penalty = rng.Uniform(1.5, 3.0);
      b->AddRule(std::move(twin_rule));
    }
  }
}

void AddDeepstreamSoftwareOptions(Builder* b) {
  // Decoder (appendix Table 11).
  b->AddOption("crf", VarType::kDiscrete, {13, 18, 24, 30});
  b->AddOption("bitrate", VarType::kDiscrete, {1000, 2000, 2800, 5000});
  b->AddOption("buffer_size", VarType::kDiscrete, {6000, 8000, 20000});
  b->AddOption("preset", VarType::kDiscrete, {0, 1, 2, 3, 4});
  b->AddOption("maximum_rate", VarType::kDiscrete, {600, 1000});
  b->AddBinaryOption("refresh");
  // Stream muxer.
  b->AddOption("mux_batch_size", VarType::kDiscrete, {1, 5, 10, 20, 30});
  b->AddOption("batched_push_timeout", VarType::kDiscrete, {0, 5, 10, 20});
  b->AddOption("num_surfaces_per_frame", VarType::kDiscrete, {1, 2, 3, 4});
  b->AddBinaryOption("enable_padding");
  b->AddOption("buffer_pool_size", VarType::kDiscrete, {1, 8, 16, 26});
  b->AddBinaryOption("sync_inputs");
  b->AddOption("nvbuf_memory_type", VarType::kDiscrete, {0, 1, 2, 3});
  // Nvinfer.
  b->AddOption("net_scale_factor", VarType::kContinuous, {0.01, 10.0});
  b->AddOption("infer_batch_size", VarType::kDiscrete, {1, 15, 30, 60});
  b->AddOption("interval", VarType::kDiscrete, {1, 5, 10, 20});
  b->AddBinaryOption("offset");
  b->AddBinaryOption("process_mode");
  b->AddBinaryOption("use_dla_core");
  b->AddBinaryOption("enable_dla");
  b->AddBinaryOption("enable_dbscan");
  b->AddOption("secondary_reinfer_interval", VarType::kDiscrete, {0, 5, 10, 20});
  b->AddBinaryOption("maintain_aspect_ratio");
  // Nvtracker.
  b->AddOption("iou_threshold", VarType::kContinuous, {0, 60});
  b->AddBinaryOption("enable_batch_process");
  b->AddBinaryOption("enable_past_frame");
  b->AddOption("compute_hw", VarType::kDiscrete, {0, 1, 2, 3, 4});
  // Compiler option from the Fig. 12 case study.
  b->AddBinaryOption("cuda_static");
}

void AddDnnOptions(Builder* b) {
  // Appendix Table 5 plus the deployment-stack options every DNN system has.
  b->AddOption("memory_growth", VarType::kDiscrete, {-1, 0.5, 0.9});
  b->AddBinaryOption("logical_devices");
}

void AddX264Options(Builder* b) {
  b->AddOption("crf", VarType::kDiscrete, {13, 18, 24, 30});
  b->AddOption("bitrate", VarType::kDiscrete, {1000, 2000, 2800, 5000});
  b->AddOption("buffer_size", VarType::kDiscrete, {6000, 8000, 20000});
  b->AddOption("preset", VarType::kDiscrete, {0, 1, 2, 3, 4});
  b->AddOption("maximum_rate", VarType::kDiscrete, {600, 1000});
  b->AddBinaryOption("refresh");
}

void AddSqliteOptions(Builder* b, bool extended) {
  b->AddOption("pragma_temp_store", VarType::kDiscrete, {0, 1, 2});
  b->AddOption("pragma_journal_mode", VarType::kDiscrete, {0, 1, 2, 3, 4});
  b->AddOption("pragma_synchronous", VarType::kDiscrete, {0, 1, 2});
  b->AddOption("pragma_locking_mode", VarType::kBinary, {0, 1});
  b->AddOption("pragma_cache_size", VarType::kDiscrete, {0, 1000, 2000, 4000, 10000});
  b->AddOption("pragma_page_size", VarType::kDiscrete, {2048, 4096, 8192});
  b->AddOption("pragma_max_page_count", VarType::kDiscrete, {32, 64});
  b->AddOption("pragma_mmap_size", VarType::kDiscrete, {0, 30, 60});
  if (extended) {
    // The paper's scalability scenario uses all 242 modifiable options; the
    // extra knobs here stand in for the long tail of PRAGMA/compile-time
    // settings.
    for (int i = 0; i < 208; ++i) {
      b->AddOption("sqlite_knob_" + std::to_string(i), VarType::kDiscrete, {0, 1, 2});
    }
  }
}

}  // namespace

const char* SystemName(SystemId id) {
  switch (id) {
    case SystemId::kDeepstream:
      return "deepstream";
    case SystemId::kXception:
      return "xception";
    case SystemId::kBert:
      return "bert";
    case SystemId::kDeepspeech:
      return "deepspeech";
    case SystemId::kX264:
      return "x264";
    case SystemId::kSqlite:
      return "sqlite";
  }
  return "unknown";
}

SystemModel BuildSystem(SystemId id, const SystemSpec& spec) {
  Builder b;
  AddKernelOptions(&b);
  AddHardwareOptions(&b);
  uint64_t seed = 0;
  int num_rules = 12;
  switch (id) {
    case SystemId::kDeepstream:
      AddDeepstreamSoftwareOptions(&b);
      seed = 1001;
      num_rules = 14;
      break;
    case SystemId::kXception:
      AddDnnOptions(&b);
      seed = 2002;
      num_rules = 12;
      break;
    case SystemId::kBert:
      AddDnnOptions(&b);
      seed = 3003;
      num_rules = 12;
      break;
    case SystemId::kDeepspeech:
      AddDnnOptions(&b);
      seed = 4004;
      num_rules = 12;
      break;
    case SystemId::kX264:
      AddX264Options(&b);
      seed = 5005;
      num_rules = 12;
      break;
    case SystemId::kSqlite:
      AddSqliteOptions(&b, spec.extended_options);
      seed = 6006;
      num_rules = 12;
      break;
  }
  WireSystem(&b, seed, spec.num_events, spec.include_heat, num_rules);

  // Deepstream additionally carries the Fig. 12 case-study misconfiguration:
  // CUDA_STATIC off together with low hardware clocks tanks latency (the
  // real-world TX2 scene-detection regression the paper debugs in §5).
  if (id == SystemId::kDeepstream) {
    auto index_of = [&](const char* name) -> size_t {
      for (size_t i = 0; i < b.vars().size(); ++i) {
        if (b.vars()[i].name == name) {
          return i;
        }
      }
      return static_cast<size_t>(-1);
    };
    FaultRule rule;
    rule.name = "cuda_static_misconfig";
    rule.conditions = {
        {index_of("cuda_static"), 0.0, 0.4},        // CUDA_STATIC disabled
        {index_of("cpu_cores"), 0.0, 0.4},          // too few cores
        {index_of("cpu_frequency_ghz"), 0.0, 0.45},
        {index_of("emc_frequency_ghz"), 0.0, 0.5},
        {index_of("gpu_frequency_ghz"), 0.0, 0.5},
    };
    rule.objective = index_of(kLatencyName);
    rule.penalty = 7.0;  // the paper reports a 7x latency gain after the fix
    b.AddRule(std::move(rule));
    // The paper's diagnosis: CUDA_STATIC affects latency indirectly via
    // Context Switches. Mirror that mediation in the mechanisms.
    const size_t ctx = index_of("context_switches");
    const size_t cuda = index_of("cuda_static");
    const size_t lat = index_of(kLatencyName);
    if (ctx != static_cast<size_t>(-1)) {
      b.AddTermTo(ctx, MechanismTerm{{cuda}, -0.8, false});
      b.AddTermTo(lat, MechanismTerm{{ctx}, 0.6, false});
    }
  }
  return b.Build(SystemName(id));
}

Environment Tx1() {
  Environment env;
  env.name = "TX1";
  env.seed = 11;
  env.speed = 0.6;
  env.energy_factor = 1.3;
  return env;
}

Environment Tx2() {
  Environment env;
  env.name = "TX2";
  env.seed = 22;
  env.speed = 1.0;
  env.energy_factor = 1.0;
  return env;
}

Environment Xavier() {
  Environment env;
  env.name = "Xavier";
  env.seed = 33;
  env.speed = 1.8;
  env.energy_factor = 0.8;
  return env;
}

Workload DefaultWorkload() { return Workload{"default", 1.0}; }

Workload ImageWorkload(int thousands_of_images) {
  return Workload{std::to_string(thousands_of_images) + "k-images",
                  static_cast<double>(thousands_of_images) / 5.0};
}

}  // namespace unicorn
