#include "unicorn/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace unicorn {

namespace {

using SchedClock = std::chrono::steady_clock;

// Runaway guard on a policy's rounds; policies normally terminate
// themselves.
constexpr size_t kMaxRounds = 100000;

// Process-wide scheduler instruments. campaign.round_seconds is the SLO
// histogram the multi-tenant service will report p50/p99 from: one sample
// per policy round, covering refresh wait + propose + measurement + absorb.
struct CampaignMetrics {
  obs::Counter* rounds;
  obs::Histogram* round_seconds;
};

const CampaignMetrics& Metrics() {
  static const CampaignMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return CampaignMetrics{registry.Counter("campaign.rounds"),
                           registry.Histogram("campaign.round_seconds")};
  }();
  return metrics;
}

}  // namespace

bool GoalsMet(const std::vector<double>& row, const std::vector<ObjectiveGoal>& goals) {
  for (const auto& goal : goals) {
    if (row[goal.var] > goal.threshold) {
      return false;
    }
  }
  return true;
}

double GoalViolation(const std::vector<double>& row, const std::vector<ObjectiveGoal>& goals) {
  double worst = -1e18;
  for (const auto& goal : goals) {
    const double denom = std::max(1e-9, std::fabs(goal.threshold));
    worst = std::max(worst, (row[goal.var] - goal.threshold) / denom);
  }
  return worst;
}

ShardPoolOptions CampaignRunner::MakePoolOptions(const CampaignOptions& options) {
  ShardPoolOptions pool;
  pool.model = options.model;
  pool.engine = options.engine;
  pool.refresh_threads = options.refresh_threads;
  return pool;
}

CampaignRunner::CampaignRunner(PerformanceTask task, CampaignOptions options)
    : options_(std::move(options)),
      broker_(std::move(task), options_.broker),
      pool_(broker_.task().variables, MakePoolOptions(options_)) {
  pool_.ShardForGroup("");  // the default group's shard is always shard 0
}

CampaignRunner::CampaignRunner(PerformanceTask task, CampaignOptions options,
                               std::unique_ptr<BackendFleet> fleet)
    : options_(std::move(options)),
      broker_(std::move(task), std::move(fleet), options_.broker),
      pool_(broker_.task().variables, MakePoolOptions(options_)) {
  pool_.ShardForGroup("");
}

void CampaignRunner::Run(const std::vector<CampaignPolicy*>& policies) {
  std::vector<GroupedPolicy> grouped;
  grouped.reserve(policies.size());
  for (CampaignPolicy* policy : policies) {
    grouped.push_back(GroupedPolicy{policy, ""});
  }
  RunGrouped(grouped);
}

void CampaignRunner::RunGrouped(const std::vector<GroupedPolicy>& policies) {
  std::vector<size_t> shard_of(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    shard_of[p] = pool_.ShardForGroup(policies[p].group);
  }

  std::vector<size_t> active;  // indices into `policies`
  for (size_t p = 0; p < policies.size(); ++p) {
    if (policies[p].policy->Finished()) {
      CampaignContext ctx = ContextFor(shard_of[p], 0);
      policies[p].policy->Finalize(ctx);
    } else {
      active.push_back(p);
    }
  }

  for (size_t round = 0; !active.empty(); ++round) {
    obs::trace::Span round_span("campaign.round", "campaign");
    round_span.SetArg("round", static_cast<double>(round));
    round_span.SetArg("policies", static_cast<double>(active.size()));
    const auto round_start = SchedClock::now();
    // A shard is dirty when any of its active policies asks for a refresh;
    // dirty shards refresh in parallel, all with this round's seed (the
    // same seed + iteration stream the sequential debugger — refresh every
    // iteration — and optimizer — every relearn_every-th — used).
    std::vector<size_t> dirty;
    for (const size_t p : active) {
      CampaignContext ctx = ContextFor(shard_of[p], round);
      if (policies[p].policy->WantsRefresh(ctx)) {
        dirty.push_back(shard_of[p]);
      }
    }
    pool_.RefreshShards(std::move(dirty), RefreshSeed(round));

    // Collect every policy's proposal (and its environment routing tags)
    // and measure them as one batch: one fan-out over the pool/fleet, and a
    // (environment, config) request two policies propose in the same round
    // is measured once — even across objective groups.
    std::vector<std::vector<std::vector<double>>> proposals;
    std::vector<std::vector<double>> combined;
    std::vector<std::string> combined_envs;
    bool any_env = false;
    proposals.reserve(active.size());
    obs::trace::Begin("campaign.propose", "campaign");
    for (const size_t p : active) {
      CampaignContext ctx = ContextFor(shard_of[p], round);
      proposals.push_back(policies[p].policy->Propose(ctx));
      combined.insert(combined.end(), proposals.back().begin(), proposals.back().end());
      std::vector<std::string> envs =
          policies[p].policy->ProposalEnvironments(proposals.back().size());
      if (!envs.empty() && envs.size() != proposals.back().size()) {
        throw std::logic_error("campaign: ProposalEnvironments must parallel the proposal");
      }
      if (envs.empty()) {
        combined_envs.resize(combined_envs.size() + proposals.back().size());
      } else {
        any_env = true;
        combined_envs.insert(combined_envs.end(), std::make_move_iterator(envs.begin()),
                             std::make_move_iterator(envs.end()));
      }
    }
    obs::trace::End("proposals", static_cast<double>(combined.size()));
    const auto rows =
        broker_.MeasureBatch(combined, any_env ? combined_envs : std::vector<std::string>{});

    {
      TRACE_SPAN("campaign.absorb", "campaign");
      size_t offset = 0;
      for (size_t a = 0; a < active.size(); ++a) {
        if (proposals[a].empty()) {
          continue;
        }
        const std::vector<std::vector<double>> slice(
            rows.begin() + static_cast<long>(offset),
            rows.begin() + static_cast<long>(offset + proposals[a].size()));
        CampaignContext ctx = ContextFor(shard_of[active[a]], round);
        policies[active[a]].policy->Absorb(proposals[a], slice, ctx);
        offset += proposals[a].size();
      }
    }
    // Every active policy completed one round this wall interval: one SLO
    // sample each, same definition as the asynchronous loop's.
    const double round_seconds =
        std::chrono::duration<double>(SchedClock::now() - round_start).count();
    for (size_t a = 0; a < active.size(); ++a) {
      Metrics().rounds->Increment();
      Metrics().round_seconds->Record(round_seconds);
    }

    // Retire finished policies — and any policy that proposed nothing while
    // claiming to continue, which could otherwise spin forever.
    std::vector<size_t> still_active;
    for (size_t a = 0; a < active.size(); ++a) {
      const size_t p = active[a];
      if (policies[p].policy->Finished() || proposals[a].empty() ||
          round + 1 >= kMaxRounds) {
        CampaignContext ctx = ContextFor(shard_of[p], round);
        policies[p].policy->Finalize(ctx);
      } else {
        still_active.push_back(p);
      }
    }
    active = std::move(still_active);
  }
}

// The asynchronous campaign loop (ROADMAP "pipelined campaign rounds"): an
// event loop over two completion streams — finished measurement batches from
// the broker and shard-refresh done events from the pool's asynchronous
// refresh workers. Each policy owns its shard, so no policy's step ever
// waits on another's: whichever batch finishes first absorbs first and
// launches its next round at once. With CampaignOptions::pipeline, a round
// that wants a refresh hands its shard to the pool's workers and the loop
// keeps absorbing and resubmitting every other policy meanwhile, so dirty
// shards of *different* policies refresh as one parallel batch while their
// own and other policies' measurements keep the fleet busy — refresh compute
// hidden behind device service time (the overlap the pool's ledger
// reports). Without it, the refresh runs inline on the campaign thread and
// every other policy's absorb-and-resubmit waits behind it: the
// head-of-line-blocking baseline bench/table_pipeline.cc measures against.
//
// Per-policy semantics are exactly the synchronous loop's: refresh decided
// at round start (WantsRefresh before Propose), seeded RefreshSeed(round)
// fixed at enqueue, rows absorbed as one batch in proposal order. Every
// policy is therefore bit-identical to its RunGrouped self.
void CampaignRunner::RunAsyncGrouped(const std::vector<GroupedPolicy>& policies) {
  // The loop takes every finished batch off the broker's stream as its own,
  // so nobody else's may be on it.
  if (broker_.OutstandingRequests() > 0) {
    throw std::logic_error("async campaign: the broker has outstanding requests");
  }
  // One policy per shard: a shard's refresh, propose and absorb then follow
  // that policy's own rounds, never measurement completion order.
  std::unordered_set<std::string> groups;
  for (const GroupedPolicy& entry : policies) {
    if (!groups.insert(entry.group).second) {
      throw std::invalid_argument("async campaign: two policies name objective group \"" +
                                  entry.group + "\"; share a model under RunGrouped");
    }
  }

  // Alternation quantum while both streams are live: the timed batch wait
  // returns early on every finished batch, so this bounds only refresh-done
  // latency. 2ms keeps a refreshed policy's Propose prompt while staying far
  // below a device service time, so fleet feeding is never the bottleneck.
  constexpr double kPollSeconds = 0.002;

  // Each policy is always either retired, refreshing its shard, or waiting
  // on exactly one outstanding broker batch.
  struct PolicyState {
    CampaignPolicy* policy = nullptr;
    size_t shard = 0;
    size_t round = 0;
    std::vector<std::vector<double>> proposal;
    SchedClock::time_point round_start{};
  };
  std::vector<PolicyState> states;
  std::unordered_map<uint64_t, size_t> batch_owner;  // broker batch id -> state
  size_t active = 0;
  // Measurement rows submitted and not yet handed to the loop in a finished
  // batch: the gauge the pool's overlap ledger samples.
  std::atomic<size_t> in_flight_rows{0};

  // Propose and submit the policy's current round (its shard is refreshed,
  // or needed no refresh). Returns false when the policy retired on an empty
  // proposal instead.
  const auto propose_and_submit = [&](size_t state_index) -> bool {
    PolicyState& state = states[state_index];
    TRACE_SPAN_NAMED(propose_span, "campaign.propose", "campaign");
    propose_span.SetArg("round", static_cast<double>(state.round));
    CampaignContext ctx = ContextFor(state.shard, state.round);
    state.proposal = state.policy->Propose(ctx);
    if (state.proposal.empty()) {
      // A policy proposing nothing can never finish itself (same guard as
      // the synchronous loop).
      state.policy->Finalize(ctx);
      return false;
    }
    std::vector<std::string> envs = state.policy->ProposalEnvironments(state.proposal.size());
    if (!envs.empty() && envs.size() != state.proposal.size()) {
      throw std::logic_error("campaign: ProposalEnvironments must parallel the proposal");
    }
    const size_t now_in_flight =
        in_flight_rows.fetch_add(state.proposal.size(), std::memory_order_relaxed) +
        state.proposal.size();
    obs::trace::CounterValue("campaign.in_flight_rows", static_cast<double>(now_in_flight));
    const BatchTicket ticket = broker_.SubmitBatch(state.proposal, envs);
    batch_owner.emplace(ticket.id, state_index);
    return true;
  };

  // Start the policy's round: same trigger point and seed stream as the
  // synchronous loop. A pipelined refresh runs on the pool's workers and the
  // Propose happens when its done event comes back. Returns false when the
  // policy retired.
  const auto launch_round = [&](size_t state_index) -> bool {
    PolicyState& state = states[state_index];
    state.round_start = SchedClock::now();
    CampaignContext ctx = ContextFor(state.shard, state.round);
    if (state.policy->WantsRefresh(ctx)) {
      if (options_.pipeline) {
        pool_.StartRefreshAsync(state.shard, RefreshSeed(state.round),
                                static_cast<uint64_t>(state_index));
        return true;  // still active: awaiting the refresh
      }
      // Single-shard batch: the empty-table guard and the refresh ledger
      // live in the pool.
      pool_.RefreshShards({state.shard}, RefreshSeed(state.round));
    }
    return propose_and_submit(state_index);
  };

  const auto absorb_and_advance = [&](size_t state_index,
                                      const std::vector<std::vector<double>>& rows) {
    PolicyState& state = states[state_index];
    CampaignContext ctx = ContextFor(state.shard, state.round);
    {
      TRACE_SPAN_NAMED(absorb_span, "campaign.absorb", "campaign");
      absorb_span.SetArg("round", static_cast<double>(state.round));
      state.policy->Absorb(state.proposal, rows, ctx);
    }
    Metrics().rounds->Increment();
    Metrics().round_seconds->Record(
        std::chrono::duration<double>(SchedClock::now() - state.round_start).count());
    if (state.policy->Finished() || state.round + 1 >= kMaxRounds) {
      state.policy->Finalize(ctx);
      --active;
      return;
    }
    ++state.round;
    if (!launch_round(state_index)) {
      --active;
    }
  };

  const auto handle_refresh_done = [&](const ShardRefreshDone& done) {
    if (done.error != nullptr) {
      std::rethrow_exception(done.error);
    }
    if (!propose_and_submit(static_cast<size_t>(done.token))) {
      --active;
    }
  };

  pool_.SetInFlightGauge(&in_flight_rows);
  try {
    // Resolve every group's shard before the first launch: shard storage
    // must not grow once refresh workers hold engine references.
    states.reserve(policies.size());
    for (const GroupedPolicy& entry : policies) {
      const size_t shard = pool_.ShardForGroup(entry.group);
      if (entry.policy->Finished()) {
        CampaignContext ctx = ContextFor(shard, 0);
        entry.policy->Finalize(ctx);
        continue;
      }
      states.push_back(PolicyState{entry.policy, shard, 0, {}, {}});
    }
    for (size_t i = 0; i < states.size(); ++i) {
      if (launch_round(i)) {
        ++active;
      }
    }

    while (active > 0) {
      // Refresh-done events first: they are cheap to handle and each one
      // releases a Propose whose batch then feeds the fleet.
      ShardRefreshDone rdone;
      bool handled = false;
      while (pool_.TryPopRefreshDone(&rdone)) {
        handle_refresh_done(rdone);
        handled = true;
      }
      if (handled) {
        continue;  // scheduling state changed: re-evaluate what to wait on
      }
      const bool measurements_pending = !batch_owner.empty();
      const bool refreshes_pending = pool_.PendingAsyncRefreshes() > 0;
      BatchResult batch;
      if (measurements_pending && refreshes_pending) {
        // Both streams live: timed wait on the batch stream, then loop back
        // to poll the refresh stream.
        if (!broker_.WaitBatchFor(&batch, kPollSeconds)) {
          continue;
        }
      } else if (measurements_pending) {
        if (!broker_.WaitBatch(&batch)) {
          throw std::runtime_error(
              "async campaign: completion stream ended with active policies");
        }
      } else if (refreshes_pending) {
        if (pool_.WaitRefreshDone(&rdone)) {
          handle_refresh_done(rdone);
        }
        continue;
      } else {
        throw std::logic_error("async campaign: active policies with nothing outstanding");
      }

      if (!batch.error.empty()) {
        throw std::runtime_error("async campaign: measurement failed permanently: " +
                                 batch.error);
      }
      const size_t now_in_flight =
          in_flight_rows.fetch_sub(batch.rows.size(), std::memory_order_relaxed) -
          batch.rows.size();
      obs::trace::CounterValue("campaign.in_flight_rows",
                               static_cast<double>(now_in_flight));
      const size_t state_index = batch_owner.at(batch.id);
      batch_owner.erase(batch.id);
      absorb_and_advance(state_index, batch.rows);
    }
  } catch (...) {
    // Workers may still hold engine and gauge references: quiesce the pool
    // before unwinding releases them.
    pool_.DrainAsyncRefreshes();
    pool_.SetInFlightGauge(nullptr);
    throw;
  }
  pool_.DrainAsyncRefreshes();  // no-op: no policy retires with a refresh in flight
  pool_.SetInFlightGauge(nullptr);
}

}  // namespace unicorn
