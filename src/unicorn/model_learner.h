// Stage II of Unicorn: learning the causal performance model.
//
// Chains FCI (skeleton + sepsets + orientation rules, tolerant of latent
// confounders) with entropic resolution of the remaining circle marks,
// producing a fully resolved ADMG ready for do-calculus queries.
//
// The CausalModelEngine is the stateful heart of the iterative loop (paper
// §4, Stage IV): it owns the growing measurement table and re-learns the
// model *incrementally* — appended rows update streaming statistics instead
// of rebuilding them, warm-started refreshes re-test only the edges whose
// endpoint statistics changed materially, and the per-level skeleton sweep
// runs on a thread pool with results bit-identical to the serial search.
// An engine attached to a shared CI cache (ShareCICache) memoizes p-values
// there, across its skeleton and Possible-D-SEP phases and across shards;
// an engine without one evaluates every test it asks.
#ifndef UNICORN_UNICORN_MODEL_LEARNER_H_
#define UNICORN_UNICORN_MODEL_LEARNER_H_

#include <memory>
#include <string>
#include <vector>

#include "causal/constraints.h"
#include "causal/effects.h"
#include "causal/entropic.h"
#include "causal/fci.h"
#include "graph/mixed_graph.h"
#include "stats/ci_cache.h"
#include "stats/correlation.h"
#include "stats/table.h"
#include "unicorn/backend/measurement_table.h"
#include "util/thread_pool.h"

namespace unicorn {

// Where a measurement row in the engine's table came from. The learned model
// is provenance-blind (a row is a row), but transfer campaigns report how
// much of the model rests on reused source-hardware data versus fresh
// target measurements — the paper's Fig. 16/17 "Reuse / +25" accounting.
enum class RowProvenance : uint8_t {
  kTarget = 0,  // measured live by this campaign (the default)
  kSource = 1,  // imported from a recorded table / source environment
};
inline constexpr size_t kNumRowProvenances = 2;

struct CausalModelOptions {
  FciOptions fci;
  EntropicOptions entropic;
  uint64_t seed = 42;
};

// Engine-level knobs, orthogonal to the statistical options above.
struct EngineOptions {
  // Warm-start staleness threshold on the streaming Pearson correlations:
  // a refresh re-tests only pairs with an endpoint whose correlation profile
  // moved by more than this since the last refresh; clean pairs keep their
  // previous adjacency, separating set, and entropic orientation. 0 disables
  // warm starts entirely — every refresh is a full, exact relearn (the
  // default: incremental mode is an explicit opt-in because it trades exact
  // PC-stable semantics for speed, as the paper's Stage IV does). With warm
  // starts enabled the effective threshold is max(stale_epsilon,
  // 1 / sqrt(n_rows)): a correlation estimate's sampling noise is
  // ~1/sqrt(n), and shifts within it never mark a pair dirty.
  // A warm refresh that finds no stale variable keeps its model as it is
  // (counted in EngineStats::adopted_refreshes). That is exactly what the
  // full path would return: every pair is clean, so the skeleton adopts the
  // adjacency and every separating set verbatim, FCI's orientation is a
  // function of those two, and the entropic pass reuses every decision
  // without drawing from its Rng.
  double stale_epsilon = 0.0;
  // With warm starts enabled, every k-th refresh is still a full relearn so
  // approximation error cannot accumulate across iterations.
  size_t full_refresh_every = 8;
  // Worker threads for the per-level skeleton sweep (1 = serial). Results
  // are bit-identical for any value.
  int num_threads = 1;
  // Consult the shared CI cache attached by ShareCICache (sound: keys
  // include the row count and the table fingerprint). Without an attached
  // cache there is nothing to consult and the option has no effect.
  bool use_ci_cache = true;
};

struct LearnedModel {
  MixedGraph admg;
  long long independence_tests = 0;
  size_t circle_marks_resolved = 0;
};

// Discovery-cost accounting of an engine. "Requested" counts every CI test
// the search asked for; "evaluated" counts the p-values actually computed
// (requested minus shared-cache hits; equal to requested without one). All numbers derive from CITest::calls and
// the CachedCITest counters — there is no second, hand-maintained count
// anywhere. Hits are counted on the engine's own decorator, so they stay
// exact even when the engine shares a process-wide CICache with other
// shards refreshing concurrently.
struct EngineStats {
  // Last refresh.
  bool warm = false;                 // was it warm-started?
  long long tests_requested = 0;
  long long tests_evaluated = 0;
  long long cache_hits = 0;
  long long cross_shard_hits = 0;    // hits on entries another shard stored
  size_t pairs_total = 0;            // unordered variable pairs
  size_t pairs_reused = 0;           // adopted from the previous refresh
  double refresh_seconds = 0.0;
  // Cumulative over the engine's lifetime.
  size_t refreshes = 0;
  size_t adopted_refreshes = 0;      // warm, nothing stale: model kept as is
  long long total_tests_requested = 0;
  long long total_tests_evaluated = 0;
  long long total_cache_hits = 0;
  long long total_cross_shard_hits = 0;
  double total_seconds = 0.0;

  double CacheHitRate() const {
    return total_tests_requested == 0
               ? 0.0
               : static_cast<double>(total_cache_hits) /
                     static_cast<double>(total_tests_requested);
  }
};

// Stateful, cached, parallel causal-discovery engine. Held by the debugger
// and the optimizer across loop iterations; measurements stream in through
// AddRow and Refresh() re-learns the model on everything seen so far.
class CausalModelEngine {
 public:
  explicit CausalModelEngine(std::vector<Variable> variables,
                             CausalModelOptions model_options = {},
                             EngineOptions engine_options = {});

  // Appends one measurement row (rank-1 update of the streaming moments),
  // tagged with its provenance.
  void AddRow(const std::vector<double>& row,
              RowProvenance provenance = RowProvenance::kTarget);
  // Appends all rows of `rows` (variables must match the engine's).
  void AppendRows(const DataTable& rows,
                  RowProvenance provenance = RowProvenance::kTarget);
  // Engine-table warm start: seeds the engine straight from a persisted
  // MeasurementTable (the broker/RecordedBackend on-disk format), so a
  // transferred model refreshes incrementally on top of the recorded rows
  // instead of re-learning from scratch. Rows are appended in table order
  // with `provenance`. Shape is validated at this layer: a table whose
  // variable or option count does not match the engine's is rejected
  // wholesale. Returns the number of rows added (0 on mismatch or an empty
  // table; the engine is untouched on rejection).
  size_t SeedFromTable(const MeasurementTable& table,
                       RowProvenance provenance = RowProvenance::kSource);
  // Convenience: LoadMeasurementTable + SeedFromTable. Binary tables (see
  // unicorn/backend/binary_table.h) stream zero-copy from the mapped file
  // instead of materializing entries. Returns 0 on I/O or parse failure too.
  size_t SeedFromFile(const std::string& path,
                      RowProvenance provenance = RowProvenance::kSource);
  // Pre-allocates storage for `rows` total measurements.
  void Reserve(size_t rows);

  // Shared-cache mode (the sharded reasoning plane, see unicorn/engine_pool):
  // from the next refresh on, CI results are memoized in `shared`,
  // attributed to `shard_id`. Entries are keyed on data_fingerprint(), so
  // two engines whose tables are bit-identical share hits and diverged
  // tables can never serve each other stale values. The cache must outlive
  // the engine; pass nullptr to detach it, after which refreshes evaluate
  // every test they ask.
  void ShareCICache(CICache* shared, uint32_t shard_id);

  // Order-sensitive fingerprint chained over every absorbed row: two engines
  // have equal fingerprints iff their tables hold bit-identical rows in the
  // same order (modulo 64-bit hash collisions). The shared CI cache's
  // table_tag.
  uint64_t data_fingerprint() const { return data_fingerprint_; }

  const DataTable& data() const { return data_; }
  // Provenance tag of row `r` (parallel to data()).
  RowProvenance provenance_of(size_t r) const {
    return static_cast<RowProvenance>(row_provenance_[r]);
  }
  // How many rows carry the given provenance.
  size_t ProvenanceRows(RowProvenance provenance) const {
    return provenance_rows_[static_cast<size_t>(provenance)];
  }

  // Re-learns the causal performance model on all data seen so far. The
  // overload without a seed derives one from the base seed and the refresh
  // count, so repeated refreshes vary the entropic tie-breaking the same way
  // the old per-iteration relearn did.
  const LearnedModel& Refresh();
  const LearnedModel& Refresh(uint64_t seed);

  bool HasModel() const { return has_model_; }
  const LearnedModel& model() const { return model_; }

  // Effect estimator bound to the current model and data; built lazily after
  // a refresh and kept until the next one.
  const CausalEffectEstimator& Estimator();

  const EngineStats& stats() const { return stats_; }

 private:
  // Brings the CI test state up to date with every row appended since the
  // last refresh that tested through the O(appended) incremental paths — G²
  // codes extend in place (full recode only where extension cannot
  // reproduce the from-scratch coding bit-identically), Fisher-Z ranks
  // refresh. Bit-identical to a from-scratch build for any number of
  // appended rows by the kernel equivalence contract (stats/independence.h
  // Update). No-op when already current.
  void SyncAppendedRows();

  CausalModelOptions model_options_;
  EngineOptions engine_options_;
  StructuralConstraints constraints_;
  DataTable data_;
  std::vector<uint8_t> row_provenance_;  // parallel to data_'s rows
  size_t provenance_rows_[kNumRowProvenances] = {0, 0};
  StreamingMoments moments_;

  std::unique_ptr<CompositeTest> test_;  // updated in place as data grows
  size_t test_rows_ = 0;                 // rows test_ was last updated for
  CICache* shared_cache_ = nullptr;      // shard mode: process-wide cache
  uint32_t shard_id_ = 0;                // this engine's tag in the shared cache
  uint64_t data_fingerprint_ = 0x5eed0fca11c0de01ULL;  // chained row hash
  std::unique_ptr<ThreadPool> pool_;

  LearnedModel model_;
  bool has_model_ = false;
  SepsetMap sepsets_;                    // last refresh's separating sets
  EdgeDecisionMap entropic_decisions_;   // last refresh's edge orientations
  // Streaming Pearson at the last refresh, and the staleness scan's output
  // buffer; the two swap after each scan (taken only with warm starts on).
  std::vector<double> corr_snapshot_;
  std::vector<double> corr_scan_;
  std::unique_ptr<CausalEffectEstimator> estimator_;
  EngineStats stats_;
};

// Learns the causal performance model from observational data in one shot
// (a fresh engine fed `data` and refreshed once). The iterative loop should
// hold a CausalModelEngine instead and let it update incrementally.
LearnedModel LearnCausalPerformanceModel(const DataTable& data,
                                         const CausalModelOptions& options = {});

}  // namespace unicorn

#endif  // UNICORN_UNICORN_MODEL_LEARNER_H_
