#include "unicorn/model_learner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "unicorn/backend/binary_table.h"
#include "util/hash.h"
#include "util/rng.h"

namespace unicorn {

namespace {

// The warm-start staleness noise floor is kNoiseFloorScale / sqrt(n_rows)
// (see EngineOptions::stale_epsilon).
constexpr double kNoiseFloorScale = 1.0;

// Process-wide engine instruments, summed across every shard/engine (the
// per-instance EngineStats ledger stays the per-shard view).
struct EngineMetrics {
  obs::Counter* refreshes;
  obs::Counter* tests_requested;
  obs::Counter* tests_evaluated;
  obs::Counter* cache_hits;
  obs::Counter* cross_shard_hits;
  obs::Histogram* refresh_seconds;
};

const EngineMetrics& Metrics() {
  static const EngineMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return EngineMetrics{registry.Counter("engine.refreshes"),
                         registry.Counter("engine.tests_requested"),
                         registry.Counter("engine.tests_evaluated"),
                         registry.Counter("engine.cache_hits"),
                         registry.Counter("engine.cross_shard_hits"),
                         registry.Histogram("engine.refresh_seconds")};
  }();
  return metrics;
}

}  // namespace

CausalModelEngine::CausalModelEngine(std::vector<Variable> variables,
                                     CausalModelOptions model_options,
                                     EngineOptions engine_options)
    : model_options_(std::move(model_options)),
      engine_options_(std::move(engine_options)),
      constraints_(variables),
      data_(std::move(variables)),
      moments_(data_.NumVars()) {
  stats_.pairs_total = data_.NumVars() * (data_.NumVars() - 1) / 2;
  if (engine_options_.num_threads > 1) {
    // The calling thread runs sweep items too, so num_threads - 1 workers
    // make a num_threads-wide sweep.
    pool_ = std::make_unique<ThreadPool>(engine_options_.num_threads - 1, "engine");
  }
}

void CausalModelEngine::AddRow(const std::vector<double>& row, RowProvenance provenance) {
  data_.AddRow(row);
  moments_.AddRow(row);
  row_provenance_.push_back(static_cast<uint8_t>(provenance));
  ++provenance_rows_[static_cast<size_t>(provenance)];
  // Chain the row into the table fingerprint: engines that absorbed the same
  // rows in the same order agree, and any divergence is permanent.
  data_fingerprint_ = HashDoubles(row, data_fingerprint_);
}

void CausalModelEngine::ShareCICache(CICache* shared, uint32_t shard_id) {
  shared_cache_ = shared;
  shard_id_ = shard_id;
}

void CausalModelEngine::AppendRows(const DataTable& rows, RowProvenance provenance) {
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    AddRow(rows.Row(r), provenance);
  }
}

size_t CausalModelEngine::SeedFromTable(const MeasurementTable& table,
                                        RowProvenance provenance) {
  if (table.num_vars != data_.NumVars()) {
    return 0;  // a row of the wrong width would corrupt the streaming moments
  }
  size_t options = 0;
  for (VarRole role : constraints_.roles()) {
    options += role == VarRole::kOption ? 1 : 0;
  }
  if (table.num_options != options) {
    return 0;  // same width, different task: reject rather than mislearn
  }
  for (const auto& entry : table.entries) {
    if (entry.row.size() != table.num_vars) {
      return 0;  // malformed entry; loads normally catch this earlier
    }
  }
  for (const auto& entry : table.entries) {
    AddRow(entry.row, provenance);
  }
  return table.entries.size();
}

size_t CausalModelEngine::SeedFromFile(const std::string& path, RowProvenance provenance) {
  if (IsBinaryMeasurementTable(path)) {
    // Zero-copy warm start: stream rows straight out of the mapped payload
    // instead of materializing a MeasurementTable (two vectors per entry).
    BinaryTableView view;
    if (!view.Open(path)) {
      return 0;
    }
    if (view.num_vars() != data_.NumVars()) {
      return 0;  // same rejection rules as SeedFromTable
    }
    size_t options = 0;
    for (VarRole role : constraints_.roles()) {
      options += role == VarRole::kOption ? 1 : 0;
    }
    if (view.num_options() != options) {
      return 0;
    }
    Reserve(data_.NumRows() + view.num_rows());
    std::vector<double> row;
    for (size_t r = 0; r < view.num_rows(); ++r) {
      view.ReadRow(r, &row);
      AddRow(row, provenance);
    }
    return view.num_rows();
  }
  MeasurementTable table;
  if (!LoadMeasurementTable(path, &table)) {
    return 0;
  }
  return SeedFromTable(table, provenance);
}

void CausalModelEngine::Reserve(size_t rows) {
  data_.Reserve(rows);
  // Keep every parallel per-row vector on the same reservation so hot-loop
  // seeding never reallocates mid-append.
  row_provenance_.reserve(rows);
}

void CausalModelEngine::SyncAppendedRows() {
  if (test_ == nullptr || test_rows_ == data_.NumRows()) {
    // Nothing to extend: either no test state exists yet (the first Refresh
    // builds it from the full table) or it is already current.
    return;
  }
  // G² codes extend over the appended rows (recoding from scratch only where
  // extension cannot be bit-identical), Fisher-Z ranks refresh, strata
  // re-derive lazily.
  test_->Update(data_, pool_.get());
  test_rows_ = data_.NumRows();
}

const LearnedModel& CausalModelEngine::Refresh() {
  return Refresh(model_options_.seed + static_cast<uint64_t>(stats_.refreshes));
}

const LearnedModel& CausalModelEngine::Refresh(uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  obs::trace::Span refresh_span("engine.refresh", "engine");
  const auto start = Clock::now();
  const size_t n = data_.NumVars();
  refresh_span.SetArg("rows", static_cast<double>(data_.NumRows()));

  const bool warm_starts = engine_options_.stale_epsilon > 0.0;
  const bool warm = has_model_ && warm_starts &&
                    (engine_options_.full_refresh_every == 0 ||
                     stats_.refreshes % engine_options_.full_refresh_every != 0);

  // One correlation scan per refresh serves both the staleness check and the
  // next snapshot: the data cannot change mid-refresh. Without warm starts
  // no snapshot is ever read, so none is taken.
  bool adopt = false;
  std::vector<char> dirty;
  SkeletonWarmStart warm_start;
  EdgeDecisionMap entropic_reuse;
  size_t reused = 0;
  if (warm_starts) {
    TRACE_SPAN("engine.warm_start", "engine");
    // A cold refresh compares against nothing: an empty snapshot.
    const std::vector<double> none;
    std::vector<double> drift;
    moments_.PearsonUpperTri(warm ? corr_snapshot_ : none, &corr_scan_, &drift, pool_.get());
    if (warm) {
      // A variable is stale when one of its streaming correlations moved past
      // the threshold since the last refresh. The streaming raw-value
      // correlations are a cheap O(1)-per-pair proxy for the rank
      // correlations and contingency tables the CI tests actually use.
      // Correlation shifts below the sampling noise of the estimate are not
      // evidence of change; the floor keeps early refreshes (small n, noisy
      // correlations) from re-testing everything.
      const double noise_floor =
          data_.NumRows() > 0
              ? kNoiseFloorScale / std::sqrt(static_cast<double>(data_.NumRows()))
              : 0.0;
      const double threshold = std::max(engine_options_.stale_epsilon, noise_floor);
      std::vector<char> stale(n, 0);
      size_t fresh = 0;
      for (size_t v = 0; v < n; ++v) {
        stale[v] = drift[v] > threshold ? 1 : 0;
        fresh += stale[v] == 0 ? 1 : 0;
      }
      reused = fresh * (fresh - 1) / 2;  // pairs with no stale endpoint
      adopt = fresh == n;
      if (!adopt) {
        dirty.assign(n * n, 0);
        for (size_t a = 0; a < n; ++a) {
          for (size_t b = a + 1; b < n; ++b) {
            dirty[a * n + b] = static_cast<char>(stale[a] | stale[b]);
          }
        }
        warm_start.graph = &model_.admg;
        warm_start.sepsets = &sepsets_;
        warm_start.pair_dirty = &dirty;
        for (const auto& [pair, decision] : entropic_decisions_) {
          if (dirty[pair.first * n + pair.second] == 0) {
            entropic_reuse.emplace(pair, decision);
          }
        }
      }
    }
  }

  long long requested = 0;
  long long evaluated = 0;
  long long hits = 0;
  long long cross_shard_hits = 0;
  if (adopt) {
    // Nothing is stale, so the full path would adopt the adjacency and every
    // separating set, orient them to the same PAG and reuse every entropic
    // decision: the model stays as it is. The CI tests skip the row sync; the
    // next refresh that tests extends them over every row appended since.
    model_.independence_tests = 0;
    ++stats_.adopted_refreshes;
  } else {
    // Bring the CI tests up to date with the appended rows (streaming /
    // lazy: ranks are recomputed, codes and strata re-derive on demand).
    {
      TRACE_SPAN("engine.sync_rows", "engine");
      if (test_ == nullptr) {
        test_ = std::make_unique<CompositeTest>(data_, /*max_bins=*/5, pool_.get());
        test_rows_ = data_.NumRows();
      } else {
        SyncAppendedRows();
      }
    }

    const long long evaluated_before = test_->calls.Value();

    // Without an attached shared cache the engine evaluates every test: a
    // pair asks each (x, y | S) once per refresh, and keys embed the row
    // count, so a private cache could only serve possible-d-sep's re-asks.
    CachedCITest cached(*test_, engine_options_.use_ci_cache ? shared_cache_ : nullptr,
                        data_.NumRows(), data_fingerprint_, shard_id_);
    obs::trace::Begin("engine.fci", "engine");
    FciResult fci =
        RunFci(cached, constraints_, n, model_options_.fci, warm_start, pool_.get());
    obs::trace::End("tests", static_cast<double>(fci.tests_performed));

    model_.independence_tests = fci.tests_performed;
    model_.circle_marks_resolved = fci.pag.NumCircleMarks();

    Rng rng(seed);
    EdgeDecisionMap decisions;
    {
      TRACE_SPAN("engine.entropic", "engine");
      ResolveWithEntropy(data_, constraints_, model_options_.entropic, &rng, &fci.pag,
                         warm ? &entropic_reuse : nullptr, &decisions, pool_.get());
    }

    model_.admg = std::move(fci.pag);
    sepsets_ = std::move(fci.sepsets);
    entropic_decisions_ = std::move(decisions);
    requested = cached.calls.Value();
    evaluated = test_->calls.Value() - evaluated_before;
    hits = cached.hits();
    cross_shard_hits = cached.cross_shard_hits();
  }
  if (warm_starts) {
    corr_snapshot_.swap(corr_scan_);
  }
  estimator_.reset();
  has_model_ = true;

  stats_.warm = warm;
  stats_.tests_requested = requested;
  stats_.tests_evaluated = evaluated;
  stats_.cache_hits = hits;
  stats_.cross_shard_hits = cross_shard_hits;
  stats_.pairs_reused = reused;
  stats_.refresh_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  ++stats_.refreshes;
  stats_.total_tests_requested += stats_.tests_requested;
  stats_.total_tests_evaluated += stats_.tests_evaluated;
  stats_.total_cache_hits += stats_.cache_hits;
  stats_.total_cross_shard_hits += stats_.cross_shard_hits;
  stats_.total_seconds += stats_.refresh_seconds;
  Metrics().refreshes->Increment();
  Metrics().tests_requested->Add(static_cast<uint64_t>(stats_.tests_requested));
  Metrics().tests_evaluated->Add(static_cast<uint64_t>(stats_.tests_evaluated));
  Metrics().cache_hits->Add(static_cast<uint64_t>(stats_.cache_hits));
  Metrics().cross_shard_hits->Add(static_cast<uint64_t>(stats_.cross_shard_hits));
  Metrics().refresh_seconds->Record(stats_.refresh_seconds);
  refresh_span.SetArg("warm", warm ? 1.0 : 0.0);
  refresh_span.SetArg("adopted", adopt ? 1.0 : 0.0);
  return model_;
}

const CausalEffectEstimator& CausalModelEngine::Estimator() {
  if (estimator_ == nullptr) {
    estimator_ = std::make_unique<CausalEffectEstimator>(model_.admg, data_);
  }
  return *estimator_;
}

LearnedModel LearnCausalPerformanceModel(const DataTable& data,
                                         const CausalModelOptions& options) {
  CausalModelEngine engine(data.Variables(), options);
  engine.AppendRows(data);
  return engine.Refresh(options.seed);
}

}  // namespace unicorn
