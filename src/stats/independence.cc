#include "stats/independence.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/correlation.h"
#include "stats/entropy.h"
#include "stats/linalg.h"
#include "stats/special.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

// Packed-code cap: codes above this don't fit uint16_t, so the column keeps
// only its int codes and the fused kernel reads those instead.
constexpr int kMaxPackedCode = 0xFFFF;

// Scratch cap for the fused contingency kernel: contingency cubes beyond
// this many cells (8 MiB of doubles) fall back to the unfused reference
// path, which allocates per call but never materializes the full cube
// marginals at once.
constexpr size_t kMaxFusedCells = size_t{1} << 20;

std::vector<uint16_t> PackCodes(const CodedColumn& col) {
  if (col.cardinality > kMaxPackedCode) {
    return {};
  }
  std::vector<uint16_t> packed(col.codes.size());
  for (size_t i = 0; i < col.codes.size(); ++i) {
    packed[i] = static_cast<uint16_t>(col.codes[i]);
  }
  return packed;
}

// Single pass over the rows filling the (x, y, z) contingency cube. The cube
// entries are exact small integers in doubles, so the count order does not
// matter for bit-identity.
template <typename XT, typename YT, typename ZT>
void CountTriples(const XT* x, const YT* y, const ZT* z, size_t n, size_t cy, size_t cz,
                  double* counts) {
  for (size_t r = 0; r < n; ++r) {
    counts[(static_cast<size_t>(x[r]) * cy + static_cast<size_t>(y[r])) * cz +
           static_cast<size_t>(z[r])] += 1.0;
  }
}

}  // namespace

// --- CITest -----------------------------------------------------------------

int CITest::FirstIndependent(const BatchedCIRequest& req, double* p_out) const {
  const auto& sets = *req.sets;
  for (size_t i = 0; i < sets.size(); ++i) {
    const double p = PValue(req.x, req.y, sets[i]);
    if (p >= req.alpha) {
      if (p_out != nullptr) {
        *p_out = p;
      }
      return static_cast<int>(i);
    }
  }
  return -1;
}

void CITest::SpeculateFirstIndependent(const BatchedCIRequest& req,
                                       const PendingPValues* overlay,
                                       CISpeculation* out) const {
  // Uncached base path: every examined set is an inner evaluation, which
  // advances `calls` immediately (PValue owns that counter). Adoption is
  // therefore a no-op and discard rolls the advances back; the overlay is
  // irrelevant because an uncached serial run re-evaluates every set too.
  (void)overlay;
  *out = CISpeculation{};  // a reused speculation must not accumulate
  const auto& sets = *req.sets;
  for (size_t i = 0; i < sets.size(); ++i) {
    ++out->examined;
    ++out->inner_evals;
    const double p = PValue(req.x, req.y, sets[i]);
    if (p >= req.alpha) {
      out->first_independent = static_cast<int>(i);
      out->p = p;
      return;
    }
  }
}

void CITest::AdoptSpeculation(const CISpeculation& spec, const BatchedCIRequest& req) const {
  (void)spec;
  (void)req;  // counters already advanced during the speculative evaluation
}

void CITest::DiscardSpeculation(const CISpeculation& spec) const {
  calls.fetch_sub(spec.inner_evals, std::memory_order_relaxed);
}

void CITest::AppendPendingOverlay(const CISpeculation& spec, const BatchedCIRequest& req,
                                  PendingPValues* overlay) const {
  (void)spec;
  (void)req;
  (void)overlay;  // no cache, no cross-sweep visibility
}

// --- FisherZTest ------------------------------------------------------------

FisherZTest::FisherZTest(const DataTable& table, ThreadPool* pool) { Update(table, pool); }

void FisherZTest::Update(const DataTable& table, ThreadPool* pool) {
  if (corr_ == nullptr || table.NumVars() != num_vars_) {
    corr_ = std::make_unique<std::atomic<double>[]>(table.NumVars() * table.NumVars());
  }
  n_ = table.NumRows();
  num_vars_ = table.NumVars();
  stride_ = simd::PaddedStride(n_);
  // Work on mid-ranks (Spearman-style): performance data has heavy-tailed
  // objectives (fault cliffs) and monotone nonlinearities (saturation), both
  // of which break plain Pearson correlations but leave ranks intact.
  if (centered_.size() != num_vars_ * stride_) {
    centered_.resize(num_vars_ * stride_);
  }
  norm_.assign(num_vars_, 0.0);
  // Columns are independent (disjoint SoA slots, one norm each), so the
  // O(n log n) ranking parallelizes without changing a single bit. Each
  // worker writes its whole column including the zero pad, so on a fresh
  // buffer the pages of a column block are first-touched by a sweep thread —
  // the placement the blocked correlation dot later streams from.
  const auto rank_column = [&](size_t v) {
    std::vector<double> ranks = MidRanks(table.Col(v));
    double mean = 0.0;
    for (double r : ranks) {
      mean += r;
    }
    mean = ranks.empty() ? 0.0 : mean / static_cast<double>(ranks.size());
    double ss = 0.0;
    double* col = &centered_[v * stride_];
    for (size_t i = 0; i < ranks.size(); ++i) {
      const double c = ranks[i] - mean;
      col[i] = c;
      ss += c * c;
    }
    for (size_t i = ranks.size(); i < stride_; ++i) {
      col[i] = 0.0;  // pad tail: DotBlocked streams the full stride
    }
    norm_[v] = std::sqrt(ss);
  };
  if (pool != nullptr && num_vars_ > 1) {
    pool->ParallelFor(num_vars_, rank_column);
  } else {
    for (size_t v = 0; v < num_vars_; ++v) {
      rank_column(v);
    }
  }
  for (size_t i = 0; i < num_vars_ * num_vars_; ++i) {
    corr_[i].store(std::numeric_limits<double>::quiet_NaN(), std::memory_order_relaxed);
  }
}

double FisherZTest::Correlation(size_t a, size_t b) const {
  if (a == b) {
    return 1.0;
  }
  // The correlation is the memo entry's only payload, so relaxed ordering
  // suffices. Concurrent misses compute the same deterministic value and
  // their stores are identical.
  std::atomic<double>& memo = corr_[a * num_vars_ + b];
  const double cached = memo.load(std::memory_order_relaxed);
  if (!std::isnan(cached)) {
    return cached;
  }
  double r = 0.0;
  if (n_ >= 2 && norm_[a] > 0.0 && norm_[b] > 0.0) {
    const double* ca = &centered_[a * stride_];
    const double* cb = &centered_[b * stride_];
    double dot;
    if (simd::UseReferenceKernels()) {
      dot = 0.0;
      for (size_t i = 0; i < n_; ++i) {
        dot += ca[i] * cb[i];
      }
    } else {
      dot = simd::DotBlocked(ca, cb, n_);
    }
    r = dot / (norm_[a] * norm_[b]);
    r = std::max(-1.0, std::min(1.0, r));
  }
  memo.store(r, std::memory_order_relaxed);
  corr_[b * num_vars_ + a].store(r, std::memory_order_relaxed);
  return r;
}

double FisherZTest::PartialCorrelation(int x, int y, const std::vector<int>& s) const {
  if (s.empty()) {
    return Correlation(static_cast<size_t>(x), static_cast<size_t>(y));
  }
  // Partial correlation via regression residuals in correlation space:
  // solve Css * bx = Csx and Css * by = Csy, then
  // r = (Cxy - bx'Csy) / sqrt((1 - bx'Csx)(1 - by'Csy)).
  const size_t k = s.size();
  std::vector<std::vector<double>> css(k, std::vector<double>(k));
  std::vector<double> csx(k);
  std::vector<double> csy(k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      css[i][j] = Correlation(static_cast<size_t>(s[i]), static_cast<size_t>(s[j]));
    }
    // Tiny ridge keeps near-duplicate conditioning variables solvable.
    css[i][i] += 1e-9;
    csx[i] = Correlation(static_cast<size_t>(s[i]), static_cast<size_t>(x));
    csy[i] = Correlation(static_cast<size_t>(s[i]), static_cast<size_t>(y));
  }
  std::vector<double> bx;
  std::vector<double> by;
  if (!SolveLinearSystem(css, csx, &bx) || !SolveLinearSystem(css, csy, &by)) {
    return 0.0;
  }
  double num = Correlation(static_cast<size_t>(x), static_cast<size_t>(y));
  double dx = 1.0;
  double dy = 1.0;
  for (size_t i = 0; i < k; ++i) {
    num -= bx[i] * csy[i];
    dx -= bx[i] * csx[i];
    dy -= by[i] * csy[i];
  }
  if (dx <= 1e-12 || dy <= 1e-12) {
    return 0.0;
  }
  double r = num / std::sqrt(dx * dy);
  if (r > 1.0) {
    r = 1.0;
  }
  if (r < -1.0) {
    r = -1.0;
  }
  return r;
}

double FisherZTest::PValue(int x, int y, const std::vector<int>& s) const {
  ++calls;
  const double dof = static_cast<double>(n_) - static_cast<double>(s.size()) - 3.0;
  if (dof <= 0.0) {
    return 1.0;
  }
  const double r = PartialCorrelation(x, y, s);
  if (std::fabs(r) >= 1.0 - 1e-12) {
    return 0.0;
  }
  const double z = std::sqrt(dof) * 0.5 * std::log((1.0 + r) / (1.0 - r));
  return NormalTwoSidedPValue(z);
}

// --- GSquareTest ------------------------------------------------------------

GSquareTest::GSquareTest(const DataTable& table, int max_bins)
    : table_(&table), max_bins_(max_bins), rows_(table.NumRows()) {
  ResetMemo();
}

void GSquareTest::ResetMemo() {
  const size_t num_vars = table_->NumVars();
  coded_.clear();
  coded_.resize(num_vars);
  coded_ready_ = std::make_unique<std::atomic<const ColumnState*>[]>(num_vars);
  strata_.clear();
  strata_ready_ = std::make_unique<std::atomic<const StratumState*>[]>(num_vars + 1);
}

std::atomic<const GSquareTest::StratumState*>* GSquareTest::ReadyStratum(
    const std::vector<int>& s) const {
  if (s.size() > 1) {
    return nullptr;
  }
  return &strata_ready_[s.empty() ? 0 : static_cast<size_t>(s[0]) + 1];
}

GSquareTest::ColumnState GSquareTest::BuildColumnState(size_t v) const {
  const std::vector<double>& col = table_->Col(v);
  ColumnState state;
  if (col.size() == rows_) {
    state.coded = DiscretizeColumn(col, table_->Var(v).type, max_bins_, &state.coding);
  } else {
    // Rows appended after the snapshot are ignored until Update().
    const std::vector<double> prefix(col.begin(), col.begin() + rows_);
    state.coded = DiscretizeColumn(prefix, table_->Var(v).type, max_bins_, &state.coding);
  }
  state.packed = PackCodes(state.coded);
  return state;
}

bool GSquareTest::TryExtendColumn(size_t v, ColumnState* state, size_t old_rows) const {
  if (!state->coding.direct) {
    return false;  // quantile bins shift with the data; must recode
  }
  const std::vector<double>& col = table_->Col(v);
  auto& codes = state->coded.codes;
  const bool pack = !state->packed.empty();
  for (size_t r = old_rows; r < rows_; ++r) {
    const auto it = state->coding.levels.find(col[r]);
    if (it == state->coding.levels.end()) {
      // New level: codes are assigned in sorted-value order, so the whole
      // column renumbers. Roll back and let the caller recode.
      codes.resize(old_rows);
      if (pack) {
        state->packed.resize(old_rows);
      }
      return false;
    }
    codes.push_back(it->second);
    if (pack) {
      state->packed.push_back(static_cast<uint16_t>(it->second));
    }
  }
  return true;
}

void GSquareTest::Update(const DataTable& table) {
  std::lock_guard<std::mutex> coded_lock(coded_mu_);
  std::lock_guard<std::mutex> strata_lock(strata_mu_);
  const size_t old_rows = rows_;
  // Incremental extension is sound only for the append-only case: the same
  // table object with at least as many rows (the engine's usage). Reference
  // mode always rebuilds so the legacy arithmetic is reproduced from cold.
  const bool incremental = !simd::UseReferenceKernels() && &table == table_ &&
                           table.NumRows() >= old_rows && table.NumVars() == coded_.size();
  table_ = &table;
  rows_ = table.NumRows();
  if (!incremental) {
    ResetMemo();
    ++epoch_counter_;  // conservatively invalidate any strata built later
    return;
  }
  if (rows_ == old_rows) {
    return;
  }
  // Extend (or recode) every materialized column for the appended rows.
  for (size_t v = 0; v < coded_.size(); ++v) {
    ColumnState* state = coded_[v].get();
    if (state == nullptr) {
      continue;  // never touched; first use codes the full prefix lazily
    }
    if (!TryExtendColumn(v, state, old_rows)) {
      *state = BuildColumnState(v);
      state->epoch = ++epoch_counter_;
    }
  }
  // Extend strata whose member columns kept their coding; drop the rest.
  // Dense stratum ids are assigned by first appearance in row order, which
  // appending preserves, so extended ids match a cold CombineStrata.
  for (auto it = strata_.begin(); it != strata_.end();) {
    const std::vector<int>& key = it->first;
    StratumState& st = it->second;
    bool extendable = true;
    for (size_t i = 0; i < key.size(); ++i) {
      const ColumnState* member = coded_[static_cast<size_t>(key[i])].get();
      if (member == nullptr || member->epoch != st.member_epochs[i]) {
        extendable = false;
        break;
      }
    }
    if (!extendable) {
      if (auto* ready = ReadyStratum(key)) {
        ready->store(nullptr, std::memory_order_relaxed);
      }
      it = strata_.erase(it);
      continue;
    }
    if (key.empty()) {
      st.coded.codes.resize(rows_, 0);
      st.coded.cardinality = rows_ == 0 ? 0 : 1;
      st.packed.resize(rows_, 0);
      ++it;
      continue;
    }
    bool pack = !st.packed.empty();
    for (size_t r = old_rows; r < rows_; ++r) {
      long long radix = 0;
      for (int v : key) {
        const CodedColumn& member = coded_[static_cast<size_t>(v)]->coded;
        radix = radix * std::max(1, member.cardinality) + member.codes[r];
      }
      const auto [dit, inserted] =
          st.dense.emplace(radix, static_cast<int>(st.dense.size()));
      st.coded.codes.push_back(dit->second);
      if (pack) {
        if (dit->second <= kMaxPackedCode) {
          st.packed.push_back(static_cast<uint16_t>(dit->second));
        } else {
          pack = false;
          st.packed.clear();
        }
      }
    }
    st.coded.cardinality = static_cast<int>(st.dense.size());
    ++it;
  }
}

const GSquareTest::ColumnState& GSquareTest::Coded(size_t v) const {
  if (const ColumnState* ready = coded_ready_[v].load(std::memory_order_acquire)) {
    return *ready;
  }
  // Discretize outside the lock so sweep workers do not serialize on the
  // O(n log n) coding; concurrent misses produce identical columns and the
  // first store wins (same policy as the CI cache).
  auto fresh = std::make_unique<ColumnState>(BuildColumnState(v));
  std::lock_guard<std::mutex> lock(coded_mu_);
  if (coded_[v] == nullptr) {
    fresh->epoch = ++epoch_counter_;
    coded_[v] = std::move(fresh);
    coded_ready_[v].store(coded_[v].get(), std::memory_order_release);
  }
  return *coded_[v];
}

const GSquareTest::StratumState& GSquareTest::Strata(const std::vector<int>& s) const {
  std::atomic<const StratumState*>* ready = ReadyStratum(s);
  if (ready != nullptr) {
    if (const StratumState* st = ready->load(std::memory_order_acquire)) {
      return *st;
    }
  }
  std::vector<int> key = s;
  std::sort(key.begin(), key.end());
  {
    std::lock_guard<std::mutex> lock(strata_mu_);
    auto it = strata_.find(key);
    if (it != strata_.end()) {
      return it->second;
    }
  }
  // Materialize the member columns outside the strata lock (Coded takes its
  // own lock), then combine their codes into dense stratum ids. Member
  // epochs only move inside Update, never concurrently with a sweep, so
  // capturing them here is race-free.
  std::vector<const CodedColumn*> cols;
  StratumState fresh;
  cols.reserve(key.size());
  fresh.member_epochs.reserve(key.size());
  for (int v : key) {
    const ColumnState& member = Coded(static_cast<size_t>(v));
    cols.push_back(&member.coded);
    fresh.member_epochs.push_back(member.epoch);
  }
  fresh.coded = CombineStrata(cols, rows_, &fresh.dense);
  fresh.packed = PackCodes(fresh.coded);
  std::lock_guard<std::mutex> lock(strata_mu_);
  // Another worker may have inserted the same key meanwhile; emplace keeps
  // the first copy and both are identical.
  const StratumState& st = strata_.emplace(std::move(key), std::move(fresh)).first->second;
  if (ready != nullptr) {
    ready->store(&st, std::memory_order_release);
  }
  return st;
}

double GSquareTest::PValueFrom(const ColumnState& sx, const ColumnState& sy,
                               const StratumState& sz) const {
  const size_t n = rows_;  // snapshot, see class comment
  const CodedColumn& cx = sx.coded;
  const CodedColumn& cy = sy.coded;
  const CodedColumn& cz = sz.coded;
  if (!simd::UseReferenceKernels()) {
    const size_t cxc = static_cast<size_t>(std::max(1, cx.cardinality));
    const size_t cyc = static_cast<size_t>(std::max(1, cy.cardinality));
    const size_t czc = static_cast<size_t>(std::max(1, cz.cardinality));
    if (cyc <= kMaxFusedCells / czc && cxc <= kMaxFusedCells / (cyc * czc)) {
      // Fused path: one pass over the rows fills the full contingency cube;
      // the three entropies' marginals are derived from the cube. Every
      // count is an exact integer (sums of disjoint cells stay exact), and
      // DistributionEntropy consumes vectors laid out exactly as the
      // unfused JointEntropy/Entropy path builds them, so the result is
      // bit-identical to the reference arithmetic.
      thread_local std::vector<double> counts, xz, yz, zc;
      counts.assign(cxc * cyc * czc, 0.0);
      if (!sx.packed.empty() && !sy.packed.empty() && !sz.packed.empty()) {
        CountTriples(sx.packed.data(), sy.packed.data(), sz.packed.data(), n, cyc, czc,
                     counts.data());
      } else {
        CountTriples(cx.codes.data(), cy.codes.data(), cz.codes.data(), n, cyc, czc,
                     counts.data());
      }
      xz.assign(cxc * czc, 0.0);
      yz.assign(cyc * czc, 0.0);
      zc.assign(czc, 0.0);
      for (size_t x = 0; x < cxc; ++x) {
        for (size_t y = 0; y < cyc; ++y) {
          const double* cell = &counts[(x * cyc + y) * czc];
          double* xrow = &xz[x * czc];
          double* yrow = &yz[y * czc];
          UNICORN_SIMD_LOOP
          for (size_t z = 0; z < czc; ++z) {
            xrow[z] += cell[z];
            yrow[z] += cell[z];
          }
        }
        const double* xrow = &xz[x * czc];
        UNICORN_SIMD_LOOP
        for (size_t z = 0; z < czc; ++z) {
          zc[z] += xrow[z];
        }
      }
      // Every row lands in exactly one cube cell, so each vector's positive
      // entries sum to exactly n (integer counts add exactly in doubles);
      // passing the total skips one full scan per entropy, bit-identically.
      const double total = static_cast<double>(n);
      const double hxz = DistributionEntropyWithTotal(xz, total);
      const double hyz = DistributionEntropyWithTotal(yz, total);
      const double hxyz = DistributionEntropyWithTotal(counts, total);
      const double hz = DistributionEntropyWithTotal(zc, total);
      const double cmi = std::max(0.0, hxz + hyz - hxyz - hz);
      const double g = 2.0 * static_cast<double>(n) * cmi;
      const double dof = std::max(
          1.0, (cx.cardinality - 1.0) * (cy.cardinality - 1.0) * std::max(1, cz.cardinality));
      return ChiSquareSurvival(g, dof);
    }
  }
  const double cmi = ConditionalMutualInformation(cx, cy, cz);
  const double g = 2.0 * static_cast<double>(n) * cmi;
  const double dof = std::max(
      1.0, (cx.cardinality - 1.0) * (cy.cardinality - 1.0) * std::max(1, cz.cardinality));
  return ChiSquareSurvival(g, dof);
}

double GSquareTest::PValue(int x, int y, const std::vector<int>& s) const {
  ++calls;
  if (rows_ == 0) {
    return 1.0;
  }
  const ColumnState& sx = Coded(static_cast<size_t>(x));
  const ColumnState& sy = Coded(static_cast<size_t>(y));
  const StratumState& sz = Strata(s);
  return PValueFrom(sx, sy, sz);
}

int GSquareTest::FirstIndependent(const BatchedCIRequest& req, double* p_out) const {
  const auto& sets = *req.sets;
  if (rows_ == 0) {
    for (size_t i = 0; i < sets.size(); ++i) {
      ++calls;
      if (1.0 >= req.alpha) {
        if (p_out != nullptr) {
          *p_out = 1.0;
        }
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  if (sets.empty()) {
    return -1;
  }
  // One coded-column fetch for the whole level.
  const ColumnState& sx = Coded(static_cast<size_t>(req.x));
  const ColumnState& sy = Coded(static_cast<size_t>(req.y));
  for (size_t i = 0; i < sets.size(); ++i) {
    ++calls;
    const StratumState& sz = Strata(sets[i]);
    const double p = PValueFrom(sx, sy, sz);
    if (p >= req.alpha) {
      if (p_out != nullptr) {
        *p_out = p;
      }
      return static_cast<int>(i);
    }
  }
  return -1;
}

// --- CompositeTest ----------------------------------------------------------

CompositeTest::CompositeTest(const DataTable& table, int max_bins, ThreadPool* pool)
    : fisher_(table, pool), gsq_(table, max_bins) {
  types_.reserve(table.NumVars());
  for (size_t v = 0; v < table.NumVars(); ++v) {
    types_.push_back(table.Var(v).type);
  }
}

void CompositeTest::Update(const DataTable& table, ThreadPool* pool) {
  fisher_.Update(table, pool);
  gsq_.Update(table);
}

double CompositeTest::PValue(int x, int y, const std::vector<int>& s) const {
  ++calls;
  const bool continuous_pair = types_[static_cast<size_t>(x)] == VarType::kContinuous &&
                               types_[static_cast<size_t>(y)] == VarType::kContinuous;
  if (continuous_pair) {
    return fisher_.PValue(x, y, s);
  }
  return gsq_.PValue(x, y, s);
}

int CompositeTest::FirstIndependent(const BatchedCIRequest& req, double* p_out) const {
  const bool continuous_pair = types_[static_cast<size_t>(req.x)] == VarType::kContinuous &&
                               types_[static_cast<size_t>(req.y)] == VarType::kContinuous;
  const int idx = continuous_pair ? fisher_.FirstIndependent(req, p_out)
                                  : gsq_.FirstIndependent(req, p_out);
  // Serial equivalence: the dispatcher's counter advances once per examined
  // set, exactly as per-set PValue dispatch would.
  calls += idx >= 0 ? idx + 1 : static_cast<long long>(req.sets->size());
  return idx;
}

}  // namespace unicorn
