// Conditional-independence tests.
//
// The constraint-based causal discovery in src/causal consumes an abstract
// CITest so that the skeleton search is agnostic to variable types. Two tests
// are provided, mirroring the paper (§4 Stage II): Fisher's z on partial
// correlation for continuous variables and a G-test (2N * conditional mutual
// information, chi-square calibrated) for discrete/mixed variables. The
// composite test dispatches per variable pair.
//
// Both tests are *updatable*: `Update(table)` refreshes the internal
// statistics after rows were appended without rebuilding eagerly. Derived
// quantities (rank correlations, coded columns, conditioning strata) are
// computed lazily per pair / per conditioning set and memoized, so a sparse
// warm-started skeleton search touching few pairs pays only for those pairs.
//
// Thread safety: PValue, FirstIndependent and the memo accessors are safe to
// call concurrently from the parallel sweeps; Update must not overlap them.
// A memo entry is filled at most once per Update and published through an
// atomic, so every read after its first touch takes no lock: the Fisher-z
// correlation memo is one atomic per pair, and G²'s coded columns and its
// empty and singleton strata sit behind atomic pointers. Only strata of two
// or more conditioning variables go through a mutex-guarded map. Concurrent
// first touches compute the same deterministic value; the first to publish
// wins. All structural mutation of the memos (invalidation, extension,
// erasure) happens inside Update.
//
// Kernel layers (see stats/simd.h): FisherZTest stores its centered
// mid-ranks as one aligned SoA block and reduces with the blocked dot;
// GSquareTest keeps packed 16-bit codes next to the int codes and computes
// the G statistic in a fused single-pass contingency kernel whose entropy
// sums replicate the unfused reference arithmetic exactly (counts are exact
// small integers), so its p-values are bit-identical to the legacy path.
// simd::SetReferenceKernels(true) routes every test through the legacy
// scalar arithmetic for equivalence pinning.
#ifndef UNICORN_STATS_INDEPENDENCE_H_
#define UNICORN_STATS_INDEPENDENCE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "stats/discretize.h"
#include "stats/simd.h"
#include "stats/table.h"

namespace unicorn {

class ThreadPool;

// One batched CI query: all conditioning sets the search wants to try for a
// single (x, y) pair at one level, in the order it would have tried them
// serially. Lets a test amortize per-pair setup (coded-column lookups, cache
// key construction) across the whole level instead of paying it per set.
struct BatchedCIRequest {
  int x = 0;
  int y = 0;
  const std::vector<std::vector<int>>* sets = nullptr;  // examined in order
  double alpha = 0.05;
};

// Sorted-conditioning-set -> p-value overlay used when two speculative sweeps
// of the *same* pair run back to back in one worker task: the second sweep
// must see the first sweep's pending cache stores to reproduce the serial
// hit accounting. Only ever spans one (x, y) pair on one table snapshot, so
// the conditioning set alone identifies the entry.
using PendingPValues = std::map<std::vector<int>, double>;

// Result of a speculative FirstIndependent sweep (see
// CITest::SpeculateFirstIndependent): everything the sweep *would* have done
// to observable state, recorded instead of applied. A deterministic merge
// thread later replays it (AdoptSpeculation) when the sweep's inputs were
// validated against the live search state, or rolls back the side effects
// that could not be deferred (DiscardSpeculation) — inner evaluations mutate
// shared memoized state and counters as they run.
struct CISpeculation {
  int first_independent = -1;  // index of the first independent set, or -1
  double p = 0.0;              // its p-value (valid when first_independent >= 0)
  long long examined = 0;      // sets visited, early exit included
  long long inner_evals = 0;   // PValue evaluations actually performed
  long long lookups = 0;       // cache probes issued (cacheable sets only)
  long long hits = 0;          // probes served from cache / overlay
  long long cross_shard_hits = 0;
  // Pending cache stores: (index into req.sets, p-value). Applied on adopt.
  std::vector<std::pair<size_t, double>> stores;
};

// Interface: p-value of the null hypothesis X ⊥ Y | S.
class CITest {
 public:
  virtual ~CITest() = default;

  virtual double PValue(int x, int y, const std::vector<int>& s) const = 0;

  bool Independent(int x, int y, const std::vector<int>& s, double alpha) const {
    return PValue(x, y, s) >= alpha;
  }

  // Batched form of the level-ℓ inner loop: examines req.sets in order and
  // returns the index of the first set with PValue >= req.alpha (writing the
  // p-value to *p_out when given), or -1 when none is independent. The
  // contract is exact serial equivalence: the same sets are evaluated in the
  // same order with the same early exit, and `calls` advances once per
  // examined set — overrides may only amortize setup work, never change
  // which tests run.
  virtual int FirstIndependent(const BatchedCIRequest& req, double* p_out = nullptr) const;

  // Speculative form of FirstIndependent for parallel search phases that
  // must stay bit-identical to their serial loop. The sweep runs on a worker
  // against a *snapshot* of the search state; instead of touching observable
  // counters or the CI cache it records what it did into *out. A merge
  // thread walking pairs in serial order then either adopts the speculation
  // (replaying counters and pending stores — valid only when the request it
  // validated equals the one speculated) or discards it (rolling back the
  // inner evaluations' counter advances; memoized intermediate state such as
  // coded columns or correlations may stay warm, it is value-deterministic).
  // The base implementation evaluates every set via PValue — advancing
  // `calls` as it goes — so adoption is a no-op and discard subtracts
  // `inner_evals`. Cached overrides defer everything.
  virtual void SpeculateFirstIndependent(const BatchedCIRequest& req,
                                         const PendingPValues* overlay,
                                         CISpeculation* out) const;
  virtual void AdoptSpeculation(const CISpeculation& spec, const BatchedCIRequest& req) const;
  virtual void DiscardSpeculation(const CISpeculation& spec) const;
  // Adds spec's pending stores to *overlay so a second sweep of the same
  // pair (other side) sees them exactly as a serial run would through the
  // cache. No-op for uncached tests, which have no cross-sweep visibility.
  virtual void AppendPendingOverlay(const CISpeculation& spec, const BatchedCIRequest& req,
                                    PendingPValues* overlay) const;

  // Number of tests issued so far (for scalability reporting). All discovery
  // code derives its test counts from this counter — never by hand — so the
  // numbers in the scalability tables cannot disagree.
  mutable std::atomic<long long> calls{0};
};

// Fisher z-test on partial correlations. Assumes roughly Gaussian margins;
// robust enough for monotone relationships, which is what the simulator and
// real performance data produce. Correlations are Spearman-style (Pearson on
// mid-ranks), computed lazily per pair and memoized.
//
// Storage is SoA: all centered mid-rank columns live in one 64-byte aligned
// block at a padded stride, so the correlation dot products stream two
// contiguous aligned columns. The blocked reduction's accumulation order
// differs from the legacy sequential loop in the low bits (documented ≤ a
// few ulps on the correlation); simd::SetReferenceKernels(true) restores the
// sequential order exactly.
class FisherZTest : public CITest {
 public:
  explicit FisherZTest(const DataTable& table, ThreadPool* pool = nullptr);

  // Refreshes ranks after the table grew (or changed); drops the memo.
  // When a pool is given the per-column ranking runs in parallel and each
  // worker writes (first-touches) the SoA column block it ranks, placing
  // pages near the thread that will stream them in the sweep.
  void Update(const DataTable& table, ThreadPool* pool = nullptr);

  double PValue(int x, int y, const std::vector<int>& s) const override;

  // Partial correlation of (x, y) given s (exposed for tests/diagnostics).
  double PartialCorrelation(int x, int y, const std::vector<int>& s) const;

  // Rank correlation of a pair (lazy, memoized).
  double Correlation(size_t a, size_t b) const;

 private:
  size_t n_ = 0;
  size_t num_vars_ = 0;
  size_t stride_ = 0;  // padded column stride of the SoA block
  // Centered mid-rank columns: column v is centered_[v * stride_ .. +n_),
  // tail zero-padded; corr = dot / (norm*norm).
  simd::AlignedVector<double> centered_;
  std::vector<double> norm_;
  // Flattened memo of pairwise correlations; NaN = not yet computed.
  std::unique_ptr<std::atomic<double>[]> corr_;
};

// G-test of conditional independence on the discretized table:
// G = 2 * N * CMI(X; Y | S); G ~ chi-square under H0.
//
// Holds a pointer to the data table (which must outlive the test); columns
// are discretized on first use and conditioning strata are memoized per
// conditioning set. Like the effect estimator, the test reasons on the
// *snapshot* of rows present at construction (or the last Update): rows
// appended afterwards are ignored until Update() is called, so the memoized
// codes can never be indexed past their length.
//
// Update is incremental: when the same table merely grew, memoized codes and
// strata are *extended* by the appended rows in O(appended) — directly
// level-coded columns whose new values hit existing levels keep their codes
// (codes are assigned in sorted-value order, so a new level would renumber
// everything and forces a full recode), and strata whose member columns kept
// their coding append stable dense ids (ids are assigned by first
// appearance, which appending preserves). Everything extension cannot
// reproduce bit-identically is recoded from scratch, so the codes always
// equal what a cold test would compute. All structural mutation of memoized
// state happens inside Update (never concurrently with the sweep), so
// references handed out during a sweep stay valid.
class GSquareTest : public CITest {
 public:
  explicit GSquareTest(const DataTable& table, int max_bins = 5);

  // Re-binds the (grown) table; extends or invalidates codes and strata.
  void Update(const DataTable& table);

  double PValue(int x, int y, const std::vector<int>& s) const override;

  // Batched: fetches the (x, y) codes once for the whole level.
  int FirstIndependent(const BatchedCIRequest& req, double* p_out = nullptr) const override;

 private:
  // A memoized coded column plus what incremental extension needs: how it
  // was coded (ColumnCoding), a packed 16-bit copy of the codes for the
  // fused counting kernel (empty when cardinality exceeds 16 bits), and an
  // epoch that bumps on every full recode so dependent strata notice.
  struct ColumnState {
    CodedColumn coded;
    std::vector<uint16_t> packed;
    ColumnCoding coding;
    uint64_t epoch = 0;
  };
  // A memoized conditioning stratum: dense ids plus the radix-key map and
  // the member-column epochs that make appending stable ids possible.
  struct StratumState {
    CodedColumn coded;
    std::vector<uint16_t> packed;
    std::map<long long, int> dense;
    std::vector<uint64_t> member_epochs;  // parallel to the sorted set
  };

  const ColumnState& Coded(size_t v) const;
  const StratumState& Strata(const std::vector<int>& s) const;
  // G-test p-value from materialized codes. Uses the fused counting kernel
  // unless reference mode is on or the contingency cube is too large.
  double PValueFrom(const ColumnState& sx, const ColumnState& sy,
                    const StratumState& sz) const;
  ColumnState BuildColumnState(size_t v) const;
  // Returns false (leaving the state at its pre-call length) when appended
  // rows cannot extend the coding bit-identically.
  bool TryExtendColumn(size_t v, ColumnState* state, size_t old_rows) const;

  // Drops every memoized column and stratum (sized for table_'s width).
  void ResetMemo();
  // The lock-free pointer for an empty or singleton conditioning set;
  // nullptr for larger sets, which only live in strata_.
  std::atomic<const StratumState*>* ReadyStratum(const std::vector<int>& s) const;

  const DataTable* table_;
  int max_bins_;
  size_t rows_ = 0;  // snapshot row count; codes/strata all have this length
  // coded_ owns the columns; coded_ready_[v] publishes column v once built.
  mutable std::vector<std::unique_ptr<ColumnState>> coded_;
  std::unique_ptr<std::atomic<const ColumnState*>[]> coded_ready_;
  // strata_ owns every stratum. strata_ready_[0] publishes the empty
  // conditioning set and strata_ready_[v + 1] the singleton {v}.
  mutable std::map<std::vector<int>, StratumState> strata_;
  std::unique_ptr<std::atomic<const StratumState*>[]> strata_ready_;
  mutable uint64_t epoch_counter_ = 0;
  mutable std::mutex coded_mu_;
  mutable std::mutex strata_mu_;
};

// Dispatches: Fisher z when both endpoints are continuous, G-test otherwise
// ("mutual info for discrete variables and Fisher z-test for continuous",
// paper §4 Stage II).
class CompositeTest : public CITest {
 public:
  explicit CompositeTest(const DataTable& table, int max_bins = 5, ThreadPool* pool = nullptr);

  // Refreshes both member tests after the table grew. The pool (if any) is
  // forwarded to the Fisher-z rank rebuild; G² stays serial (its extension
  // path is O(appended) and order-dependent).
  void Update(const DataTable& table, ThreadPool* pool = nullptr);

  double PValue(int x, int y, const std::vector<int>& s) const override;

  // Batched: dispatches the whole level to one member test.
  int FirstIndependent(const BatchedCIRequest& req, double* p_out = nullptr) const override;

 private:
  std::vector<VarType> types_;
  FisherZTest fisher_;
  GSquareTest gsq_;
};

}  // namespace unicorn

#endif  // UNICORN_STATS_INDEPENDENCE_H_
