// Memoization of conditional-independence test results.
//
// One iteration of the Unicorn loop issues thousands of CI tests, and the
// skeleton search, the Possible-D-SEP pruning, and warm-started refreshes ask
// for many (x, y | S) combinations repeatedly. The cache keys a p-value on
// the unordered pair, the sorted conditioning set, and the identity of the
// data the test saw.
//
// Data identity has two layers. Within one engine, tables are append-only,
// so equal row counts imply the exact same data. Across engines (the sharded
// reasoning plane: one CausalModelEngine per objective group consulting one
// process-wide cache), equal row counts imply nothing — each shard grows its
// own table — so the key also carries a `table_tag`: an order-sensitive
// fingerprint chained over every absorbed row. Two shards whose tables are
// bit-identical (e.g. transfer campaigns seeded from the same source
// recording, or replicated policies absorbing the same bootstrap) produce
// the same tag and share hits; the first divergent row changes the tag
// forever after, so a stale cross-shard result can never be served.
//
// The cache is one tier: a fixed set of lock stripes, each an open-addressed
// flat table (linear probing, power-of-two capacity, entries stored inline,
// no allocation per entry) guarded by its own mutex. Stores write straight
// into the table, first store wins. A critical section is one short probe,
// so eight sweep threads spread over the stripes rarely wait on each other.
//
// Direct stores keep hit accounting deterministic without any publish
// barrier: a search phase only ever looks up keys of the pair it is
// examining, both sides of a pair are examined on one thread, and the
// possible-d-sep merge that replays speculative stores runs serially after
// its sweeps finish. So whether a lookup hits never depends on how worker
// threads interleave.
//
// Every entry remembers which shard stored it so cross-shard hits ("how many
// tests did the shared cache buy?") are accounted separately from
// shard-local ones. The lookup/hit counters live in the stripes, bumped
// under the lock the probe already holds.
#ifndef UNICORN_STATS_CI_CACHE_H_
#define UNICORN_STATS_CI_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "stats/independence.h"

namespace unicorn {

class CICache {
 public:
  // Conditioning sets larger than this are not cached (a size-9 set is
  // effectively never requested twice anyway).
  static constexpr size_t kMaxConditioning = 8;

  // Plain-old-data key: no heap allocation on the lookup fast path. The hot
  // loop issues millions of lookups, so key construction must cost nothing
  // beyond a few register moves.
  struct Key {
    uint64_t table_tag = 0;  // data fingerprint (0 = single-table legacy use)
    int32_t x = 0;  // stored with x <= y
    int32_t y = 0;
    uint64_t n_rows = 0;
    uint32_t s_size = 0;
    std::array<int32_t, kMaxConditioning> s{};  // sorted; first s_size valid

    bool operator==(const Key& o) const {
      if (table_tag != o.table_tag || x != o.x || y != o.y || n_rows != o.n_rows ||
          s_size != o.s_size) {
        return false;
      }
      for (uint32_t i = 0; i < s_size; ++i) {
        if (s[i] != o.s[i]) {
          return false;
        }
      }
      return true;
    }
  };

  // A successful lookup: the memoized p-value plus whether the entry was
  // stored by a different shard than the one asking.
  struct Hit {
    double p_value = 0.0;
    bool cross_shard = false;
  };

  // Canonical key: unordered pair + sorted conditioning set. `Cacheable`
  // must be checked first; MakeKey assumes s fits.
  static bool Cacheable(const std::vector<int>& s) { return s.size() <= kMaxConditioning; }
  static Key MakeKey(int x, int y, const std::vector<int>& s, uint64_t n_rows,
                     uint64_t table_tag = 0);

  // `max_entries` > 0 bounds memory in long-lived shared mode: when a lock
  // stripe outgrows its share of the budget it is dropped wholesale (coarse
  // eviction — correctness never depends on an entry being present).
  // 0 = unbounded (an engine-private cache clears itself every refresh).
  explicit CICache(size_t max_entries = 0) : max_entries_(max_entries) {}

  std::optional<double> Lookup(const Key& key) {
    const auto hit = LookupFrom(key, 0);
    return hit ? std::optional<double>(hit->p_value) : std::nullopt;
  }
  // Shard-attributed lookup: counts a cross-shard hit when the entry was
  // stored by a shard other than `shard`.
  std::optional<Hit> LookupFrom(const Key& key, uint32_t shard);
  // Same probe, but touches no counters — the speculative possible-d-sep
  // sweeps use it and replay the counter deltas only if the speculation is
  // adopted.
  std::optional<Hit> LookupQuiet(const Key& key, uint32_t shard) const;
  // Inserts unless the key is present (the test is deterministic, so a
  // second store carries the same value; the first store keeps the shard
  // attribution).
  void Store(const Key& key, double p_value, uint32_t shard = 0);
  // Replays the counter deltas of an adopted speculative sweep (which probed
  // via LookupQuiet so discarded sweeps leave no trace in the totals).
  void AddCounterSamples(long long lookups, long long hits, long long cross_shard);

  long long hits() const;
  long long lookups() const;
  // Hits on entries another shard paid for — the shared-cache dividend.
  long long cross_shard_hits() const;
  size_t size() const;
  // Drops every entry in O(stripes): each stripe bumps its generation, which
  // turns every slot it holds into an empty one, and keeps its capacity for
  // the next refresh's working set.
  void Clear();
  void ResetCounters();

  // Cross-process persistence. Entries are keyed on the order-sensitive
  // table fingerprint (plus row count), so a snapshot taken against one
  // recording can only ever hit for an engine that absorbed bit-identical
  // rows in the same order — loading a stale or unrelated snapshot costs
  // memory, never correctness. SaveTo writes every entry (all stripes) to a
  // versioned little-endian binary file; returns false on I/O failure.
  bool SaveTo(const std::string& path) const;
  // Loads a snapshot into this cache (on top of what is already present),
  // attributing the entries to `shard`. Returns the number of entries
  // loaded, or -1 on I/O failure or a malformed/foreign file (the cache is
  // untouched on -1, except possibly entries already applied before a
  // mid-file truncation is detected).
  long long LoadFrom(const std::string& path, uint32_t shard = 0);

 private:
  // A slot is live only while its generation equals its stripe's; every
  // other slot is empty, whatever key it still holds.
  struct Slot {
    Key key;
    double p_value = 0.0;
    uint32_t shard = 0;  // who stored it (cross-shard hit accounting)
    uint32_t generation = 0;
  };
  // Striped locking: concurrent shard refreshes and sweep workers mostly
  // touch different stripes, so the cache does not serialize the reasoning
  // plane. Cache-line aligned so neighbouring stripes' locks and counters do
  // not share a line.
  static constexpr int kStripeBits = 4;
  static constexpr size_t kStripes = size_t{1} << kStripeBits;
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::vector<Slot> slots;  // empty until the first store; else a power of two
    size_t live = 0;
    uint32_t generation = 1;
    long long lookups = 0;
    long long hits = 0;
    long long cross_shard_hits = 0;
  };

  // Full-avalanche key hash: the top bits pick the stripe, the low bits the
  // home slot.
  static uint64_t Hash(const Key& key);
  Stripe& StripeFor(uint64_t hash) { return stripes_[hash >> (64 - kStripeBits)]; }
  const Stripe& StripeFor(uint64_t hash) const { return stripes_[hash >> (64 - kStripeBits)]; }
  // Index of the slot holding `key`, or of the empty slot that ends its
  // probe sequence. The stripe must have a table; callers hold its lock.
  static size_t Find(const Stripe& stripe, const Key& key, uint64_t hash);
  static void Grow(Stripe* stripe);
  static void DropAll(Stripe* stripe);
  long long Sum(long long Stripe::*counter) const;

  size_t max_entries_ = 0;
  std::array<Stripe, kStripes> stripes_;
};

// CITest decorator that consults a (shared) CICache before delegating.
// `calls` on this object counts requested tests (hits + misses); `calls` on
// the inner test counts the p-values actually evaluated. `hits()` and
// `cross_shard_hits()` count locally — exact for this decorator even while
// other shards hammer the same cache concurrently. Evaluated p-values are
// stored straight into the cache.
class CachedCITest : public CITest {
 public:
  CachedCITest(const CITest& inner, CICache* cache, uint64_t n_rows,
               uint64_t table_tag = 0, uint32_t shard = 0)
      : inner_(inner), cache_(cache), n_rows_(n_rows), table_tag_(table_tag), shard_(shard) {}

  double PValue(int x, int y, const std::vector<int>& s) const override;

  // Batched: one cache-key template per level; per-set semantics (lookup,
  // store, counters, early exit) identical to per-set PValue calls.
  int FirstIndependent(const BatchedCIRequest& req, double* p_out = nullptr) const override;

  // Speculative sweep protocol (see CITest): probes via LookupQuiet and
  // records stores/counter deltas in the speculation; adoption replays them
  // onto this decorator and the cache.
  void SpeculateFirstIndependent(const BatchedCIRequest& req, const PendingPValues* overlay,
                                 CISpeculation* out) const override;
  void AdoptSpeculation(const CISpeculation& spec, const BatchedCIRequest& req) const override;
  void DiscardSpeculation(const CISpeculation& spec) const override;
  void AppendPendingOverlay(const CISpeculation& spec, const BatchedCIRequest& req,
                            PendingPValues* overlay) const override;

  const CITest& inner() const { return inner_; }
  long long hits() const { return hits_.load(); }
  long long cross_shard_hits() const { return cross_shard_hits_.load(); }

 private:
  const CITest& inner_;
  CICache* cache_;
  uint64_t n_rows_;
  uint64_t table_tag_;
  uint32_t shard_;
  mutable std::atomic<long long> hits_{0};
  mutable std::atomic<long long> cross_shard_hits_{0};
};

}  // namespace unicorn

#endif  // UNICORN_STATS_CI_CACHE_H_
