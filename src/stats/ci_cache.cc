#include "stats/ci_cache.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "util/binio.h"
#include "util/hash.h"

namespace unicorn {
namespace {

// ci-cache snapshot format, version 1:
//   magic "UNCICHE1" | u32 endian marker | u32 reserved | u64 entry count
//   then per entry: u64 table_tag | u32 x | u32 y | u64 n_rows |
//                   u32 s_size | 8 × u32 s[i] | f64 p_value
constexpr char kCacheMagic[8] = {'U', 'N', 'C', 'I', 'C', 'H', 'E', '1'};

}  // namespace

CICache::Key CICache::MakeKey(int x, int y, const std::vector<int>& s, uint64_t n_rows,
                              uint64_t table_tag) {
  Key key;
  key.table_tag = table_tag;
  key.x = std::min(x, y);
  key.y = std::max(x, y);
  key.n_rows = n_rows;
  key.s_size = static_cast<uint32_t>(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    key.s[i] = s[i];
  }
  // Insertion sort: conditioning sets are tiny (<= kMaxConditioning) and
  // usually already sorted, so this is a handful of compares.
  for (uint32_t i = 1; i < key.s_size; ++i) {
    const int32_t v = key.s[i];
    uint32_t j = i;
    while (j > 0 && key.s[j - 1] > v) {
      key.s[j] = key.s[j - 1];
      --j;
    }
    key.s[j] = v;
  }
  return key;
}

uint64_t CICache::Hash(const Key& k) {
  // Multiply-xor chain over the key words; the splitmix64 finalizer then
  // carries every input bit into both the stripe (top) and slot (low) bits.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = k.table_tag;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * kMul; };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(k.x)) |
      (static_cast<uint64_t>(static_cast<uint32_t>(k.y)) << 32));
  mix(k.n_rows);
  mix(k.s_size);
  for (uint32_t i = 0; i < k.s_size; ++i) {
    mix(static_cast<uint32_t>(k.s[i]));
  }
  return Mix64(h);
}

size_t CICache::Find(const Stripe& stripe, const Key& key, uint64_t hash) {
  // Linear probing. The load factor stays below 3/4, so an empty slot
  // always ends the sequence.
  const size_t mask = stripe.slots.size() - 1;
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const Slot& slot = stripe.slots[i];
    if (slot.generation != stripe.generation || slot.key == key) {
      return i;
    }
  }
}

void CICache::Grow(Stripe* stripe) {
  constexpr size_t kMinSlots = 64;
  std::vector<Slot> old(std::max(kMinSlots, stripe->slots.size() * 2));
  old.swap(stripe->slots);
  // Fresh slots carry generation 0, which no stripe ever holds, so they
  // start empty; live entries move over with the current generation.
  for (const Slot& slot : old) {
    if (slot.generation == stripe->generation) {
      stripe->slots[Find(*stripe, slot.key, Hash(slot.key))] = slot;
    }
  }
}

void CICache::DropAll(Stripe* stripe) {
  stripe->live = 0;
  if (++stripe->generation == 0) {
    // Wrapped: a slot written 2^32 drops ago would read as live again.
    for (Slot& slot : stripe->slots) {
      slot.generation = 0;
    }
    stripe->generation = 1;
  }
}

std::optional<CICache::Hit> CICache::LookupFrom(const Key& key, uint32_t shard) {
  const uint64_t h = Hash(key);
  Stripe& stripe = StripeFor(h);
  std::lock_guard<std::mutex> lock(stripe.mu);
  ++stripe.lookups;
  if (stripe.slots.empty()) {
    return std::nullopt;
  }
  const Slot& slot = stripe.slots[Find(stripe, key, h)];
  if (slot.generation != stripe.generation) {
    return std::nullopt;
  }
  ++stripe.hits;
  const Hit hit{slot.p_value, slot.shard != shard};
  if (hit.cross_shard) {
    ++stripe.cross_shard_hits;
  }
  return hit;
}

void CICache::Store(const Key& key, double p_value, uint32_t shard) {
  const uint64_t h = Hash(key);
  Stripe& stripe = StripeFor(h);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (max_entries_ > 0 && stripe.live >= std::max<size_t>(1, max_entries_ / kStripes)) {
    // Coarse per-stripe eviction: drop the stripe and start over. Entries
    // are pure memoization, so losing them costs re-evaluation, never
    // correctness; tracking recency on the hot path would cost more than
    // the occasional refill.
    DropAll(&stripe);
  }
  // At most 3/4 full: misses stay a few probes long, at a footprint per
  // entry close to a node-based map's.
  if ((stripe.live + 1) * 4 > stripe.slots.size() * 3) {
    Grow(&stripe);
  }
  Slot& slot = stripe.slots[Find(stripe, key, h)];
  if (slot.generation == stripe.generation) {
    return;  // already cached (the test is deterministic: same value)
  }
  slot.key = key;
  slot.p_value = p_value;
  slot.shard = shard;
  slot.generation = stripe.generation;
  ++stripe.live;
}

long long CICache::Sum(long long Stripe::*counter) const {
  long long total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.*counter;
  }
  return total;
}

long long CICache::hits() const { return Sum(&Stripe::hits); }

long long CICache::lookups() const { return Sum(&Stripe::lookups); }

long long CICache::cross_shard_hits() const { return Sum(&Stripe::cross_shard_hits); }

size_t CICache::size() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.live;
  }
  return total;
}

bool CICache::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(kCacheMagic, sizeof(kCacheMagic));
  binio::WriteU32(out, binio::kEndianMarker);
  binio::WriteU32(out, 0);  // reserved
  // Entries stream out stripe by stripe, each under its lock, and the count
  // is patched in afterwards: it stays exact while other shards keep
  // storing, and no copy of the entries is ever built. (A snapshot copy of
  // a large cache both costs its own size and, once freed, leaves the
  // allocator holding freed memory resident.)
  const std::streampos count_at = out.tellp();
  binio::WriteU64(out, 0);
  uint64_t written = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const Slot& slot : stripe.slots) {
      if (slot.generation != stripe.generation) {
        continue;
      }
      const Key& key = slot.key;
      binio::WriteU64(out, key.table_tag);
      binio::WriteU32(out, static_cast<uint32_t>(key.x));
      binio::WriteU32(out, static_cast<uint32_t>(key.y));
      binio::WriteU64(out, key.n_rows);
      binio::WriteU32(out, key.s_size);
      for (size_t i = 0; i < kMaxConditioning; ++i) {
        binio::WriteU32(out, static_cast<uint32_t>(key.s[i]));
      }
      binio::WriteDouble(out, slot.p_value);
      ++written;
    }
  }
  out.seekp(count_at);
  binio::WriteU64(out, written);
  return static_cast<bool>(out);
}

long long CICache::LoadFrom(const std::string& path, uint32_t shard) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return -1;
  }
  char magic[8];
  if (!in.read(magic, sizeof(magic)) || std::memcmp(magic, kCacheMagic, sizeof(magic)) != 0) {
    return -1;
  }
  uint32_t endian = 0;
  uint32_t reserved = 0;
  uint64_t count = 0;
  if (!binio::ReadU32(in, &endian) || endian != binio::kEndianMarker ||
      !binio::ReadU32(in, &reserved) || !binio::ReadU64(in, &count)) {
    return -1;
  }
  long long loaded = 0;
  for (uint64_t e = 0; e < count; ++e) {
    Key key;
    uint32_t x = 0;
    uint32_t y = 0;
    uint32_t field = 0;
    double p = 0.0;
    if (!binio::ReadU64(in, &key.table_tag) || !binio::ReadU32(in, &x) ||
        !binio::ReadU32(in, &y) || !binio::ReadU64(in, &key.n_rows) ||
        !binio::ReadU32(in, &key.s_size)) {
      return -1;  // truncated mid-entry
    }
    key.x = static_cast<int32_t>(x);
    key.y = static_cast<int32_t>(y);
    if (key.s_size > kMaxConditioning) {
      return -1;
    }
    for (size_t i = 0; i < kMaxConditioning; ++i) {
      if (!binio::ReadU32(in, &field)) {
        return -1;
      }
      key.s[i] = static_cast<int32_t>(field);
    }
    if (!binio::ReadDouble(in, &p)) {
      return -1;
    }
    Store(key, p, shard);
    ++loaded;
  }
  return loaded;
}

double CachedCITest::PValue(int x, int y, const std::vector<int>& s) const {
  calls.Increment();
  if (cache_ == nullptr || !CICache::Cacheable(s)) {
    return inner_.PValue(x, y, s);
  }
  const CICache::Key key = CICache::MakeKey(x, y, s, n_rows_, table_tag_);
  if (const auto cached = cache_->LookupFrom(key, shard_)) {
    hits_.Increment();
    if (cached->cross_shard) {
      cross_shard_hits_.Increment();
    }
    return cached->p_value;
  }
  // Concurrent misses on the same key may both evaluate; the test is
  // deterministic, so both store the same value.
  const double p = inner_.PValue(x, y, s);
  cache_->Store(key, p, shard_);
  return p;
}

int CachedCITest::FirstIndependent(const BatchedCIRequest& req, double* p_out) const {
  if (cache_ == nullptr) {
    // No cache: hand the whole level to the inner test so it can amortize,
    // advancing this decorator's counter once per examined set as the serial
    // loop would.
    const int idx = inner_.FirstIndependent(req, p_out);
    calls.Add(idx >= 0 ? idx + 1 : static_cast<long long>(req.sets->size()));
    return idx;
  }
  const auto& sets = *req.sets;
  for (size_t i = 0; i < sets.size(); ++i) {
    calls.Increment();
    const std::vector<int>& s = sets[i];
    double p;
    if (!CICache::Cacheable(s)) {
      p = inner_.PValue(req.x, req.y, s);
    } else {
      const CICache::Key key = CICache::MakeKey(req.x, req.y, s, n_rows_, table_tag_);
      if (const auto cached = cache_->LookupFrom(key, shard_)) {
        hits_.Increment();
        if (cached->cross_shard) {
          cross_shard_hits_.Increment();
        }
        p = cached->p_value;
      } else {
        p = inner_.PValue(req.x, req.y, s);
        cache_->Store(key, p, shard_);
      }
    }
    if (p >= req.alpha) {
      if (p_out != nullptr) {
        *p_out = p;
      }
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace unicorn
