#include "src/serve/result_cache.h"

#include <algorithm>

namespace pspc {
namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t Mix(uint64_t key) {
  // splitmix64 finalizer: shard selection must not correlate with the
  // vertex-id structure of the key.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}

}  // namespace

ResultCache::ResultCache(size_t num_shards, size_t capacity_per_shard,
                         bool symmetric)
    : num_shards_(RoundUpPowerOfTwo(std::max<size_t>(1, num_shards))),
      capacity_per_shard_(capacity_per_shard),
      symmetric_(symmetric),
      shards_(new Shard[num_shards_]) {}

ResultCache::Shard& ResultCache::ShardFor(uint64_t key) {
  return shards_[Mix(key) & (num_shards_ - 1)];
}

uint64_t ResultCache::PairKey(VertexId s, VertexId t) const {
  if (symmetric_) {
    // Undirected SPC: (t, s) is the same answer, fold the orders.
    const auto [lo, hi] = std::minmax(s, t);
    return (uint64_t{lo} << 32) | uint64_t{hi};
  }
  // Directed SPC: s -> t and t -> s are distinct answers.
  return (uint64_t{s} << 32) | uint64_t{t};
}

bool ResultCache::Lookup(uint64_t generation, VertexId s, VertexId t,
                         SpcResult* out) {
  if (capacity_per_shard_ == 0) {
    // relaxed: diagnostic tally. A disabled cache misses every lookup.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t key = PairKey(s, t);
  Shard& shard = ShardFor(key);
  spc::MutexLock lock(shard.mu);
  if (shard.generation != generation) {
    if (generation > shard.generation) {
      // First sight of a newer generation: everything cached here was
      // computed against a retired graph.
      shard.entries.clear();
      shard.generation = generation;
    }
    // relaxed: hit/miss tallies are diagnostics, no ordering needed.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    // relaxed: diagnostic tally.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *out = it->second;
  // relaxed: diagnostic tally.
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::Insert(uint64_t generation, VertexId s, VertexId t,
                         SpcResult result) {
  if (capacity_per_shard_ == 0) return;
  const uint64_t key = PairKey(s, t);
  Shard& shard = ShardFor(key);
  spc::MutexLock lock(shard.mu);
  if (generation < shard.generation) return;  // stale micro-batch
  if (generation > shard.generation) {
    shard.entries.clear();
    shard.generation = generation;
  }
  if (shard.entries.size() >= capacity_per_shard_) shard.entries.clear();
  shard.entries[key] = result;
}

}  // namespace pspc
