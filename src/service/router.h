// Shard router: maps a client session key to the shard that owns all
// of its vectors.
//
// Every vector a session allocates lives inside one shard's DRAM (an
// Ambit op needs co-located operands, which cannot span memory
// systems), so placement is decided once, at session open. Two
// policies:
//  - hash: FNV-mix the key; balances any population of tenants but
//    scatters related sessions.
//  - range: contiguous blocks of `keys_per_shard` sessions per shard;
//    preserves tenant locality and gives perfectly balanced placement
//    when the population is known up front (benches use this).
#ifndef PIM_SERVICE_ROUTER_H
#define PIM_SERVICE_ROUTER_H

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace pim::service {

enum class shard_routing { hash, range };

class shard_router {
 public:
  shard_router(int shards, shard_routing mode = shard_routing::hash,
               std::uint64_t keys_per_shard = 64)
      : shards_(shards), mode_(mode), keys_per_shard_(keys_per_shard) {
    if (shards <= 0) {
      throw std::invalid_argument("shard_router: need at least one shard");
    }
    if (keys_per_shard == 0) {
      throw std::invalid_argument("shard_router: keys_per_shard must be > 0");
    }
  }

  int route(std::uint64_t key) const {
    switch (mode_) {
      case shard_routing::hash:
        return static_cast<int>(mix(key) % static_cast<std::uint64_t>(shards_));
      case shard_routing::range: {
        const std::uint64_t block = key / keys_per_shard_;
        if (block < static_cast<std::uint64_t>(shards_)) {
          return static_cast<int>(block);
        }
        // Overflow keys (beyond shards * keys_per_shard) wrap
        // round-robin across all shards: clamping them onto the last
        // shard — the old behavior — silently hot-spotted it as the
        // population grew.
        const std::uint64_t overflow =
            key - static_cast<std::uint64_t>(shards_) * keys_per_shard_;
        return static_cast<int>(overflow % static_cast<std::uint64_t>(shards_));
      }
    }
    throw std::logic_error("unknown shard routing");
  }

  int shards() const { return shards_; }

 private:
  // splitmix64 finalizer: sequential session ids spread uniformly.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  int shards_;
  shard_routing mode_;
  std::uint64_t keys_per_shard_;
};

}  // namespace pim::service

#endif  // PIM_SERVICE_ROUTER_H
