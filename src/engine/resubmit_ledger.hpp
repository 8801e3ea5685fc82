#pragma once
// Crash-resubmission accounting keyed by (tenant, job).
//
// The kill count used to live inside ClusterSimulation as a bare
// `unordered_map<JobId, size_t>`: once several tenant simulations share one
// experiment, colliding job ids across tenants would pool their resubmission
// budgets — a job could be killed-final with zero actual resubmits because a
// same-id job in another tenant burned the budget first. The ledger keys by
// (tenant, job) and is cleared at experiment start so counts never leak
// across runs either. Shards are per-tenant: parallel tenant epoch steps
// touch disjoint maps, so a shared ledger needs no locking.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"
#include "util/state_digest.hpp"
#include "util/types.hpp"

namespace psched::engine {

class ResubmitLedger {
 public:
  /// Drop every count and size the ledger for `tenants` shards. Called once
  /// per experiment start — counts must not survive into the next run.
  void reset(std::size_t tenants) { shards_.assign(tenants, {}); }

  /// Count one crash kill against (tenant, job); returns the new total.
  std::size_t record_kill(std::size_t tenant, JobId job) {
    PSCHED_ASSERT_MSG(tenant < shards_.size(), "tenant outside the ledger");
    return ++shards_[tenant][job];
  }

  /// Kills recorded against (tenant, job) since the last reset().
  [[nodiscard]] std::size_t kills(std::size_t tenant, JobId job) const {
    if (tenant >= shards_.size()) return 0;
    const auto it = shards_[tenant].find(job);
    return it == shards_[tenant].end() ? 0 : it->second;
  }

  /// Number of tenant shards the ledger is sized for.
  [[nodiscard]] std::size_t tenants() const noexcept { return shards_.size(); }

  /// Checkpoint support (DESIGN.md §14): fold one tenant's shard into
  /// `digest` order-insensitively (the shard is an unordered map;
  /// psched-lint D2). Each engine folds only its own shard so tenant
  /// captures stay disjoint under a shared ledger.
  void capture_digest(util::StateDigest& digest, std::size_t tenant) const {
    util::UnorderedFold fold;
    if (tenant < shards_.size()) {
      // psched-lint: order-insensitive(UnorderedFold is commutative)
      for (const auto& [job, kills] : shards_[tenant]) {
        fold.absorb(util::digest_mix(util::digest_mix(0, static_cast<std::uint64_t>(job)),
                                     static_cast<std::uint64_t>(kills)));
      }
    }
    digest.add_fold("resubmits.kills", fold);
  }

 private:
  // One map per tenant: a tenant's epoch task only ever touches its own shard.
  std::vector<std::unordered_map<JobId, std::size_t>> shards_;
};

}  // namespace psched::engine
