#pragma once
// Reusable scratch arena for the online simulator's fast path (DESIGN.md
// §11). One SimArena holds every piece of mutable state a single inner
// simulation needs — the struct-of-arrays VM table, the pending queue, the
// availability view, the allocation plan and its scratch — as vectors that
// are cleared (capacity kept) between candidates instead of reallocated.
//
// The selector owns one arena and reuses it for every candidate; the arena
// itself is strictly single-threaded state.

#include <cstdint>
#include <vector>

#include "cloud/pricing.hpp"
#include "policy/allocation.hpp"
#include "policy/job_selection.hpp"

namespace psched::core {

struct SimArena {
  // --- VM table, struct-of-arrays --------------------------------------
  // Rows are live VMs; the decision loop scans one column at a time
  // (availability for idle counts and time advance, busy for boot counts),
  // so columns keep those scans dense. Ids are assigned 0,1,2,... by the
  // simulation and never reused, so `vm_row` is a dense id -> row map that
  // survives swap-removal.
  std::vector<VmId> vm_id;
  std::vector<SimTime> vm_lease;
  std::vector<SimTime> vm_avail;
  std::vector<unsigned char> vm_fresh;  ///< leased during this simulation
  std::vector<unsigned char> vm_busy;   ///< has (ever) run a job
  std::vector<std::uint32_t> vm_row;    ///< VmId -> row (stale for removed ids)
  std::vector<std::uint32_t> vm_family;  ///< pricing: family index (0 off)
  std::vector<unsigned char> vm_tier;    ///< pricing: PurchaseTier (0 off)

  // --- per-decision working state ---------------------------------------
  std::vector<policy::QueuedJob> pending;  ///< the simulated queue (AoS: policy API)
  std::vector<policy::VmAvail> avail;      ///< availability view for the planner
  std::vector<unsigned char> served;       ///< queue-compaction mark bits
  policy::OrderScratch order;
  policy::AllocationScratch alloc;
  policy::AllocationPlan plan;
  std::vector<cloud::LeaseRequest> lease_requests;  ///< lease_plan scratch
  /// Mutable copy of the round's pricing view (pricing on only): the inner
  /// sim keeps reserved/family occupancy current as it leases and releases
  /// so tier-aware policies see live headroom. Market state stays frozen
  /// at the snapshot (DESIGN.md §12).
  cloud::PricingView pricing;

  [[nodiscard]] std::size_t vm_count() const noexcept { return vm_id.size(); }

  /// Start a new simulation: empty every container, keep every capacity.
  void reset() noexcept {
    vm_id.clear();
    vm_lease.clear();
    vm_avail.clear();
    vm_fresh.clear();
    vm_busy.clear();
    vm_row.clear();
    vm_family.clear();
    vm_tier.clear();
    pending.clear();
    avail.clear();
    served.clear();
    plan.clear();
    lease_requests.clear();
  }

  /// Append a VM row. `id` must be the next sequential id (the arena's
  /// id -> row map is positional at creation time).
  void push_vm(VmId id, SimTime lease, SimTime available, bool fresh, bool busy,
               std::uint32_t family = 0, unsigned char tier = 0) {
    vm_row.push_back(static_cast<std::uint32_t>(vm_id.size()));
    vm_id.push_back(id);
    vm_lease.push_back(lease);
    vm_avail.push_back(available);
    vm_fresh.push_back(fresh ? 1 : 0);
    vm_busy.push_back(busy ? 1 : 0);
    vm_family.push_back(family);
    vm_tier.push_back(tier);
  }

  /// Swap-remove the VM at `row` (same order semantics as the old
  /// vector<InnerVm> release loop: the last row moves into `row`).
  void remove_vm(std::size_t row) noexcept {
    const std::size_t last = vm_id.size() - 1;
    vm_id[row] = vm_id[last];
    vm_lease[row] = vm_lease[last];
    vm_avail[row] = vm_avail[last];
    vm_fresh[row] = vm_fresh[last];
    vm_busy[row] = vm_busy[last];
    vm_family[row] = vm_family[last];
    vm_tier[row] = vm_tier[last];
    vm_row[static_cast<std::size_t>(vm_id[row])] = static_cast<std::uint32_t>(row);
    vm_id.pop_back();
    vm_lease.pop_back();
    vm_avail.pop_back();
    vm_fresh.pop_back();
    vm_busy.pop_back();
    vm_family.pop_back();
    vm_tier.pop_back();
  }
};

}  // namespace psched::core
