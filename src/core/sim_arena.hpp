#pragma once
// Reusable scratch for the online simulator's group evaluator (DESIGN.md
// §11). A SimArena owns a pool of SimBranch states — one per live
// trajectory of a shared-prefix group evaluation — plus the per-step
// scratch every branch reuses: the lease grants, queue orders and
// allocation plans evaluated once per distinct policy component. Containers
// are cleared (capacity kept) instead of reallocated, so a selector that
// reuses one arena stops allocating after its first few rounds.
//
// The arena is strictly single-threaded state.

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "cloud/pricing.hpp"
#include "policy/allocation.hpp"
#include "policy/job_selection.hpp"

namespace psched::core {

/// The complete mutable state of one inner-simulation trajectory, shared by
/// every group member still on it (`members`, indices into the evaluated
/// policy span). Copy-assignment is the fork: vectors keep the target's
/// capacity, so a pooled branch stops allocating once warm.
struct SimBranch {
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

  std::vector<policy::QueuedJob> pending;  ///< the simulated queue (AoS: policy API)
  /// Mutable copy of the round's pricing view (pricing on only): the inner
  /// sim keeps reserved/family occupancy current as it leases and releases
  /// so tier-aware policies see live headroom. Market state stays frozen
  /// at the snapshot (DESIGN.md §12).
  cloud::PricingView pricing;

  std::vector<std::uint32_t> members;  ///< group members on this trajectory

  SimTime now = 0.0;
  SimTime last_completion = 0.0;
  double bsd_sum = 0.0;
  double rj_proc_seconds = 0.0;
  double rv_charged_seconds = 0.0;
  std::size_t finished = 0;
  std::size_t decisions = 0;
  VmId next_vm_id = 0;

  [[nodiscard]] std::size_t vm_count() const noexcept { return vm_id.size(); }

  /// Append a VM row with the next sequential id (the id -> row map is
  /// positional at creation time).
  void push_vm(SimTime lease, SimTime available, bool fresh, bool busy,
               std::uint32_t family = 0, unsigned char tier = 0) {
    vm_row.push_back(static_cast<std::uint32_t>(vm_id.size()));
    vm_id.push_back(next_vm_id++);
    vm_lease.push_back(lease);
    vm_avail.push_back(available);
    vm_fresh.push_back(fresh ? 1 : 0);
    vm_busy.push_back(busy ? 1 : 0);
    vm_family.push_back(family);
    vm_tier.push_back(tier);
  }

  /// Swap-remove the VM at `row` (the last row moves into `row`).
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

/// One policy component evaluated at one decision step: the decision class
/// its answer fell into (or the exception it threw). Components are
/// identified by pointer; plan decisions are additionally keyed by the
/// lease and order classes they were planned on.
struct ComponentDecision {
  static constexpr std::uint32_t kThrew = UINT32_MAX;

  const void* component = nullptr;
  std::uint32_t lease = 0;  ///< plan decisions: lease class planned on
  std::uint32_t order = 0;  ///< plan decisions: order class planned on
  std::uint32_t decision = 0;
  std::exception_ptr error;  ///< set iff decision == kThrew
};

struct SimArena {
  // --- branch pool -------------------------------------------------------
  /// Idle branch states, reused across evaluations and grown on demand.
  /// Depth-first evaluation holds the running branch and the branches
  /// waiting on `stack`; each of them carries at least one member of its
  /// own, so an N-policy group never holds more than N states, and usually
  /// a handful.
  std::vector<std::unique_ptr<SimBranch>> spare;
  /// Branches waiting to be stepped (depth-first: the back runs next). A
  /// step whose members split forks each extra class onto it.
  std::vector<std::unique_ptr<SimBranch>> stack;

  [[nodiscard]] std::unique_ptr<SimBranch> acquire() {
    if (spare.empty()) return std::make_unique<SimBranch>();
    std::unique_ptr<SimBranch> branch = std::move(spare.back());
    spare.pop_back();
    return branch;
  }
  void release(std::unique_ptr<SimBranch> branch) { spare.push_back(std::move(branch)); }

  // --- per-step scratch (contents meaningless between steps) -------------
  /// Effective lease grants, one entry per distinct lease decision.
  std::vector<std::vector<cloud::LeaseRequest>> leases;
  /// Queue orders, one entry per distinct ordering.
  std::vector<std::vector<policy::QueuedJob>> orders;
  /// Allocation plans, one entry per distinct (lease, order, plan).
  std::vector<policy::AllocationPlan> plans;
  std::vector<std::uint32_t> plan_lease;  ///< lease class each plan was made on
  std::vector<std::uint32_t> plan_order;  ///< order class each plan was made on
  std::vector<ComponentDecision> decided;  ///< the stage's evaluated components
  std::vector<std::uint32_t> member_lease;  ///< per member position
  std::vector<std::uint32_t> member_order;
  std::vector<std::uint32_t> member_plan;
  std::vector<std::uint32_t> member_next;  ///< index into `next`, or kThrew
  std::vector<SimTime> next;               ///< distinct wake-up instants
  std::vector<cloud::LeaseRequest> lease_requests;  ///< lease_plan output
  cloud::PricingView grant_pricing;  ///< occupancy scratch for lease grants
  std::vector<policy::VmAvail> avail;  ///< availability view for the planner
  std::vector<unsigned char> served;   ///< queue-compaction mark bits
  policy::OrderScratch order;
  policy::AllocationScratch alloc;
};

}  // namespace psched::core
