#include "policy/allocation.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psched::policy {

namespace {

/// Pick `count` VMs from the idle pool in the VM-selection policy's
/// preference order, remove them from the pool, mark them busy in the
/// working copy until `until`, and append their ids to `plan.vm_ids`.
/// Returns the appended range as a Start (queue_index filled by the caller).
AllocationPlan::Start take_vms(std::vector<VmCandidate>& idle, AllocationScratch& scratch,
                               int count, double predicted_runtime, SimTime now,
                               SimTime until, const VmSelectionPolicy& vm_selection,
                               SimDuration billing_quantum, AllocationPlan& plan) {
  vm_selection.order(idle, predicted_runtime, now, billing_quantum);
  AllocationPlan::Start start;
  start.vm_begin = static_cast<std::uint32_t>(plan.vm_ids.size());
  for (int p = 0; p < count; ++p) plan.vm_ids.push_back(idle[static_cast<std::size_t>(p)].id);
  idle.erase(idle.begin(), idle.begin() + count);
  start.vm_end = static_cast<std::uint32_t>(plan.vm_ids.size());
  for (std::uint32_t v = start.vm_begin; v < start.vm_end; ++v) {
    const VmId id = plan.vm_ids[v];
    // O(1) row lookup instead of the old per-VM linear search.
    scratch.vms[scratch.vm_row[static_cast<std::size_t>(id)]].available_at = until;
  }
  return start;
}

}  // namespace

void plan_allocation_into(SimTime now, std::span<const QueuedJob> ordered_queue,
                          std::span<const VmAvail> vms,
                          const VmSelectionPolicy& vm_selection, AllocationMode mode,
                          SimDuration billing_quantum, AllocationPlan& out,
                          AllocationScratch& scratch) {
  out.clear();

  // Working copy + id -> row map (ids are arbitrary; the map is a dense
  // vector sized to the largest id, reused across calls).
  scratch.vms.assign(vms.begin(), vms.end());
  VmId max_id = -1;
  for (const VmAvail& vm : vms) max_id = std::max(max_id, vm.id);
  if (scratch.vm_row.size() < static_cast<std::size_t>(max_id + 1))
    scratch.vm_row.resize(static_cast<std::size_t>(max_id + 1));
  for (std::size_t row = 0; row < scratch.vms.size(); ++row)
    scratch.vm_row[static_cast<std::size_t>(scratch.vms[row].id)] =
        static_cast<std::uint32_t>(row);

  std::vector<VmCandidate>& idle = scratch.idle;
  idle.clear();
  for (const VmAvail& vm : scratch.vms)
    if (vm.available_at <= now) idle.push_back({vm.id, vm.lease_time});

  // Phase 1 (both modes): serve from the head while jobs fit.
  std::size_t head = ordered_queue.size();  // first unserved position
  for (std::size_t i = 0; i < ordered_queue.size(); ++i) {
    const QueuedJob& job = ordered_queue[i];
    if (idle.size() < static_cast<std::size_t>(job.procs)) {
      head = i;
      break;
    }
    AllocationPlan::Start start =
        take_vms(idle, scratch, job.procs, job.predicted_runtime, now,
                 now + job.predicted_runtime, vm_selection, billing_quantum, out);
    start.queue_index = i;
    out.starts.push_back(start);
  }
  if (mode == AllocationMode::kHeadOfLine || head >= ordered_queue.size()) return;

  // Phase 2 (EASY): reservation for the blocked head job.
  const QueuedJob& blocked = ordered_queue[head];
  const auto need = static_cast<std::size_t>(blocked.procs);
  if (scratch.vms.size() < need) {
    // The existing fleet can never host the head job — its start hinges on
    // future provisioning, for which no reservation can be computed.
    // Backfilling around an unbounded reservation could starve the head,
    // so serve nothing past it.
    return;
  }
  std::vector<SimTime>& times = scratch.times;
  times.clear();
  times.reserve(scratch.vms.size());
  for (const VmAvail& vm : scratch.vms) times.push_back(std::max(vm.available_at, now));
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                   times.end());
  const SimTime shadow = times[need - 1];  // earliest instant `need` VMs are free
  // VMs free by the shadow time beyond the head's need may be consumed by
  // backfilled jobs that run past the reservation.
  std::size_t free_at_shadow = 0;
  for (const VmAvail& vm : scratch.vms)
    if (std::max(vm.available_at, now) <= shadow) ++free_at_shadow;
  PSCHED_ASSERT(free_at_shadow >= need);
  std::size_t extra = free_at_shadow - need;

  for (std::size_t i = head + 1; i < ordered_queue.size(); ++i) {
    if (idle.empty()) break;
    const QueuedJob& job = ordered_queue[i];
    const auto width = static_cast<std::size_t>(job.procs);
    if (idle.size() < width) continue;
    const SimTime finish = now + job.predicted_runtime;
    const bool fits_window = finish <= shadow;
    if (!fits_window) {
      if (width > extra) continue;
      extra -= width;
    }
    AllocationPlan::Start start = take_vms(idle, scratch, job.procs, job.predicted_runtime,
                                           now, finish, vm_selection, billing_quantum, out);
    start.queue_index = i;
    out.starts.push_back(start);
  }
}

}  // namespace psched::policy
