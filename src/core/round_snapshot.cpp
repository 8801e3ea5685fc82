#include "core/round_snapshot.hpp"

#include <algorithm>

namespace psched::core {

void RoundSnapshot::build(std::span<const policy::QueuedJob> queue,
                          const cloud::CloudProfile& profile) {
  t0 = profile.now;
  max_vms = profile.max_vms;
  boot_delay = profile.boot_delay;
  billing_quantum = profile.billing_quantum;

  job_id.clear();
  job_submit.clear();
  job_procs.clear();
  job_predicted.clear();
  job_id.reserve(queue.size());
  job_submit.reserve(queue.size());
  job_procs.reserve(queue.size());
  job_predicted.reserve(queue.size());
  for (const policy::QueuedJob& job : queue) {
    job_id.push_back(job.id);
    job_submit.push_back(job.submit);
    job_procs.push_back(job.procs);
    job_predicted.push_back(job.predicted_runtime);
  }

  vm_lease.clear();
  vm_available.clear();
  vm_busy.clear();
  vm_lease.reserve(profile.vms.size());
  vm_available.reserve(profile.vms.size());
  vm_busy.reserve(profile.vms.size());
  for (const cloud::VmView& view : profile.vms) {
    vm_lease.push_back(view.lease_time);
    vm_available.push_back(std::max(view.available_at, t0));
    vm_busy.push_back(view.busy ? 1 : 0);
  }

  // Pricing columns exist only when pricing is on, so pricing-off
  // snapshots keep the pre-pricing layout.
  pricing = profile.pricing;
  vm_family.clear();
  vm_tier.clear();
  if (pricing.enabled) {
    vm_family.reserve(profile.vms.size());
    vm_tier.reserve(profile.vms.size());
    for (const cloud::VmView& view : profile.vms) {
      vm_family.push_back(view.family);
      vm_tier.push_back(static_cast<unsigned char>(view.tier));
    }
  }
}

void RoundSnapshot::fill_pending(std::vector<policy::QueuedJob>& out) const {
  out.clear();
  out.reserve(job_id.size());
  for (std::size_t i = 0; i < job_id.size(); ++i) {
    policy::QueuedJob job;
    job.id = job_id[i];
    job.submit = job_submit[i];
    job.procs = job_procs[i];
    job.predicted_runtime = job_predicted[i];
    out.push_back(job);
  }
}

}  // namespace psched::core
