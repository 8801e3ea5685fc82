#include "core/online_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "cloud/vm.hpp"
#include "util/assert.hpp"
#include "workload/job.hpp"

namespace psched::core {

namespace {

constexpr std::uint32_t kThrew = ComponentDecision::kThrew;

/// Charge for a VM released at `release` (see InnerCostModel).
/// kChargedHours: fresh VMs pay rounded-up hours from their lease;
/// pre-existing VMs pay only the hours added after the snapshot `t0`.
/// kElapsedMarginal: every VM pays exactly the time it was held within the
/// drain window [t0, release] (fresh VMs from their lease instant).
double charge_seconds(SimTime lease_time, bool fresh, SimTime release, SimTime t0,
                      InnerCostModel model, SimDuration quantum) {
  if (model == InnerCostModel::kElapsedMarginal) {
    return std::max(0.0, release - std::max(lease_time, t0));
  }
  const double total = cloud::charged_seconds_for(lease_time, release, quantum);
  if (fresh) return total;
  const double sunk = cloud::charged_seconds_for(lease_time, t0, quantum);
  return std::max(0.0, total - sunk);
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_jobs(const std::vector<policy::QueuedJob>& a,
               const std::vector<policy::QueuedJob>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].procs != b[i].procs ||
        !same_bits(a[i].submit, b[i].submit) ||
        !same_bits(a[i].predicted_runtime, b[i].predicted_runtime))
      return false;
  }
  return true;
}

bool same_grants(const std::vector<cloud::LeaseRequest>& a,
                 const std::vector<cloud::LeaseRequest>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].count != b[i].count || a[i].family != b[i].family || a[i].tier != b[i].tier)
      return false;
  }
  return true;
}

bool same_plan(const policy::AllocationPlan& a, const policy::AllocationPlan& b) noexcept {
  if (a.starts.size() != b.starts.size() || a.vm_ids != b.vm_ids) return false;
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    if (a.starts[i].queue_index != b.starts[i].queue_index ||
        a.starts[i].vm_begin != b.starts[i].vm_begin ||
        a.starts[i].vm_end != b.starts[i].vm_end)
      return false;
  }
  return true;
}

/// Evaluate `decide()` for `component` once per stage: the first member to
/// need it runs the call (catching what it throws), later members with the
/// same component (and, for plans, the same lease/order classes) reuse the
/// recorded decision class.
template <typename Decide>
const ComponentDecision& decision_of(std::vector<ComponentDecision>& decided,
                                     const void* component, std::uint32_t lease,
                                     std::uint32_t order, Decide&& decide) {
  for (const ComponentDecision& d : decided)
    if (d.component == component && d.lease == lease && d.order == order) return d;
  ComponentDecision d;
  d.component = component;
  d.lease = lease;
  d.order = order;
  try {
    d.decision = decide();
  } catch (const std::exception&) {
    d.decision = kThrew;
    d.error = std::current_exception();
  }
  decided.push_back(std::move(d));
  return decided.back();
}

/// Keep the members of `b` whose class (indexed by member position) is `k`.
void keep_members(SimBranch& b, const std::vector<std::uint32_t>& classes, std::uint32_t k) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < b.members.size(); ++i)
    if (classes[i] == k) b.members[kept++] = b.members[i];
  b.members.resize(kept);
}

/// One group evaluation (OnlineSimulator::simulate): branches are stepped
/// depth-first off the arena's stack. Each step evaluates the lease
/// decision once per distinct provisioning policy, the queue order once per
/// distinct job-selection policy, the allocation plan once per distinct
/// VM-selection policy within each (lease, order) subgroup, and the next
/// wake-up once per distinct provisioning policy; members fork onto the
/// stack only where those decisions differ.
class GroupEvaluation {
 public:
  GroupEvaluation(const OnlineSimConfig& config, std::span<const policy::QueuedJob> queue,
                  const cloud::CloudProfile& profile,
                  std::span<const policy::PolicyTriple> policies, SimArena& arena,
                  std::span<MemberOutcome> out)
      : config_(config),
        queue_(queue),
        profile_(profile),
        policies_(policies),
        arena_(arena),
        out_(out),
        pricing_on_(profile.pricing.enabled) {}

  GroupStats run() {
    // A previous evaluation that unwound mid-way may have left branches.
    while (!arena_.stack.empty()) {
      arena_.release(std::move(arena_.stack.back()));
      arena_.stack.pop_back();
    }
    std::unique_ptr<SimBranch> root = arena_.acquire();
    init(*root);
    if (root->pending.empty()) {
      finish(std::move(root));
      return stats_;
    }
    arena_.stack.push_back(std::move(root));
    // Depth-first: the back of the stack steps next.
    while (!arena_.stack.empty()) {
      std::unique_ptr<SimBranch> branch = std::move(arena_.stack.back());
      arena_.stack.pop_back();
      step(std::move(branch));
    }
    return stats_;
  }

 private:
  void init(SimBranch& b) const {
    // Pricing (DESIGN.md §12): the branch keeps a mutable copy of the
    // round's pricing view — occupancy (family in_use, reserved_in_use)
    // tracks the inner fleet live so tier-aware policies see real
    // headroom, while the market itself stays frozen at the profile's
    // multiplier. Spot revocations are NOT simulated inside a candidate
    // (like crashes: the inner sim is the scheduler's optimistic plan, not
    // the adversary).
    if (pricing_on_) b.pricing = profile_.pricing;
    // The profile's VMs become rows 0..V-1 with ids 0..V-1. An idle VM's
    // available_at may predate the profile instant; it is copied as is,
    // since every reader treats available_at <= now as "usable now" or
    // takes max(available_at, now).
    const SimTime t0 = profile_.now;
    const std::size_t vms = profile_.vms.size();
    b.vm_id.resize(vms);
    b.vm_row.resize(vms);
    b.vm_lease.resize(vms);
    b.vm_avail.resize(vms);
    b.vm_busy.resize(vms);
    b.vm_family.assign(vms, 0);
    b.vm_tier.assign(vms, 0);
    for (std::size_t i = 0; i < vms; ++i) {
      const cloud::VmView& view = profile_.vms[i];
      b.vm_id[i] = static_cast<VmId>(i);
      b.vm_row[i] = static_cast<std::uint32_t>(i);
      b.vm_lease[i] = view.lease_time;
      b.vm_avail[i] = view.available_at;
      b.vm_busy[i] = view.busy ? 1 : 0;
      if (pricing_on_) {
        b.vm_family[i] = view.family;
        b.vm_tier[i] = static_cast<unsigned char>(view.tier);
      }
    }
    b.next_vm_id = static_cast<VmId>(vms);
    b.vm_fresh.assign(vms, 0);
    b.pending.assign(queue_.begin(), queue_.end());
    b.members.clear();
    for (std::size_t m = 0; m < policies_.size(); ++m)
      b.members.push_back(static_cast<std::uint32_t>(m));
    b.now = t0;
    b.last_completion = t0;
    b.bsd_sum = 0.0;
    b.rj_proc_seconds = 0.0;
    b.rv_charged_seconds = 0.0;
    b.finished = 0;
    b.decisions = 0;
  }

  /// What a provisioning policy sees of `b`, given its idle and booting
  /// VM counts.
  [[nodiscard]] policy::SchedContext context(const SimBranch& b, std::size_t idle,
                                            std::size_t booting) const {
    policy::SchedContext ctx;
    ctx.now = b.now;
    ctx.queue = b.pending;
    ctx.idle_vms = idle;
    ctx.booting_vms = booting;
    ctx.total_vms = b.vm_count();
    ctx.max_vms = profile_.max_vms;
    if (pricing_on_) ctx.pricing = &b.pricing;
    return ctx;
  }

  /// Price weight of one VM row: effective $/quantum at the frozen market,
  /// as a multiplier on charged seconds (pricing on only).
  [[nodiscard]] static double price_weight(const SimBranch& b, std::size_t row) {
    const cloud::PricingView& pv = b.pricing;
    double fraction = 1.0;
    const auto tier = static_cast<cloud::PurchaseTier>(b.vm_tier[row]);
    if (tier == cloud::PurchaseTier::kSpot) fraction = pv.spot_price_fraction;
    else if (tier == cloud::PurchaseTier::kReserved) fraction = 0.0;
    return pv.families[b.vm_family[row]].price * fraction;
  }

  [[nodiscard]] SimDuration boot_delay(const SimBranch& b,
                                       const cloud::LeaseRequest& grant) const {
    return pricing_on_ ? b.pricing.families[grant.family].boot_delay
                       : profile_.boot_delay;
  }

  /// Lease decision of `p` in `b`: the grants it would actually receive,
  /// as a class index into arena_.leases (equal grants, equal class).
  std::uint32_t lease_class(const policy::ProvisioningPolicy& p,
                            const policy::SchedContext& ctx, std::size_t headroom,
                            const SimBranch& b) {
    if (arena_.leases.size() <= lease_count_) arena_.leases.emplace_back();
    std::vector<cloud::LeaseRequest>& grants = arena_.leases[lease_count_];
    grants.clear();
    if (!pricing_on_) {
      const std::size_t count = std::min(p.vms_to_lease(ctx), headroom);
      if (count > 0) grants.push_back(cloud::LeaseRequest{count, 0, cloud::PurchaseTier::kOnDemand});
    } else {
      // Tier-aware path: the policy's lease plan, granted request by
      // request under the same caps the provider enforces — global
      // headroom, per-family caps, and the reserved commitment.
      p.lease_plan(ctx, arena_.lease_requests);
      cloud::PricingView& pv = arena_.grant_pricing;
      pv = b.pricing;
      std::size_t left = headroom;
      for (const cloud::LeaseRequest& req : arena_.lease_requests) {
        PSCHED_ASSERT_MSG(req.family < pv.families.size(),
                          "lease plan names an unknown VM family");
        std::size_t grant = std::min(req.count, left);
        grant = std::min(grant, pv.family_free(req.family));
        if (req.tier == cloud::PurchaseTier::kReserved)
          grant = std::min(grant, pv.reserved_free());
        pv.families[req.family].in_use += grant;
        if (req.tier == cloud::PurchaseTier::kReserved) pv.reserved_in_use += grant;
        left -= grant;
        if (grant > 0) grants.push_back(cloud::LeaseRequest{grant, req.family, req.tier});
      }
    }
    for (std::uint32_t k = 0; k < lease_count_; ++k)
      if (same_grants(arena_.leases[k], grants)) return k;
    return lease_count_++;
  }

  /// Queue order of `js` over `b`'s pending jobs, as a class index into
  /// arena_.orders.
  std::uint32_t order_class(const policy::JobSelectionPolicy& js, const SimBranch& b) {
    if (arena_.orders.size() <= order_count_) arena_.orders.emplace_back();
    std::vector<policy::QueuedJob>& ordered = arena_.orders[order_count_];
    ordered.assign(b.pending.begin(), b.pending.end());
    policy::order_queue(ordered, js, b.now, arena_.order);
    for (std::uint32_t k = 0; k < order_count_; ++k)
      if (same_jobs(arena_.orders[k], ordered)) return k;
    return order_count_++;
  }

  /// Allocation plan of `vs` after lease class `lease` and under order
  /// class `order`, as a class index into arena_.plans.
  std::uint32_t plan_class(const policy::VmSelectionPolicy& vs, std::uint32_t lease,
                           std::uint32_t order, const SimBranch& b) {
    if (avail_lease_ != lease) {
      // The planner sees the fleet after this lease decision: existing rows
      // in row order, then the fresh (booting) VMs in id order.
      arena_.avail.resize(b.vm_count());
      VmId id = b.next_vm_id;
      for (const cloud::LeaseRequest& grant : arena_.leases[lease]) {
        const SimDuration boot = boot_delay(b, grant);
        for (std::size_t k = 0; k < grant.count; ++k)
          arena_.avail.push_back(policy::VmAvail{id++, b.now, b.now + boot});
      }
      avail_lease_ = lease;
    }
    if (arena_.plans.size() <= plan_count_) {
      arena_.plans.emplace_back();
      arena_.plan_lease.push_back(0);
      arena_.plan_order.push_back(0);
    }
    policy::AllocationPlan& plan = arena_.plans[plan_count_];
    policy::plan_allocation_into(b.now, arena_.orders[order], arena_.avail, vs,
                                 config_.allocation, profile_.billing_quantum, plan,
                                 arena_.alloc);
    for (std::uint32_t k = 0; k < plan_count_; ++k) {
      if (arena_.plan_lease[k] == lease && arena_.plan_order[k] == order &&
          same_plan(arena_.plans[k], plan))
        return k;
    }
    arena_.plan_lease[plan_count_] = lease;
    arena_.plan_order[plan_count_] = order;
    return plan_count_++;
  }

  /// One pass over `b`'s fleet: the planner's availability view before any
  /// lease of this step, and the scheduling context.
  [[nodiscard]] policy::SchedContext scan_fleet(const SimBranch& b) {
    std::size_t idle = 0, booting = 0;
    arena_.avail.clear();
    for (std::size_t i = 0; i < b.vm_count(); ++i) {
      arena_.avail.push_back(policy::VmAvail{b.vm_id[i], b.vm_lease[i], b.vm_avail[i]});
      if (b.vm_avail[i] <= b.now) ++idle;
      else if (!b.vm_busy[i]) ++booting;
    }
    avail_lease_ = kThrew;
    return context(b, idle, booting);
  }

  /// One decision step of branch `owned`: evaluate every member's
  /// decisions, split the members by their (lease, order, plan) class,
  /// fork each class but the first from the pre-step state, and advance
  /// the first class on `owned`.
  void step(std::unique_ptr<SimBranch> owned) {
    SimBranch& b = *owned;
    if (++b.decisions > config_.max_iterations) {
      // A stuck trajectory (say, a lease plan that is never granted) fails
      // its members like a throwing component, not the whole run.
      const std::exception_ptr error = std::make_exception_ptr(
          std::runtime_error("online simulation exceeded the iteration cap"));
      for (const std::uint32_t m : b.members) out_[m].error = error;
      arena_.release(std::move(owned));
      return;
    }
    ++stats_.steps;
    const std::size_t n = b.members.size();

    // --- 1. provisioning ------------------------------------------------------
    const policy::SchedContext ctx = scan_fleet(b);
    const std::size_t headroom =
        b.vm_count() >= profile_.max_vms ? 0 : profile_.max_vms - b.vm_count();
    lease_count_ = 0;
    arena_.decided.clear();
    arena_.member_lease.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const policy::ProvisioningPolicy* p = policies_[b.members[i]].provisioning;
      const ComponentDecision& d = decision_of(
          arena_.decided, p, 0, 0, [&] { return lease_class(*p, ctx, headroom, b); });
      arena_.member_lease[i] = d.decision;
      if (d.decision == kThrew) out_[b.members[i]].error = d.error;
    }

    // --- 2. queue order (depends only on the pending queue and the clock) -----
    order_count_ = 0;
    arena_.decided.clear();
    arena_.member_order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      arena_.member_order[i] = kThrew;
      if (arena_.member_lease[i] == kThrew) continue;
      const policy::JobSelectionPolicy* js = policies_[b.members[i]].job_selection;
      const ComponentDecision& d =
          decision_of(arena_.decided, js, 0, 0, [&] { return order_class(*js, b); });
      arena_.member_order[i] = d.decision;
      if (d.decision == kThrew) out_[b.members[i]].error = d.error;
    }

    // --- 3. allocation plan ---------------------------------------------------
    plan_count_ = 0;
    arena_.decided.clear();
    arena_.member_plan.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      arena_.member_plan[i] = kThrew;
      const std::uint32_t lease = arena_.member_lease[i];
      const std::uint32_t order = arena_.member_order[i];
      if (order == kThrew) continue;
      const policy::VmSelectionPolicy* vs = policies_[b.members[i]].vm_selection;
      const ComponentDecision& d = decision_of(
          arena_.decided, vs, lease, order, [&] { return plan_class(*vs, lease, order, b); });
      arena_.member_plan[i] = d.decision;
      if (d.decision == kThrew) out_[b.members[i]].error = d.error;
    }

    // --- fork by plan class, then advance each class ---------------------------
    if (plan_count_ == 0) {  // every member's component threw
      arena_.release(std::move(owned));
      return;
    }
    // Classes 1.. fork from the pre-step state before class 0 advances on
    // `owned`; class 0, advanced last, lands on top of the stack.
    for (std::uint32_t k = plan_count_ - 1; k > 0; --k) {
      std::unique_ptr<SimBranch> fork = arena_.acquire();
      *fork = b;
      keep_members(*fork, arena_.member_plan, k);
      advance(std::move(fork), k);
    }
    keep_members(b, arena_.member_plan, 0);
    advance(std::move(owned), 0);
  }

  /// Apply plan class `k` — its lease grants, queue order and allocation
  /// plan — to `owned`, release idle VMs, and either finish the branch or
  /// fork it by wake-up instant onto the stack. Classes can share an order
  /// class, so only the order's last use (the lowest class using it) takes
  /// it by swap; the others copy it.
  void advance(std::unique_ptr<SimBranch> owned, std::uint32_t k) {
    SimBranch& b = *owned;
    const SimTime now = b.now;
    const std::vector<cloud::LeaseRequest>& grants = arena_.leases[arena_.plan_lease[k]];
    std::vector<policy::QueuedJob>& order = arena_.orders[arena_.plan_order[k]];
    const policy::AllocationPlan& plan = arena_.plans[k];

    // Lease.
    std::size_t to_lease = 0;
    for (const cloud::LeaseRequest& grant : grants) {
      const SimDuration boot = boot_delay(b, grant);
      for (std::size_t k = 0; k < grant.count; ++k) {
        b.push_vm(now, now + boot, /*fresh=*/true, /*busy=*/false,
                  pricing_on_ ? grant.family : 0,
                  pricing_on_ ? static_cast<unsigned char>(grant.tier) : 0);
      }
      if (pricing_on_) {
        b.pricing.families[grant.family].in_use += grant.count;
        if (grant.tier == cloud::PurchaseTier::kReserved)
          b.pricing.reserved_in_use += grant.count;
      }
      to_lease += grant.count;
    }

    // Order and allocate (shared planner; head-of-line or EASY backfill).
    bool last_use = true;
    for (std::uint32_t j = 0; j < k; ++j)
      if (arena_.plan_order[j] == arena_.plan_order[k]) last_use = false;
    if (last_use) b.pending.swap(order);
    else b.pending.assign(order.begin(), order.end());
    if (!plan.empty()) {
      arena_.served.assign(b.pending.size(), 0);
      for (const policy::AllocationPlan::Start& start : plan.starts) {
        arena_.served[start.queue_index] = 1;
        const policy::QueuedJob& job = b.pending[start.queue_index];
        const SimTime completion = now + job.predicted_runtime;
        for (const VmId chosen : plan.vms_of(start)) {
          const std::size_t row = b.vm_row[static_cast<std::size_t>(chosen)];
          b.vm_avail[row] = completion;
          b.vm_busy[row] = 1;
        }
        b.bsd_sum += workload::bounded_slowdown(job.wait(now), job.predicted_runtime,
                                                config_.slowdown_bound);
        b.rj_proc_seconds += job.procs * job.predicted_runtime;
        b.last_completion = std::max(b.last_completion, completion);
        ++b.finished;
      }
      std::size_t kept = 0;
      for (std::size_t i = 0; i < b.pending.size(); ++i)
        if (!arena_.served[i]) b.pending[kept++] = b.pending[i];
      b.pending.resize(kept);
    }

    // Idle-VM release. kEagerSurplus: while jobs wait, every idle VM is the
    // waiting head's reserve, and once the queue drains the branch finishes
    // — the end-of-run release settles all remaining charges. Only the
    // boundary rule needs mid-run releases.
    if (config_.release_rule == ReleaseRule::kBoundary) release_at_boundary(b);

    if (b.pending.empty()) {
      finish(std::move(owned));
      return;
    }

    // Advance time. Next interesting instant: a VM becomes available, or the
    // provisioning answer changes purely due to waiting (ODX/ODE
    // crossings). If this step changed any state (leases or starts), the
    // policy may act again at the very next scheduling tick — engine
    // fidelity requires considering it. Quiet stretches still fast-forward
    // directly to the next event. Guaranteed to move forward (see
    // DESIGN.md). Only next_change differs between members, so members
    // fork again where their wake-up instants differ.
    const bool changed = to_lease > 0 || !plan.empty();
    SimTime next_avail = kTimeNever;
    std::size_t idle = 0, booting = 0;
    for (std::size_t i = 0; i < b.vm_count(); ++i) {
      if (b.vm_avail[i] <= now) {
        ++idle;
      } else {
        next_avail = std::min(next_avail, b.vm_avail[i]);
        if (!b.vm_busy[i]) ++booting;
      }
    }
    const policy::SchedContext ctx = context(b, idle, booting);
    const std::size_t n = b.members.size();
    arena_.next.clear();
    arena_.decided.clear();
    arena_.member_next.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const policy::ProvisioningPolicy* p = policies_[b.members[i]].provisioning;
      const ComponentDecision& d = decision_of(arena_.decided, p, 0, 0, [&] {
        SimTime next = std::min(next_avail, p->next_change(ctx));
        if (changed) next = std::min(next, now + config_.schedule_period);
        if (next == kTimeNever || next <= now) next = now + config_.schedule_period;
        PSCHED_ASSERT_MSG(next > now, "online simulation failed to advance");
        for (std::uint32_t k = 0; k < arena_.next.size(); ++k)
          if (same_bits(arena_.next[k], next)) return k;
        arena_.next.push_back(next);
        return static_cast<std::uint32_t>(arena_.next.size() - 1);
      });
      arena_.member_next[i] = d.decision;
      if (d.decision == kThrew) out_[b.members[i]].error = d.error;
    }
    if (arena_.next.empty()) {  // every member's next_change threw
      arena_.release(std::move(owned));
      return;
    }
    // Members waking at other instants fork the post-step state; the first
    // instant, pushed last, steps next.
    for (auto w = static_cast<std::uint32_t>(arena_.next.size() - 1); w > 0; --w) {
      std::unique_ptr<SimBranch> fork = arena_.acquire();
      *fork = b;
      keep_members(*fork, arena_.member_next, w);
      fork->now = arena_.next[w];
      arena_.stack.push_back(std::move(fork));
    }
    keep_members(b, arena_.member_next, 0);
    b.now = arena_.next[0];
    arena_.stack.push_back(std::move(owned));
  }

  /// kBoundary: release idle VMs just before their next hourly charge.
  void release_at_boundary(SimBranch& b) const {
    const SimTime now = b.now;
    // Idle VMs reserved for the still-waiting head job are exempt (same
    // thrash-avoidance as the engine's release rule).
    std::size_t reserve =
        b.pending.empty() ? 0 : static_cast<std::size_t>(b.pending.front().procs);
    for (std::size_t i = 0; i < b.vm_count();) {
      if (b.vm_avail[i] <= now && reserve > 0) {
        --reserve;
        ++i;
        continue;
      }
      if (b.vm_avail[i] <= now &&
          cloud::remaining_paid_at(b.vm_lease[i], now, profile_.billing_quantum) <=
              config_.release_window) {
        double seconds = charge_seconds(b.vm_lease[i], b.vm_fresh[i] != 0, now,
                                        profile_.now, config_.cost_model,
                                        profile_.billing_quantum);
        if (pricing_on_) {
          seconds *= price_weight(b, i);
          cloud::PricingView::Family& fam = b.pricing.families[b.vm_family[i]];
          if (fam.in_use > 0) --fam.in_use;
          if (b.vm_tier[i] == static_cast<unsigned char>(cloud::PurchaseTier::kReserved) &&
              b.pricing.reserved_in_use > 0)
            --b.pricing.reserved_in_use;
        }
        b.rv_charged_seconds += seconds;
        b.remove_vm(i);
      } else {
        ++i;
      }
    }
  }

  /// The queue drained: settle every VM still leased, score the trajectory,
  /// and hand the outcome to every member on it.
  void finish(std::unique_ptr<SimBranch> owned) {
    SimBranch& b = *owned;
    // A VM that is still booting and was never used settles at the engine's
    // release instant: the outer loop can only release it at the first
    // scheduling tick at or after boot completion, so the charge runs
    // through `available_at` rounded up to the tick grid — not bare
    // `available_at`, which under-bills whenever the boot delay is not a
    // multiple of the schedule period. (On the differential oracle's ground
    // rules the two coincide; see DESIGN.md §7.)
    for (std::size_t i = 0; i < b.vm_count(); ++i) {
      SimTime release = std::max(b.vm_avail[i], b.now);
      if (!b.vm_busy[i] && b.vm_avail[i] > b.now) {
        release = std::ceil(b.vm_avail[i] / config_.schedule_period) *
                  config_.schedule_period;
      }
      double seconds = charge_seconds(b.vm_lease[i], b.vm_fresh[i] != 0, release,
                                      profile_.now, config_.cost_model,
                                      profile_.billing_quantum);
      if (pricing_on_) seconds *= price_weight(b, i);
      b.rv_charged_seconds += seconds;
    }
    PSCHED_ASSERT(b.finished == queue_.size());

    SimOutcome outcome;
    outcome.rj_proc_seconds = b.rj_proc_seconds;
    outcome.rv_charged_seconds = b.rv_charged_seconds;
    outcome.avg_bounded_slowdown =
        b.finished ? b.bsd_sum / static_cast<double>(b.finished) : 1.0;
    outcome.sim_makespan = b.last_completion - profile_.now;
    outcome.decisions = b.decisions;
    outcome.utility = metrics::utility(config_.utility, outcome.rj_proc_seconds,
                                       outcome.rv_charged_seconds,
                                       outcome.avg_bounded_slowdown);
    for (const std::uint32_t m : b.members) out_[m].outcome = outcome;
    ++stats_.paths;
    arena_.release(std::move(owned));
  }

  const OnlineSimConfig& config_;
  std::span<const policy::QueuedJob> queue_;
  const cloud::CloudProfile& profile_;
  std::span<const policy::PolicyTriple> policies_;
  SimArena& arena_;
  std::span<MemberOutcome> out_;
  const bool pricing_on_;
  GroupStats stats_;
  // Per-step class counts (arena_.leases / orders / plans in use).
  std::uint32_t lease_count_ = 0;
  std::uint32_t order_count_ = 0;
  std::uint32_t plan_count_ = 0;
  std::uint32_t avail_lease_ = kThrew;  ///< lease class arena_.avail holds
};

}  // namespace

OnlineSimulator::OnlineSimulator(OnlineSimConfig config) : config_(config) {
  PSCHED_ASSERT(config_.schedule_period > 0.0);
  PSCHED_ASSERT(config_.slowdown_bound > 0.0);
}

GroupStats OnlineSimulator::simulate(std::span<const policy::QueuedJob> queue,
                                     const cloud::CloudProfile& profile,
                                     std::span<const policy::PolicyTriple> policies,
                                     SimArena& arena,
                                     std::span<MemberOutcome> out) const {
  // Const-thread-safe for distinct arenas (see header): all mutable state
  // lives in `arena`; config_, the queue, the profile, and the policies are
  // only read.
  PSCHED_ASSERT(out.size() == policies.size());
  for (const policy::PolicyTriple& policy : policies)
    PSCHED_ASSERT(policy.provisioning && policy.job_selection && policy.vm_selection);
  for (MemberOutcome& member : out) member = MemberOutcome{};
  if (policies.empty()) return {};
  if (config_.inject_fault == validate::FaultInjection::kCandidateThrow) {
    const std::exception_ptr error = std::make_exception_ptr(
        std::runtime_error("injected fault: candidate simulation throw"));
    for (MemberOutcome& member : out) member.error = error;
    return {};
  }
  return GroupEvaluation(config_, queue, profile, policies, arena, out).run();
}

SimOutcome OnlineSimulator::simulate(std::span<const policy::QueuedJob> queue,
                                     const cloud::CloudProfile& profile,
                                     const policy::PolicyTriple& policy) const {
  SimArena arena;
  MemberOutcome result;
  (void)simulate(queue, profile, std::span(&policy, 1), arena, std::span(&result, 1));
  if (result.error) std::rethrow_exception(result.error);
  return result.outcome;
}

}  // namespace psched::core
