// Oracle for the shared-prefix group evaluator (DESIGN.md §11.2): one group
// evaluation of N policies must equal N one-policy evaluations, bit for bit
// on every SimOutcome field, and a throwing policy component must fail
// exactly the members whose one-policy run throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/online_sim.hpp"
#include "core/selector.hpp"
#include "core/sim_arena.hpp"
#include "util/rng.hpp"

namespace psched::core {
namespace {

OnlineSimConfig sim_config() {
  OnlineSimConfig c;
  c.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  return c;
}

const policy::Portfolio& paper() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

std::vector<policy::QueuedJob> make_queue(std::size_t depth, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<policy::QueuedJob> queue;
  for (std::size_t i = 0; i < depth; ++i) {
    policy::QueuedJob q;
    q.id = static_cast<JobId>(i);
    q.submit = 1000.0 - rng.uniform(0.0, 7200.0);
    q.procs = 1 << rng.uniform_int(0, 3);
    q.predicted_runtime = rng.uniform(10.0, 5000.0);
    queue.push_back(q);
  }
  return queue;
}

/// A fleet of `vms` VMs at t=1000 with mixed lease ages, idle and busy rows,
/// under a cap a little above the fleet.
cloud::CloudProfile make_profile(std::size_t vms, std::uint64_t seed) {
  cloud::CloudProfile profile;
  profile.now = 1000.0;
  profile.max_vms = vms + 24;
  profile.boot_delay = 100.0;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < vms; ++i) {
    cloud::VmView vm;
    vm.lease_time = profile.now - rng.uniform(0.0, 7200.0);
    vm.busy = rng.bernoulli(0.5);
    vm.available_at = vm.busy ? profile.now + rng.uniform(5.0, 4000.0) : profile.now;
    profile.vms.push_back(vm);
  }
  return profile;
}

void expect_bit_identical(const SimOutcome& group, const SimOutcome& solo,
                          const std::string& where) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(group.utility), bits(solo.utility)) << where;
  EXPECT_EQ(bits(group.avg_bounded_slowdown), bits(solo.avg_bounded_slowdown)) << where;
  EXPECT_EQ(bits(group.rj_proc_seconds), bits(solo.rj_proc_seconds)) << where;
  EXPECT_EQ(bits(group.rv_charged_seconds), bits(solo.rv_charged_seconds)) << where;
  EXPECT_EQ(bits(group.sim_makespan), bits(solo.sim_makespan)) << where;
  EXPECT_EQ(group.decisions, solo.decisions) << where;
}

/// `policy` alone as a one-member group on `arena`.
MemberOutcome simulate_one(const OnlineSimulator& sim, std::span<const policy::QueuedJob> queue,
                           const cloud::CloudProfile& profile,
                           const policy::PolicyTriple& policy, SimArena& arena) {
  MemberOutcome out;
  (void)sim.simulate(queue, profile, std::span(&policy, 1), arena, std::span(&out, 1));
  return out;
}

/// Evaluate `policies` once as a group in `arena` and once per policy in a
/// separate arena; every member must match its one-policy run, including
/// whether it threw. Returns the group's stats.
GroupStats expect_group_matches_solo(const OnlineSimulator& sim,
                                     std::span<const policy::QueuedJob> queue,
                                     const cloud::CloudProfile& profile,
                                     std::span<const policy::PolicyTriple> policies,
                                     SimArena& arena, const std::string& where) {
  std::vector<MemberOutcome> out(policies.size());
  const GroupStats stats = sim.simulate(queue, profile, policies, arena, out);
  SimArena solo_arena;
  std::size_t max_decisions = 0;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const std::string at = where + ", policy " + policies[i].name();
    const MemberOutcome solo = simulate_one(sim, queue, profile, policies[i], solo_arena);
    const bool threw = solo.error != nullptr;
    EXPECT_EQ(out[i].error != nullptr, threw) << at;
    if (threw || out[i].error != nullptr) continue;
    expect_bit_identical(out[i].outcome, solo.outcome, at);
    max_decisions = std::max(max_decisions, solo.outcome.decisions);
  }
  EXPECT_LE(stats.paths, policies.size()) << where;
  EXPECT_GE(stats.steps, max_decisions) << where;
  return stats;
}

TEST(SharedPrefix, GroupMatchesOnePolicyRunsAcrossTheMatrix) {
  // One arena serves every case, so pool reuse across evaluations of
  // different shapes is exercised too.
  SimArena arena;
  std::size_t shared = 0;
  for (const std::size_t depth : {1, 2, 4, 16, 64}) {
    for (const std::size_t vms : {0, 4, 64, 256}) {
      const auto queue = make_queue(depth, 100 + depth);
      const cloud::CloudProfile profile = make_profile(vms, 200 + vms);
      for (const AllocationMode mode :
           {AllocationMode::kHeadOfLine, AllocationMode::kEasyBackfill}) {
        for (const ReleaseRule rule : {ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary}) {
          for (const InnerCostModel cost :
               {InnerCostModel::kChargedHours, InnerCostModel::kElapsedMarginal}) {
            OnlineSimConfig config = sim_config();
            config.allocation = mode;
            config.release_rule = rule;
            config.cost_model = cost;
            const std::string where = "depth " + std::to_string(depth) + ", " +
                                      std::to_string(vms) + " VMs, mode " +
                                      std::to_string(static_cast<int>(mode)) +
                                      ", rule " + std::to_string(static_cast<int>(rule)) +
                                      ", cost " + std::to_string(static_cast<int>(cost));
            const GroupStats stats = expect_group_matches_solo(
                OnlineSimulator(config), queue, profile, paper().policies(), arena, where);
            if (stats.paths < paper().size()) ++shared;
          }
        }
      }
    }
  }
  // The matrix must actually exercise sharing, not only 60 lone paths.
  EXPECT_GT(shared, 0u);
}

TEST(SharedPrefix, PricingOnWithTheTierAwarePortfolio) {
  // The 108-policy tier-aware portfolio over a three-family market with
  // per-family caps, an open spot market and a reserved commitment; the
  // fleet mixes families and purchase tiers.
  const policy::Portfolio portfolio = policy::Portfolio::pricing_portfolio();
  ASSERT_EQ(portfolio.size(), 108u);
  SimArena arena;
  for (const std::size_t depth : {1, 4, 16}) {
    for (const std::size_t vms : {0, 4, 64}) {
      cloud::CloudProfile profile = make_profile(vms, 300 + vms);
      profile.pricing.enabled = true;
      profile.pricing.multiplier = 1.3;
      profile.pricing.spot_price_fraction = 0.35;
      profile.pricing.reserved_total = 6;
      profile.pricing.families = {{1.0, 100.0, 0, 0}, {0.6, 240.0, 12, 0},
                                  {2.5, 60.0, 8, 0}};
      util::Rng rng(400 + vms);
      for (cloud::VmView& vm : profile.vms) {
        vm.family = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        cloud::PricingView::Family& family = profile.pricing.families[vm.family];
        if (family.cap > 0 && family.in_use >= family.cap) vm.family = 0;
        ++profile.pricing.families[vm.family].in_use;
        const auto draw = rng.uniform_int(0, 2);
        if (draw == 1) vm.tier = cloud::PurchaseTier::kSpot;
        if (draw == 2 && profile.pricing.reserved_in_use < profile.pricing.reserved_total) {
          vm.tier = cloud::PurchaseTier::kReserved;
          ++profile.pricing.reserved_in_use;
        }
      }
      const auto queue = make_queue(depth, 500 + depth);
      for (const ReleaseRule rule : {ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary}) {
        OnlineSimConfig config = sim_config();
        config.release_rule = rule;
        const std::string where = "pricing, depth " + std::to_string(depth) + ", " +
                                  std::to_string(vms) + " VMs, rule " +
                                  std::to_string(static_cast<int>(rule));
        (void)expect_group_matches_solo(OnlineSimulator(config), queue, profile,
                                        portfolio.policies(), arena, where);
      }
    }
  }
}

TEST(SharedPrefix, IdenticalPoliciesShareOnePath) {
  // Five copies of one policy never disagree: one trajectory, stepped once.
  const OnlineSimulator sim(sim_config());
  const auto queue = make_queue(16, 7);
  const cloud::CloudProfile profile = make_profile(4, 8);
  const std::vector<policy::PolicyTriple> copies(5, paper().policies()[13]);
  SimArena arena;
  std::vector<MemberOutcome> out(copies.size());
  const GroupStats stats = sim.simulate(queue, profile, copies, arena, out);
  EXPECT_EQ(stats.paths, 1u);
  EXPECT_EQ(stats.steps, out[0].outcome.decisions);
  for (const MemberOutcome& member : out)
    expect_bit_identical(member.outcome, out[0].outcome, "copy");
}

TEST(SharedPrefix, ForksStayWithinOneStatePerMember) {
  // Every branch on the stack carries at least one member, so a group of N
  // policies never holds more than N states: after wide-splitting groups
  // the stack is empty and the pool holds at most one state per member.
  const policy::Portfolio pricing = policy::Portfolio::pricing_portfolio();
  cloud::CloudProfile priced = make_profile(64, 600);
  priced.pricing.enabled = true;
  priced.pricing.spot_price_fraction = 0.35;
  priced.pricing.reserved_total = 6;
  priced.pricing.families = {{1.0, 100.0, 0, 0}, {0.6, 240.0, 12, 0}};
  for (const cloud::VmView& vm : priced.vms)
    ++priced.pricing.families[vm.family].in_use;
  const std::vector<policy::QueuedJob> queue = make_queue(64, 700);
  for (const bool pricing_on : {false, true}) {
    const policy::Portfolio& portfolio = pricing_on ? pricing : paper();
    const cloud::CloudProfile profile = pricing_on ? priced : make_profile(64, 600);
    for (const ReleaseRule rule : {ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary}) {
      OnlineSimConfig config = sim_config();
      config.release_rule = rule;
      const std::string where = std::to_string(portfolio.size()) + " policies, rule " +
                                std::to_string(static_cast<int>(rule));
      SimArena arena;
      const GroupStats stats = expect_group_matches_solo(
          OnlineSimulator(config), queue, profile, portfolio.policies(), arena, where);
      EXPECT_GT(stats.paths, portfolio.size() / 2) << where;  // a wide split
      EXPECT_TRUE(arena.stack.empty()) << where;
      EXPECT_LE(arena.spare.size(), portfolio.size()) << where;
    }
  }
}

// --- failures ------------------------------------------------------------------

/// Test-only provisioning policy: leases like ODA, but throws whenever it
/// is asked while VMs boot and the head of the queue (in the order the
/// previous step left it) is a wide job — a state some trajectories reach
/// and others never do.
class ThrowsOnWideHeadWhileBooting final : public policy::ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const policy::SchedContext& ctx) const override {
    if (ctx.booting_vms > 0 && !ctx.queue.empty() && ctx.queue.front().procs >= 4)
      throw std::runtime_error("test provisioning fault");
    const std::size_t want = ctx.queued_procs();
    const std::size_t have = ctx.idle_vms + ctx.booting_vms;
    return want > have ? want - have : 0;
  }
  [[nodiscard]] std::string name() const override { return "THR"; }
};

/// Test-only job selection: FCFS order, but throws once the head of the
/// queue has waited more than two hours.
class ThrowsOnLongWait final : public policy::JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const policy::QueuedJob& job, SimTime now) const override {
    if (job.wait(now) > 2.0 * kSecondsPerHour)
      throw std::runtime_error("test job-selection fault");
    return job.wait(now);
  }
  [[nodiscard]] std::string name() const override { return "THRJ"; }
};

/// The paper's constituents plus the two throwing test policies:
/// 6 x 5 x 3 = 90 policies.
const policy::Portfolio& throwing_portfolio() {
  static const policy::Portfolio p = [] {
    policy::Portfolio portfolio;
    for (auto& prov : policy::all_provisioning()) portfolio.add_provisioning(std::move(prov));
    portfolio.add_provisioning(std::make_unique<ThrowsOnWideHeadWhileBooting>());
    for (auto& js : policy::all_job_selection()) portfolio.add_job_selection(std::move(js));
    portfolio.add_job_selection(std::make_unique<ThrowsOnLongWait>());
    for (auto& vs : policy::all_vm_selection()) portfolio.add_vm_selection(std::move(vs));
    portfolio.build_combinations();
    return portfolio;
  }();
  return p;
}

/// A round where the throwing provisioning policy fails on some
/// trajectories but not on others.
struct ThrowingRound {
  std::vector<policy::QueuedJob> queue = make_queue(6, 13);
  cloud::CloudProfile profile = make_profile(3, 15);
};

/// Indices whose one-policy simulation throws, ascending.
std::vector<std::size_t> solo_failures(const OnlineSimulator& sim, const ThrowingRound& round,
                                       const policy::Portfolio& portfolio) {
  std::vector<std::size_t> failed;
  SimArena arena;
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    if (simulate_one(sim, round.queue, round.profile, portfolio.policies()[i], arena).error)
      failed.push_back(i);
  }
  return failed;
}

TEST(SharedPrefix, ThrowingComponentFailsExactlyTheMembersWhoseSoloRunThrows) {
  const OnlineSimulator sim(sim_config());
  const ThrowingRound round;
  const policy::Portfolio& portfolio = throwing_portfolio();

  // The scenario must be partial: some members of the throwing provisioning
  // policy fail, some do not, and no policy of the paper's own fails.
  std::size_t thr_failed = 0, thr_survived = 0;
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    const policy::PolicyTriple& p = portfolio.policies()[i];
    SimArena arena;
    const bool threw = simulate_one(sim, round.queue, round.profile, p, arena).error != nullptr;
    const bool uses_thrower =
        p.provisioning->name() == "THR" || p.job_selection->name() == "THRJ";
    if (!uses_thrower) {
      EXPECT_FALSE(threw) << p.name();
    }
    if (p.provisioning->name() == "THR" && p.job_selection->name() != "THRJ")
      ++(threw ? thr_failed : thr_survived);
  }
  EXPECT_GT(thr_failed, 0u);
  EXPECT_GT(thr_survived, 0u);

  SimArena arena;
  (void)expect_group_matches_solo(sim, round.queue, round.profile, portfolio.policies(), arena,
                                  "throwing portfolio");
}

TEST(SharedPrefix, SelectorQuarantinesExactlyTheThrowersInSequentialOrder) {
  // Both selector paths — the whole round as one batch (fixed count) and one
  // candidate at a time (bounded measured wallclock) — quarantine exactly
  // the policies whose one-policy run throws, in draw order. The first
  // round draws Smart = every policy in index order.
  const ThrowingRound round;
  const policy::Portfolio& portfolio = throwing_portfolio();
  const std::vector<std::size_t> expected =
      solo_failures(OnlineSimulator(sim_config()), round, portfolio);
  ASSERT_FALSE(expected.empty());

  SelectorConfig batched;
  batched.budget_mode = BudgetMode::kFixedCount;
  batched.fixed_count = 0;
  SelectorConfig one_at_a_time;
  one_at_a_time.time_constraint_ms = 1e9;  // bounded, but never binding
  for (const SelectorConfig& config : {batched, one_at_a_time}) {
    TimeConstrainedSelector selector(portfolio, OnlineSimulator(sim_config()), config);
    const SelectionResult result = selector.select(round.queue, round.profile);
    EXPECT_FALSE(result.degraded);
    ASSERT_EQ(result.quarantined, expected.size());
    EXPECT_EQ(result.simulated() + result.quarantined, portfolio.size());
    // Quarantined candidates demote to Poor first, in draw order.
    ASSERT_GE(selector.poor().size(), expected.size());
    const std::vector<std::size_t> demoted(
        selector.poor().begin(),
        selector.poor().begin() + static_cast<std::ptrdiff_t>(expected.size()));
    EXPECT_EQ(demoted, expected);
    for (const PolicyScore& score : result.scores)
      EXPECT_FALSE(std::binary_search(expected.begin(), expected.end(), score.index));
  }
}

TEST(SharedPrefix, InjectedCandidateThrowFailsEveryMember) {
  OnlineSimConfig config = sim_config();
  config.inject_fault = validate::FaultInjection::kCandidateThrow;
  const OnlineSimulator sim(config);
  const auto queue = make_queue(4, 3);
  const cloud::CloudProfile profile = make_profile(4, 5);
  SimArena arena;
  std::vector<MemberOutcome> out(paper().size());
  (void)sim.simulate(queue, profile, paper().policies(), arena, out);
  for (const MemberOutcome& member : out) EXPECT_NE(member.error, nullptr);
  EXPECT_THROW((void)sim.simulate(queue, profile, paper().policies()[0]), std::runtime_error);
}

}  // namespace
}  // namespace psched::core
