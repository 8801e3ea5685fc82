// The empty-queue contract (Scheduler::policy_for_tick and
// ProvisioningPolicy): with nothing queued, every policy leases nothing and
// a scheduler keeps its incumbent without changing state. The engine's
// quiet-instant skipping (DESIGN.md §2) is exact only because of it.

#include <gtest/gtest.h>

#include <vector>

#include "core/scheduler.hpp"
#include "policy/portfolio.hpp"
#include "util/state_digest.hpp"

namespace psched::core {
namespace {

/// Market views a tier-aware policy could react to: cheap or surging
/// prices, spot open or closed, reserved headroom free or used up, family
/// caps binding or not.
std::vector<cloud::PricingView> market_views() {
  std::vector<cloud::PricingView> views;
  for (const double multiplier : {1.0, 2.5}) {
    for (const double spot : {0.0, 0.3}) {
      for (const std::size_t reserved_in_use : {std::size_t{0}, std::size_t{4}}) {
        cloud::PricingView view;
        view.enabled = true;
        view.multiplier = multiplier;
        view.spot_price_fraction = spot;
        view.reserved_total = 4;
        view.reserved_in_use = reserved_in_use;
        view.families.push_back(cloud::PricingView::Family{0.5, 30.0, 8, 0});
        view.families.push_back(cloud::PricingView::Family{1.0, 120.0, 256, 3});
        views.push_back(view);
      }
    }
  }
  return views;
}

void expect_leases_nothing(const policy::Portfolio& portfolio,
                           const cloud::PricingView* pricing) {
  std::vector<cloud::LeaseRequest> plan;
  for (const policy::PolicyTriple& triple : portfolio.policies()) {
    for (const std::size_t idle : {0u, 1u, 7u}) {
      for (const std::size_t booting : {0u, 2u}) {
        for (const std::size_t busy : {0u, 5u}) {
          policy::SchedContext ctx;
          ctx.now = 7200.0;
          ctx.idle_vms = idle;
          ctx.booting_vms = booting;
          ctx.total_vms = idle + booting + busy;
          ctx.max_vms = 256;
          ctx.pricing = pricing;
          EXPECT_EQ(triple.provisioning->vms_to_lease(ctx), 0u) << triple.name();
          // A stale request must be cleared, not kept.
          plan.assign(1, cloud::LeaseRequest{3, 0, cloud::PurchaseTier::kOnDemand});
          triple.provisioning->lease_plan(ctx, plan);
          EXPECT_TRUE(plan.empty()) << triple.name();
        }
      }
    }
  }
}

TEST(EmptyQueueContract, PaperPoliciesLeaseNothing) {
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  ASSERT_EQ(portfolio.size(), 60u);
  expect_leases_nothing(portfolio, nullptr);
  for (const cloud::PricingView& view : market_views()) expect_leases_nothing(portfolio, &view);
}

TEST(EmptyQueueContract, TierAwarePoliciesLeaseNothing) {
  const policy::Portfolio portfolio = policy::Portfolio::pricing_portfolio();
  ASSERT_EQ(portfolio.size(), 108u);
  expect_leases_nothing(portfolio, nullptr);
  for (const cloud::PricingView& view : market_views()) expect_leases_nothing(portfolio, &view);
}

std::vector<policy::QueuedJob> queue_of(std::size_t jobs) {
  std::vector<policy::QueuedJob> queue;
  for (std::size_t i = 0; i < jobs; ++i) {
    policy::QueuedJob q;
    q.id = static_cast<JobId>(i);
    q.submit = 10.0 * static_cast<double>(i);
    q.procs = 1 + static_cast<int>(i % 3);
    q.predicted_runtime = 300.0 + 500.0 * static_cast<double>(i);
    queue.push_back(q);
  }
  return queue;
}

util::StateDigest digest_of(const Scheduler& scheduler) {
  util::StateDigest digest;
  scheduler.capture_state(digest);
  return digest;
}

TEST(EmptyQueueContract, PortfolioSchedulerKeepsIncumbentAndState) {
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  for (const SelectionTrigger trigger : {SelectionTrigger::kPeriodic, SelectionTrigger::kOnChange}) {
    PortfolioSchedulerConfig config;
    config.selector.budget_mode = BudgetMode::kFixedCount;
    config.selector.fixed_count = 20;
    config.online_sim.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
    config.trigger = trigger;
    config.max_stale_ticks = 2;
    config.use_reflection_hints = true;
    PortfolioScheduler scheduler(portfolio, config);
    cloud::CloudProfile profile;
    profile.max_vms = 256;
    profile.boot_delay = 120.0;
    const policy::PolicyTriple incumbent = scheduler.policy_for_tick(0, queue_of(6), profile);
    const util::StateDigest before = digest_of(scheduler);
    // Every one of these ticks would be due for a selection round with
    // anything queued.
    for (const std::uint64_t tick : {1u, 2u, 5u, 100u}) {
      profile.now = 20.0 * static_cast<double>(tick);
      EXPECT_EQ(scheduler.policy_for_tick(tick, {}, profile), incumbent);
    }
    EXPECT_TRUE(digest_of(scheduler) == before);
    EXPECT_EQ(scheduler.reflection().invocations(), 1u);
  }
}

}  // namespace
}  // namespace psched::core
