#include "core/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

namespace psched::core {
namespace {

// The selector borrows its portfolio: a temporary must not compile.
static_assert(!std::is_constructible_v<TimeConstrainedSelector, policy::Portfolio,
                                       OnlineSimulator, SelectorConfig>);
static_assert(std::is_constructible_v<TimeConstrainedSelector, const policy::Portfolio&,
                                      OnlineSimulator, SelectorConfig>);

OnlineSimConfig sim_config() {
  OnlineSimConfig c;
  c.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  return c;
}

cloud::CloudProfile empty_cloud(SimTime now = 0.0) {
  cloud::CloudProfile p;
  p.now = now;
  p.max_vms = 256;
  p.boot_delay = 120.0;
  return p;
}

std::vector<policy::QueuedJob> small_queue(int jobs = 6) {
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < jobs; ++i) {
    policy::QueuedJob q;
    q.id = i;
    q.submit = i * 4.0;
    q.procs = 1 + (i % 3) * 3;
    q.predicted_runtime = 50.0 + 130.0 * (i % 4);
    queue.push_back(q);
  }
  return queue;
}

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

SelectorConfig unbounded() {
  SelectorConfig c;
  c.time_constraint_ms = 0.0;
  return c;
}

SelectorConfig budgeted(double delta_ms, double per_policy_ms) {
  SelectorConfig c;
  c.time_constraint_ms = delta_ms;
  c.synthetic_overhead_ms = per_policy_ms;
  c.use_measured_cost = false;  // deterministic budget accounting
  return c;
}

std::size_t total_tracked(const TimeConstrainedSelector& s) {
  return s.smart().size() + s.stale().size() + s.poor().size();
}

void expect_partition(const TimeConstrainedSelector& s, std::size_t n) {
  EXPECT_EQ(total_tracked(s), n);
  std::set<std::size_t> seen;
  for (const auto i : s.smart()) seen.insert(i);
  for (const auto i : s.stale()) seen.insert(i);
  for (const auto i : s.poor()) seen.insert(i);
  EXPECT_EQ(seen.size(), n) << "sets overlap or lost a policy";
}

TEST(Selector, InitialStateIsAllSmart) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), unbounded());
  EXPECT_EQ(s.smart().size(), 60u);
  EXPECT_TRUE(s.stale().empty());
  EXPECT_TRUE(s.poor().empty());
}

TEST(Selector, UnboundedSimulatesWholePortfolio) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), unbounded());
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud());
  EXPECT_EQ(result.simulated(), 60u);
  // The returned policy is the utility argmax.
  double best = -1.0;
  for (const PolicyScore& score : result.scores) best = std::max(best, score.utility);
  EXPECT_DOUBLE_EQ(result.best_utility, best);
  expect_partition(s, 60);
  EXPECT_EQ(s.smart().size(), 36u);  // lambda = 0.6
  EXPECT_EQ(s.poor().size(), 24u);
  EXPECT_TRUE(s.stale().empty());
}

TEST(Selector, BestIndexMatchesBestScore) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), unbounded());
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud());
  const auto it = std::find_if(result.scores.begin(), result.scores.end(),
                               [&](const PolicyScore& p) {
                                 return p.index == result.best_index;
                               });
  ASSERT_NE(it, result.scores.end());
  EXPECT_DOUBLE_EQ(it->utility, result.best_utility);
}

TEST(Selector, BudgetLimitsSimulatedCount) {
  // Delta = 200 ms at 10 ms/policy -> exactly 20 policies (paper §6.5).
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(200.0, 10.0));
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud());
  EXPECT_EQ(result.simulated(), 20u);
  EXPECT_DOUBLE_EQ(result.total_cost_ms, 200.0);
  expect_partition(s, 60);
  // Q = 20 -> Smart = 12, Poor += 8; 40 un-simulated Smart leftovers age to Stale.
  EXPECT_EQ(s.smart().size(), 12u);
  EXPECT_EQ(s.stale().size(), 40u);
  EXPECT_EQ(s.poor().size(), 8u);
}

TEST(Selector, TinyBudgetStillSimulatesOne) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(1.0, 10.0));
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud());
  EXPECT_EQ(result.simulated(), 1u);
  expect_partition(s, 60);
}

TEST(Selector, RepeatedSelectionsKeepPartition) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(200.0, 10.0));
  const auto queue = small_queue();
  for (int round = 0; round < 25; ++round) {
    (void)s.select(queue, empty_cloud(100.0 * round));
    expect_partition(s, 60);
  }
}

TEST(Selector, StabilizationProperty) {
  // Paper Section 4: with K policies simulable per round, the sets settle
  // near |Smart| = lambda*K, |Stale| = lambda*(N-K), |Poor| = (1-lambda)*N.
  // K = 20, N = 60, lambda = 0.6 -> 12 / 24 / 24.
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(200.0, 10.0));
  const auto queue = small_queue();
  for (int round = 0; round < 40; ++round) (void)s.select(queue, empty_cloud());
  EXPECT_NEAR(static_cast<double>(s.smart().size()), 12.0, 3.0);
  EXPECT_NEAR(static_cast<double>(s.stale().size()), 24.0, 6.0);
  EXPECT_NEAR(static_cast<double>(s.poor().size()), 24.0, 6.0);
}

TEST(Selector, DeterministicForSeed) {
  const auto queue = small_queue();
  SelectorConfig config = budgeted(120.0, 10.0);
  config.rng_seed = 777;
  TimeConstrainedSelector a(portfolio(), OnlineSimulator(sim_config()), config);
  TimeConstrainedSelector b(portfolio(), OnlineSimulator(sim_config()), config);
  for (int round = 0; round < 10; ++round) {
    const auto ra = a.select(queue, empty_cloud());
    const auto rb = b.select(queue, empty_cloud());
    EXPECT_EQ(ra.best_index, rb.best_index);
    EXPECT_EQ(ra.simulated(), rb.simulated());
  }
}

TEST(Selector, ResetRestoresInitialState) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(100.0, 10.0));
  const auto queue = small_queue();
  (void)s.select(queue, empty_cloud());
  s.reset();
  EXPECT_EQ(s.smart().size(), 60u);
  EXPECT_TRUE(s.stale().empty());
  EXPECT_TRUE(s.poor().empty());
}

TEST(Selector, BudgetedBestIsNeverWorseThanWorstUnbounded) {
  // Sanity: the budgeted pick must be one of the portfolio's policies and
  // its utility must lie within the unbounded score range.
  const auto queue = small_queue();
  TimeConstrainedSelector full(portfolio(), OnlineSimulator(sim_config()), unbounded());
  const auto all = full.select(queue, empty_cloud());
  double lo = 1e18, hi = -1e18;
  for (const PolicyScore& p : all.scores) {
    lo = std::min(lo, p.utility);
    hi = std::max(hi, p.utility);
  }
  TimeConstrainedSelector budget(portfolio(), OnlineSimulator(sim_config()),
                                 budgeted(100.0, 10.0));
  const auto picked = budget.select(queue, empty_cloud());
  EXPECT_GE(picked.best_utility, lo - 1e-9);
  EXPECT_LE(picked.best_utility, hi + 1e-9);
}

TEST(Selector, HintsAreSimulatedFirstUnderTightBudget) {
  // Budget of 30 ms at 10 ms/policy = 3 simulations. Hinting three specific
  // policies guarantees exactly those are evaluated.
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(30.0, 10.0));
  const auto queue = small_queue();
  const std::vector<std::size_t> hints{57, 13, 29};
  const SelectionResult result = s.select(queue, empty_cloud(), SIZE_MAX, hints);
  ASSERT_EQ(result.simulated(), 3u);
  std::set<std::size_t> simulated;
  for (const PolicyScore& score : result.scores) simulated.insert(score.index);
  EXPECT_EQ(simulated, (std::set<std::size_t>{13, 29, 57}));
  expect_partition(s, 60);
}

TEST(Selector, HintsPromoteFromPoorSet) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(200.0, 10.0));
  const auto queue = small_queue();
  (void)s.select(queue, empty_cloud());  // populate Poor
  ASSERT_FALSE(s.poor().empty());
  const std::size_t from_poor = s.poor().front();
  const std::vector<std::size_t> hints{from_poor};
  const SelectionResult result = s.select(queue, empty_cloud(), SIZE_MAX, hints);
  // The hinted policy was pulled out of Poor and simulated this round.
  const bool simulated = std::any_of(
      result.scores.begin(), result.scores.end(),
      [from_poor](const PolicyScore& p) { return p.index == from_poor; });
  EXPECT_TRUE(simulated);
  expect_partition(s, 60);
}

TEST(Selector, OutOfRangeHintsIgnored) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), unbounded());
  const auto queue = small_queue();
  const std::vector<std::size_t> hints{999, 1000000};
  const SelectionResult result = s.select(queue, empty_cloud(), SIZE_MAX, hints);
  EXPECT_EQ(result.simulated(), 60u);
  expect_partition(s, 60);
}

TEST(Selector, EmptyQueueAborts) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), unbounded());
  EXPECT_DEATH((void)s.select({}, empty_cloud()), "empty queue");
}

TEST(Selector, StaleSetServedInStalenessOrder) {
  // With a budget covering Smart but only part of Stale, the *oldest*
  // un-simulated policies must be re-evaluated first. After round 1
  // (20 sims), 40 Smart leftovers age into Stale in their original order;
  // round 2's Stale quota must pop from the front.
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(200.0, 10.0));
  const auto queue = small_queue();
  (void)s.select(queue, empty_cloud());
  ASSERT_EQ(s.stale().size(), 40u);
  const std::size_t oldest = s.stale().front();
  const auto round2 = s.select(queue, empty_cloud());
  bool oldest_simulated = false;
  for (const PolicyScore& score : round2.scores)
    oldest_simulated = oldest_simulated || score.index == oldest;
  EXPECT_TRUE(oldest_simulated);
}

TEST(Selector, PoorPoliciesEventuallyResimulated) {
  // The random Poor sampling must keep exploring: across enough rounds,
  // every policy lands in Q at least once.
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(200.0, 10.0));
  const auto queue = small_queue();
  std::set<std::size_t> ever_simulated;
  for (int round = 0; round < 30; ++round) {
    const auto result = s.select(queue, empty_cloud());
    for (const PolicyScore& score : result.scores) ever_simulated.insert(score.index);
  }
  EXPECT_EQ(ever_simulated.size(), 60u);
}

TEST(Selector, LambdaOneKeepsEverythingSmart) {
  SelectorConfig config = unbounded();
  config.lambda = 1.0;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  (void)s.select(small_queue(), empty_cloud());
  EXPECT_EQ(s.smart().size(), 60u);
  EXPECT_TRUE(s.poor().empty());
}

TEST(Selector, ScoresCarryPositiveCost) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()),
                            budgeted(50.0, 5.0));
  const auto queue = small_queue();
  const auto result = s.select(queue, empty_cloud());
  for (const PolicyScore& p : result.scores) EXPECT_DOUBLE_EQ(p.cost_ms, 5.0);
}

TEST(Selector, FixedCountBudgetBuysExactlyThatManySimulations) {
  // First invocation, all 60 policies Smart: fixed_count = 12 must buy
  // exactly 12 unit-cost simulations.
  SelectorConfig config;
  config.budget_mode = BudgetMode::kFixedCount;
  config.fixed_count = 12;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  const auto queue = small_queue();
  const SelectionResult r = s.select(queue, empty_cloud());
  EXPECT_EQ(r.simulated(), 12u);
  EXPECT_DOUBLE_EQ(r.total_cost_ms, 12.0);
  for (const PolicyScore& score : r.scores) EXPECT_DOUBLE_EQ(score.cost_ms, 1.0);
}

TEST(Selector, FixedCountZeroMeansUnbounded) {
  // fixed_count = 0 simulates the whole portfolio, mirroring Delta <= 0 in
  // wallclock mode; each candidate still charges one unit.
  SelectorConfig config;
  config.budget_mode = BudgetMode::kFixedCount;
  config.fixed_count = 0;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  const auto queue = small_queue();
  const SelectionResult r = s.select(queue, empty_cloud());
  EXPECT_EQ(r.simulated(), 60u);
  EXPECT_DOUBLE_EQ(r.total_cost_ms, 60.0);
}

// ---------------------------------------------------------------------------
// Graceful degradation: throwing or budget-blowing candidates are quarantined
// to Poor, and a round with no usable score carries the last-known-good
// policy forward instead of aborting the run.

OnlineSimConfig throwing_sim_config() {
  OnlineSimConfig c = sim_config();
  c.inject_fault = validate::FaultInjection::kCandidateThrow;
  return c;
}

TEST(SelectorDegradation, ThrowingCandidatesAreQuarantinedToPoor) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(throwing_sim_config()),
                            unbounded());
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud(), 3);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.quarantined, 60u);
  EXPECT_TRUE(result.scores.empty());
  EXPECT_EQ(result.best_index, 3u);  // last-known-good carried forward
  EXPECT_DOUBLE_EQ(result.best_utility, 0.0);
  expect_partition(s, 60);
  EXPECT_EQ(s.poor().size(), 60u);  // everything demoted
}

TEST(SelectorDegradation, NoPreferredFallsBackToIndexZero) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(throwing_sim_config()),
                            unbounded());
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud());
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.best_index, 0u);
}

TEST(SelectorDegradation, SecondRoundAfterTotalQuarantineStaysDegraded) {
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(throwing_sim_config()),
                            unbounded());
  const auto queue = small_queue();
  (void)s.select(queue, empty_cloud(), 5);
  // The Poor set resimulates a sample each round; those candidates throw
  // again, and the selector must keep degrading gracefully, not crash.
  const SelectionResult again = s.select(queue, empty_cloud(), 5);
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(again.best_index, 5u);
  expect_partition(s, 60);
}

TEST(SelectorDegradation, CandidateTimeoutQuarantinesBudgetBlowers) {
  // Synthetic-only accounting: every candidate charges exactly 10 ms, so a
  // 5 ms per-candidate bound quarantines every one of them —
  // deterministically, with no wall-clock dependence.
  SelectorConfig config = budgeted(1000.0, 10.0);
  config.candidate_timeout_ms = 5.0;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud(), 2);
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(result.quarantined, 1u);
  EXPECT_TRUE(result.scores.empty());
  EXPECT_EQ(result.best_index, 2u);
  EXPECT_GT(result.total_cost_ms, 0.0);  // quarantined work still charges
}

TEST(SelectorDegradation, GenerousTimeoutQuarantinesNothing) {
  SelectorConfig config = budgeted(1000.0, 10.0);
  config.candidate_timeout_ms = 15.0;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  const auto queue = small_queue();
  const SelectionResult result = s.select(queue, empty_cloud());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_FALSE(result.scores.empty());
}

}  // namespace
}  // namespace psched::core
