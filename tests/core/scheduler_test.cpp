#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace psched::core {
namespace {

// The scheduler borrows its portfolio: a temporary must not compile.
static_assert(!std::is_constructible_v<PortfolioScheduler, policy::Portfolio,
                                       PortfolioSchedulerConfig>);
static_assert(std::is_constructible_v<PortfolioScheduler, const policy::Portfolio&,
                                      PortfolioSchedulerConfig>);

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

cloud::CloudProfile empty_cloud(SimTime now = 0.0) {
  cloud::CloudProfile p;
  p.now = now;
  p.max_vms = 256;
  p.boot_delay = 120.0;
  return p;
}

std::vector<policy::QueuedJob> one_job_queue() {
  policy::QueuedJob q;
  q.id = 0;
  q.submit = 0.0;
  q.procs = 2;
  q.predicted_runtime = 100.0;
  return {q};
}

PortfolioSchedulerConfig config_with_period(std::uint64_t period) {
  PortfolioSchedulerConfig c;
  c.selector.time_constraint_ms = 0.0;
  c.online_sim.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  c.selection_period_ticks = period;
  return c;
}

TEST(SinglePolicyScheduler, AlwaysReturnsItsPolicy) {
  const policy::PolicyTriple triple = portfolio().policies()[7];
  SinglePolicyScheduler s(triple);
  EXPECT_EQ(s.name(), triple.name());
  const auto queue = one_job_queue();
  for (std::uint64_t tick = 0; tick < 5; ++tick)
    EXPECT_EQ(s.policy_for_tick(tick, queue, empty_cloud()).name(), triple.name());
}

TEST(PortfolioScheduler, SelectsOnFirstNonEmptyTick) {
  PortfolioScheduler s(portfolio(), config_with_period(1));
  EXPECT_EQ(s.reflection().invocations(), 0u);
  (void)s.policy_for_tick(0, one_job_queue(), empty_cloud());
  EXPECT_EQ(s.reflection().invocations(), 1u);
}

TEST(PortfolioScheduler, EmptyQueueSkipsSelection) {
  PortfolioScheduler s(portfolio(), config_with_period(1));
  (void)s.policy_for_tick(0, {}, empty_cloud());
  EXPECT_EQ(s.reflection().invocations(), 0u);
}

TEST(PortfolioScheduler, SelectionPeriodThrottlesInvocations) {
  PortfolioScheduler s(portfolio(), config_with_period(4));
  const auto queue = one_job_queue();
  for (std::uint64_t tick = 0; tick < 12; ++tick)
    (void)s.policy_for_tick(tick, queue, empty_cloud(20.0 * tick));
  // Selections at ticks 0, 4, 8 -> 3 invocations.
  EXPECT_EQ(s.reflection().invocations(), 3u);
}

TEST(PortfolioScheduler, DeferredSelectionHappensAtNextNonEmptyTick) {
  PortfolioScheduler s(portfolio(), config_with_period(4));
  (void)s.policy_for_tick(0, {}, empty_cloud());      // due but empty
  (void)s.policy_for_tick(1, {}, empty_cloud(20.0));  // still empty
  (void)s.policy_for_tick(2, one_job_queue(), empty_cloud(40.0));
  EXPECT_EQ(s.reflection().invocations(), 1u);
  // The next selection is period ticks after the deferred one (tick 6).
  (void)s.policy_for_tick(5, one_job_queue(), empty_cloud(100.0));
  EXPECT_EQ(s.reflection().invocations(), 1u);
  (void)s.policy_for_tick(6, one_job_queue(), empty_cloud(120.0));
  EXPECT_EQ(s.reflection().invocations(), 2u);
}

TEST(PortfolioScheduler, BetweenSelectionsPolicyIsSticky) {
  PortfolioScheduler s(portfolio(), config_with_period(8));
  const auto queue = one_job_queue();
  const auto selected = s.policy_for_tick(0, queue, empty_cloud());
  for (std::uint64_t tick = 1; tick < 8; ++tick) {
    EXPECT_EQ(s.policy_for_tick(tick, queue, empty_cloud(20.0 * tick)).name(),
              selected.name());
  }
}

TEST(PortfolioScheduler, ReflectionCountsChosenPolicy) {
  PortfolioScheduler s(portfolio(), config_with_period(1));
  (void)s.policy_for_tick(0, one_job_queue(), empty_cloud());
  std::size_t total = 0;
  for (const auto count : s.reflection().chosen_counts()) total += count;
  EXPECT_EQ(total, 1u);
}

std::vector<policy::QueuedJob> wide_queue(int jobs, int procs) {
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < jobs; ++i) {
    policy::QueuedJob q;
    q.id = i;
    q.submit = 0.0;
    q.procs = procs;
    q.predicted_runtime = 100.0;
    queue.push_back(q);
  }
  return queue;
}

TEST(PortfolioScheduler, OnChangeTriggerSkipsStableWorkload) {
  PortfolioSchedulerConfig config = config_with_period(1);
  config.trigger = SelectionTrigger::kOnChange;
  config.max_stale_ticks = 1000;
  PortfolioScheduler s(portfolio(), config);
  // Identical problem instance at every tick: selection runs exactly once.
  const auto queue = one_job_queue();
  for (std::uint64_t tick = 0; tick < 20; ++tick)
    (void)s.policy_for_tick(tick, queue, empty_cloud(20.0 * tick));
  EXPECT_EQ(s.reflection().invocations(), 1u);
}

TEST(PortfolioScheduler, OnChangeTriggerFiresOnWorkloadChange) {
  PortfolioSchedulerConfig config = config_with_period(1);
  config.trigger = SelectionTrigger::kOnChange;
  config.max_stale_ticks = 1000;
  PortfolioScheduler s(portfolio(), config);
  (void)s.policy_for_tick(0, one_job_queue(), empty_cloud());
  (void)s.policy_for_tick(1, one_job_queue(), empty_cloud(20.0));  // unchanged
  EXPECT_EQ(s.reflection().invocations(), 1u);
  (void)s.policy_for_tick(2, wide_queue(10, 8), empty_cloud(40.0));  // burst!
  EXPECT_EQ(s.reflection().invocations(), 2u);
}

TEST(PortfolioScheduler, OnChangeStalenessSafetyNet) {
  PortfolioSchedulerConfig config = config_with_period(1);
  config.trigger = SelectionTrigger::kOnChange;
  config.max_stale_ticks = 5;
  PortfolioScheduler s(portfolio(), config);
  const auto queue = one_job_queue();
  for (std::uint64_t tick = 0; tick < 11; ++tick)
    (void)s.policy_for_tick(tick, queue, empty_cloud(20.0 * tick));
  // Selections at ticks 0, 5, 10 despite the unchanged workload.
  EXPECT_EQ(s.reflection().invocations(), 3u);
}

TEST(PortfolioScheduler, ReflectionHintsAreAccepted) {
  PortfolioSchedulerConfig config = config_with_period(1);
  config.use_reflection_hints = true;
  config.selector.time_constraint_ms = 30.0;  // tight: 3 policies/round
  config.selector.synthetic_overhead_ms = 10.0;
  config.selector.use_measured_cost = false;
  // Sticky ties so a re-hinted incumbent that still ties-best re-wins
  // (random tie-breaking would spread wins across the tied trio).
  config.selector.tie_break = TieBreak::kSticky;
  PortfolioScheduler s(portfolio(), config);
  const auto queue = one_job_queue();
  for (std::uint64_t tick = 0; tick < 10; ++tick)
    (void)s.policy_for_tick(tick, queue, empty_cloud(20.0 * tick));
  EXPECT_EQ(s.reflection().invocations(), 10u);
  // The same context recurs, so the previous winner is hinted and re-wins:
  // after warmup, chosen_counts should concentrate.
  std::size_t max_count = 0;
  for (const auto count : s.reflection().chosen_counts())
    max_count = std::max(max_count, count);
  EXPECT_GE(max_count, 5u);
}

TEST(ReflectionStore, TopForContextRanksByWins) {
  ReflectionStore store(8);
  SelectionResult r;
  r.scores.push_back(PolicyScore{0, 1.0, 1.0});
  r.best_index = 3;
  store.record(0.0, r, /*context=*/42);
  store.record(1.0, r, 42);
  r.best_index = 5;
  store.record(2.0, r, 42);
  r.best_index = 7;
  store.record(3.0, r, 99);  // different context

  const auto top = store.top_for_context(42, 8);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 5u);
  EXPECT_TRUE(store.top_for_context(1234, 4).empty());
  EXPECT_EQ(store.top_for_context(42, 1).size(), 1u);
}

TEST(ReflectionStore, RatiosSumToOne) {
  ReflectionStore store(4);
  SelectionResult r;
  r.best_index = 2;
  r.best_utility = 1.0;
  r.scores.push_back(PolicyScore{2, 1.0, 0.5});
  store.record(0.0, r);
  r.best_index = 1;
  store.record(1.0, r);
  store.record(2.0, r);
  const auto ratios = store.invocation_ratios();
  EXPECT_DOUBLE_EQ(ratios[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ratios[2], 1.0 / 3.0);
  double sum = 0.0;
  for (const double x : ratios) sum += x;
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(ReflectionStore, HistoryBounded) {
  ReflectionStore store(2, /*max_history=*/3);
  SelectionResult r;
  r.best_index = 0;
  r.scores.push_back(PolicyScore{0, 1.0, 1.0});
  for (int i = 0; i < 10; ++i) store.record(i, r);
  EXPECT_EQ(store.history().size(), 3u);
  EXPECT_EQ(store.invocations(), 10u);
}

TEST(ReflectionStore, TracksCostAndSimulatedMeans) {
  ReflectionStore store(2);
  SelectionResult r;
  r.best_index = 0;
  r.total_cost_ms = 30.0;
  r.scores = {PolicyScore{0, 1.0, 10.0}, PolicyScore{1, 0.5, 20.0}};
  store.record(0.0, r);
  store.record(1.0, r);
  EXPECT_DOUBLE_EQ(store.total_cost_ms(), 60.0);
  EXPECT_DOUBLE_EQ(store.mean_simulated_per_invocation(), 2.0);
}

}  // namespace
}  // namespace psched::core
