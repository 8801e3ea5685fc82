#include "policy/allocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

namespace psched::policy {
namespace {

QueuedJob make_queued(JobId id, double submit, int procs, double predicted) {
  QueuedJob q;
  q.id = id;
  q.submit = submit;
  q.procs = procs;
  q.predicted_runtime = predicted;
  return q;
}

VmAvail idle_vm(VmId id, SimTime now, SimTime lease = 0.0) {
  return VmAvail{id, lease, now};
}

VmAvail busy_vm(VmId id, SimTime free_at, SimTime lease = 0.0) {
  return VmAvail{id, lease, free_at};
}

const FirstFit kFirstFit;

AllocationPlan plan_for(SimTime now, std::span<const QueuedJob> queue,
                        std::span<const VmAvail> vms, AllocationMode mode) {
  AllocationPlan plan;
  AllocationScratch scratch;
  plan_allocation_into(now, queue, vms, kFirstFit, mode, kSecondsPerHour, plan, scratch);
  return plan;
}

std::set<VmId> vms_of(const AllocationPlan& plan) {
  std::set<VmId> ids;
  for (const auto& start : plan.starts)
    for (const VmId id : plan.vms_of(start)) ids.insert(id);
  return ids;
}

std::vector<VmId> vms_at(const AllocationPlan& plan, std::size_t i) {
  const std::span<const VmId> ids = plan.vms_of(plan.starts[i]);
  return {ids.begin(), ids.end()};
}

TEST(PlanHeadOfLine, ServesPrefixWhileFitting) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 2, 100), make_queued(1, 1, 1, 100),
                                     make_queued(2, 2, 1, 100)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), idle_vm(2, 10)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kHeadOfLine);
  ASSERT_EQ(plan.starts.size(), 2u);  // 2+1 fit; third job lacks a VM
  EXPECT_EQ(plan.starts[0].queue_index, 0u);
  EXPECT_EQ(plan.starts[1].queue_index, 1u);
  EXPECT_EQ(vms_of(plan).size(), 3u);
}

TEST(PlanHeadOfLine, StopsAtFirstUnfitEvenIfLaterFit) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 4, 100),   // too wide
                                     make_queued(1, 1, 1, 100)};  // would fit
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kHeadOfLine);
  EXPECT_TRUE(plan.empty());  // no backfilling in the paper's mode
}

TEST(PlanHeadOfLine, NoVmsNoStarts) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 1, 100)};
  const auto plan = plan_for(10.0, queue, {}, AllocationMode::kHeadOfLine);
  EXPECT_TRUE(plan.empty());
}

TEST(PlanHeadOfLine, EachVmUsedAtMostOnce) {
  std::vector<QueuedJob> queue;
  for (int i = 0; i < 6; ++i) queue.push_back(make_queued(i, i, 2, 50));
  std::vector<VmAvail> vms;
  for (VmId v = 0; v < 7; ++v) vms.push_back(idle_vm(v, 0));
  const auto plan = plan_for(0.0, queue, vms, AllocationMode::kHeadOfLine);
  ASSERT_EQ(plan.starts.size(), 3u);  // 3 x 2 VMs, seventh idle VM insufficient
  EXPECT_EQ(vms_of(plan).size(), 6u);
}

TEST(PlanEasy, BackfillsShortJobBehindBlockedHead) {
  // Head needs 2; one idle + one busy until 500. A 1-wide job that finishes
  // before 500 may run now on the idle VM.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 2, 1000),
                                     make_queued(1, 1, 1, 200)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), busy_vm(1, 500.0)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.starts.size(), 1u);
  EXPECT_EQ(plan.starts[0].queue_index, 1u);
  EXPECT_EQ(vms_at(plan, 0), std::vector<VmId>{0});
}

TEST(PlanEasy, RefusesBackfillThatWouldDelayHead) {
  // Same as above, but the backfill candidate runs past the reservation
  // (500) and there are no extra VMs: it must wait.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 2, 1000),
                                     make_queued(1, 1, 1, 800)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), busy_vm(1, 500.0)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  EXPECT_TRUE(plan.empty());
}

TEST(PlanEasy, LongBackfillAllowedOnExtraVms) {
  // Head needs 3; 2 idle + one busy VM free at 450 -> shadow 450, extra 0:
  // a never-ending 1-wide job may NOT backfill.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 3, 1000),
                                     make_queued(1, 1, 1, 9999)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), busy_vm(2, 450.0)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  EXPECT_TRUE(plan.empty());

  // A second busy VM also free at the 450 s shadow makes 4 VMs available
  // then: one is "extra" beyond the head's need, so the long job backfills.
  std::vector<VmAvail> vms4 = vms;
  vms4.push_back(busy_vm(3, 450.0));
  const auto plan4 = plan_for(10.0, queue, vms4, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan4.starts.size(), 1u);
  EXPECT_EQ(plan4.starts[0].queue_index, 1u);
}

TEST(PlanEasy, ExtraBudgetIsConsumed) {
  // One extra VM at the shadow, two long 1-wide candidates: only the first
  // may start; the second would eat into the head's reservation.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 4, 1000),
                                     make_queued(1, 1, 1, 9999),
                                     make_queued(2, 2, 1, 9999)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), idle_vm(2, 10),
                                 busy_vm(3, 500.0), busy_vm(4, 500.0)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.starts.size(), 1u);
  EXPECT_EQ(plan.starts[0].queue_index, 1u);
}

TEST(PlanEasy, NoReservationWhenFleetTooSmall) {
  // Head wider than the whole fleet: no reservation; nothing backfills
  // (starvation protection).
  const std::vector<QueuedJob> queue{make_queued(0, 0, 8, 100),
                                     make_queued(1, 1, 1, 10)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  EXPECT_TRUE(plan.empty());
}

TEST(PlanEasy, MultipleBackfillsWithinWindow) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 3, 1000),
                                     make_queued(1, 1, 1, 100),
                                     make_queued(2, 2, 1, 100)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), busy_vm(2, 500.0)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.starts.size(), 2u);  // both short jobs finish by the 500 s shadow
  EXPECT_EQ(plan.starts[0].queue_index, 1u);
  EXPECT_EQ(plan.starts[1].queue_index, 2u);
}

TEST(PlanEasy, PrefixServedBeforeBackfillDecisions) {
  // First job fits and is served normally; the *second* becomes the blocked
  // head; the third backfills around it.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 1, 300),
                                     make_queued(1, 1, 3, 1000),
                                     make_queued(2, 2, 1, 100)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), busy_vm(2, 800.0)};
  const auto plan = plan_for(10.0, queue, vms, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.starts.size(), 2u);
  EXPECT_EQ(plan.starts[0].queue_index, 0u);
  EXPECT_EQ(plan.starts[1].queue_index, 2u);
}

class BothModesTest : public testing::TestWithParam<AllocationMode> {};

TEST_P(BothModesTest, PlanNeverOversubscribesVms) {
  std::vector<QueuedJob> queue;
  for (int i = 0; i < 12; ++i)
    queue.push_back(make_queued(i, i, 1 + (i * 3) % 5, 50.0 + 400.0 * (i % 3)));
  std::vector<VmAvail> vms;
  for (VmId v = 0; v < 10; ++v)
    vms.push_back(v % 3 == 0 ? busy_vm(v, 200.0 + 100.0 * static_cast<double>(v))
                             : idle_vm(v, 10));
  const auto plan = plan_for(10.0, queue, vms, GetParam());
  std::set<VmId> used;
  for (const auto& start : plan.starts) {
    const auto& job = queue[start.queue_index];
    EXPECT_EQ(plan.vms_of(start).size(), static_cast<std::size_t>(job.procs));
    for (const VmId id : plan.vms_of(start)) {
      EXPECT_TRUE(used.insert(id).second) << "VM " << id << " double-booked";
      // Only idle-now VMs may be used for immediate starts.
      const auto it = std::find_if(vms.begin(), vms.end(),
                                   [id](const VmAvail& vm) { return vm.id == id; });
      ASSERT_NE(it, vms.end());
      EXPECT_LE(it->available_at, 10.0);
    }
  }
}

TEST_P(BothModesTest, EmptyQueueEmptyPlan) {
  const std::vector<VmAvail> vms{idle_vm(0, 0)};
  EXPECT_TRUE(plan_for(0.0, {}, vms, GetParam()).empty());
}

TEST_P(BothModesTest, NoIdleVmEmptyPlan) {
  // The engine skips ordering and planning when no VM is idle; that is
  // exact only because the plan is then empty whatever the queue holds.
  std::vector<QueuedJob> queue;
  for (int i = 0; i < 8; ++i)
    queue.push_back(make_queued(i, i, 1 + i % 3, i % 2 == 0 ? 5.0 : 5000.0));
  std::vector<VmAvail> vms;
  for (VmId v = 0; v < 12; ++v)
    vms.push_back(busy_vm(v, 10.0 + 1e-6 + 50.0 * static_cast<double>(v % 4)));
  EXPECT_TRUE(plan_for(10.0, queue, vms, GetParam()).empty());
  EXPECT_TRUE(plan_for(10.0, queue, {}, GetParam()).empty());
  // A wide blocked head with enough busy VMs for a reservation: still
  // nothing backfills without an idle VM.
  queue.insert(queue.begin(), make_queued(99, 0, 6, 100));
  EXPECT_TRUE(plan_for(10.0, queue, vms, GetParam()).empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, BothModesTest,
                         testing::Values(AllocationMode::kHeadOfLine,
                                         AllocationMode::kEasyBackfill));

}  // namespace
}  // namespace psched::policy
