#include "policy/job_selection.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(Fcfs, PriorityIsWaitTime) {
  FcfsSelection p;
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 40.0, 1, 100.0), 100.0), 60.0);
}

TEST(Lxf, PriorityIsSlowdown) {
  LxfSelection p;
  // wait 300, runtime 100 -> (300+100)/100 = 4
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 1, 100.0), 300.0), 4.0);
}

TEST(Lxf, ShortJobsGainPriorityFaster) {
  LxfSelection p;
  const double short_job = p.priority(make_queued(0, 0.0, 1, 10.0), 100.0);
  const double long_job = p.priority(make_queued(1, 0.0, 1, 1000.0), 100.0);
  EXPECT_GT(short_job, long_job);
}

TEST(Wfp3, CubesSlowdownAndScalesByWidth) {
  Wfp3Selection p;
  // (200/100)^3 * 8 = 64
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 8, 100.0), 200.0), 64.0);
}

TEST(Wfp3, PrefersWiderJobAtEqualSlowdown) {
  Wfp3Selection p;
  const double narrow = p.priority(make_queued(0, 0.0, 2, 100.0), 100.0);
  const double wide = p.priority(make_queued(1, 0.0, 32, 100.0), 100.0);
  EXPECT_GT(wide, narrow);
}

TEST(Unicef, FormulaWithLogWidth) {
  UnicefSelection p;
  // wait 400 / (log2(8)=3 * runtime 10) = 13.33...
  EXPECT_NEAR(p.priority(make_queued(0, 0.0, 8, 10.0), 400.0), 400.0 / 30.0, 1e-9);
}

TEST(Unicef, SerialJobsUseLogFloorOfOne) {
  UnicefSelection p;
  // log2(1) would be 0; the documented deviation clamps to 1.
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 1, 10.0), 100.0), 10.0);
  // procs=2 -> log2(2)=1: same divisor as serial.
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 2, 10.0), 100.0), 10.0);
}

TEST(Unicef, PrefersSmallShortJobs) {
  UnicefSelection p;
  const double small_short = p.priority(make_queued(0, 0.0, 1, 10.0), 100.0);
  const double big_long = p.priority(make_queued(1, 0.0, 32, 1000.0), 100.0);
  EXPECT_GT(small_short, big_long);
}

TEST(OrderQueue, FcfsOrdersBySubmitTime) {
  std::vector<QueuedJob> queue{make_queued(2, 30, 1, 10), make_queued(0, 10, 1, 10),
                               make_queued(1, 20, 1, 10)};
  OrderScratch scratch;
  order_queue(queue, FcfsSelection{}, 100.0, scratch);
  EXPECT_EQ(queue[0].id, 0);
  EXPECT_EQ(queue[1].id, 1);
  EXPECT_EQ(queue[2].id, 2);
}

TEST(OrderQueue, TiesBreakBySubmitThenId) {
  // Equal priorities under FCFS (same submit): id order wins.
  std::vector<QueuedJob> queue{make_queued(5, 10, 1, 10), make_queued(3, 10, 1, 10)};
  OrderScratch scratch;
  order_queue(queue, FcfsSelection{}, 100.0, scratch);
  EXPECT_EQ(queue[0].id, 3);
  EXPECT_EQ(queue[1].id, 5);
}

TEST(OrderQueue, LxfPutsShortWaitingJobFirst) {
  std::vector<QueuedJob> queue{make_queued(0, 0, 1, 10000.0),  // long job
                               make_queued(1, 50, 1, 10.0)};   // short job
  OrderScratch scratch;
  order_queue(queue, LxfSelection{}, 100.0, scratch);
  EXPECT_EQ(queue[0].id, 1);
}

TEST(OrderQueue, EmptyQueueIsFine) {
  std::vector<QueuedJob> queue;
  OrderScratch scratch;
  order_queue(queue, FcfsSelection{}, 0.0, scratch);
  EXPECT_TRUE(queue.empty());
}

TEST(JobSelectionFactory, KnownNames) {
  for (const char* name : {"FCFS", "LXF", "WFP3", "UNICEF"})
    EXPECT_EQ(make_job_selection(name)->name(), name);
}

TEST(JobSelectionFactory, UnknownThrows) {
  EXPECT_THROW((void)make_job_selection("SJF"), std::invalid_argument);
}

TEST(JobSelectionFactory, AllFourPaperOrder) {
  const auto all = all_job_selection();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->name(), "FCFS");
  EXPECT_EQ(all[1]->name(), "LXF");
  EXPECT_EQ(all[2]->name(), "UNICEF");
  EXPECT_EQ(all[3]->name(), "WFP3");
}

class AllJobSelectionTest : public testing::TestWithParam<const char*> {};

TEST_P(AllJobSelectionTest, PriorityGrowsWithWait) {
  const auto policy = make_job_selection(GetParam());
  const auto job = make_queued(0, 0.0, 4, 100.0);
  const double early = policy->priority(job, 10.0);
  const double late = policy->priority(job, 1000.0);
  EXPECT_GT(late, early);
}

TEST_P(AllJobSelectionTest, OrderingIsStableUnderPermutation) {
  const auto policy = make_job_selection(GetParam());
  std::vector<QueuedJob> a{make_queued(0, 5, 1, 10), make_queued(1, 50, 8, 1000),
                           make_queued(2, 20, 2, 100), make_queued(3, 0, 4, 30)};
  std::vector<QueuedJob> b{a[2], a[0], a[3], a[1]};
  OrderScratch scratch;
  order_queue(a, *policy, 2000.0, scratch);
  order_queue(b, *policy, 2000.0, scratch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

INSTANTIATE_TEST_SUITE_P(Policies, AllJobSelectionTest,
                         testing::Values("FCFS", "LXF", "WFP3", "UNICEF"));

}  // namespace
}  // namespace psched::policy
