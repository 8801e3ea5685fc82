// Selector hot path (DESIGN.md §11): round-snapshot rebuilds, the arena
// fast path vs the convenience wrapper, and arena reuse across rounds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/online_sim.hpp"
#include "core/round_snapshot.hpp"
#include "core/sim_arena.hpp"
#include "util/rng.hpp"

namespace psched::core {
namespace {

OnlineSimConfig sim_config() {
  OnlineSimConfig c;
  c.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  return c;
}

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

std::vector<policy::QueuedJob> make_queue(std::size_t depth, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<policy::QueuedJob> queue;
  for (std::size_t i = 0; i < depth; ++i) {
    policy::QueuedJob q;
    q.id = static_cast<JobId>(i);
    q.submit = static_cast<double>(i) * 3.0;
    q.procs = 1 << rng.uniform_int(0, 4);
    q.predicted_runtime = rng.uniform(10.0, 2000.0);
    queue.push_back(q);
  }
  return queue;
}

cloud::CloudProfile make_profile(std::size_t vms, std::uint64_t seed) {
  cloud::CloudProfile profile;
  profile.now = 5000.0;
  profile.max_vms = 64;
  profile.boot_delay = 120.0;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < vms; ++i) {
    cloud::VmView vm;
    vm.lease_time = profile.now - rng.uniform(0.0, 3600.0);
    vm.busy = rng.bernoulli(0.5);
    vm.available_at = vm.busy ? profile.now + rng.uniform(10.0, 600.0) : profile.now;
    profile.vms.push_back(vm);
  }
  return profile;
}

/// Field-by-field bit equality of two SimOutcomes.
void expect_bit_identical(const SimOutcome& a, const SimOutcome& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.utility), std::bit_cast<std::uint64_t>(b.utility));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.avg_bounded_slowdown),
            std::bit_cast<std::uint64_t>(b.avg_bounded_slowdown));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rj_proc_seconds),
            std::bit_cast<std::uint64_t>(b.rj_proc_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rv_charged_seconds),
            std::bit_cast<std::uint64_t>(b.rv_charged_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sim_makespan),
            std::bit_cast<std::uint64_t>(b.sim_makespan));
  EXPECT_EQ(a.decisions, b.decisions);
}

TEST(RoundSnapshot, RebuildMatchesAFreshBuild) {
  // A long-lived snapshot reuses its column capacity across rounds; a
  // rebuild after a larger round must leave exactly the fresh columns.
  const auto queue = make_queue(6, 21);
  const auto profile = make_profile(4, 23);
  RoundSnapshot reused;
  reused.build(make_queue(40, 11), make_profile(20, 13));
  reused.build(queue, profile);
  RoundSnapshot fresh;
  fresh.build(queue, profile);
  EXPECT_EQ(reused.job_count(), queue.size());
  EXPECT_EQ(reused.vm_count(), profile.vms.size());
  EXPECT_EQ(reused.job_id, fresh.job_id);
  EXPECT_EQ(reused.job_predicted, fresh.job_predicted);
  EXPECT_EQ(reused.vm_available, fresh.vm_available);
  EXPECT_EQ(reused.vm_busy, fresh.vm_busy);
  // Idle VMs' availability is clamped to the snapshot instant.
  for (const SimTime t : reused.vm_available) EXPECT_GE(t, profile.now);
}

TEST(OnlineSimHotPath, FastPathMatchesWrapperApi) {
  // The snapshot/arena fast path and the allocating convenience wrapper
  // must produce bit-identical outcomes for every portfolio policy.
  const OnlineSimulator sim(sim_config());
  const auto queue = make_queue(16, 31);
  const auto profile = make_profile(10, 33);
  RoundSnapshot snapshot;
  snapshot.build(queue, profile);
  SimArena arena;
  for (const policy::PolicyTriple& policy : portfolio().policies()) {
    const SimOutcome wrapped = sim.simulate(queue, profile, policy);
    const SimOutcome fast = sim.simulate(snapshot, policy, arena);
    expect_bit_identical(wrapped, fast);
  }
}

TEST(OnlineSimHotPath, ArenaReuseAcrossRoundsIsClean) {
  // One arena reused across many rounds of different shape (growing and
  // shrinking queues/VM fleets) must match a fresh arena every time — this
  // is the stale-state tripwire, and under the asan-ubsan preset it also
  // proves the reset path frees/reuses memory correctly.
  const OnlineSimulator sim(sim_config());
  SimArena reused;
  for (std::uint64_t round = 0; round < 12; ++round) {
    const auto queue = make_queue(1 + (round * 7) % 40, 100 + round);
    const auto profile = make_profile((round * 5) % 20, 200 + round);
    RoundSnapshot snapshot;
    snapshot.build(queue, profile);
    const auto& policy = portfolio().policies()[round % portfolio().size()];
    SimArena fresh;
    expect_bit_identical(sim.simulate(snapshot, policy, fresh),
                         sim.simulate(snapshot, policy, reused));
  }
}

}  // namespace
}  // namespace psched::core
