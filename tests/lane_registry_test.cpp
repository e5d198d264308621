// LaneRegistry (service/lane_registry.h) — the consensus-2 lane lifecycle
// behind C2Store::open_session().
//
//  1. Native unit tests: ticket order, recycling, exhaustion, release checks.
//  2. Native stress: lanes stay exclusive under real-thread churn.
//  3. The acceptance facet: the simulated twin (svc::SimLaneRegistry — F&I
//     ticket + Algorithm 2 set, same algorithm, simulated base objects) is
//     STRONGLY linearizable against verify::LaneRegistrySpec on full bounded
//     execution trees, recycling and "none free" paths included. Every
//     operation linearizes at a fixed own-step (winning exchange / fetch&add /
//     Items write / stabilised EMPTY read), so the linearization is
//     prefix-closed — this test checks that claim mechanically.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "harness.h"
#include "runtime/stress.h"
#include "service/lane_registry.h"
#include "service/sim_bridge.h"
#include "telemetry/telemetry.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

namespace c2sl {
namespace {

// --- 1. native unit ---------------------------------------------------------

TEST(LaneRegistry, FreshTicketsAreDense) {
  svc::LaneRegistry reg(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reg.try_acquire(), i) << "fresh lanes come from the F&I dispenser in order";
  }
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
  EXPECT_EQ(reg.tickets_issued(), 4);
}

TEST(LaneRegistry, ReleasedLanesAreRecycledNotReTicketed) {
  svc::LaneRegistry reg(2);
  int a = reg.try_acquire();
  int b = reg.try_acquire();
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
  reg.release(a);
  EXPECT_EQ(reg.try_acquire(), a) << "freed lane must come back";
  reg.release(b);
  reg.release(a);
  std::set<int> again{reg.try_acquire(), reg.try_acquire()};
  EXPECT_EQ(again, (std::set<int>{0, 1}));
  EXPECT_EQ(reg.tickets_issued(), 2) << "recycling must not burn fresh tickets";
}

TEST(LaneRegistry, ReleaseValidatesTheLane) {
  svc::LaneRegistry reg(2);
  EXPECT_THROW(reg.release(-1), PreconditionError);
  EXPECT_THROW(reg.release(2), PreconditionError);
}

TEST(LaneRegistry, ExhaustedRegistryDoesNotBurnTickets) {
  svc::LaneRegistry reg(1);
  EXPECT_EQ(reg.try_acquire(), 0);
  // tickets_issued() is capped at max_lanes, so it cannot see a drifting
  // dispenser; the pre-read's guarantee is that a failed acquire draws no
  // ticket at all, i.e. issues no fetch&add.
  tel::PrimCounts before = tel::this_thread_prims();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
  if (tel::kEnabled) {
    EXPECT_EQ((tel::this_thread_prims() - before).faa, 0u)
        << "failed acquires must not drift the dispenser";
  }
  EXPECT_EQ(reg.tickets_issued(), 1);
  reg.release(0);
  EXPECT_EQ(reg.try_acquire(), 0);
}

// --- 1b. blocking acquisition (the HandoffQueue wiring) ----------------------

TEST(LaneRegistry, BlockingAcquireReturnsImmediatelyWhenALaneIsFree) {
  svc::LaneRegistry reg(2);
  EXPECT_EQ(reg.acquire_blocking(), 0);
  EXPECT_EQ(reg.acquire_blocking(), 1);
  EXPECT_EQ(reg.handoff_enqueued(), 0) << "free lanes must not touch the queue";
}

TEST(LaneRegistry, AcquireForTimesOutWhenAllLanesHeld) {
  svc::LaneRegistry reg(1);
  ASSERT_EQ(reg.try_acquire(), 0);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(reg.acquire_for(std::chrono::milliseconds(5)), svc::LaneRegistry::kNone);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(5));
  // The timed-out waiter cancelled its ticket: a release must not lose the
  // lane to the dead slot.
  reg.release(0);
  EXPECT_EQ(reg.try_acquire(), 0);
}

// Blocked acquirers are served strictly in enqueue order: the registry's
// FIFO-fairness claim. Waiters are sequenced deterministically through the
// handoff_enqueued() counter, so the test pins the ORDER, not just liveness.
TEST(LaneRegistry, BlockingAcquireIsFifoFair) {
  svc::LaneRegistry reg(1);
  ASSERT_EQ(reg.try_acquire(), 0);
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int w = 0; w < 3; ++w) {
    // Admit waiter w only after waiter w-1 is enqueued: enqueue order is then
    // exactly 0, 1, 2.
    while (reg.handoff_enqueued() < w) std::this_thread::yield();
    waiters.emplace_back([&reg, &order, w] {
      int lane = reg.acquire_blocking();
      // Safe unsynchronised push: exactly one waiter holds the lane, and the
      // release -> handoff -> acquire chain orders the pushes.
      order.push_back(w);
      reg.release(lane);
    });
  }
  while (reg.handoff_enqueued() < 3) std::this_thread::yield();
  reg.release(0);  // feed the chain: 0 -> 1 -> 2
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "handoff must serve blocked acquirers in enqueue order";
  EXPECT_EQ(reg.handoff_deliveries(), 3);
}

// --- 2. native stress -------------------------------------------------------

// Threads churn acquire/release; at every instant each lane has at most one
// owner. Ownership is tracked with per-lane atomic flags: a second owner of
// the same lane would trip the exchange check.
TEST(LaneRegistryStress, LanesStayExclusiveUnderChurn) {
  const int threads = 4;
  const int per_thread = 2000;
  const int max_lanes = 3;  // fewer lanes than threads: contention + kNone paths
  svc::LaneRegistry reg(max_lanes);
  std::vector<std::atomic<int>> owner_flag(static_cast<size_t>(max_lanes));
  for (auto& f : owner_flag) f.store(0);
  std::atomic<int> acquired{0};
  std::atomic<bool> ok{true};
  rt::run_stress(threads, per_thread, [&](int, int) {
    rt::TimedOp op;
    int lane = reg.try_acquire();
    if (lane == svc::LaneRegistry::kNone) return op;  // all held right now
    acquired.fetch_add(1);
    if (owner_flag[static_cast<size_t>(lane)].exchange(1) != 0) {
      ok.store(false);  // two concurrent owners of one lane
    }
    owner_flag[static_cast<size_t>(lane)].store(0);
    reg.release(lane);
    return op;
  });
  EXPECT_TRUE(ok.load()) << "a lane was held by two threads at once";
  EXPECT_GT(acquired.load(), 0);
  // At least one lane was dealt fresh, and never more than max_lanes.
  EXPECT_GE(reg.tickets_issued(), 1);
  EXPECT_LE(reg.tickets_issued(), max_lanes);
  // Quiescent: all lanes free again.
  std::set<int> drained;
  for (int i = 0; i < max_lanes; ++i) drained.insert(reg.try_acquire());
  EXPECT_EQ(drained, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
}

// --- 3. the sim facet: strongly linearizable --------------------------------

verify::StrongLinResult check_lanes(const sim::ScenarioFn& scenario, int n,
                                    int max_lanes, const std::string& object) {
  sim::ExploreOptions opts;
  opts.max_depth = 40;
  opts.max_nodes = 400000;
  sim::ExecTree tree = sim::explore(n, scenario, opts);
  EXPECT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::LaneRegistrySpec spec(max_lanes);
  verify::StrongLinOptions slopts;
  slopts.object = object;
  return verify::check_strong_linearizability(tree, spec, slopts);
}

// One lane, two processes: every interleaving of {fresh ticket, recycle after
// release, kNone when held} must admit a prefix-closed linearization. This is
// the configuration where acquire's linearization point matters most — P1's
// acquire races P0's release.
TEST(LaneRegistrySim, AcquireReleaseStronglyLinearizable) {
  auto scenario = [](sim::SimRun& run) {
    auto reg = std::make_shared<svc::SimLaneRegistry>(run.world, "lanes", 1);
    run.sched.spawn(0, [reg](sim::Ctx& ctx) {
      int64_t a = reg->acquire(ctx);  // fresh 0, recycled 0, or kNone — races P1
      if (a != svc::SimLaneRegistry::kNone) reg->release(ctx, a);
    });
    run.sched.spawn(1, [reg](sim::Ctx& ctx) {
      int64_t b = reg->acquire(ctx);  // fresh-loser: recycled 0 or kNone
      if (b != svc::SimLaneRegistry::kNone) reg->release(ctx, b);
    });
  };
  auto res = check_lanes(scenario, 2, 1, "lanes");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Two lanes, two processes: concurrent fresh acquires must hand out distinct
// lanes; P0 then releases and re-acquires, racing its own freed lane against
// the remaining fresh ticket. (Three processes overflow the node budget —
// acquire is ~6 gated steps, and the tree is branching^depth.)
TEST(LaneRegistrySim, ConcurrentAcquiresGetDistinctLanes) {
  auto scenario = [](sim::SimRun& run) {
    auto reg = std::make_shared<svc::SimLaneRegistry>(run.world, "lanes", 2);
    run.sched.spawn(0, [reg](sim::Ctx& ctx) {
      int64_t a = reg->acquire(ctx);
      reg->release(ctx, a);      // both fresh tickets fit two procs: a != kNone
      reg->acquire(ctx);         // recycled a or the last fresh ticket
    });
    run.sched.spawn(1, [reg](sim::Ctx& ctx) { reg->acquire(ctx); });
  };
  auto res = check_lanes(scenario, 2, 2, "lanes");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

}  // namespace
}  // namespace c2sl
