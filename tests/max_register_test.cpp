// Theorem 1 (paper §3.1): the fetch&add max register is wait-free and
// (strongly) linearizable. This file covers sequential semantics, randomized-
// schedule linearizability sweeps across n/seeds/crash injection, wait-freedom
// step bounds, and the §6 register-width observation. Strong-linearizability
// model checks live in strong_lin_positive_test.cpp.
#include "core/max_register_faa.h"

#include <gtest/gtest.h>

#include "core/max_register_variants.h"
#include "harness.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using testing::ObjectFactory;
using testing::OpGen;
using testing::WorkloadOptions;

ObjectFactory faa_factory() {
  return [](sim::World& w, int n) {
    return std::make_shared<core::MaxRegisterFAA>(w, "maxreg", n);
  };
}

OpGen write_read_mix(int64_t max_value) {
  return [max_value](int, int, Rng& rng) {
    if (rng.next_bool(0.5)) {
      return verify::Invocation{"WriteMax", num(rng.next_in(0, max_value)), -1};
    }
    return verify::Invocation{"ReadMax", unit(), -1};
  };
}

TEST(MaxRegisterFAA, SequentialSemantics) {
  sim::World world;
  core::MaxRegisterFAA m(world, "m", 3);
  sim::Ctx solo;
  solo.world = &world;
  solo.self = 0;
  EXPECT_EQ(m.read_max(solo), 0);
  m.write_max(solo, 5);
  EXPECT_EQ(m.read_max(solo), 5);
  m.write_max(solo, 3);  // smaller: no effect
  EXPECT_EQ(m.read_max(solo), 5);
  m.write_max(solo, 9);
  EXPECT_EQ(m.read_max(solo), 9);
}

TEST(MaxRegisterFAA, PerProcessLanesCombine) {
  sim::World world;
  core::MaxRegisterFAA m(world, "m", 3);
  sim::Ctx c0, c1, c2;
  c0.world = c1.world = c2.world = &world;
  c0.self = 0;
  c1.self = 1;
  c2.self = 2;
  m.write_max(c0, 4);
  m.write_max(c1, 7);
  m.write_max(c2, 2);
  EXPECT_EQ(m.read_max(c0), 7);
  m.write_max(c2, 11);
  EXPECT_EQ(m.read_max(c1), 11);
}

TEST(MaxRegisterFAA, RejectsNegativeValues) {
  sim::World world;
  core::MaxRegisterFAA m(world, "m", 2);
  sim::Ctx solo;
  solo.world = &world;
  EXPECT_THROW(m.write_max(solo, -1), PreconditionError);
}

// Randomized-schedule linearizability sweep (the paper's claim is strong
// linearizability, which implies this; the sweep covers much bigger configs
// than the exhaustive model check can).
TEST(MaxRegisterFAA, LinearizableUnderRandomSchedules) {
  verify::MaxRegisterSpec spec;
  for (int n : {2, 3, 4}) {
    WorkloadOptions opts;
    opts.n = n;
    opts.ops_per_proc = 4;
    EXPECT_TRUE(testing::lin_sweep(faa_factory(), write_read_mix(20), spec, opts,
                                   /*num_seeds=*/40, "maxreg"))
        << "n=" << n;
  }
}

TEST(MaxRegisterFAA, LinearizableUnderCrashes) {
  verify::MaxRegisterSpec spec;
  WorkloadOptions opts;
  opts.n = 3;
  opts.ops_per_proc = 3;
  opts.crash_prob = 0.02;
  opts.max_crashes = 2;
  EXPECT_TRUE(testing::lin_sweep(faa_factory(), write_read_mix(10), spec, opts,
                                 /*num_seeds=*/40, "maxreg"));
}

// Wait-freedom: every operation is exactly ONE base-object step regardless of
// contention (the strongest possible step bound). Every write here raises its
// caller's value (the first is 1 + self, not self: a WriteMax(0) is a no-op
// write, covered by NoOpWriteTakesNoStep below).
TEST(MaxRegisterFAA, EveryOperationIsOneStep) {
  sim::SimRun run(3);
  auto obj = std::make_shared<core::MaxRegisterFAA>(run.world, "m", 3);
  std::vector<uint64_t> per_op_steps;
  for (int p = 0; p < 3; ++p) {
    run.sched.spawn(p, [obj, &per_op_steps](sim::Ctx& ctx) {
      for (int j = 0; j < 5; ++j) {
        uint64_t before = ctx.steps_taken;
        if (j % 2 == 0) {
          obj->write_max(ctx, 3 * j + ctx.self + 1);
        } else {
          obj->read_max(ctx);
        }
        per_op_steps.push_back(ctx.steps_taken - before);
      }
    });
  }
  sim::RandomStrategy strategy(11);
  run.sched.run(strategy, 10000);
  ASSERT_EQ(per_op_steps.size(), 15u);
  for (uint64_t s : per_op_steps) EXPECT_EQ(s, 1u);
}

// A write no larger than the caller's previous local maximum cannot change the
// state and takes NO step: §3.1's fetch&add(R, 0) there is "not needed for
// correctness". It linearizes at its invocation (docs/PROOFS.md). Raising
// writes and reads stay one step each, and the register value is unchanged.
TEST(MaxRegisterFAA, NoOpWriteTakesNoStep) {
  sim::SimRun run(2);
  auto obj = std::make_shared<core::MaxRegisterFAA>(run.world, "m", 2);
  std::vector<uint64_t> steps;
  std::vector<int64_t> reads;
  run.sched.spawn(0, [obj, &steps, &reads](sim::Ctx& ctx) {
    auto count = [&](auto&& op) {
      uint64_t before = ctx.steps_taken;
      op();
      steps.push_back(ctx.steps_taken - before);
    };
    count([&] { obj->write_max(ctx, 0); });  // no-op: initial maximum is 0
    count([&] { obj->write_max(ctx, 5); });  // raises
    count([&] { obj->write_max(ctx, 2); });  // no-op: below own maximum
    count([&] { obj->write_max(ctx, 5); });  // no-op: equal to own maximum
    count([&] { reads.push_back(obj->read_max(ctx)); });
    count([&] { obj->write_max(ctx, 6); });  // raises
  });
  sim::RandomStrategy strategy(3);
  run.sched.run(strategy, 100);
  EXPECT_EQ(steps, (std::vector<uint64_t>{0, 1, 0, 0, 1, 1}));
  EXPECT_EQ(reads, (std::vector<int64_t>{5}));
}

// Wait-freedom under starvation: once the victim IS scheduled, its operation
// completes within its own step bound (here: the single fetch&add).
TEST(MaxRegisterFAA, VictimCompletesOnceScheduled) {
  sim::SimRun run(3);
  auto obj = std::make_shared<core::MaxRegisterFAA>(run.world, "m", 3);
  bool victim_done = false;
  run.sched.spawn(0, [obj, &victim_done](sim::Ctx& ctx) {
    obj->write_max(ctx, 42);
    victim_done = true;
  });
  for (int p = 1; p < 3; ++p) {
    run.sched.spawn(p, [obj](sim::Ctx& ctx) {
      for (int j = 0; j < 20; ++j) obj->write_max(ctx, j);
    });
  }
  sim::StarveStrategy starve(/*victim=*/0, /*seed=*/3);
  run.sched.run(starve, 10000);
  EXPECT_TRUE(victim_done);  // starvation delays but cannot prevent completion
}

// §6: the unary encoding makes the register width grow with n * max-value —
// the price of the construction the Discussion highlights as an open problem.
TEST(MaxRegisterFAA, RegisterWidthGrowsUnary) {
  sim::World world;
  core::MaxRegisterFAA m(world, "m", 4);
  sim::Ctx solo;
  solo.world = &world;
  solo.self = 2;
  m.write_max(solo, 100);
  uint64_t bits = m.register_bits(solo);
  // Lane bit 99 of process 2 with n == 4 sits at global position 99*4+2.
  EXPECT_EQ(bits, 99u * 4 + 2 + 1);
}

// The bounded register-based variant agrees with the FAA variant on random
// sequential workloads (differential test).
TEST(MaxRegisterVariants, BoundedTreeMatchesFAASequentially) {
  sim::World world;
  core::MaxRegisterFAA faa(world, "faa", 2);
  core::BoundedRWMaxRegister tree(world, "tree", 64);
  core::AtomicMaxRegister atomic(world, "atomic");
  sim::Ctx solo;
  solo.world = &world;
  Rng rng(77);
  for (int step = 0; step < 300; ++step) {
    solo.self = static_cast<int>(rng.next_below(2));
    int64_t v = rng.next_in(0, 63);
    faa.write_max(solo, v);
    tree.write_max(solo, v);
    atomic.write_max(solo, v);
    ASSERT_EQ(faa.read_max(solo), tree.read_max(solo));
    ASSERT_EQ(faa.read_max(solo), atomic.read_max(solo));
  }
}

TEST(MaxRegisterVariants, BoundedTreeLinearizableUnderRandomSchedules) {
  verify::MaxRegisterSpec spec;
  ObjectFactory factory = [](sim::World& w, int) {
    return std::make_shared<core::BoundedRWMaxRegister>(w, "maxreg", 32);
  };
  WorkloadOptions opts;
  opts.n = 3;
  opts.ops_per_proc = 3;
  EXPECT_TRUE(testing::lin_sweep(factory, write_read_mix(31), spec, opts,
                                 /*num_seeds=*/40, "maxreg"));
}

TEST(MaxRegisterVariants, CollectLinearizableUnderRandomSchedules) {
  verify::MaxRegisterSpec spec;
  ObjectFactory factory = [](sim::World& w, int n) {
    return std::make_shared<core::CollectMaxRegister>(w, "maxreg", n);
  };
  WorkloadOptions opts;
  opts.n = 3;
  opts.ops_per_proc = 3;
  EXPECT_TRUE(testing::lin_sweep(factory, write_read_mix(16), spec, opts,
                                 /*num_seeds=*/40, "maxreg"));
}

// Parameterized sweep: linearizability across (n, value range) combinations.
class MaxRegisterSweep : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(MaxRegisterSweep, Linearizable) {
  auto [n, range] = GetParam();
  verify::MaxRegisterSpec spec;
  WorkloadOptions opts;
  opts.n = n;
  opts.ops_per_proc = 3;
  EXPECT_TRUE(testing::lin_sweep(faa_factory(), write_read_mix(range), spec, opts,
                                 /*num_seeds=*/15, "maxreg"));
}

INSTANTIATE_TEST_SUITE_P(Configs, MaxRegisterSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(int64_t{3}, int64_t{50})));

}  // namespace
}  // namespace c2sl
