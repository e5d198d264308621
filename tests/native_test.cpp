// Real std::thread stress tests of the native (bounded, 64-bit lane)
// constructions, with post-hoc linearizability checking of the recorded
// histories and semantic invariant checks at higher volume.
#include <gtest/gtest.h>

#include <set>

#include "runtime/native_max_register.h"
#include "runtime/native_snapshot.h"
#include "runtime/native_tas_family.h"
#include "runtime/stress.h"
#include "telemetry/prim_profile.h"
#include "util/rng.h"
#include "verify/lin_checker.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

std::vector<sim::OpRecord> to_records(const std::vector<rt::TimedOp>& ops) {
  std::vector<sim::OpRecord> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const rt::TimedOp& t = ops[i];
    sim::OpRecord r;
    r.id = static_cast<sim::OpId>(i);
    r.proc = t.thread;
    r.object = "native";
    r.name = t.name;
    r.args = num(t.arg);
    r.complete = true;
    if (t.name == "WriteMax" || t.name == "Update") {
      r.resp = unit();
    } else if (t.name == "Scan") {
      r.resp = unit();  // filled by caller when needed
    } else {
      r.resp = num(t.resp);
    }
    r.inv_seq = t.inv_seq;
    r.resp_seq = t.resp_seq;
    out.push_back(std::move(r));
  }
  return out;
}

TEST(NativeMaxRegister, StressHistoriesLinearizable) {
  const int threads = 3;
  const int ops = 5;  // 15 ops total: within the checker's 64-op limit
  for (int round = 0; round < 8; ++round) {
    rt::NativeMaxRegister64 reg(threads, 10);
    std::vector<Rng> rngs;
    for (int t = 0; t < threads; ++t) rngs.emplace_back(1000 * round + t);
    auto history = rt::run_stress(threads, ops, [&](int t, int) {
      rt::TimedOp op;
      if (rngs[static_cast<size_t>(t)].next_bool(0.5)) {
        op.name = "WriteMax";
        op.arg = rngs[static_cast<size_t>(t)].next_in(0, 10);
        reg.write_max(t, op.arg);
      } else {
        op.name = "ReadMax";
        op.resp = reg.read_max();
      }
      return op;
    });
    verify::MaxRegisterSpec spec;
    auto records = to_records(history);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeMaxRegister, MonotoneReadsHighVolume) {
  const int threads = 4;
  rt::NativeMaxRegister64 reg(threads, 15);
  std::vector<std::atomic<int64_t>> last_read(threads);
  std::atomic<bool> monotone{true};
  rt::run_stress(threads, 2000, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 3 == 0) {
      op.name = "WriteMax";
      op.arg = (j / 3) % 16;
      reg.write_max(t, op.arg);
    } else {
      op.name = "ReadMax";
      op.resp = reg.read_max();
      int64_t prev = last_read[static_cast<size_t>(t)].exchange(op.resp);
      if (op.resp < prev) monotone.store(false);
    }
    return op;
  });
  // Per-thread sequential reads of a max register can never decrease.
  EXPECT_TRUE(monotone.load());
}

TEST(NativeSnapshot, StressHistoriesLinearizable) {
  const int threads = 3;
  const int ops = 5;
  for (int round = 0; round < 8; ++round) {
    rt::NativeSnapshot64 snap(threads, 4);  // 3 lanes x 4 bits
    std::vector<Rng> rngs;
    for (int t = 0; t < threads; ++t) rngs.emplace_back(2000 * round + t);
    std::vector<std::vector<int64_t>> scan_results(
        static_cast<size_t>(threads * ops));
    std::atomic<int> scan_idx{0};
    std::vector<rt::TimedOp> raw = rt::run_stress(threads, ops, [&](int t, int) {
      rt::TimedOp op;
      if (rngs[static_cast<size_t>(t)].next_bool(0.5)) {
        op.name = "Update";
        op.arg = rngs[static_cast<size_t>(t)].next_in(0, 15);
        snap.update(t, op.arg);
      } else {
        op.name = "Scan";
        int slot = scan_idx.fetch_add(1);
        scan_results[static_cast<size_t>(slot)] = snap.scan();
        op.arg = slot;
      }
      return op;
    });
    // Build records with vector responses for scans.
    std::vector<sim::OpRecord> records;
    for (size_t i = 0; i < raw.size(); ++i) {
      sim::OpRecord r;
      r.id = static_cast<sim::OpId>(i);
      r.proc = raw[i].thread;
      r.object = "snap";
      r.name = raw[i].name;
      r.args = num(raw[i].arg);
      r.complete = true;
      r.inv_seq = raw[i].inv_seq;
      r.resp_seq = raw[i].resp_seq;
      r.resp = raw[i].name == "Scan"
                   ? vec(scan_results[static_cast<size_t>(raw[i].arg)])
                   : unit();
      if (raw[i].name == "Scan") r.args = unit();
      records.push_back(std::move(r));
    }
    verify::SnapshotSpec spec(threads);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeReadableTAS, ExactlyOneWinnerHighVolume) {
  for (int round = 0; round < 50; ++round) {
    rt::NativeReadableTAS tas;
    std::atomic<int> winners{0};
    rt::run_stress(4, 1, [&](int, int) {
      rt::TimedOp op;
      op.name = "TAS";
      op.resp = tas.test_and_set();
      if (op.resp == 0) winners.fetch_add(1);
      return op;
    });
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(tas.read(), 1);
  }
}

TEST(NativeFetchIncrement, DistinctDenseValuesHighVolume) {
  const int threads = 4;
  const int per_thread = 500;
  rt::NativeFetchIncrement fai;  // unbounded: crosses several segment doublings
  std::vector<std::vector<int64_t>> got(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int) {
    rt::TimedOp op;
    op.name = "FAI";
    op.resp = fai.fetch_and_increment();
    got[static_cast<size_t>(t)].push_back(op.resp);
    return op;
  });
  std::set<int64_t> all;
  for (const auto& v : got) {
    for (int64_t x : v) {
      EXPECT_TRUE(all.insert(x).second) << "duplicate " << x;
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(threads * per_thread));
  EXPECT_EQ(*all.rbegin(), threads * per_thread - 1);  // dense range
  EXPECT_EQ(fai.read(), threads * per_thread);
}

// Parked rounds start the recorded history at a nonzero value, so every search
// starts from a nonzero hint (63 sits one cell below the first doubling);
// responses are shifted back by the base so the spec still starts at 0.
TEST(NativeFetchIncrement, StressHistoriesLinearizable) {
  for (int64_t base : {0, 63, 1000}) {
    for (int round = 0; round < 8; ++round) {
      rt::NativeFetchIncrement fai;
      for (int64_t i = 0; i < base; ++i) fai.fetch_and_increment();
      auto history = rt::run_stress(3, 5, [&](int t, int j) {
        rt::TimedOp op;
        if ((t + j) % 3 == 0) {
          op.name = "Read";
          op.resp = fai.read() - base;
        } else {
          op.name = "FAI";
          op.resp = fai.fetch_and_increment() - base;
        }
        return op;
      });
      verify::FaiSpec spec;
      auto records = to_records(history);
      auto res = verify::check_linearizability(records, spec);
      ASSERT_TRUE(res.decided);
      EXPECT_TRUE(res.linearizable)
          << "base " << base << " round " << round << "\n" << res.explanation;
    }
  }
}

TEST(NativeMultishotTAS, GenerationsBehave) {
  rt::NativeMultishotTAS tas(/*n=*/2, /*max_resets=*/8);
  EXPECT_EQ(tas.read(), 0);
  EXPECT_EQ(tas.test_and_set(0), 0);
  EXPECT_EQ(tas.test_and_set(1), 1);
  EXPECT_EQ(tas.read(), 1);
  tas.reset(0);
  EXPECT_EQ(tas.read(), 0);
  EXPECT_EQ(tas.test_and_set(1), 0);
}

// Writes that cannot change the state issue no RMW: the primitive counters
// (telemetry/prim_profile.h) sit beside every runtime RMW, so a zero delta is
// a zero RMW count on this thread.
TEST(NativeMaxRegister, NoOpWriteIssuesNoFetchAdd) {
  if (!tel::kEnabled) GTEST_SKIP() << "primitive counters compiled out";
  rt::NativeMaxRegister64 reg(/*n=*/2, /*max_value=*/15);
  auto faa_of = [](auto&& op) {
    tel::PrimCounts before = tel::this_thread_prims();
    op();
    return (tel::this_thread_prims() - before).faa;
  };
  EXPECT_EQ(faa_of([&] { reg.write_max(0, 0); }), 0u) << "initial maximum is 0";
  EXPECT_EQ(faa_of([&] { reg.write_max(0, 7); }), 1u) << "a raising write is one FAA";
  EXPECT_EQ(faa_of([&] { reg.write_max(0, 7); }), 0u);
  EXPECT_EQ(faa_of([&] { reg.write_max(0, 3); }), 0u);
  EXPECT_EQ(faa_of([&] { (void)reg.read_max(); }), 0u) << "reads are loads";
  // The no-op test is per caller: lane 1's own maximum is still 0.
  EXPECT_EQ(faa_of([&] { reg.write_max(1, 3); }), 1u);
  EXPECT_EQ(faa_of([&] { reg.write_max(0, 9); }), 1u);
  EXPECT_EQ(reg.read_max(), 9);
}

TEST(NativeMultishotTAS, SetGenerationIssuesNoTestAndSet) {
  if (!tel::kEnabled) GTEST_SKIP() << "primitive counters compiled out";
  rt::NativeMultishotTAS tas(/*n=*/2, /*max_resets=*/4);
  auto tas_of = [](auto&& op) {
    tel::PrimCounts before = tel::this_thread_prims();
    op();
    return (tel::this_thread_prims() - before).tas;
  };
  // The first test&set also claims the cells' first segment (one more TAS,
  // counted by the segment layer), so exact counts start after it.
  EXPECT_EQ(tas.test_and_set(0), 0);
  int64_t r = -1;
  EXPECT_EQ(tas_of([&] { r = tas.test_and_set(1); }), 0u) << "set generation: a read";
  EXPECT_EQ(r, 1);
  EXPECT_EQ(tas_of([&] { r = tas.test_and_set(0); }), 0u);
  EXPECT_EQ(r, 1);
  tas.reset(1);
  EXPECT_EQ(tas_of([&] { r = tas.test_and_set(1); }), 1u) << "the winning call";
  EXPECT_EQ(r, 0);
  EXPECT_EQ(tas_of([&] { r = tas.test_and_set(0); }), 0u);
  EXPECT_EQ(r, 1);
}

TEST(NativeSet, NoItemTakenTwiceHighVolume) {
  const int threads = 4;
  const int per_thread = 200;
  rt::NativeSet set;
  std::vector<std::vector<int64_t>> taken(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 2 == 0) {
      op.name = "Put";
      op.arg = t * 100000 + j;
      set.put(op.arg);
    } else {
      op.name = "Take";
      op.resp = set.take();
      if (op.resp != rt::NativeSet::kEmpty) {
        taken[static_cast<size_t>(t)].push_back(op.resp);
      }
    }
    return op;
  });
  std::set<int64_t> unique;
  size_t total = 0;
  for (const auto& v : taken) {
    for (int64_t x : v) {
      EXPECT_TRUE(unique.insert(x).second) << "item taken twice: " << x;
      ++total;
    }
  }
  EXPECT_EQ(unique.size(), total);
}

}  // namespace
}  // namespace c2sl
