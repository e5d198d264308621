// T5/T6/T9/T10 — the §4 family: readable test&set, the three multi-shot
// test&set backends (Thm 6 atomic bases, Cor 7 FAA max register, the
// registers-only collect max register), fetch&increment one-shot vs
// multi-shot, and the Algorithm 2 set under different put/take mixes.
//
// Emits BENCH_tas_family.json in the repo-wide c2sl-bench-v1 schema alongside
// the usual console output (`--out=PATH` overrides the artifact path).
//
// NATIVE ABLATION (`--impl=flat|segmented`): the same binary also registers
// real-thread benchmarks of the Thm 9 fetch&increment read path over either
//   * flat    — the retired fixed-capacity array with the O(value) ascending
//               scan (reference implementation kept below), or
//   * segmented — the shipped rt::NativeFetchIncrement over doubling
//               segments, searching forward from its verified-set hint.
// Bench names are impl-agnostic ("NativeFaiRead/<value>", ...), so two runs
// diff directly:
//   ./bench_tas_family --impl=flat      --benchmark_filter=NativeFai --out=flat.json
//   ./bench_tas_family --impl=segmented --benchmark_filter=NativeFai --out=seg.json
//   tools/bench_diff.py flat.json seg.json --threshold=-0.5 --metrics throughput_ops_per_s
// The NEGATIVE threshold turns the diff into an improvement gate: CI fails
// unless segmented beats flat by >= 50% on every entry — the claim that the
// shipped search does not scan from zero, enforced per run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "json_reporter.h"

#include "core/fetch_increment.h"
#include "core/max_register_faa.h"
#include "core/max_register_variants.h"
#include "core/multishot_tas.h"
#include "core/readable_tas.h"
#include "core/sl_set.h"
#include "runtime/native_tas_family.h"
#include "sim/sim_run.h"
#include "sim/strategy.h"
#include "util/rng.h"

namespace {

using namespace c2sl;

struct Stats {
  uint64_t ops = 0;
  uint64_t steps = 0;
};

void report(benchmark::State& state, const Stats& s) {
  state.counters["steps_per_op"] = benchmark::Counter(
      static_cast<double>(s.steps) / static_cast<double>(std::max<uint64_t>(s.ops, 1)));
  state.SetItemsProcessed(static_cast<int64_t>(s.ops));
}

void T5_ReadableTAS(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    core::ReadableTAS obj(run.world, "t");
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, p, seed, &total](sim::Ctx& ctx) {
        Rng rng(seed + static_cast<uint64_t>(p) * 101);
        for (int j = 0; j < 25; ++j) {
          if (rng.next_bool(0.3)) {
            obj.test_and_set(ctx);
          } else {
            obj.read(ctx);
          }
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  report(state, total);
}
BENCHMARK(T5_ReadableTAS)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

enum class MtasBackend { kAtomic, kCor7, kCollect };

void run_mtas(benchmark::State& state, MtasBackend backend) {
  int n = static_cast<int>(state.range(0));
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    std::unique_ptr<core::MaxRegisterIface> curr;
    std::unique_ptr<core::ReadableTasArrayIface> ts;
    switch (backend) {
      case MtasBackend::kAtomic:
        curr = std::make_unique<core::AtomicMaxRegister>(run.world, "curr");
        ts = std::make_unique<core::AtomicReadableTasArray>(run.world, "TS");
        break;
      case MtasBackend::kCor7:
        curr = std::make_unique<core::MaxRegisterFAA>(run.world, "curr", n);
        ts = std::make_unique<core::ReadableTasArray>(run.world, "TS");
        break;
      case MtasBackend::kCollect:
        curr = std::make_unique<core::CollectMaxRegister>(run.world, "curr", n);
        ts = std::make_unique<core::ReadableTasArray>(run.world, "TS");
        break;
    }
    core::MultishotTAS obj("mt", *curr, *ts);
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, p, seed, &total](sim::Ctx& ctx) {
        Rng rng(seed + static_cast<uint64_t>(p) * 211);
        for (int j = 0; j < 15; ++j) {
          uint64_t r = rng.next_below(10);
          if (r < 4) {
            obj.test_and_set(ctx);
          } else if (r < 7) {
            obj.read(ctx);
          } else {
            obj.reset(ctx);
          }
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  report(state, total);
}

void T6_MultishotTAS_AtomicBases(benchmark::State& s) { run_mtas(s, MtasBackend::kAtomic); }
void T6_MultishotTAS_Cor7_FAA(benchmark::State& s) { run_mtas(s, MtasBackend::kCor7); }
void T6_MultishotTAS_CollectMax(benchmark::State& s) { run_mtas(s, MtasBackend::kCollect); }
BENCHMARK(T6_MultishotTAS_AtomicBases)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(T6_MultishotTAS_Cor7_FAA)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(T6_MultishotTAS_CollectMax)->Arg(2)->Arg(4)->Arg(8);

void T9_FetchIncrement(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool one_shot = state.range(1) == 1;
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    core::ReadableTasArray ts(run.world, "M");
    core::FetchIncrement obj("f", ts, one_shot);
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, one_shot, &total](sim::Ctx& ctx) {
        int reps = one_shot ? 1 : 10;
        for (int j = 0; j < reps; ++j) {
          obj.fetch_and_increment(ctx);
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  state.SetLabel(one_shot ? "one_shot(wait-free)" : "multi_shot(lock-free)");
  report(state, total);
}
BENCHMARK(T9_FetchIncrement)->Args({2, 0})->Args({4, 0})->Args({8, 0})->Args({4, 1})->Args({8, 1});

void T10_Set(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  double put_prob = static_cast<double>(state.range(1)) / 100.0;
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    core::ReadableTasArray fai_ts(run.world, "MaxM");
    core::FetchIncrement fai("Max", fai_ts);
    core::SLSet obj(run.world, "set", fai);
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, p, put_prob, seed, &total](sim::Ctx& ctx) {
        Rng rng(seed + static_cast<uint64_t>(p) * 401);
        for (int j = 0; j < 10; ++j) {
          if (rng.next_bool(put_prob)) {
            obj.put(ctx, p * 1000 + j);
          } else {
            benchmark::DoNotOptimize(obj.take(ctx));
          }
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  state.SetLabel("put%=" + std::to_string(static_cast<int>(put_prob * 100)));
  report(state, total);
}
BENCHMARK(T10_Set)->Args({2, 70})->Args({4, 70})->Args({4, 30})->Args({8, 50});

// --- native flat-vs-segmented ablation (Thm 9 read path) --------------------

/// The RETIRED implementation, kept verbatim as the ablation reference: a
/// fixed-capacity array of readable TAS cells with O(value) ascending scans.
/// Do not use outside this benchmark — the shipped family is unbounded.
class FlatFetchIncrement {
 public:
  explicit FlatFetchIncrement(size_t capacity)
      : cells_(std::make_unique<c2sl::rt::NativeReadableTAS[]>(capacity)),
        capacity_(capacity) {}

  int64_t fetch_and_increment() {
    for (size_t i = 0;; ++i) {
      if (i >= capacity_) std::abort();  // capacity exhausted (the old error)
      if (cells_[i].test_and_set() == 0) return static_cast<int64_t>(i);
    }
  }
  int64_t read() const {
    for (size_t i = 0;; ++i) {
      if (i >= capacity_) std::abort();
      if (cells_[i].read() == 0) return static_cast<int64_t>(i);
    }
  }

 private:
  std::unique_ptr<c2sl::rt::NativeReadableTAS[]> cells_;
  size_t capacity_;
};

template <typename Fai>
void run_fai_read(benchmark::State& state, Fai& fai, int64_t value) {
  for (int64_t i = 0; i < value; ++i) fai.fetch_and_increment();  // untimed prefill
  uint64_t ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fai.read());
    ++ops;
  }
  state.counters["throughput_ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

template <typename Fai>
void run_fai_inc(benchmark::State& state, Fai& fai, int64_t value) {
  for (int64_t i = 0; i < value; ++i) fai.fetch_and_increment();  // untimed prefill
  uint64_t ops = 0;
  for (auto _ : state) {
    // Flat pays the O(value) from-zero scan on EVERY increment once the array
    // is deep; segmented starts at the published verified-set hint.
    benchmark::DoNotOptimize(fai.fetch_and_increment());
    ++ops;
  }
  state.counters["throughput_ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

void register_native_ablation(const std::string& impl) {
  // Fixed iteration counts keep CI cost deterministic (no min-time hunting);
  // the flat read at value 131072 is ~131k loads per iteration.
  const int64_t kValues[] = {1024, 16384, 131072};
  const int kReadIters = 2000;
  const int kIncIters = 2000;
  for (int64_t v : kValues) {
    std::string read_name = "NativeFaiRead/" + std::to_string(v);
    std::string inc_name = "NativeFaiInc/" + std::to_string(v);
    if (impl == "flat") {
      benchmark::RegisterBenchmark(read_name.c_str(), [v](benchmark::State& s) {
        FlatFetchIncrement fai(static_cast<size_t>(v) + 1);
        run_fai_read(s, fai, v);
      })->Iterations(kReadIters);
      benchmark::RegisterBenchmark(inc_name.c_str(), [v](benchmark::State& s) {
        FlatFetchIncrement fai(static_cast<size_t>(v) +
                               static_cast<size_t>(s.max_iterations) + 1);
        run_fai_inc(s, fai, v);
      })->Iterations(kIncIters);
    } else {
      benchmark::RegisterBenchmark(read_name.c_str(), [v](benchmark::State& s) {
        c2sl::rt::NativeFetchIncrement fai;
        run_fai_read(s, fai, v);
      })->Iterations(kReadIters);
      benchmark::RegisterBenchmark(inc_name.c_str(), [v](benchmark::State& s) {
        c2sl::rt::NativeFetchIncrement fai;
        run_fai_inc(s, fai, v);
      })->Iterations(kIncIters);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Default: segmented — the shipped implementation.
  std::string impl = c2bench::consume_flag(&argc, argv, "--impl=", "segmented");
  if (impl != "flat" && impl != "segmented") {
    std::fprintf(stderr, "bench_tas_family: --impl must be flat|segmented\n");
    return 1;
  }
  register_native_ablation(impl);
  return c2bench::run_with_schema_reporter(argc, argv, "bench_tas_family",
                                           "BENCH_tas_family.json");
}
