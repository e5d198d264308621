// Double-collect aggregates over the C2Store's per-shard objects — the design
// that the store's digests (C2Store::global_max / counter_sum) replace, kept
// as a negative control and as the measured ablation baseline
// (bench_c2store --sum-impl scan, the engine's aggregate_scan mix).
//
// A scan collects the monotone per-shard values and repeats until two
// consecutive collects coincide; the stable pair certifies one instant at
// which every collected value was current, so the scan is LINEARIZABLE. It is
// NOT strongly linearizable: the read's linearization point (the stable pair)
// is decided by future schedule steps, so no prefix-closed assignment exists.
// A naive one-pass scan is not even linearizable — a reader can miss an
// earlier, larger write on a shard it already passed while observing a later,
// smaller write on a shard still ahead of it. The bounded model checker
// refutes both on the sim twins below (tests/service_sim_test.cpp pins the
// verdicts), which is why the shipping store reads one fetch&add word
// instead — the paper's §3.1/§3.2 "pack it into one FAA word" move.
//
// Native part: global_max_scan / counter_sum_scan read the store's slots
// through the uninstrumented per-slot path (peek, then read_max / read — no
// telemetry, no trace record). They retry at most
// kScanRetryRounds collects and then fall back to the corresponding digest
// read — still linearizable (the digest step is inside the scan's interval)
// and bounded instead of livelocking under sustained writes. A scan that
// observes a grown shard count also falls back (the collected range is
// stale). counter_sum_scan over-approximates after a resize: the migration
// replays a parent slot's count into its child while the parent keeps it, so
// the slot facet counts those increments twice; counter_sum() stays exact.
//
// Sim part: SimShardedMaxRegister / SimShardedCounter rebuild the scans over
// the simulated paper constructions for the checkers. `double_collect =
// false` is the naive one-pass scan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/faa_fetch_increment.h"
#include "core/max_register_faa.h"
#include "core/object_api.h"

namespace c2sl::svc {
class C2Store;
}

namespace c2sl::baselines {

/// Collects a scan runs before falling back to its digest read.
inline constexpr int kScanRetryRounds = 64;

/// Max over the per-shard max registers (digest fallback: global_max()).
int64_t global_max_scan(const svc::C2Store& store);
/// Sum over the per-shard counters (digest fallback: counter_sum()).
int64_t counter_sum_scan(const svc::C2Store& store);

/// Sim twin of global_max_scan: WriteMax routes by v & (shards-1); ReadMax
/// scans the per-shard Thm 1 registers.
class SimShardedMaxRegister : public core::ConcurrentObject {
 public:
  SimShardedMaxRegister(sim::World& world, std::string name, int n, int shards,
                        bool double_collect = true);

  void write_max(sim::Ctx& ctx, int64_t v);
  int64_t read_max(sim::Ctx& ctx);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  bool double_collect_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
};

/// Sim twin of counter_sum_scan: Inc routes by calling process id (so it
/// faces the same schedules as svc::SimCounterSumDigest); Read sums a scan of
/// the per-shard counter words.
class SimShardedCounter : public core::ConcurrentObject {
 public:
  SimShardedCounter(sim::World& world, std::string name, int shards,
                    bool double_collect = true);

  void inc(sim::Ctx& ctx);
  int64_t read(sim::Ctx& ctx);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  bool double_collect_;
  std::vector<core::FaaFetchIncrement> ctrs_;
};

}  // namespace c2sl::baselines
