// Lane-local telemetry — the observability layer built from the repo's own
// no-CAS toolbox, with no shared word on the op path.
//
// Structure:
//
//   * Every service lane owns a LaneTelemetry block: per-op-kind counters,
//     per-shard heat cells, log-bucketed latency histograms, and a bounded
//     flight recorder. Lanes are single-owner by construction
//     (svc::LaneRegistry hands each lane to exactly one session at a time),
//     so every write here is a plain register write — relaxed load + relaxed
//     store on a private cache line, no RMW.
//   * ops_total is the sum of the lane op-count cells, taken in the same racy
//     lane pass as every other aggregate. It is exact at quiescence, and
//     while writers run it is linearizable but NOT strongly linearizable: a
//     one-pass collect over single-writer cells cannot fix its return value
//     at any own step (svc::SimTelemetryCounter pins the refutation under the
//     bounded checker, tests/telemetry_test.cpp). That is acceptable because
//     no telemetry number is a decision input — metrics need no strong
//     linearizability (docs/PROOFS.md, "The metrics digest"). The strongly
//     linearizable aggregates a client may branch on are the store's
//     counter_sum()/global_max() digests, not these.
//
// Cost budget per instrumented op (on-flavour): two relaxed load+store pairs
// (kind counter + shard heat cell), three relaxed stores (flight ring), and a
// pair of clock reads on 1 of every kLatencySamplePeriod ops — no RMW and no
// shared cache line. Under C2SL_TELEMETRY=0 every type in this header
// collapses to an empty constexpr shell — tests/telemetry_off_test.cpp proves
// the hot-path calls are constant-evaluable, hence free of atomics.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/histogram.h"
#include "telemetry/prim_profile.h"

#if C2SL_TELEMETRY
#include <atomic>
#include <chrono>

#include "runtime/segmented_array.h"
#endif

namespace c2sl::tel {

/// Instrumented service-op kinds (the C2Store ref/session surface).
enum class TelOp : int {
  kMaxWrite = 0,
  kMaxRead,
  kCounterInc,
  kCounterRead,
  kTasSet,
  kTasRead,
  kTasReset,
  kSetPut,
  kSetTake,
  kGlobalMax,
  kCounterSum,
  kSessionOpen,
  kSnapshot,
  kTransfer,
  kCount,
};

inline constexpr int kTelOpCount = static_cast<int>(TelOp::kCount);

inline const char* to_string(TelOp op) {
  switch (op) {
    case TelOp::kMaxWrite: return "max_write";
    case TelOp::kMaxRead: return "max_read";
    case TelOp::kCounterInc: return "counter_inc";
    case TelOp::kCounterRead: return "counter_read";
    case TelOp::kTasSet: return "tas_set";
    case TelOp::kTasRead: return "tas_read";
    case TelOp::kTasReset: return "tas_reset";
    case TelOp::kSetPut: return "set_put";
    case TelOp::kSetTake: return "set_take";
    case TelOp::kGlobalMax: return "global_max";
    case TelOp::kCounterSum: return "counter_sum";
    case TelOp::kSessionOpen: return "session_open";
    case TelOp::kSnapshot: return "snapshot";
    case TelOp::kTransfer: return "transfer";
    default: return "unknown_op";
  }
}

/// One decoded flight-recorder entry.
struct FlightEntry {
  uint64_t seq = 0;   ///< lane-local op sequence number
  TelOp op = TelOp::kCount;
  int shard = -1;     ///< -1 for lane-level / aggregate ops
  int64_t arg = 0;    ///< op argument (key value, written value, wait ns, ...)
};

/// Average primitive invocations per service op of one kind, measured by
/// wl::profile_primitives (a calibration pass over a private store).
struct PrimProfile {
  double faa = 0;
  double tas = 0;
  double swap = 0;
  double ops = 0;  ///< ops measured; 0 = kind not profiled
};

/// Plain-data snapshot of everything telemetry knows — what the exporters
/// (telemetry/export.h), the bench reporter, and tools/metrics_diff.py see.
/// Every field is an explicitly racy lane-scan or a relaxed counter; each is
/// exact once the store is quiescent.
struct MetricsSnapshot {
  bool enabled = false;
  int lanes = 0;  ///< lane blocks scanned

  uint64_t ops_total = 0;  ///< sum of op_counts, from the same lane pass

  uint64_t op_counts[kTelOpCount] = {};
  HistogramSnapshot op_latency[kTelOpCount];  ///< sampled, see kLatencySamplePeriod
  HistogramSnapshot open_wait;                ///< blocking open_session wait time

  // Session-layer counters (filled by svc::C2Store::metrics_snapshot from the
  // LaneRegistry/HandoffQueue introspection the TSAN stress already bounds).
  int64_t lane_tickets = 0;  ///< lanes dealt fresh: min(tickets drawn, max_threads)
  int64_t handoff_enqueued = 0;
  int64_t handoff_deliveries = 0;
  int64_t handoff_parks = 0;
  int64_t handoff_revocations = 0;
  int64_t lane_counter_adds = 0;

  uint64_t events[kTelEventCount] = {};

  // Per-shard heat: ops observed against each routing bucket, summed over
  // lanes (racy lane-scan like op_counts — heat is a diagnostic, not a
  // decision input). Aggregate ops carry no shard, so at quiescence
  // sum <= ops_total; while writers run the heat can lead, because an op
  // bumps its heat cell after its op-count cell and the scan reads the heat
  // cells last.
  std::vector<uint64_t> shard_ops;

  bool has_prim_profile = false;
  PrimProfile prim_profile[kTelOpCount];
};

/// Max-over-mean ratio of shard_ops — 1.0 is perfectly balanced, higher means
/// skew (zipfian/hotburst heat). 1.0 when nothing keyed was counted.
inline double shard_imbalance(const MetricsSnapshot& snap) {
  if (snap.shard_ops.empty()) return 1.0;
  uint64_t max = 0;
  uint64_t sum = 0;
  for (uint64_t c : snap.shard_ops) {
    if (c > max) max = c;
    sum += c;
  }
  if (sum == 0) return 1.0;
  double mean =
      static_cast<double>(sum) / static_cast<double>(snap.shard_ops.size());
  return static_cast<double>(max) / mean;
}

/// 1 of every 32 ops pays the two steady_clock reads for its latency sample;
/// the rest skip the clock entirely. The counters see every op.
inline constexpr uint64_t kLatencySamplePeriod = 32;

#if C2SL_TELEMETRY

inline namespace tel_on {

/// Bounded last-N ops ring, lane-local (single writer). Three relaxed stores
/// per record; entries are two words (packed meta + raw arg) so a torn
/// snapshot mispairs at worst one in-flight entry — acceptable for a crash
/// diagnostic. Dumped by telemetry/export.cpp on assert failure.
class FlightRecorder {
 public:
  static constexpr uint64_t kEntries = 64;  ///< records per lane
  static_assert(kEntries >= 2 && (kEntries & (kEntries - 1)) == 0,
                "kEntries must be a power of two >= 2");

  void record(TelOp op, int shard, int64_t arg) {
    // c2sl-atomic: load relaxed — single-writer ring cursor read
    uint64_t seq = seq_.load(std::memory_order_relaxed);
    Slot& s = slots_[static_cast<size_t>(seq & (kEntries - 1))];
    // meta: [seq:48][op:8][shard+1:8]; shard -1 encodes as 0.
    uint64_t meta = (seq << 16) |
                    ((static_cast<uint64_t>(op) & 0xff) << 8) |
                    (static_cast<uint64_t>(shard + 1) & 0xff);
    // c2sl-atomic: store relaxed, store relaxed, store relaxed — lane-local
    // ring writes; the racy dump tolerates a torn in-flight entry
    s.meta.store(meta, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);
  }

  /// Oldest-first decoded entries (racy read; diagnostics only).
  std::vector<FlightEntry> snapshot() const {
    // c2sl-atomic: load relaxed — documented-racy diagnostic read
    uint64_t seq = seq_.load(std::memory_order_relaxed);
    uint64_t count = seq < kEntries ? seq : kEntries;
    std::vector<FlightEntry> out;
    out.reserve(static_cast<size_t>(count));
    for (uint64_t k = seq - count; k < seq; ++k) {
      const Slot& s = slots_[static_cast<size_t>(k & (kEntries - 1))];
      // c2sl-atomic: load relaxed — documented-racy diagnostic read
      uint64_t meta = s.meta.load(std::memory_order_relaxed);
      FlightEntry e;
      e.seq = meta >> 16;
      e.op = static_cast<TelOp>((meta >> 8) & 0xff);
      e.shard = static_cast<int>(meta & 0xff) - 1;
      // c2sl-atomic: load relaxed — documented-racy diagnostic read
      e.arg = s.arg.load(std::memory_order_relaxed);
      out.push_back(e);
    }
    return out;
  }

 private:
  // Meta and arg interleaved per entry, so one record dirties a single slot
  // line (plus the seq line) instead of two parallel arrays' lines.
  struct Slot {
    std::atomic<uint64_t> meta{0};
    std::atomic<int64_t> arg{0};
  };
  std::atomic<uint64_t> seq_{0};
  Slot slots_[kEntries] = {};
};

/// Per-lane telemetry block. Single writer: the session that owns the lane.
/// All fields are plain-register (load+store) cells; std::atomic only so the
/// racy aggregating reader is well-defined under TSAN.
struct alignas(128) LaneTelemetry {
  std::atomic<uint64_t> op_counts[kTelOpCount] = {};
  LatencyHistogram op_hist[kTelOpCount];
  LatencyHistogram open_wait;
  FlightRecorder flight;

  // The per-op-kind counters double as the lane's ops-total cells: the
  // lane's total ops is their sum, so the hot path pays exactly one
  // load+store pair (the scan-side read sums kTelOpCount cells instead of
  // one — it is the documented-racy diagnostic, not a hot path).
  void bump(TelOp op) {
    std::atomic<uint64_t>& c = op_counts[static_cast<int>(op)];
    // c2sl-atomic: store relaxed, load relaxed — single-writer plain-register
    // cell; atomic only so the racy aggregating reader is defined
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Per-shard heat cells, lane-local single-writer like op_counts, segmented
  // because resize can grow the bucket count without bound (no capacity knob).
  rt::SegmentedArray<std::atomic<uint64_t>> shard_ops;

  void bump_shard(int shard) {
    if (shard < 0) return;
    std::atomic<uint64_t>& c = shard_ops.cell(static_cast<size_t>(shard));
    // c2sl-atomic: store relaxed, load relaxed — single-writer heat cell;
    // atomic only so the racy aggregating reader is defined
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  uint64_t peek_shard(int shard) const {
    const std::atomic<uint64_t>* c =
        shard_ops.peek(static_cast<size_t>(shard));
    // c2sl-atomic: load relaxed — documented-racy scan-side read
    return c == nullptr ? 0 : c->load(std::memory_order_relaxed);
  }
};

/// Store-wide telemetry root: the lane-block spine. It owns no shared word of
/// its own; every aggregate is a racy scan over the lane blocks.
class StoreTelemetry {
 public:
  StoreTelemetry() = default;
  StoreTelemetry(const StoreTelemetry&) = delete;
  StoreTelemetry& operator=(const StoreTelemetry&) = delete;

  LaneTelemetry* lane(int i) { return &lanes_.cell(static_cast<size_t>(i)); }
  const LaneTelemetry* peek_lane(int i) const {
    return lanes_.peek(static_cast<size_t>(i));
  }

  void record_open_wait(LaneTelemetry* lt, int64_t ns) {
    if (lt == nullptr) return;
    lt->bump(TelOp::kSessionOpen);
    lt->open_wait.record(ns);
    lt->flight.record(TelOp::kSessionOpen, -1, ns);
  }

  /// Telemetry-core snapshot: one racy pass over the lane blocks. The service
  /// layer adds its registry/handoff counters on top
  /// (C2Store::metrics_snapshot). `shards` sizes the per-shard heat vector
  /// (0 = skip the heat scan). ops_total is the sum of the op-count loads of
  /// this same pass, so it always equals the sum of op_counts: exact at
  /// quiescence; while writers run it is racy and merely linearizable — a
  /// one-pass collect, refuted by the checker on the sim twin.
  MetricsSnapshot snapshot(int max_lanes, int shards = 0) const {
    MetricsSnapshot s;
    s.enabled = true;
    s.shard_ops.assign(static_cast<size_t>(shards > 0 ? shards : 0), 0);
    for (int i = 0; i < max_lanes; ++i) {
      const LaneTelemetry* lt = peek_lane(i);
      if (lt == nullptr) continue;
      ++s.lanes;
      for (int k = 0; k < kTelOpCount; ++k) {
        // c2sl-atomic: load relaxed — documented-racy scan-side read
        uint64_t c = lt->op_counts[k].load(std::memory_order_relaxed);
        s.op_counts[k] += c;
        s.ops_total += c;
        s.op_latency[k].merge(lt->op_hist[k].snapshot());
      }
      for (size_t b = 0; b < s.shard_ops.size(); ++b) {
        s.shard_ops[b] += lt->peek_shard(static_cast<int>(b));
      }
      s.open_wait.merge(lt->open_wait.snapshot());
    }
    for (int e = 0; e < kTelEventCount; ++e) {
      s.events[e] = event_count(static_cast<TelEvent>(e));
    }
    return s;
  }

 private:
  rt::SegmentedArray<LaneTelemetry> lanes_;
};

/// RAII instrumentation for one service op: counters + heat + flight at
/// entry, sampled latency at exit. Constructed at the top of every ref/
/// session hot path; `lane` is the session's cached LaneTelemetry pointer.
/// Everything it touches is lane-local: the store argument names the
/// telemetry root the lane belongs to, and the scope writes nothing there.
class OpScope {
 public:
  OpScope(StoreTelemetry& /*store*/, LaneTelemetry* lane, TelOp op, int shard,
          int64_t arg)
      : lane_(lane), op_(op) {
    std::atomic<uint64_t>& c = lane->op_counts[static_cast<int>(op)];
    // c2sl-atomic: load relaxed — single-writer cell read (sampling decision)
    uint64_t prev = c.load(std::memory_order_relaxed);
    // c2sl-atomic: store relaxed — single-writer cell bump
    c.store(prev + 1, std::memory_order_relaxed);
    lane->bump_shard(shard);
    lane->flight.record(op, shard, arg);
    sampled_ = (prev & (kLatencySamplePeriod - 1)) == 0;
    if (sampled_) t0_ = std::chrono::steady_clock::now();
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() {
    if (!sampled_) return;
    auto dt = std::chrono::steady_clock::now() - t0_;
    lane_->op_hist[static_cast<int>(op_)].record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  }

 private:
  LaneTelemetry* lane_;
  TelOp op_;
  bool sampled_;
  std::chrono::steady_clock::time_point t0_;
};

/// Times the blocking window of open_session. Off-flavour is empty — the
/// disabled build never touches the clock.
class OpenTimer {
 public:
  int64_t elapsed_ns() const {
    auto dt = std::chrono::steady_clock::now() - t0_;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

}  // namespace tel_on

#else  // !C2SL_TELEMETRY

inline namespace tel_off {

/// Disabled flavour: every type is an empty constexpr shell. The hot-path
/// calls are constant-evaluable (no atomics possible) — proven structurally
/// in tests/telemetry_off_test.cpp.
struct FlightRecorder {
  constexpr void record(TelOp, int, int64_t) const {}
};

struct LaneTelemetry {
  constexpr void bump(TelOp) const {}
  constexpr void bump_shard(int) const {}
  constexpr uint64_t peek_shard(int) const { return 0; }
};

class StoreTelemetry {
 public:
  constexpr LaneTelemetry* lane(int) const { return nullptr; }
  constexpr const LaneTelemetry* peek_lane(int) const { return nullptr; }
  constexpr void record_open_wait(LaneTelemetry*, int64_t) const {}
  MetricsSnapshot snapshot(int, int = 0) const { return MetricsSnapshot{}; }
};

class OpScope {
 public:
  constexpr OpScope(const StoreTelemetry&, const LaneTelemetry*, TelOp, int,
                    int64_t) {}
};

class OpenTimer {
 public:
  constexpr int64_t elapsed_ns() const { return 0; }
};

}  // namespace tel_off

#endif  // C2SL_TELEMETRY

}  // namespace c2sl::tel
