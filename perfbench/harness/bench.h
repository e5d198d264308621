// perfbench harness core: clock, latency histogram, seeded input streams, and
// the per-worker closed-loop client that drives C2Store through its public
// API only. Shared by the untraced end-to-end run (e2e.cpp) and the traced
// per-layer run (layers.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/c2store.h"

namespace perfbench {

namespace svc = c2sl::svc;

// --- clock ------------------------------------------------------------------

/// Raw monotonic tick: TSC on x86 (one unfenced read, ~8 ns), steady_clock
/// nanoseconds elsewhere. Converted with a TickClock calibration.
inline int64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<int64_t>(__builtin_ia32_rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

/// Fenced tick for spans: the lfence pair keeps earlier instructions (a
/// contended RMW's latency included) from bleeding across the read, so
/// back-to-back spans attribute time to the call they enclose.
inline int64_t fenced_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_lfence();
  auto t = static_cast<int64_t>(__builtin_ia32_rdtsc());
  __builtin_ia32_lfence();
  return t;
#else
  return ticks();
#endif
}

inline int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Tick -> ns calibration over the whole process lifetime: the longer the
/// run, the more exact the ratio.
class TickClock {
 public:
  TickClock() : t0_(ticks()), n0_(wall_ns()) {}
  double ns_per_tick() const {
    int64_t t = ticks();
    int64_t n = wall_ns();
    return t > t0_ ? static_cast<double>(n - n0_) / static_cast<double>(t - t0_)
                   : 1.0;
  }

 private:
  int64_t t0_;
  int64_t n0_;
};

// --- latency histogram --------------------------------------------------------

/// Fixed-size log-linear histogram of tick counts: exact below 128, then 64
/// sub-buckets per power of two (<= 1.6% bucket width). Quantiles interpolate
/// inside the bucket, so they read as continuous values. 21 KB, no per-op
/// allocation: the harness's own memory traffic stays out of the numbers.
class Hist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kRows = 41;  // up to 2^46 ticks
  static constexpr int kBuckets = kRows * kSub;

  void add(int64_t v) {
    ++counts_[static_cast<size_t>(index(v < 0 ? 0 : static_cast<uint64_t>(v)))];
    ++n_;
  }
  void merge(const Hist& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[static_cast<size_t>(i)] += o.counts_[static_cast<size_t>(i)];
    n_ += o.n_;
  }
  void reset() {
    counts_.fill(0);
    n_ = 0;
  }
  uint64_t count() const { return n_; }

  /// Value at quantile q in ticks (0 when empty).
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    double rank = q * static_cast<double>(n_ - 1);
    uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      uint64_t c = counts_[static_cast<size_t>(i)];
      if (c == 0) continue;
      if (static_cast<double>(cum + c) > rank) {
        double frac = (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static int index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<int>(v);
    int msb = 63 - __builtin_clzll(v);
    int shift = msb - kSubBits;
    int i = (shift + 1) * kSub + static_cast<int>((v >> shift) - kSub);
    return i < kBuckets ? i : kBuckets - 1;
  }
  static double lower(int i) {
    if (i < 2 * kSub) return i;
    int shift = i / kSub - 1;
    return static_cast<double>(static_cast<uint64_t>(i % kSub + kSub) << shift);
  }
  static double width(int i) {
    return i < 2 * kSub ? 1.0 : static_cast<double>(uint64_t{1} << (i / kSub - 1));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t n_ = 0;
};

// --- seeded inputs ------------------------------------------------------------

inline uint64_t splitmix(uint64_t& s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() { return splitmix(s_); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

/// Zipfian ranks over [0, n) (Gray et al., "Quickly generating billion-record
/// synthetic databases" — the YCSB generator). Rank 0 is the hottest key.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t next(Rng& r) const;

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

enum class Op : uint8_t {
  kCounterInc,
  kCounterRead,
  kMaxWrite,
  kMaxRead,
  kTasSet,
  kTasRead,
  kSetPair,  ///< set put then take on the same key (balanced, never empty)
  kTransfer,
  kSnapshot,
  kCounterSum,
  kGlobalMax,
  kChurn,  ///< open_session_for, bind, inc, read, [counter_sum], close
  kCount,
};

/// One generated op: 8 bytes, so a worker's stream streams through cache.
struct OpRec {
  Op op;
  uint8_t val;  ///< max-write value / transfer amount
  uint16_t b;   ///< transfer credit bucket; churn: 1 = also read counter_sum
  uint32_t key; ///< key (ingest, lookup, churn) or bucket index (audit)
};
static_assert(sizeof(OpRec) == 8);

enum class Workload { kIngest, kLookup, kAudit, kChurn };

/// Entries in one worker's generated stream; rounds cycle through it.
inline constexpr size_t kStreamLen = size_t{1} << 18;

/// Everything a run fixes up front. Stream contents depend on (workload,
/// seed, worker) only.
struct Plan {
  Workload workload = Workload::kIngest;
  std::string name;
  uint64_t seed = 0;
  int workers = 1;
  int lanes = 1;  ///< cfg.max_threads: one lane per worker
  int shards = 16;
  int64_t max_value = 15;
  size_t round_ops = 0;   ///< stream entries per worker per timed round
  size_t warmup_ops = 0;  ///< stream entries per worker inside set-up
  std::vector<uint64_t> rep_keys;  ///< one key per initial bucket (audit)

  svc::C2StoreConfig config() const {
    svc::C2StoreConfig c;
    c.initial_shards = shards;
    c.max_threads = lanes;
    c.max_value = max_value;
    return c;
  }
};

bool parse_workload(const std::string& s, Workload& out);
Plan make_plan(Workload w, uint64_t seed, int workers);
/// The worker's op stream for the plan's workload.
std::vector<OpRec> make_stream(const Plan& p, int worker);

// --- measurement sinks --------------------------------------------------------

/// Latency classes of the end-to-end report.
enum class Cls { kRead, kWrite, kQuery, kOpen, kOther, kAll, kCount };
inline constexpr int kClsCount = static_cast<int>(Cls::kCount);

/// Span names: composed store calls (op.*) and single-layer calls.
enum class SpanId : uint16_t {
  kOpCounterInc,
  kOpCounterRead,
  kOpMaxWrite,
  kOpMaxRead,
  kOpTasSet,
  kOpTasRead,
  kOpSetPut,
  kOpSetTake,
  kOpTransfer,
  kOpSnapshot,
  kOpCounterSum,
  kOpGlobalMax,
  kOpSessionOpen,
  kOpBind,
  kOpSessionClose,
  kOpLast = kOpSessionClose,
  kEpochStampRelaxed,
  kEpochStamp,
  kServiceBind,
  kFaiInc,
  kFaiRead,
  kMaxregWrite,
  kMaxregRead,
  kTasSet,
  kTasRead,
  kSetPut,
  kSetTake,
  kSumAdd,
  kSumRead,
  kDmaxWrite,
  kDmaxRead,
  kJournalAppend,
  kJournalTail,
  kJournalReplay,
  kOpScope,
  kOpenWait,
  kTraceScope,
  kTraceEvent,
  kLanesOpen,
  kLanesClose,
  kEmpty,
  kCount,
};
inline constexpr int kSpanCount = static_cast<int>(SpanId::kCount);
const char* span_name(SpanId id);  ///< metric stem, e.g. "shard.fai.inc"

/// End-to-end sink: per-class histograms of one worker.
struct HistSink {
  static int64_t now() { return ticks(); }
  bool cycle_mode = false;  ///< churn: kAll holds whole cycles, not calls
  std::array<Hist, kClsCount> h;
  void op(SpanId, Cls c, int64_t t0, int64_t t1) {
    h[static_cast<size_t>(c)].add(t1 - t0);
    if (!cycle_mode) h[static_cast<size_t>(Cls::kAll)].add(t1 - t0);
  }
  void cycle(int64_t t0, int64_t t1) {
    h[static_cast<size_t>(Cls::kAll)].add(t1 - t0);
  }
};

/// One recorded span: name, start, end, and the op it belongs to (spans of
/// one op share op_id).
struct Span {
  uint32_t name;
  uint32_t op_id;
  int64_t t0;
  int64_t t1;
};

/// Traced sink: one span per call, kept in memory.
struct SpanSink {
  static int64_t now() { return fenced_ticks(); }
  std::vector<Span> spans;
  uint32_t op_id = 0;
  void op(SpanId id, Cls, int64_t t0, int64_t t1) {
    spans.push_back(Span{static_cast<uint32_t>(id), op_id, t0, t1});
  }
  void cycle(int64_t, int64_t) {}
};

// --- the closed-loop client ---------------------------------------------------

/// Per-worker running tallies: the expected store state the quiescent checks
/// compare against.
struct Tally {
  int64_t incs = 0;
  int64_t max_written = 0;
  std::vector<int64_t> net;         ///< audit: net transfer per bucket
  std::vector<int64_t> bucket_max;  ///< audit: max written per bucket
};

/// One worker's session, pre-bound refs and per-op checks. Every call goes
/// through the public C2Store API; `routed` binds per op (session.counter(k)
/// then the op, the cost of session.counter_inc(k)), otherwise ops run on
/// refs bound in the constructor.
class Client {
 public:
  Client(svc::C2Store& store, const Plan& plan);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Runs one stream entry; returns the number of store ops it counts as.
  template <class Sink>
  int run(const OpRec& o, Sink& k);

  uint64_t failures() const { return failures_; }
  const Tally& tally() const { return tally_; }

 private:
  void fail() { ++failures_; }
  void monotone(std::vector<int64_t>& seen, int slot, int64_t v) {
    if (slot < 0 || static_cast<size_t>(slot) >= seen.size()) {
      fail();
      return;
    }
    if (v < seen[static_cast<size_t>(slot)]) fail();
    seen[static_cast<size_t>(slot)] = v;
  }
  template <class Sink>
  int churn(const OpRec& o, Sink& k);

  svc::C2Store& store_;
  const Plan& plan_;
  bool routed_;
  bool conserve_;  ///< audit: no incs, so every snapshot and sum must be 0
  svc::C2Session s_;
  std::vector<svc::MaxRef> max_;
  std::vector<svc::CounterRef> ctr_;
  std::vector<svc::TasRef> tas_;
  std::optional<svc::SnapshotRef> snap_;
  std::vector<int64_t> seen_max_, seen_ctr_, seen_tas_, seen_snap_;
  int64_t seen_sum_ = 0;
  int64_t seen_gmax_ = 0;
  int64_t next_item_ = 0;
  uint64_t failures_ = 0;
  Tally tally_;
};

template <class Sink>
int Client::run(const OpRec& o, Sink& k) {
  const uint64_t key = o.key;
  int64_t t0 = Sink::now();
  switch (o.op) {
    case Op::kCounterInc: {
      if (routed_) {
        s_.counter_inc(key);
      } else {
        ctr_[key].inc();
      }
      k.op(SpanId::kOpCounterInc, Cls::kWrite, t0, Sink::now());
      ++tally_.incs;
      return 1;
    }
    case Op::kCounterRead: {
      int64_t v;
      int slot;
      if (routed_) {
        svc::CounterRef r = s_.counter(key);
        v = r.read();
        slot = r.shard();
      } else {
        v = ctr_[key].read();
        slot = ctr_[key].shard();
      }
      k.op(SpanId::kOpCounterRead, Cls::kRead, t0, Sink::now());
      monotone(seen_ctr_, slot, v);
      return 1;
    }
    case Op::kMaxWrite: {
      if (routed_) {
        s_.max_write(key, o.val);
      } else {
        max_[key].write(o.val);
      }
      k.op(SpanId::kOpMaxWrite, Cls::kWrite, t0, Sink::now());
      tally_.max_written = std::max<int64_t>(tally_.max_written, o.val);
      if (!tally_.bucket_max.empty() && key < tally_.bucket_max.size()) {
        tally_.bucket_max[key] = std::max<int64_t>(tally_.bucket_max[key], o.val);
      }
      return 1;
    }
    case Op::kMaxRead: {
      int64_t v;
      int slot;
      if (routed_) {
        svc::MaxRef r = s_.max(key);
        v = r.read();
        slot = r.shard();
      } else {
        v = max_[key].read();
        slot = max_[key].shard();
      }
      k.op(SpanId::kOpMaxRead, Cls::kRead, t0, Sink::now());
      if (v > plan_.max_value) fail();
      monotone(seen_max_, slot, v);
      return 1;
    }
    case Op::kTasSet: {
      int64_t v = routed_ ? s_.test_and_set(key) : tas_[key].test_and_set();
      k.op(SpanId::kOpTasSet, Cls::kWrite, t0, Sink::now());
      if (v != 0 && v != 1) fail();
      return 1;
    }
    case Op::kTasRead: {
      int64_t v;
      int slot;
      if (routed_) {
        svc::TasRef r = s_.tas(key);
        v = r.read();
        slot = r.shard();
      } else {
        v = tas_[key].read();
        slot = tas_[key].shard();
      }
      k.op(SpanId::kOpTasRead, Cls::kRead, t0, Sink::now());
      if (v != 0 && v != 1) fail();
      monotone(seen_tas_, slot, v);
      return 1;
    }
    case Op::kSetPair: {
      // This worker's put completes before its take on the same key, and
      // every worker takes only after its own put, so the take never finds
      // the set empty.
      s_.set_put(key, ++next_item_);
      int64_t t1 = Sink::now();
      k.op(SpanId::kOpSetPut, Cls::kWrite, t0, t1);
      int64_t v = s_.set_take(key);
      k.op(SpanId::kOpSetTake, Cls::kWrite, t1, Sink::now());
      if (v == svc::C2Store::kEmpty) fail();
      return 2;
    }
    case Op::kTransfer: {
      int64_t ticket = s_.transfer(plan_.rep_keys[key], plan_.rep_keys[o.b], o.val);
      k.op(SpanId::kOpTransfer, Cls::kWrite, t0, Sink::now());
      if (ticket < 0) fail();
      tally_.net[key] -= o.val;
      tally_.net[o.b] += o.val;
      return 1;
    }
    case Op::kSnapshot: {
      std::vector<int64_t> v = snap_->read();
      k.op(SpanId::kOpSnapshot, Cls::kQuery, t0, Sink::now());
      const size_t nb = plan_.rep_keys.size();
      if (v.size() != 2 * nb) {
        fail();
        return 1;
      }
      int64_t sum = 0;
      for (size_t i = 0; i < nb; ++i) sum += v[i];
      if (conserve_ && sum != 0) fail();  // transfers conserve the ledger
      for (size_t i = 0; i < nb; ++i) {
        if (v[nb + i] > plan_.max_value) fail();
        monotone(seen_snap_, static_cast<int>(i), v[nb + i]);
      }
      return 1;
    }
    case Op::kCounterSum: {
      int64_t v = s_.counter_sum();
      k.op(SpanId::kOpCounterSum, Cls::kQuery, t0, Sink::now());
      if (conserve_ && v != 0) fail();
      if (v < seen_sum_) fail();
      seen_sum_ = v;
      return 1;
    }
    case Op::kGlobalMax: {
      int64_t v = s_.global_max();
      k.op(SpanId::kOpGlobalMax, Cls::kQuery, t0, Sink::now());
      if (v < seen_gmax_ || v > plan_.max_value) fail();
      seen_gmax_ = v;
      return 1;
    }
    case Op::kChurn:
      return churn(o, k);
    case Op::kCount:
      break;
  }
  fail();
  return 1;
}

template <class Sink>
int Client::churn(const OpRec& o, Sink& k) {
  int64_t t0 = Sink::now();
  svc::C2Session s = store_.open_session_for(std::chrono::seconds(1));
  int64_t t1 = Sink::now();
  k.op(SpanId::kOpSessionOpen, Cls::kOpen, t0, t1);
  if (!s.valid()) {
    fail();
    k.cycle(t0, t1);
    return 1;
  }
  svc::CounterRef r = s.counter(static_cast<uint64_t>(o.key));
  int64_t t2 = Sink::now();
  k.op(SpanId::kOpBind, Cls::kOther, t1, t2);
  int64_t prev = r.inc();
  int64_t t3 = Sink::now();
  k.op(SpanId::kOpCounterInc, Cls::kWrite, t2, t3);
  int64_t v = r.read();
  int64_t t4 = Sink::now();
  k.op(SpanId::kOpCounterRead, Cls::kRead, t3, t4);
  ++tally_.incs;
  if (v <= prev) fail();  // the read follows this worker's own inc
  monotone(seen_ctr_, r.shard(), v);
  if (o.b != 0) {
    int64_t sum = s.counter_sum();
    int64_t t5 = Sink::now();
    k.op(SpanId::kOpCounterSum, Cls::kQuery, t4, t5);
    if (sum < seen_sum_) fail();
    seen_sum_ = sum;
    t4 = t5;
  }
  s.close();
  int64_t t6 = Sink::now();
  k.op(SpanId::kOpSessionClose, Cls::kOther, t4, t6);
  k.cycle(t0, t6);
  return 1;
}

/// Checks the store at quiescence against the workers' tallies; returns the
/// number of failed checks and appends a message per failure.
uint64_t quiescent_checks(svc::C2Store& store, const Plan& plan,
                          const std::vector<const Tally*>& tallies,
                          std::vector<std::string>& why);

// --- process stats ------------------------------------------------------------

int64_t rss_bytes();
struct ThreadUsage {
  int64_t minflt = 0;
  int64_t ctxsw = 0;
};
ThreadUsage thread_usage();

// --- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  ///< observations behind the value (0: the run never made them)
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> why;  ///< one line per failed check
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Untraced closed-loop run: the end-to-end metrics (e2e.cpp).
Report run_e2e(const Plan& plan, double seconds, const TickClock& clock);
/// Traced run: composed ops and single-layer calls timed from outside, one
/// span per call (layers.cpp). Writes the last pass's spans to `spans_path`
/// and a witness trace (c2sl-trace-v1) to `trace_path`.
Report run_layers(const Plan& plan, double seconds, const TickClock& clock,
                  const std::string& spans_path, const std::string& trace_path);

/// Pins the calling thread to CPU (w mod nproc), so workers never share a CPU
/// or migrate mid-round.
void pin_worker(int w);

/// Start gate for one round: the last worker to arrive stamps the end of
/// set-up and opens the gate, so no spare thread has to spin for it.
class Gate {
 public:
  explicit Gate(int n) : n_(n) {}
  /// Returns the tick at which the gate opened.
  int64_t arrive_and_wait() {
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == n_ - 1) {
      open_tick_.store(ticks(), std::memory_order_relaxed);
      open_.store(true, std::memory_order_release);
    } else {
      while (!open_.load(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    return open_tick_.load(std::memory_order_relaxed);
  }
  int64_t open_tick() const { return open_tick_.load(std::memory_order_relaxed); }

 private:
  int n_;
  std::atomic<int> arrived_{0};
  std::atomic<bool> open_{false};
  std::atomic<int64_t> open_tick_{0};
};

}  // namespace perfbench
