#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zetan = 0.0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
}

uint64_t Zipf::next(Rng& r) const {
  double u = r.unit();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto k = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k < n_ ? k : n_ - 1;
}

bool parse_workload(const std::string& s, Workload& out) {
  if (s == "ingest") out = Workload::kIngest;
  else if (s == "lookup") out = Workload::kLookup;
  else if (s == "audit") out = Workload::kAudit;
  else if (s == "churn") out = Workload::kChurn;
  else return false;
  return true;
}

namespace {
constexpr uint64_t kIngestKeys = uint64_t{1} << 20;
constexpr uint64_t kLookupKeys = 512;
constexpr uint64_t kChurnKeys = 4096;

/// Weighted op table: one draw picks an entry by weight.
struct Weighted {
  Op op;
  int weight;
};

Op draw(Rng& r, const std::vector<Weighted>& table, int total) {
  int u = static_cast<int>(r.below(static_cast<uint64_t>(total)));
  for (const Weighted& w : table) {
    if (u < w.weight) return w.op;
    u -= w.weight;
  }
  return table.back().op;
}

/// Keys drawn the way the workload draws them (zipf ranks, uniform ref
/// indexes, or audit buckets).
class KeyGen {
 public:
  explicit KeyGen(const Plan& p)
      : p_(p), zipf_(p.workload == Workload::kIngest ? kIngestKeys : 2, 0.99) {}
  uint32_t next(Rng& r) const {
    switch (p_.workload) {
      case Workload::kIngest: return static_cast<uint32_t>(zipf_.next(r));
      case Workload::kLookup: return static_cast<uint32_t>(r.below(kLookupKeys));
      case Workload::kAudit: return static_cast<uint32_t>(r.below(p_.rep_keys.size()));
      case Workload::kChurn: return static_cast<uint32_t>(r.below(kChurnKeys));
    }
    return 0;
  }

 private:
  const Plan& p_;
  Zipf zipf_;
};

OpRec make_op(Op op, const Plan& p, const KeyGen& keys, Rng& r) {
  OpRec o{op, 0, 0, keys.next(r)};
  switch (op) {
    case Op::kMaxWrite:
      o.val = static_cast<uint8_t>(1 + r.below(static_cast<uint64_t>(p.max_value)));
      break;
    case Op::kTransfer: {
      const uint64_t nb = p.rep_keys.size();
      o.key = static_cast<uint32_t>(r.below(nb));
      o.b = static_cast<uint16_t>((o.key + 1 + r.below(nb - 1)) % nb);
      o.val = static_cast<uint8_t>(1 + r.below(100));
      break;
    }
    case Op::kChurn:
      o.b = r.below(8) == 0 ? 1 : 0;
      break;
    default:
      break;
  }
  return o;
}

uint64_t worker_seed(const Plan& p, int worker) {
  uint64_t s = p.seed * 0x100000001b3ULL + static_cast<uint64_t>(worker) * 7919 + 1;
  return splitmix(s);
}
}  // namespace

Plan make_plan(Workload w, uint64_t seed, int workers) {
  Plan p;
  p.workload = w;
  p.seed = seed;
  p.workers = workers;
  p.lanes = workers;
  p.max_value = 63 / workers;
  // Rounds stay well below C2SL_TRACE_CAP records per lane (warm-up
  // included), so no timed round ever runs the trace's drop path.
  switch (w) {
    case Workload::kIngest:
      p.name = "ingest";
      p.round_ops = 200000;
      p.warmup_ops = 5000;
      break;
    case Workload::kLookup:
      p.name = "lookup";
      p.round_ops = 400000;
      p.warmup_ops = 10000;
      break;
    case Workload::kAudit:
      p.name = "audit";
      p.round_ops = 200000;
      p.warmup_ops = 5000;
      break;
    case Workload::kChurn:
      p.name = "churn";
      p.round_ops = 40000;  // ~4 trace records per cycle
      p.warmup_ops = 1000;
      break;
  }
  // One representative key per initial bucket: the smallest key the store's
  // hash sends there.
  p.rep_keys.assign(static_cast<size_t>(p.shards), UINT64_MAX);
  int found = 0;
  for (uint64_t k = 0; found < p.shards; ++k) {
    auto b = static_cast<size_t>(svc::hash_key(k) & static_cast<uint64_t>(p.shards - 1));
    if (p.rep_keys[b] == UINT64_MAX) {
      p.rep_keys[b] = k;
      ++found;
    }
  }
  return p;
}

std::vector<OpRec> make_stream(const Plan& p, int worker) {
  static const std::vector<Weighted> kIngest = {
      {Op::kCounterInc, 400}, {Op::kMaxWrite, 200}, {Op::kTasSet, 100},
      {Op::kSetPair, 75},     {Op::kCounterRead, 60}, {Op::kMaxRead, 40},
      {Op::kTasRead, 40},     {Op::kCounterSum, 5},  {Op::kGlobalMax, 5}};
  static const std::vector<Weighted> kLookup = {
      {Op::kCounterRead, 320}, {Op::kMaxRead, 320}, {Op::kTasRead, 300},
      {Op::kCounterSum, 5},    {Op::kGlobalMax, 5}, {Op::kCounterInc, 25},
      {Op::kMaxWrite, 15},     {Op::kTasSet, 10}};
  static const std::vector<Weighted> kAudit = {
      {Op::kTransfer, 400}, {Op::kMaxWrite, 200},  {Op::kMaxRead, 100},
      {Op::kSnapshot, 200}, {Op::kCounterSum, 50}, {Op::kGlobalMax, 50}};
  static const std::vector<Weighted> kChurn = {{Op::kChurn, 1}};
  const std::vector<Weighted>* table = nullptr;
  switch (p.workload) {
    case Workload::kIngest: table = &kIngest; break;
    case Workload::kLookup: table = &kLookup; break;
    case Workload::kAudit: table = &kAudit; break;
    case Workload::kChurn: table = &kChurn; break;
  }
  int total = 0;
  for (const Weighted& w : *table) total += w.weight;
  Rng r(worker_seed(p, worker));
  KeyGen keys(p);
  std::vector<OpRec> s;
  s.reserve(kStreamLen);
  while (s.size() < kStreamLen) s.push_back(make_op(draw(r, *table, total), p, keys, r));
  return s;
}

const char* span_name(SpanId id) {
  switch (id) {
    case SpanId::kOpCounterInc: return "op.counter_inc";
    case SpanId::kOpCounterRead: return "op.counter_read";
    case SpanId::kOpMaxWrite: return "op.max_write";
    case SpanId::kOpMaxRead: return "op.max_read";
    case SpanId::kOpTasSet: return "op.tas_set";
    case SpanId::kOpTasRead: return "op.tas_read";
    case SpanId::kOpSetPut: return "op.set_put";
    case SpanId::kOpSetTake: return "op.set_take";
    case SpanId::kOpTransfer: return "op.transfer";
    case SpanId::kOpSnapshot: return "op.snapshot";
    case SpanId::kOpCounterSum: return "op.counter_sum";
    case SpanId::kOpGlobalMax: return "op.global_max";
    case SpanId::kOpSessionOpen: return "op.session_open";
    case SpanId::kOpBind: return "op.bind";
    case SpanId::kOpSessionClose: return "op.session_close";
    case SpanId::kEpochStampRelaxed: return "epoch.stamp_relaxed";
    case SpanId::kEpochStamp: return "epoch.stamp";
    case SpanId::kServiceBind: return "service.bind";
    case SpanId::kFaiInc: return "shard.fai.inc";
    case SpanId::kFaiRead: return "shard.fai.read";
    case SpanId::kMaxregWrite: return "shard.maxreg.write";
    case SpanId::kMaxregRead: return "shard.maxreg.read";
    case SpanId::kTasSet: return "shard.tas.set";
    case SpanId::kTasRead: return "shard.tas.read";
    case SpanId::kSetPut: return "shard.set.put";
    case SpanId::kSetTake: return "shard.set.take";
    case SpanId::kSumAdd: return "digest.sum.add";
    case SpanId::kSumRead: return "digest.sum.read";
    case SpanId::kDmaxWrite: return "digest.max.write";
    case SpanId::kDmaxRead: return "digest.max.read";
    case SpanId::kJournalAppend: return "journal.append";
    case SpanId::kJournalTail: return "journal.tail_read";
    case SpanId::kJournalReplay: return "journal.replay";
    case SpanId::kOpScope: return "telemetry.opscope";
    case SpanId::kOpenWait: return "telemetry.open_wait";
    case SpanId::kTraceScope: return "trace.scope";
    case SpanId::kTraceEvent: return "trace.event";
    case SpanId::kLanesOpen: return "lanes.open";
    case SpanId::kLanesClose: return "lanes.close";
    case SpanId::kEmpty: return "harness.span";
    case SpanId::kCount: break;
  }
  return "unknown";
}

Client::Client(svc::C2Store& store, const Plan& plan)
    : store_(store),
      plan_(plan),
      routed_(plan.workload == Workload::kIngest),
      conserve_(plan.workload == Workload::kAudit),
      seen_max_(static_cast<size_t>(plan.shards), 0),
      seen_ctr_(static_cast<size_t>(plan.shards), 0),
      seen_tas_(static_cast<size_t>(plan.shards), 0),
      seen_snap_(plan.rep_keys.size(), 0) {
  tally_.net.assign(plan.rep_keys.size(), 0);
  if (plan.workload == Workload::kChurn) return;  // sessions per op
  s_ = store.open_session();
  if (plan.workload == Workload::kAudit) {
    std::vector<svc::SnapKey> keys;
    for (uint64_t k : plan.rep_keys) keys.push_back(svc::SnapKey::counter(k));
    for (uint64_t k : plan.rep_keys) keys.push_back(svc::SnapKey::max(k));
    snap_.emplace(s_.snapshot_ref(keys));
  }
  if (plan.workload == Workload::kLookup) {
    max_.reserve(kLookupKeys);
    ctr_.reserve(kLookupKeys);
    tas_.reserve(kLookupKeys);
    for (uint64_t k = 0; k < kLookupKeys; ++k) {
      max_.push_back(s_.max(k));
      ctr_.push_back(s_.counter(k));
      tas_.push_back(s_.tas(k));
    }
  } else if (plan.workload == Workload::kAudit) {
    for (uint64_t k : plan.rep_keys) max_.push_back(s_.max(k));
    tally_.bucket_max.assign(plan.rep_keys.size(), 0);
  }
}

uint64_t quiescent_checks(svc::C2Store& store, const Plan& plan,
                          const std::vector<const Tally*>& tallies,
                          std::vector<std::string>& why) {
  uint64_t failed = 0;
  auto check = [&](bool ok, const std::string& msg) {
    if (!ok) {
      ++failed;
      why.push_back(msg);
    }
  };
  int64_t incs = 0, maxw = 0;
  for (const Tally* t : tallies) {
    incs += t->incs;
    maxw = std::max(maxw, t->max_written);
  }
  svc::C2Session s = store.open_session();
  int64_t sum = s.counter_sum();
  check(sum == incs, "counter_sum() = " + std::to_string(sum) + " after " +
                         std::to_string(incs) + " incs");
  int64_t gmax = s.global_max();
  check(gmax == maxw, "global_max() = " + std::to_string(gmax) +
                          ", max written = " + std::to_string(maxw));
  const size_t nb = plan.rep_keys.size();
  if (plan.workload == Workload::kAudit) {
    // A fresh session's cursor starts at 0: this snapshot replays the whole
    // journal and must reproduce every bucket's net transfers and max.
    std::vector<svc::SnapKey> keys;
    for (uint64_t k : plan.rep_keys) keys.push_back(svc::SnapKey::counter(k));
    for (uint64_t k : plan.rep_keys) keys.push_back(svc::SnapKey::max(k));
    std::vector<int64_t> v = s.snapshot(keys);
    int64_t total = 0;
    for (size_t b = 0; b < nb; ++b) {
      int64_t net = 0, mx = 0;
      for (const Tally* t : tallies) {
        net += t->net[b];
        if (!t->bucket_max.empty()) mx = std::max(mx, t->bucket_max[b]);
      }
      total += v[b];
      check(v[b] == net, "bucket " + std::to_string(b) + " balance " +
                             std::to_string(v[b]) + " != net transfers " +
                             std::to_string(net));
      check(v[nb + b] == mx, "bucket " + std::to_string(b) + " snapshot max " +
                                 std::to_string(v[nb + b]) + " != written " +
                                 std::to_string(mx));
    }
    check(total == 0, "replayed ledger sums to " + std::to_string(total));
  }
  if (plan.workload == Workload::kIngest) {
    // Every put was taken back: each set bucket drains empty.
    for (size_t b = 0; b < nb; ++b) {
      check(s.set_take(plan.rep_keys[b]) == svc::C2Store::kEmpty,
            "set bucket " + std::to_string(b) + " not empty at quiescence");
    }
  }
  s.close();
  uint64_t dropped = 0;
  for (int lane = 0; lane < plan.lanes; ++lane) {
    if (const auto* lt = store.trace().peek_lane(lane)) dropped += lt->dropped();
  }
  check(dropped == 0, "trace dropped " + std::to_string(dropped) + " records");
  return failed;
}

void pin_worker(int w) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(w % n), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

int64_t rss_bytes() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

ThreadUsage thread_usage() {
  rusage u{};
#ifdef RUSAGE_THREAD
  getrusage(RUSAGE_THREAD, &u);
#else
  getrusage(RUSAGE_SELF, &u);
#endif
  return ThreadUsage{u.ru_minflt, u.ru_nvcsw + u.ru_nivcsw};
}

}  // namespace perfbench
