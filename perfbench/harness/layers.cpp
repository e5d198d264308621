// Traced run: per-layer cost stack, timed from outside the program.
//
// One pass = three phases over the same per-worker op stream, all workers
// running concurrently with the workload's worker count and lane/shard
// configuration:
//   composed    the stream through C2Store's public API, one span per store
//               call (op.*), plus primitive counts, trace counts and
//               getrusage deltas;
//   decomposed  the same stream replayed against standalone instances of
//               each layer (routing epoch, shard constructions, digests,
//               journal, telemetry, trace, lane registry), calling exactly
//               the public functions the composed op calls, one span per
//               call, parent op id shared;
//   null        the end-to-end harness loop with an empty op, for
//               harness.ns_per_op.
// A layer or op kind the workload never calls reads 0 with 0 samples. Values
// are medians over passes; spans of the last pass are written out at the
// end. End-to-end metrics never come from this run.
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "telemetry/trace_export.h"

namespace perfbench {

namespace {

namespace rt = c2sl::rt;
namespace tel = c2sl::tel;

constexpr size_t kAuditOps = 10000;  // entries per worker in the audit capture
constexpr size_t kEmptySpans = 20000;
// Most spans one stream entry can emit: a churn cycle makes 6 store calls,
// and 20 single-layer calls when decomposed. Span buffers are reserved for
// this many, so they never grow inside a timed loop.
constexpr size_t kMaxComposedSpans = 6;
constexpr size_t kMaxLayerSpans = 20;

/// Standalone layer instances for one decomposed phase.
struct LayerRig {
  explicit LayerRig(const Plan& p)
      : cfg(p.config()),
        epoch(p.shards),
        dmax(p.lanes, p.max_value),
        lanes(p.workers),
        bind_store(cfg) {
    for (int s = 0; s < p.shards; ++s) shards.push_back(std::make_unique<svc::ShardObjects>(cfg));
  }
  svc::C2StoreConfig cfg;
  rt::RoutingEpoch epoch;
  std::vector<std::unique_ptr<svc::ShardObjects>> shards;
  rt::CounterSumDigest sum;
  rt::NativeMaxRegister64 dmax;
  rt::KeyedVersionDigest journal;
  tel::StoreTelemetry tel;
  tel::StoreTrace trace;
  svc::LaneRegistry lanes;
  svc::C2Store bind_store;  ///< sessions for service.bind (ref binding)
};

template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Replays a stream entry as the sequence of single-layer calls the composed
/// store op makes, one span per call.
class Decomposer {
 public:
  Decomposer(LayerRig& rig, const Plan& p, int worker)
      : rig_(rig),
        p_(p),
        routed_(p.workload == Workload::kIngest),
        lane_(worker),
        bind_(rig.bind_store.open_session()),
        ctr_net_(p.rep_keys.size(), 0),
        max_seen_(p.rep_keys.size(), 0) {}

  uint64_t snapshots = 0, replayed = 0, takes = 0, empty_takes = 0;

  void run(const OpRec& o, SpanSink& k) {
    if (o.op == Op::kChurn) {
      churn(o, k);
    } else {
      keyed(o, k, lane_, routed_);
    }
  }

 private:
  template <class F>
  void span(SpanSink& k, SpanId id, F&& f) {
    int64_t t0 = SpanSink::now();
    f();
    k.op(id, Cls::kAll, t0, SpanSink::now());
  }
  void scopes(SpanSink& k, int lane, tel::TelOp op, int slot) {
    span(k, SpanId::kOpScope, [&] { tel::OpScope t(rig_.tel, rig_.tel.lane(lane), op, slot, 0); });
    span(k, SpanId::kTraceScope, [&] {
      tel::TraceScope tr(rig_.trace.lane(lane), static_cast<tel::TraceOp>(op), slot, 0);
      tr.set_witness(0);
    });
  }
  int slot_of(uint64_t key) const {
    return static_cast<int>(svc::hash_key(key) & static_cast<uint64_t>(p_.shards - 1));
  }
  svc::ShardObjects& shard(int slot) { return *rig_.shards[static_cast<size_t>(slot)]; }
  uint64_t key_of(const OpRec& o) const {
    // Audit binds its refs to the representative key of each bucket.
    return p_.workload == Workload::kAudit ? p_.rep_keys[o.key] : o.key;
  }

  void keyed(const OpRec& o, SpanSink& k, int lane, bool routed) {
    const uint64_t key = key_of(o);
    const int slot = slot_of(key);
    auto bind = [&](auto make) {
      if (routed) span(k, SpanId::kServiceBind, [&] { keep(make()); });
    };
    using Kind = rt::KeyedVersionDigest::Kind;
    switch (o.op) {
      case Op::kCounterInc:
        bind([&] { return bind_.counter(key); });
        scopes(k, lane, tel::TelOp::kCounterInc, slot);
        span(k, SpanId::kEpochStampRelaxed, [&] { keep(rig_.epoch.stamp_relaxed()); });
        span(k, SpanId::kFaiInc, [&] { keep(shard(slot).counter.fetch_and_increment()); });
        span(k, SpanId::kSumAdd, [&] { rig_.sum.add(lane); });
        span(k, SpanId::kJournalAppend, [&] { keep(rig_.journal.append(Kind::kCounterInc, slot, 0, 1)); });
        span(k, SpanId::kEpochStamp, [&] { keep(rig_.epoch.stamp()); });
        break;
      case Op::kCounterRead:
        bind([&] { return bind_.counter(key); });
        scopes(k, lane, tel::TelOp::kCounterRead, slot);
        span(k, SpanId::kEpochStampRelaxed, [&] { keep(rig_.epoch.stamp_relaxed()); });
        span(k, SpanId::kFaiRead, [&] { keep(shard(slot).counter.read()); });
        break;
      case Op::kMaxWrite:
        bind([&] { return bind_.max(key); });
        scopes(k, lane, tel::TelOp::kMaxWrite, slot);
        span(k, SpanId::kEpochStampRelaxed, [&] { keep(rig_.epoch.stamp_relaxed()); });
        span(k, SpanId::kMaxregWrite, [&] { shard(slot).max.write_max(lane, o.val); });
        span(k, SpanId::kDmaxWrite, [&] { rig_.dmax.write_max(lane, o.val); });
        span(k, SpanId::kJournalAppend, [&] { keep(rig_.journal.append(Kind::kMaxWrite, slot, 0, o.val)); });
        span(k, SpanId::kEpochStamp, [&] { keep(rig_.epoch.stamp()); });
        break;
      case Op::kMaxRead:
        bind([&] { return bind_.max(key); });
        scopes(k, lane, tel::TelOp::kMaxRead, slot);
        span(k, SpanId::kEpochStampRelaxed, [&] { keep(rig_.epoch.stamp_relaxed()); });
        span(k, SpanId::kMaxregRead, [&] { keep(shard(slot).max.read_max()); });
        break;
      case Op::kTasSet:
        bind([&] { return bind_.tas(key); });
        scopes(k, lane, tel::TelOp::kTasSet, slot);
        span(k, SpanId::kEpochStampRelaxed, [&] { keep(rig_.epoch.stamp_relaxed()); });
        span(k, SpanId::kTasSet, [&] { keep(shard(slot).tas.test_and_set(lane)); });
        span(k, SpanId::kEpochStamp, [&] { keep(rig_.epoch.stamp()); });
        break;
      case Op::kTasRead:
        bind([&] { return bind_.tas(key); });
        scopes(k, lane, tel::TelOp::kTasRead, slot);
        span(k, SpanId::kEpochStampRelaxed, [&] { keep(rig_.epoch.stamp_relaxed()); });
        span(k, SpanId::kTasRead, [&] { keep(shard(slot).tas.read()); });
        break;
      case Op::kSetPair: {
        bind([&] { return bind_.set(key); });
        scopes(k, lane, tel::TelOp::kSetPut, slot);
        span(k, SpanId::kSetPut, [&] { shard(slot).set.put(++item_); });
        bind([&] { return bind_.set(key); });
        scopes(k, lane, tel::TelOp::kSetTake, slot);
        int64_t v = 0;
        span(k, SpanId::kSetTake, [&] { v = shard(slot).set.take(); });
        ++takes;
        if (v == rt::NativeSet::kEmpty) ++empty_takes;
        break;
      }
      case Op::kTransfer:
        scopes(k, lane, tel::TelOp::kTransfer, -1);
        span(k, SpanId::kJournalAppend, [&] {
          keep(rig_.journal.append(Kind::kTransfer, static_cast<int>(o.key), o.b, o.val));
        });
        break;
      case Op::kSnapshot: {
        scopes(k, lane, tel::TelOp::kSnapshot, -1);
        int64_t tail = 0;
        span(k, SpanId::kJournalTail, [&] { tail = rig_.journal.version(); });
        span(k, SpanId::kJournalReplay, [&] { replay(tail); });
        break;
      }
      case Op::kCounterSum:
        scopes(k, lane, tel::TelOp::kCounterSum, -1);
        span(k, SpanId::kSumRead, [&] { keep(rig_.sum.read()); });
        break;
      case Op::kGlobalMax:
        scopes(k, lane, tel::TelOp::kGlobalMax, -1);
        span(k, SpanId::kDmaxRead, [&] { keep(rig_.dmax.read_max()); });
        break;
      case Op::kChurn:
      case Op::kCount:
        break;
    }
  }

  /// Folds journal entries [cursor, tail) the way a session's snapshot
  /// replay does, through the journal's public entry() reader.
  void replay(int64_t tail) {
    using Kind = rt::KeyedVersionDigest::Kind;
    ++snapshots;
    replayed += static_cast<uint64_t>(tail - cursor_);
    for (; cursor_ < tail; ++cursor_) {
      rt::KeyedVersionDigest::EntryView e = rig_.journal.entry(cursor_);
      auto a = static_cast<size_t>(e.shard_a);
      if (e.kind == Kind::kCounterInc) {
        ctr_net_[a] += e.v;
      } else if (e.kind == Kind::kMaxWrite) {
        max_seen_[a] = std::max(max_seen_[a], e.v);
      } else if (e.kind == Kind::kTransfer) {
        ctr_net_[a] -= e.v;
        ctr_net_[static_cast<size_t>(e.shard_b)] += e.v;
      }
    }
    keep(ctr_net_.data());
  }

  void churn(const OpRec& o, SpanSink& k) {
    int lane = svc::LaneRegistry::kNone;
    span(k, SpanId::kLanesOpen, [&] { lane = rig_.lanes.acquire_for(std::chrono::seconds(1)); });
    if (lane == svc::LaneRegistry::kNone) return;
    span(k, SpanId::kOpenWait, [&] {
      tel::OpenTimer timer;
      rig_.tel.record_open_wait(rig_.tel.lane(lane), timer.elapsed_ns());
    });
    span(k, SpanId::kTraceEvent, [&] {
      rig_.trace.record_event(rig_.trace.lane(lane), tel::TraceOp::kSessionOpen, -1, 0, lane, -1, -1);
    });
    span(k, SpanId::kServiceBind, [&] { keep(bind_.counter(o.key)); });
    OpRec inc = o;
    inc.op = Op::kCounterInc;
    keyed(inc, k, lane, false);
    inc.op = Op::kCounterRead;
    keyed(inc, k, lane, false);
    if (o.b != 0) {
      inc.op = Op::kCounterSum;
      keyed(inc, k, lane, false);
    }
    span(k, SpanId::kTraceEvent, [&] {
      rig_.trace.record_event(rig_.trace.lane(lane), tel::TraceOp::kSessionClose, -1, 0, lane, -1, -1);
    });
    span(k, SpanId::kLanesClose, [&] { rig_.lanes.release(lane); });
  }

  LayerRig& rig_;
  const Plan& p_;
  bool routed_;
  int lane_;
  svc::C2Session bind_;
  int64_t item_ = 0;
  int64_t cursor_ = 0;
  std::vector<int64_t> ctr_net_, max_seen_;
};

/// Per span name: calls and summed ticks.
struct SpanStats {
  std::array<uint64_t, kSpanCount> n{};
  std::array<int64_t, kSpanCount> ticks{};
  void add(const std::vector<Span>& v) {
    for (const Span& s : v) {
      ++n[s.name];
      ticks[s.name] += s.t1 - s.t0;
    }
  }
};

/// Everything one pass measured.
struct PassOut {
  SpanStats composed, decomposed;
  double empty_ticks = 0;  ///< mean duration of an empty span
  double null_ticks_per_op = 0;
  int64_t ops = 0;
  uint64_t failures = 0;
  c2sl::tel::PrimCounts prims;
  int64_t minflt = 0, ctxsw = 0;
  uint64_t records = 0, dropped = 0;
  int64_t parks = 0;
  uint64_t snapshots = 0, replayed = 0, takes = 0, empty_takes = 0;
  uint64_t grew_spans = 0;  ///< span buffers that reallocated mid-loop
  std::vector<std::vector<Span>> composed_spans, decomposed_spans;
};

template <class Body>
void run_workers(int n, Body body) {
  Gate gate(n);
  std::vector<std::thread> threads;
  for (int w = 0; w < n; ++w) threads.emplace_back([&, w] {
    pin_worker(w);
    body(w, gate);
  });
  for (std::thread& t : threads) t.join();
}

PassOut run_pass(const Plan& p, const std::vector<std::vector<OpRec>>& streams,
                 size_t n, std::vector<std::string>& why) {
  PassOut out;
  const auto W = static_cast<size_t>(p.workers);
  out.composed_spans.resize(W);
  out.decomposed_spans.resize(W);

  // Empty spans: the harness's own cost per span, subtracted from every span.
  std::vector<double> empty(W, 0.0);
  run_workers(p.workers, [&](int w, Gate& g) {
    SpanSink k;
    k.spans.reserve(kEmptySpans);
    g.arrive_and_wait();
    for (size_t i = 0; i < kEmptySpans; ++i) {
      int64_t t0 = SpanSink::now();
      k.op(SpanId::kEmpty, Cls::kAll, t0, SpanSink::now());
    }
    SpanStats s;
    s.add(k.spans);
    empty[static_cast<size_t>(w)] = static_cast<double>(s.ticks[static_cast<size_t>(SpanId::kEmpty)]) / kEmptySpans;
  });
  for (double e : empty) out.empty_ticks += e / static_cast<double>(W);

  // Null op through the end-to-end loop: what the harness adds per op.
  {
    std::vector<double> per_op(W, 0.0);
    run_workers(p.workers, [&](int w, Gate& g) {
      const std::vector<OpRec>& s = streams[static_cast<size_t>(w)];
      HistSink sink;
      g.arrive_and_wait();
      int64_t t0 = ticks();
      for (size_t i = 0; i < n; ++i) {
        const OpRec& o = s[i % s.size()];
        int64_t a = ticks();
        keep(o.key);
        sink.op(SpanId::kEmpty, Cls::kRead, a, ticks());
      }
      per_op[static_cast<size_t>(w)] = static_cast<double>(ticks() - t0) / static_cast<double>(n);
      keep(sink.h[0].count());
    });
    for (double v : per_op) out.null_ticks_per_op += v / static_cast<double>(W);
  }

  // Composed: the stream through the store.
  {
    auto store = std::make_unique<svc::C2Store>(p.config());
    std::vector<Tally> tallies(W);
    std::vector<int64_t> ops(W, 0), minflt(W, 0), ctxsw(W, 0);
    std::vector<uint64_t> fails(W, 0);
    std::vector<c2sl::tel::PrimCounts> prims(W);
    std::vector<char> grew(W, 0);
    run_workers(p.workers, [&](int w, Gate& g) {
      const auto uw = static_cast<size_t>(w);
      const std::vector<OpRec>& s = streams[uw];
      Client c(*store, p);
      SpanSink k;
      k.spans.reserve(n * kMaxComposedSpans);
      const size_t cap = k.spans.capacity();
      g.arrive_and_wait();
      ThreadUsage u0 = thread_usage();
      c2sl::tel::PrimCounts pr0 = c2sl::tel::this_thread_prims();
      for (size_t i = 0; i < n; ++i) {
        k.op_id = static_cast<uint32_t>(i);
        ops[uw] += c.run(s[i % s.size()], k);
      }
      prims[uw] = c2sl::tel::this_thread_prims() - pr0;
      ThreadUsage u1 = thread_usage();
      minflt[uw] = u1.minflt - u0.minflt;
      ctxsw[uw] = u1.ctxsw - u0.ctxsw;
      fails[uw] = c.failures();
      grew[uw] = k.spans.capacity() != cap;
      tallies[uw] = c.tally();
      out.composed_spans[uw] = std::move(k.spans);
    });
    std::vector<const Tally*> tp;
    for (size_t w = 0; w < W; ++w) {
      out.ops += ops[w];
      out.failures += fails[w];
      out.prims.faa += prims[w].faa;
      out.prims.tas += prims[w].tas;
      out.prims.swap += prims[w].swap;
      out.minflt += minflt[w];
      out.ctxsw += ctxsw[w];
      out.composed.add(out.composed_spans[w]);
      out.grew_spans += static_cast<uint64_t>(grew[w]);
      tp.push_back(&tallies[w]);
    }
    for (int lane = 0; lane < p.lanes; ++lane) {
      if (const auto* lt = store->trace().peek_lane(lane)) {
        out.records += lt->published();
        out.dropped += lt->dropped();
      }
    }
    out.parks = store->lane_handoff_parks();
    out.failures += quiescent_checks(*store, p, tp, why);
  }

  // Decomposed: the same stream against standalone layers.
  {
    LayerRig rig(p);
    std::vector<std::unique_ptr<Decomposer>> ds(W);
    std::vector<char> grew(W, 0);
    run_workers(p.workers, [&](int w, Gate& g) {
      const auto uw = static_cast<size_t>(w);
      const std::vector<OpRec>& s = streams[uw];
      ds[uw] = std::make_unique<Decomposer>(rig, p, w);
      SpanSink k;
      k.spans.reserve(n * kMaxLayerSpans);
      const size_t cap = k.spans.capacity();
      g.arrive_and_wait();
      for (size_t i = 0; i < n; ++i) {
        k.op_id = static_cast<uint32_t>(i);
        ds[uw]->run(s[i % s.size()], k);
      }
      grew[uw] = k.spans.capacity() != cap;
      out.decomposed_spans[uw] = std::move(k.spans);
    });
    for (size_t w = 0; w < W; ++w) {
      out.decomposed.add(out.decomposed_spans[w]);
      out.snapshots += ds[w]->snapshots;
      out.replayed += ds[w]->replayed;
      out.takes += ds[w]->takes;
      out.empty_takes += ds[w]->empty_takes;
      out.grew_spans += static_cast<uint64_t>(grew[w]);
    }
    ds.clear();  // sessions on rig.bind_store close before the rig dies
  }
  if (out.grew_spans != 0) {
    out.failures += out.grew_spans;
    why.push_back("a span buffer reallocated inside a timed traced loop");
  }
  return out;
}

void write_spans(const std::string& path, const PassOut& pass, double npt) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "c2bench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::string names;
  for (int i = 0; i < kSpanCount; ++i) {
    names += std::string(i ? "," : "") + "\"" + span_name(static_cast<SpanId>(i)) + "\"";
  }
  std::fprintf(f,
               "{\"format\":\"perfbench-spans-v1\",\"ns_per_tick\":%.9f,"
               "\"record\":\"u32 name,u32 op_id,i64 t0,i64 t1\",\"names\":[%s]}\n",
               npt, names.c_str());
  auto dump = [&](const std::vector<std::vector<Span>>& per_worker, uint32_t phase) {
    for (size_t w = 0; w < per_worker.size(); ++w) {
      uint32_t hdr[2] = {phase, static_cast<uint32_t>(w)};
      uint64_t count = per_worker[w].size();
      std::fwrite(hdr, sizeof hdr, 1, f);
      std::fwrite(&count, sizeof count, 1, f);
      std::fwrite(per_worker[w].data(), sizeof(Span), per_worker[w].size(), f);
    }
  };
  dump(pass.composed_spans, 0);
  dump(pass.decomposed_spans, 1);
  std::fclose(f);
}

/// A short composed run on a fresh store whose witness trace is exported for
/// tools/trace_audit.py.
uint64_t capture_trace(const Plan& p, const std::string& path, Report& rep) {
  auto store = std::make_unique<svc::C2Store>(p.config());
  std::vector<Tally> tallies(static_cast<size_t>(p.workers));
  std::vector<uint64_t> fails(static_cast<size_t>(p.workers), 0);
  std::vector<int64_t> ops(static_cast<size_t>(p.workers), 0);
  run_workers(p.workers, [&](int w, Gate& g) {
    const auto uw = static_cast<size_t>(w);
    std::vector<OpRec> s = make_stream(p, w);
    Client c(*store, p);
    HistSink sink;
    g.arrive_and_wait();
    for (size_t i = 0; i < kAuditOps; ++i) ops[uw] += c.run(s[i], sink);
    fails[uw] = c.failures();
    tallies[uw] = c.tally();
  });
  std::vector<const Tally*> tp;
  for (size_t w = 0; w < tallies.size(); ++w) {
    tp.push_back(&tallies[w]);
    rep.failed += fails[w];
    rep.attempted += static_cast<uint64_t>(ops[w]);
  }
  rep.failed += quiescent_checks(*store, p, tp, rep.why);
  std::string json = tel::trace_to_json(store->trace_dump(), "perfbench/" + p.name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  uint64_t records = 0;
  for (int lane = 0; lane < p.lanes; ++lane) {
    if (const auto* lt = store->trace().peek_lane(lane)) records += lt->published();
  }
  return records;
}

}  // namespace

Report run_layers(const Plan& plan, double seconds, const TickClock& clock,
                  const std::string& spans_path, const std::string& trace_path) {
  Report rep;
  const auto W = static_cast<size_t>(plan.workers);
  std::vector<std::vector<OpRec>> streams(W);
  for (int w = 0; w < plan.workers; ++w) streams[static_cast<size_t>(w)] = make_stream(plan, w);

  // Per metric, one value per pass and the observations behind them;
  // medians at the end.
  std::map<std::string, std::vector<double>> vals;
  std::map<std::string, std::string> units;
  std::map<std::string, uint64_t> samples;
  std::vector<std::string> order;
  auto put = [&](const std::string& name, double v, const std::string& unit, uint64_t n) {
    if (!units.count(name)) order.push_back(name);
    units[name] = unit;
    vals[name].push_back(v);
    samples[name] += n;
  };

  // A tenth of a timed round per worker per pass: short passes, many of them.
  const size_t pass_ops = plan.round_ops / 10;
  PassOut last;
  const int64_t start = wall_ns();
  const double npt = clock.ns_per_tick();
  do {
    PassOut m = run_pass(plan, streams, pass_ops, rep.why);
    rep.attempted += static_cast<uint64_t>(m.ops);
    rep.failed += m.failures;
    const double empty = m.empty_ticks * npt;
    // Mean net ns per call of one span name; 0 when the workload never
    // makes that call.
    auto mean_net = [&](const SpanStats& st, SpanId id) {
      const auto i = static_cast<size_t>(id);
      return st.n[i] ? static_cast<double>(st.ticks[i]) * npt / static_cast<double>(st.n[i]) - empty
                     : 0.0;
    };
    auto calls = [](const SpanStats& st, SpanId id) { return st.n[static_cast<size_t>(id)]; };
    const double ops = static_cast<double>(m.ops);
    const auto uops = static_cast<uint64_t>(m.ops);
    double composed_net = 0, layers_net = 0, composed_raw = 0;
    uint64_t composed_spans = 0, layer_spans = 0;
    for (int i = 0; i < kSpanCount; ++i) {
      const auto id = static_cast<size_t>(i);
      if (i <= static_cast<int>(SpanId::kOpLast)) {
        composed_net += static_cast<double>(m.composed.ticks[id]) * npt -
                        static_cast<double>(m.composed.n[id]) * empty;
        composed_raw += static_cast<double>(m.composed.ticks[id]) * npt;
        composed_spans += m.composed.n[id];
      } else {
        layers_net += static_cast<double>(m.decomposed.ticks[id]) * npt -
                      static_cast<double>(m.decomposed.n[id]) * empty;
        layer_spans += m.decomposed.n[id];
      }
    }

    put("harness.ns_per_op", m.null_ticks_per_op * npt, "ns", uops);
    put("harness.span_ns", empty, "ns", kEmptySpans * W);
    put("harness.span_overhead_ratio",
        composed_raw > 0 ? static_cast<double>(composed_spans) * empty / composed_raw : 0.0,
        "ratio", composed_spans);
    const std::pair<const char*, SpanId> layer_metrics[] = {
        {"epoch.stamp_relaxed_ns", SpanId::kEpochStampRelaxed},
        {"epoch.stamp_ns", SpanId::kEpochStamp},
        {"service.bind_ns", SpanId::kServiceBind},
        {"shard.fai.inc_ns", SpanId::kFaiInc},
        {"shard.fai.read_ns", SpanId::kFaiRead},
        {"shard.maxreg.write_ns", SpanId::kMaxregWrite},
        {"shard.maxreg.read_ns", SpanId::kMaxregRead},
        {"shard.tas.set_ns", SpanId::kTasSet},
        {"shard.tas.read_ns", SpanId::kTasRead},
        {"shard.set.put_ns", SpanId::kSetPut},
        {"shard.set.take_ns", SpanId::kSetTake},
        {"digest.sum.add_ns", SpanId::kSumAdd},
        {"digest.sum.read_ns", SpanId::kSumRead},
        {"digest.max.write_ns", SpanId::kDmaxWrite},
        {"digest.max.read_ns", SpanId::kDmaxRead},
        {"journal.append_ns", SpanId::kJournalAppend},
        {"journal.tail_read_ns", SpanId::kJournalTail},
        {"telemetry.opscope_ns", SpanId::kOpScope},
        {"telemetry.open_wait_ns", SpanId::kOpenWait},
        {"trace.scope_ns", SpanId::kTraceScope},
        {"trace.event_ns", SpanId::kTraceEvent},
        {"lanes.open_ns", SpanId::kLanesOpen},
        {"lanes.close_ns", SpanId::kLanesClose},
    };
    for (const auto& [name, id] : layer_metrics) {
      put(name, mean_net(m.decomposed, id), "ns", calls(m.decomposed, id));
    }
    put("shard.set.take_empty_ratio",
        m.takes ? static_cast<double>(m.empty_takes) / static_cast<double>(m.takes) : 0.0,
        "ratio", m.takes);
    {
      const double replay_ticks =
          static_cast<double>(m.decomposed.ticks[static_cast<size_t>(SpanId::kJournalReplay)]);
      const double replay_calls = static_cast<double>(calls(m.decomposed, SpanId::kJournalReplay));
      put("journal.replay_ns_per_entry",
          m.replayed ? (replay_ticks * npt - replay_calls * empty) / static_cast<double>(m.replayed)
                     : 0.0,
          "ns", m.replayed);
      put("journal.entries_per_snapshot",
          m.snapshots ? static_cast<double>(m.replayed) / static_cast<double>(m.snapshots) : 0.0,
          "count", m.snapshots);
    }
    put("trace.records_per_op", static_cast<double>(m.records) / ops, "count", uops);
    put("trace.dropped_ratio",
        static_cast<double>(m.dropped) / static_cast<double>(m.records + m.dropped), "ratio",
        m.records + m.dropped);
    {
      const uint64_t opens = calls(m.composed, SpanId::kOpSessionOpen);
      put("lanes.parks_per_open",
          opens ? static_cast<double>(m.parks) / static_cast<double>(opens) : 0.0, "count", opens);
    }
    put("prims.faa_per_op", static_cast<double>(m.prims.faa) / ops, "count", uops);
    put("prims.tas_per_op", static_cast<double>(m.prims.tas) / ops, "count", uops);
    put("prims.swap_per_op", static_cast<double>(m.prims.swap) / ops, "count", uops);
    for (int i = 0; i <= static_cast<int>(SpanId::kOpLast); ++i) {
      const auto id = static_cast<SpanId>(i);
      put(std::string(span_name(id)) + "_ns", mean_net(m.composed, id), "ns", calls(m.composed, id));
    }
    put("op.mix_ns", composed_net / ops, "ns", composed_spans);
    put("layers.sum_ns_per_op", layers_net / ops, "ns", layer_spans);
    put("unattributed_ns_per_op", (composed_net - layers_net) / ops, "ns", uops);
    put("sys.minor_faults_per_kop", static_cast<double>(m.minflt) * 1000.0 / ops, "count", uops);
    put("sys.ctx_switches_per_kop", static_cast<double>(m.ctxsw) * 1000.0 / ops, "count", uops);
    if (m.dropped != 0) {
      ++rep.failed;
      rep.why.push_back("trace dropped " + std::to_string(m.dropped) + " records in a traced pass");
    }
    last = std::move(m);
  } while (static_cast<double>(wall_ns() - start) < seconds * 1e9);

  for (const std::string& name : order) {
    rep.metrics.push_back({name, median(vals[name]), units[name], samples[name]});
  }
  write_spans(spans_path, last, clock.ns_per_tick());
  uint64_t records = capture_trace(plan, trace_path, rep);
  rep.metrics.push_back({"audit.trace_records", static_cast<double>(records), "count", records});
  return rep;
}

}  // namespace perfbench
