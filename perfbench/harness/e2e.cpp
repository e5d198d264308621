// Untraced end-to-end run. Each round builds a fresh store (so no lane's
// witness trace reaches C2SL_TRACE_CAP), opens one session per worker, binds
// refs, warms up, then times a fixed number of closed-loop ops per worker.
// The first round is a discarded warm-up that also measures memory growth:
// it is the only round whose trace-arena pages are touched for the first
// time, so arena reuse in later rounds cannot hide the per-op footprint.
#include <memory>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

struct Worker {
  std::vector<OpRec> stream;
  size_t pos = 0;
  HistSink sink;
  int64_t ops = 0;
  int64_t end_tick = 0;
  uint64_t failures = 0;
  Tally tally;

  const OpRec& next() {
    const OpRec& o = stream[pos];
    pos = pos + 1 == stream.size() ? 0 : pos + 1;
    return o;
  }
};

struct RoundOut {
  int64_t setup_ticks = 0;
  double ops_per_tick = 0;  ///< sum over workers of ops / own timed ticks
  int64_t ops = 0;          ///< store ops in the timed region
  int64_t all_ops = 0;      ///< including set-up warm-up ops
  int64_t rss_growth = 0;
  uint64_t failures = 0;
};

RoundOut run_round(const Plan& plan, std::vector<Worker>& ws,
                   std::vector<std::string>& why) {
  RoundOut out;
  const int64_t rss0 = rss_bytes();
  const int64_t t_setup = ticks();
  auto store = std::make_unique<svc::C2Store>(plan.config());
  Gate gate(plan.workers);
  std::vector<int64_t> warm_ops(ws.size(), 0);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < ws.size(); ++w) {
    threads.emplace_back([&, w] {
      pin_worker(static_cast<int>(w));
      Worker& me = ws[w];
      Client c(*store, plan);
      // Warm-up records into the worker's own sink, reset before the timed
      // ops, so no harness memory is first touched inside a round.
      for (size_t i = 0; i < plan.warmup_ops; ++i) warm_ops[w] += c.run(me.next(), me.sink);
      for (Hist& h : me.sink.h) h.reset();
      gate.arrive_and_wait();
      int64_t ops = 0;
      for (size_t i = 0; i < plan.round_ops; ++i) ops += c.run(me.next(), me.sink);
      me.end_tick = ticks();
      me.ops = ops;
      me.failures = c.failures();
      me.tally = c.tally();
    });
  }
  for (std::thread& t : threads) t.join();
  out.rss_growth = rss_bytes() - rss0;
  out.setup_ticks = gate.open_tick() - t_setup;
  // Each worker's rate over its own timed region, summed: a worker slowed
  // by the host (another tenant on its CPU) costs its own share of the
  // throughput, not every worker's.
  std::vector<const Tally*> tallies;
  for (size_t w = 0; w < ws.size(); ++w) {
    out.ops_per_tick += static_cast<double>(ws[w].ops) /
                        static_cast<double>(ws[w].end_tick - gate.open_tick());
    out.ops += ws[w].ops;
    out.all_ops += ws[w].ops + warm_ops[w];
    out.failures += ws[w].failures;
    tallies.push_back(&ws[w].tally);
  }
  out.failures += quiescent_checks(*store, plan, tallies, why);
  return out;
}

}  // namespace

Report run_e2e(const Plan& plan, double seconds, const TickClock& clock) {
  std::vector<Worker> ws(static_cast<size_t>(plan.workers));
  for (int w = 0; w < plan.workers; ++w) {
    ws[static_cast<size_t>(w)].stream = make_stream(plan, w);
    ws[static_cast<size_t>(w)].sink.cycle_mode = plan.workload == Workload::kChurn;
  }
  Report rep;

  RoundOut warm = run_round(plan, ws, rep.why);
  rep.failed += warm.failures;
  const double mem_per_op =
      static_cast<double>(warm.rss_growth) / static_cast<double>(warm.all_ops);

  struct Quantiles {
    std::vector<double> p50, p99;
    uint64_t samples = 0;
  };
  std::array<Quantiles, kClsCount> q;
  std::vector<double> thr_ticks, setup_ticks;
  const int64_t start = wall_ns();
  do {
    RoundOut r = run_round(plan, ws, rep.why);
    rep.failed += r.failures;
    rep.attempted += static_cast<uint64_t>(r.ops);
    thr_ticks.push_back(r.ops_per_tick);
    setup_ticks.push_back(static_cast<double>(r.setup_ticks));
    for (int c = 0; c < kClsCount; ++c) {
      Hist merged;
      for (const Worker& w : ws) merged.merge(w.sink.h[static_cast<size_t>(c)]);
      Quantiles& qc = q[static_cast<size_t>(c)];
      qc.samples += merged.count();
      if (merged.count() == 0) continue;
      qc.p50.push_back(merged.quantile(0.50));
      qc.p99.push_back(merged.quantile(0.99));
    }
  } while (static_cast<double>(wall_ns() - start) < seconds * 1e9);

  const double npt = clock.ns_per_tick();
  const auto rounds = static_cast<uint64_t>(thr_ticks.size());
  auto lat = [&](const char* name, Cls c, bool p99) {
    const Quantiles& qc = q[static_cast<size_t>(c)];
    rep.metrics.push_back(
        {name, median(p99 ? qc.p99 : qc.p50) * npt, "ns", qc.samples});
  };
  rep.metrics.push_back({"throughput_ops_s", median(thr_ticks) / npt * 1e9, "1/s",
                         rep.attempted});
  lat("p50_ns", Cls::kAll, false);
  lat("p99_ns", Cls::kAll, true);
  lat("read_p50_ns", Cls::kRead, false);
  lat("read_p99_ns", Cls::kRead, true);
  lat("write_p50_ns", Cls::kWrite, false);
  lat("write_p99_ns", Cls::kWrite, true);
  lat("query_p50_ns", Cls::kQuery, false);
  lat("query_p99_ns", Cls::kQuery, true);
  lat("open_p50_ns", Cls::kOpen, false);
  rep.metrics.push_back({"mem_bytes_per_op", mem_per_op, "B/op",
                         static_cast<uint64_t>(warm.all_ops)});
  rep.metrics.push_back({"setup_s", median(setup_ticks) * npt * 1e-9, "s", rounds});
  rep.metrics.push_back({"rounds", static_cast<double>(rounds), "count", rounds});
  return rep;
}

}  // namespace perfbench
