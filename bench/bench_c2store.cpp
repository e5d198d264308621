// C2Store service benchmark: thread-scaling sweep (1..hardware_concurrency),
// shard-count ablation, and the canonical op mixes, driven through the
// workload engine. Emits one c2sl-bench-v1 suite document (BENCH_c2store.json
// by default) and a human-readable summary on stdout.
//
//   $ ./bench_c2store [--quick] [--out FILE] [--ops N] [--threads-max N]
//                     [--bind cached|per_op] [--keys int|string] [--key-space N]
//                     [--sum-impl digest|scan] [--snap-impl digest|loop]
//
// --quick shrinks op counts for CI smoke runs. --bind selects the ref binding
// mode for every entry (bench names stay identical across modes), so two runs
// give the key-bound-refs vs per-op-routing comparison that tools/bench_diff
// gates in CI:
//
//   $ ./bench_c2store --keys string --bind per_op --out BENCH_perop.json
//   $ ./bench_c2store --keys string --bind cached --out BENCH_refs.json
//   $ tools/bench_diff.py BENCH_perop.json BENCH_refs.json
//
// --keys string is where bind-time caching earns its keep (FNV over every key
// byte per op otherwise); int keys route through one ~free SplitMix64 mix, so
// per-op routing is already competitive there. For the A/B gate use a
// --key-space that keeps the per-thread ref tables cache-resident (e.g. 512):
// at the default 4096, a timesliced many-thread run measures ref-TABLE
// eviction, not routing cost — real clients bind handles for their hot keys.
//
// --sum-impl selects how kCounterSum ops read the aggregate: the wait-free
// strongly-linearizable digest word (default) or the bounded double-collect
// scan of src/baselines/collect_scans.h. Bench names stay identical across
// the modes, so two runs give the scan-vs-digest ablation CI gates on the
// sum_heavy mix with a NEGATIVE bench_diff threshold (digest must beat the
// scan):
//
//   $ ./bench_c2store --sum-impl scan   --out BENCH_sum_scan.json
//   $ ./bench_c2store --sum-impl digest --out BENCH_sum_digest.json
//   $ tools/bench_diff.py BENCH_sum_scan.json BENCH_sum_digest.json
//         --bench-filter '^mix/sum_heavy$' --threshold=-0.10
//         --metrics throughput_ops_per_s     (one shell line)
//
// --acquire selects how the mix/session_churn entry (more worker threads
// than lanes; every op a full open->use->close cycle; latency percentiles
// are OPEN latencies) acquires its sessions: "block" parks on the handoff
// queue (open_session), "try" runs the retired try_open_session poll loop.
// Two runs give the acquisition ablation CI gates on that entry (block must
// not lose to try-poll):
//
//   $ ./bench_c2store --acquire try   --out BENCH_acquire_try.json
//   $ ./bench_c2store --acquire block --out BENCH_acquire_block.json
//   $ tools/bench_diff.py BENCH_acquire_try.json BENCH_acquire_block.json
//         --bench-filter '^mix/session_churn$' --threshold 0.30
//         --metrics throughput_ops_per_s,latency_ns.p50   (one shell line)
//
// --snap-impl selects how mix/snapshot_heavy's kSnapshot ops read the
// multi-key aggregate: the strongly linearizable journal-replay SnapshotRef
// ("digest", default) or the naive per-key read loop ("loop") — not even
// linearizable as one operation (the sim layer pins the refutation); it is
// the what-strong-linearizability-costs baseline. It costs nothing: the
// loop pays shard_count per-key digest reads per snapshot while the
// journal replay is one tail FAA plus the entries since the session's
// cursor, so digest WINS (2.3x locally at 4 threads) and CI gates it as an
// improvement requirement with a NEGATIVE threshold:
//
//   $ ./bench_c2store --snap-impl loop   --out BENCH_snap_loop.json
//   $ ./bench_c2store --snap-impl digest --out BENCH_snap_digest.json
//   $ tools/bench_diff.py BENCH_snap_loop.json BENCH_snap_digest.json
//         --bench-filter '^mix/snapshot_heavy$' --threshold=-0.10
//         --metrics throughput_ops_per_s   (one shell line)
//
// mix/transfer_audit (concurrent transfers + live conservation-checked
// snapshots) always runs snap_impl=digest — the loop cannot conserve, which
// is the refutation, not an ablation — so that entry is identical across
// --snap-impl runs.
//
// --resize-impl selects how mix/resize_storm serves its live shard resizes
// (worker 0 doubles the shard count every --resize-every of its ops, from 4
// shards up to the engine cap): "inplace" is the epoch hand-off — resizes run
// concurrently with data ops; "rebuild" is the stop-the-world baseline —
// every data op holds a reader lock and the resizer drains the store under
// the writer lock first. Two runs give the resize ablation CI gates on that
// entry with a NEGATIVE threshold (in-place must win):
//
//   $ ./bench_c2store --resize-impl rebuild --out BENCH_resize_rebuild.json
//   $ ./bench_c2store --resize-impl inplace --out BENCH_resize_inplace.json
//   $ tools/bench_diff.py BENCH_resize_rebuild.json BENCH_resize_inplace.json
//         --bench-include mix/resize_storm --threshold=-0.10
//         --metrics throughput_ops_per_s   (one shell line)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/trace_export.h"
#include "workload/engine.h"

using namespace c2sl;

namespace {

struct Args {
  bool quick = false;
  std::string out = "BENCH_c2store.json";
  uint64_t ops = 5000;
  bool ops_explicit = false;  // --quick only lowers ops when --ops is absent
  int threads_max = 0;        // 0 == hardware_concurrency
  std::string bind = "cached";
  std::string keys = "int";
  std::string sum_impl = "digest";
  std::string acquire = "block";
  std::string snap_impl = "digest";
  std::string resize_impl = "inplace";
  /// Worker 0's resize cadence for the mix/resize_storm entry (ops between
  /// shard-count doublings); 0 picks ops/8 so every run resizes a few times
  /// regardless of --ops / --quick.
  uint64_t resize_every = 0;
  uint64_t key_space = 4096;
  /// c2sl-metrics-v1 JSON snapshot of the mix/mixed run's store telemetry
  /// (plus the primitive-op calibration profile); empty = don't write. CI's
  /// overhead-ablation job uploads this as the `c2sl-metrics` artifact.
  std::string metrics_out;
  /// Same snapshot as a Prometheus text exposition; empty = don't write.
  std::string prom_out;
  /// c2sl-trace-v1 JSON of the mix/mixed run's witness trace; empty = don't
  /// write. CI's trace job audits this with tools/trace_audit.py.
  std::string trace_out;
  /// Same for the mix/transfer_audit run (the conservation-cut audit).
  std::string trace_audit_out;
  /// Chrome trace-event JSON of the mix/mixed run (chrome://tracing).
  std::string chrome_trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      a.out = argv[++i];
    } else if (arg == "--ops" && i + 1 < argc) {
      a.ops = std::strtoull(argv[++i], nullptr, 10);
      a.ops_explicit = true;
    } else if (arg == "--threads-max" && i + 1 < argc) {
      a.threads_max = std::atoi(argv[++i]);
    } else if (arg == "--bind" && i + 1 < argc) {
      a.bind = argv[++i];
    } else if (arg == "--keys" && i + 1 < argc) {
      a.keys = argv[++i];
    } else if (arg == "--sum-impl" && i + 1 < argc) {
      a.sum_impl = argv[++i];
    } else if (arg == "--acquire" && i + 1 < argc) {
      a.acquire = argv[++i];
    } else if (arg == "--snap-impl" && i + 1 < argc) {
      a.snap_impl = argv[++i];
    } else if (arg == "--resize-impl" && i + 1 < argc) {
      a.resize_impl = argv[++i];
    } else if (arg == "--resize-every" && i + 1 < argc) {
      a.resize_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--key-space" && i + 1 < argc) {
      a.key_space = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      a.metrics_out = argv[++i];
    } else if (arg == "--prom-out" && i + 1 < argc) {
      a.prom_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      a.trace_out = argv[++i];
    } else if (arg == "--trace-audit-out" && i + 1 < argc) {
      a.trace_audit_out = argv[++i];
    } else if (arg == "--chrome-trace-out" && i + 1 < argc) {
      a.chrome_trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--ops N] [--threads-max N]"
                   " [--bind cached|per_op] [--keys int|string] [--key-space N]"
                   " [--sum-impl digest|scan] [--acquire block|try]"
                   " [--snap-impl digest|loop]"
                   " [--resize-impl inplace|rebuild] [--resize-every N]"
                   " [--metrics-out FILE] [--prom-out FILE]"
                   " [--trace-out FILE] [--trace-audit-out FILE]"
                   " [--chrome-trace-out FILE]\n",
                   argv[0]);
      std::exit(1);
    }
  }
  if (a.quick && !a.ops_explicit) a.ops = 1000;
  return a;
}

wl::WorkloadResult run_one(wl::JsonWriter& w, const std::string& bench,
                           wl::WorkloadConfig cfg) {
  wl::WorkloadResult r = wl::run_workload(cfg);
  wl::append_result_entry(w, bench, r);
  std::printf("%-32s threads=%-2d shards=%-3d  %10.0f ops/s  p50=%6lld ns  p99=%8lld ns\n",
              bench.c_str(), cfg.threads, cfg.store.initial_shards, r.throughput_ops_s,
              static_cast<long long>(r.latency.p50_ns),
              static_cast<long long>(r.latency.p99_ns));
  if (r.wait_spread.waiters > 0) {
    // session_churn only: per-waiter open-latency fairness. The spread is the
    // max-min gap of each per-waiter statistic across waiters (0 = perfectly
    // even FIFO service).
    std::printf("%-32s waiters=%llu  p50 spread=%lld ns  p99 spread=%lld ns  "
                "max spread=%lld ns\n",
                "  wait-time-spread",
                static_cast<unsigned long long>(r.wait_spread.waiters),
                static_cast<long long>(r.wait_spread.p50_spread_ns),
                static_cast<long long>(r.wait_spread.p99_spread_ns),
                static_cast<long long>(r.wait_spread.max_spread_ns));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  int max_threads = args.threads_max > 0 ? args.threads_max : hw;
  max_threads = std::min(max_threads, 31);  // engine lane budget

  wl::JsonWriter w;
  w.begin_object();
  w.field("schema", "c2sl-bench-v1");
  w.field("suite", "bench_c2store");
  w.key("host").begin_object();
  w.field("hardware_concurrency", hw);
  w.field("bind", args.bind);
  w.field("keys", args.keys);
  w.field("sum_impl", args.sum_impl);
  w.field("acquire", args.acquire);
  w.field("snap_impl", args.snap_impl);
  w.field("resize_impl", args.resize_impl);
  w.field("key_space", args.key_space);
  w.end_object();
  w.key("results").begin_array();

  // --- thread-scaling sweep, zipfian keys, mixed ops ---
  for (int t = 1; t <= max_threads; ++t) {
    wl::WorkloadConfig cfg;
    cfg.threads = t;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::mixed();
    cfg.bind = args.bind;
    cfg.keys = args.keys;
    cfg.sum_impl = args.sum_impl;
    cfg.store.initial_shards = 16;
    run_one(w, "sweep/threads=" + std::to_string(t), cfg);
  }

  // --- shard-count ablation at full thread count ---
  for (int shards : {1, 2, 4, 8, 16, 32}) {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::mixed();
    cfg.bind = args.bind;
    cfg.keys = args.keys;
    cfg.sum_impl = args.sum_impl;
    cfg.store.initial_shards = shards;
    run_one(w, "ablation/shards=" + std::to_string(shards), cfg);
  }

  // --- op-mix and key-distribution scenarios ---
  // The mix/mixed entry's store telemetry feeds --metrics-out / --prom-out
  // (the same entry the CI overhead-ablation gate diffs ON-vs-OFF).
  tel::MetricsSnapshot metrics;
  tel::TraceDump trace_mixed;
  tel::TraceDump trace_audit;
  const bool want_mixed_trace =
      !args.trace_out.empty() || !args.chrome_trace_out.empty();
  for (const char* mix :
       {"read_heavy", "write_heavy", "mixed", "aggregate_scan", "sum_heavy",
        "snapshot_heavy", "transfer_audit"}) {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::by_name(mix);
    cfg.bind = args.bind;
    cfg.keys = args.keys;
    cfg.sum_impl = args.sum_impl;
    // transfer_audit pins digest: the loop cannot pass its live
    // conservation check (that impossibility is the sim layer's pinned
    // refutation, not an ablation axis).
    cfg.snap_impl =
        std::strcmp(mix, "transfer_audit") == 0 ? "digest" : args.snap_impl;
    cfg.store.initial_shards = 16;
    cfg.collect_trace =
        (std::strcmp(mix, "mixed") == 0 && want_mixed_trace) ||
        (std::strcmp(mix, "transfer_audit") == 0 && !args.trace_audit_out.empty());
    wl::WorkloadResult r = run_one(w, std::string("mix/") + mix, cfg);
    if (std::strcmp(mix, "mixed") == 0) {
      metrics = r.metrics;
      trace_mixed = std::move(r.trace);
    }
    if (std::strcmp(mix, "transfer_audit") == 0) trace_audit = std::move(r.trace);
  }
  // --- session churn: more threads than lanes, blocking-vs-try acquisition ---
  // The store keeps HALF the worker count in lanes, so every open contends;
  // --acquire selects how the open waits (park on the handoff queue vs the
  // retired try_open_session poll loop). Two runs give the ablation CI gates
  // on this entry: block must not lose to try-poll (tools/bench_diff
  // --bench-filter '^mix/session_churn$'). Latency percentiles here are OPEN
  // latencies (see workload/op_mix.h).
  {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::session_churn();
    cfg.bind = args.bind;
    cfg.keys = args.keys;
    cfg.sum_impl = args.sum_impl;
    cfg.acquire = args.acquire;
    cfg.store.initial_shards = 16;
    cfg.store.max_threads = std::max(1, max_threads / 2);  // lanes < threads
    run_one(w, "mix/session_churn", cfg);
  }

  // --- resize storm: keyed traffic under live shard resizing ---
  // Worker 0 doubles the shard count on a fixed cadence while every worker
  // keeps writing/reading; --resize-impl picks the epoch hand-off vs the
  // stop-the-world reader/writer-lock baseline. Starts at 4 shards so the
  // schedule gets several doublings before the engine cap. The conservation
  // check (counter_sum == total incs across every cut) runs inside the
  // engine on this entry.
  {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::resize_storm();
    cfg.bind = args.bind;
    cfg.keys = args.keys;
    cfg.sum_impl = "digest";  // post-resize slot scans over-approximate
    cfg.resize_impl = args.resize_impl;
    cfg.resize_every =
        args.resize_every > 0 ? args.resize_every : std::max<uint64_t>(1, args.ops / 8);
    cfg.store.initial_shards = 4;
    wl::WorkloadResult r = run_one(w, "mix/resize_storm", cfg);
    std::printf("%-32s resizes=%lld  final_shards=%d\n", "  resize-storm",
                static_cast<long long>(r.resizes_done), r.final_shards);
  }

  for (const char* dist : {"uniform", "hotburst"}) {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = dist;
    cfg.mix = wl::OpMix::mixed();
    cfg.bind = args.bind;
    cfg.keys = args.keys;
    cfg.sum_impl = args.sum_impl;
    cfg.store.initial_shards = 16;
    run_one(w, std::string("dist/") + dist, cfg);
  }

  w.end_array();
  w.end_object();
  std::ofstream out(args.out);
  out << w.str() << "\n";
  std::printf("wrote %s\n", args.out.c_str());

  if (!args.metrics_out.empty() || !args.prom_out.empty()) {
    // The calibration pass (average FAA/TAS/swap per service op on a private
    // store) rides on the mix/mixed snapshot; a no-op when telemetry is off.
    wl::profile_primitives(metrics);
    if (!args.metrics_out.empty()) {
      std::ofstream mout(args.metrics_out);
      mout << tel::to_json(metrics, "bench_c2store") << "\n";
      std::printf("wrote %s\n", args.metrics_out.c_str());
    }
    if (!args.prom_out.empty()) {
      std::ofstream pout(args.prom_out);
      pout << tel::to_prometheus(metrics);
      std::printf("wrote %s\n", args.prom_out.c_str());
    }
  }
  if (!args.trace_out.empty()) {
    std::ofstream tout(args.trace_out);
    tout << tel::trace_to_json(trace_mixed, "bench_c2store:mix/mixed") << "\n";
    std::printf("wrote %s\n", args.trace_out.c_str());
  }
  if (!args.trace_audit_out.empty()) {
    std::ofstream tout(args.trace_audit_out);
    tout << tel::trace_to_json(trace_audit, "bench_c2store:mix/transfer_audit")
         << "\n";
    std::printf("wrote %s\n", args.trace_audit_out.c_str());
  }
  if (!args.chrome_trace_out.empty()) {
    std::ofstream tout(args.chrome_trace_out);
    tout << tel::trace_to_chrome(trace_mixed, "bench_c2store:mix/mixed") << "\n";
    std::printf("wrote %s\n", args.chrome_trace_out.c_str());
  }
  return 0;
}
