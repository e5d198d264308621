// c2bench: the perfbench harness binary. perfbench/run.py builds and runs it;
// it can also be run directly:
//
//   c2bench --workload ingest|lookup|audit|churn --seed N --seconds S
//           --mode e2e|layers --out RESULT.json
//           [--spans FILE] [--trace-json FILE]
//
// Writes one JSON document (host fingerprint, check outcome, metrics with
// sample counts) to --out. Exit status: 0 ran (checks may still have
// failed — see "failed"), 2 bad arguments.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "telemetry/prim_profile.h"
#include "telemetry/trace.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string read_line(const char* path, const std::string& prefix = "") {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (prefix.empty()) return line;
    if (line.rfind(prefix, 0) == 0) {
      size_t c = line.find(':');
      size_t b = line.find_first_not_of(" \t", c + 1);
      return b == std::string::npos ? "" : line.substr(b);
    }
  }
  return "unknown";
}

std::string fingerprint(const Plan& p, const std::string& mode) {
  utsname u{};
  uname(&u);
  std::string o = "{";
  auto kv = [&](const char* k, const std::string& v, bool quote = true) {
    if (o.size() > 1) o += ",";
    o += json_str(k) + ":" + (quote ? json_str(v) : v);
  };
  kv("cpu_model", read_line("/proc/cpuinfo", "model name"));
  kv("nproc", std::to_string(std::thread::hardware_concurrency()), false);
  kv("clocksource", read_line("/sys/devices/system/clocksource/clocksource0/current_clocksource"));
  kv("kernel", std::string(u.sysname) + " " + u.release);
  kv("compiler", PERFBENCH_COMPILER);
  kv("flags", PERFBENCH_FLAGS);
  kv("build_type", PERFBENCH_BUILD_TYPE);
  kv("C2SL_TELEMETRY", std::to_string(C2SL_TELEMETRY), false);
  kv("C2SL_TRACE", std::to_string(C2SL_TRACE), false);
  kv("C2SL_TRACE_CAP", std::to_string(static_cast<unsigned long long>(C2SL_TRACE_CAP)), false);
  kv("workload", p.name);
  kv("mode", mode);
  kv("seed", std::to_string(p.seed), false);
  kv("workers", std::to_string(p.workers), false);
  kv("shards", std::to_string(p.shards), false);
  return o + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "c2bench: %s\nusage: c2bench --workload ingest|lookup|audit|churn "
               "--seed N --seconds S --mode e2e|layers --out FILE "
               "[--spans FILE] [--trace-json FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  TickClock clock;
  std::string workload, mode, out, spans, trace_json;
  uint64_t seed = 0;
  double seconds = 0;
  // Closed loop, one session per worker: min(4, nproc) workers.
  const int workers = std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") workload = v;
    else if (a == "--mode") mode = v;
    else if (a == "--out") out = v;
    else if (a == "--spans") spans = v;
    else if (a == "--trace-json") trace_json = v;
    else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0';
    } else if (a == "--seconds") seconds = std::strtod(v.c_str(), &end);
    else return usage(("unknown flag " + a).c_str());
  }
  Workload w;
  if (!parse_workload(workload, w)) return usage("unknown --workload");
  if (!have_seed) return usage("--seed must be a non-negative integer");
  if (!(seconds > 0)) return usage("--seconds must be positive");
  if (mode != "e2e" && mode != "layers") return usage("--mode must be e2e or layers");
  if (out.empty()) return usage("--out is required");
  if (mode == "layers" && (spans.empty() || trace_json.empty())) {
    return usage("--mode layers needs --spans and --trace-json");
  }

  Plan plan = make_plan(w, seed, workers);
  Report rep = mode == "e2e" ? run_e2e(plan, seconds, clock)
                             : run_layers(plan, seconds, clock, spans, trace_json);

  std::string doc = "{\"fingerprint\":" + fingerprint(plan, mode);
  doc += ",\"attempted\":" + std::to_string(rep.attempted);
  doc += ",\"failed\":" + std::to_string(rep.failed);
  doc += ",\"why\":[";
  for (size_t i = 0; i < rep.why.size() && i < 20; ++i) doc += (i ? "," : "") + json_str(rep.why[i]);
  doc += "],\"metrics\":{";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    doc += (i ? "," : "") + json_str(m.name) + ":{\"value\":" + num +
           ",\"unit\":" + json_str(m.unit) + ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  doc += "}}\n";
  std::FILE* f = std::fopen(out.c_str(), "wb");
  if (f == nullptr) return usage("cannot write --out");
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  return 0;
}
