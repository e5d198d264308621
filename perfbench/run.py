#!/usr/bin/env python3
"""perfbench: the repository benchmark for C2Store.

    python3 perfbench/run.py --workload ingest|lookup|audit|churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the c2sl library and the harness
(perfbench/harness/) into .bench_build/perfbench with the repository's own
CMake configuration, then runs one closed-loop measurement:

  --trace 0  untraced run: the end-to-end metrics of BENCHMARK.json;
  --trace 1  traced run: the per-layer metrics, and the run's witness trace
             is checked with tools/trace_audit.py.

Prints the host fingerprint, every metric by name with its unit and sample
count, and any failed check; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Exit status is 0 when the
run completed and every check passed, 1 when a check failed or the
harness broke, 2 on bad arguments or when the sources are missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}", 2)


def check_sources():
    needed = ["CMakeLists.txt", "src/service/c2store.h", "tools/trace_audit.py"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        die("repository sources not found (missing " + ", ".join(missing) +
            "); run from a full checkout", 2)


def run_quiet(cmd, timeout, what):
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{what} timed out after {timeout} s", 1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        die(f"{what} failed (exit {r.returncode})", 1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  BUILD_TIMEOUT_S, "cmake configure")
    run_quiet(["cmake", "--build", str(BUILD), "--target", "c2bench", "-j", jobs],
              BUILD_TIMEOUT_S, "build")
    exe = BUILD / "c2bench"
    if not exe.is_file():
        die("build produced no c2bench binary", 1)
    return exe


def source_digest():
    """sha256 over the sources the benchmark builds, for the fingerprint."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "n/a"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return r.stdout.strip() if r.returncode == 0 else "n/a"


def run_harness(exe, args, mode):
    out = BUILD / f"result-{mode}-{args.workload}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", str(out)]
    if mode == "layers":
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}.bin"),
                "--trace-json", str(BUILD / f"trace-{args.workload}.json")]
    if out.exists():
        out.unlink()
    # 150 s at the benchmark's 10 s runs: inside a 180 s budget per run.
    run_quiet(cmd, 120 + 3 * args.seconds, "harness")
    try:
        return json.loads(out.read_text())
    except (OSError, ValueError) as e:
        die(f"harness wrote no readable result: {e}", 1)


def audit_trace(workload):
    """tools/trace_audit.py on the traced run's witness trace."""
    path = BUILD / f"trace-{workload}.json"
    try:
        r = subprocess.run([sys.executable, str(ROOT / "tools" / "trace_audit.py"),
                            str(path)], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return False, "trace_audit.py timed out"
    lines = r.stdout.strip().splitlines()
    return r.returncode == 0, lines[-1] if lines else f"exit {r.returncode}"


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0", 2)
    check_sources()

    exe = build()
    mode = "layers" if args.trace else "e2e"
    res = run_harness(exe, args, mode)
    failed = int(res["failed"])
    why = list(res["why"])
    if args.trace:
        ok, line = audit_trace(args.workload)
        print(f"# trace_audit: {line}")
        if not ok:
            failed += 1
            why.append("witness trace refuted by tools/trace_audit.py: " + line)

    fp = dict(res["fingerprint"], source_digest=source_digest(), git_sha=git_sha())
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    have = res["metrics"]
    attempted = int(res["attempted"])
    print(f"# {'metric':34} {'value':>16} {'unit':>7} {'samples':>11}")
    for name, m in have.items():
        tag = "" if name in wanted else "  (info)"
        print(f"  {name:34} {m['value']:16.6g} {m['unit']:>7} {m['samples']:11d}{tag}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':34} {ratio:16.6g} {'ratio':>7} {attempted:11d}  (info)")
    for line in why:
        print(f"# FAILED CHECK: {line}")
    missing = [n for n in wanted if n not in have]
    if missing:
        die("harness did not report: " + ", ".join(missing), 1)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    drift = [n for n in wanted if have[n]["unit"] != units[n]]
    if drift:
        die("harness units differ from BENCHMARK.json for: " + ", ".join(drift), 1)
    correct = failed == 0 and attempted > 0
    metrics = {n: {"value": have[n]["value"], "unit": have[n]["unit"]} for n in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
