#!/usr/bin/env python3
"""Benchmark of record for the LPPA round: build, run one workload, report.

Usage (from the root of a source tree)::

    python3 perfbench/run.py --workload engine_fp_hmac --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/CMakeLists.txt (the
library from src/ plus the driver) into .bench_build/perfbench; later
calls rebuild incrementally.  The driver writes a full strict-JSON result
(host fingerprint, checks, every metric) to
.bench_build/perfbench/results/<workload>-s<seed>-t<trace>.json, and this
script prints its summary as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  ``attempted``/``failed`` count rounds (plus the
once-per-run parity check); any failed output check makes ``correct``
false and the exit status 1.

--smoke runs every workload with and without tracing for one second each
and writes the results as one JSON array to
.bench_build/perfbench/BENCH_perfbench_smoke.json, which must pass the
same strict-JSON rule as tools/bench_compare.py --validate.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
BUILD_TYPE = "RelWithDebInfo"
MAX_JOBS = 4
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def load_strict(path):
    """Parses `path` rejecting NaN/Infinity and non-finite numbers."""
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_reject_constant)

    def walk(node):
        if isinstance(node, float) and not math.isfinite(node):
            raise ValueError(f"{path}: non-finite number")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)
    return doc


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the tree root")
    return load_strict(path)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    # One build at a time per tree; concurrent runs wait for it.
    with open(BUILD.parent / "perfbench.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}", 3)
    if not DRIVER.is_file():
        fail("build produced no driver binary", 3)


def source_digest():
    """SHA-256 over every file under src/ and perfbench/ (path + bytes):
    identifies the code measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_driver(workload, seed, seconds, trace):
    """Runs one workload; returns (full result dict, driver exit code)."""
    out = BUILD / "results" / f"{workload}-s{seed}-t{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s", 4)
    if not out.is_file():
        fail(f"{workload}: driver exited {rc} without a result", 4)
    result = load_strict(out)
    result["fingerprint"].update({
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
    })
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return result, rc


def summary(result, rc, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = rc == 0 and not result["failures"]
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            print(f"perfbench: metric {m['name']} missing", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": result["rounds_attempted"],
            "failed": result["rounds_failed"], "metrics": metrics}


def smoke(spec):
    docs = []
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, rc = run_driver(w["name"], 1, 1, trace)
            ok = ok and summary(result, rc, spec, trace)["correct"]
            docs.append(result)
    path = BUILD / "BENCH_perfbench_smoke.json"
    with open(path, "w") as fh:
        json.dump(docs, fh, indent=2, allow_nan=False)
        fh.write("\n")
    load_strict(path)
    print(f"smoke profile: {len(docs)} runs, "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}; wrote {path}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, both trace modes")
    args = parser.parse_args()

    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    build()
    if args.smoke:
        return smoke(spec)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result, rc = run_driver(args.workload, args.seed, seconds, args.trace)
    line = summary(result, rc, spec, args.trace)
    print(json.dumps(line, allow_nan=False))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
