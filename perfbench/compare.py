#!/usr/bin/env python3
"""Compare perfbench results: before vs after, same host, same seeds.

Usage::

    python3 perfbench/compare.py BEFORE.json [...] -- AFTER.json [...]

Each file is a full driver result (.bench_build/perfbench/results/*.json).
Both sides must hold the same (workload, trace, seed) runs.  Pairs whose
host fingerprints differ (nproc, SHA-256 acceleration, build type,
compiler, CPU model, malloc thresholds) are refused: a before/after pair
from different hosts or builds is not a measurement of the code change.
Only the code identity (git revision, source digest) may differ.

For every metric the script prints the median of each side over its
runs and the relative change; BENCHMARK.json's direction ("better")
tells which sign is an improvement.  A change no larger than the
distance between the quartiles of the before runs is reported as
unresolved: the host's speed drifts between runs by that much.  Exit status: 0 compared, 2 refused.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fingerprint fields that identify the code or the inputs rather than the
# host and build; the seed is matched per run through key() instead.
NON_HOST_FIELDS = {"git_revision", "source_sha256", "seed"}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def load(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def host(result):
    return {k: v for k, v in result["fingerprint"].items()
            if k not in NON_HOST_FIELDS}


def key(result):
    return (result["workload"], result["trace"], result["seed"])


def refuse(msg):
    print(f"compare: refused: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    before = [load(p) for p in argv[:cut]]
    after = [load(p) for p in argv[cut + 1:]]
    if not before or not after:
        refuse("both sides need at least one result")
    if sorted(map(key, before)) != sorted(map(key, after)):
        refuse("the two sides do not hold the same (workload, trace, seed) runs")
    hosts = {json.dumps(host(r), sort_keys=True) for r in before + after}
    if len(hosts) != 1:
        refuse("host fingerprints differ:\n  " + "\n  ".join(sorted(hosts)))

    better = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = load(spec_path)
        for m in spec["end_to_end"] + spec["per_layer"]:
            better[m["name"]] = m["better"]

    for (workload, trace) in sorted({k[:2] for k in map(key, before)}):
        print(f"== {workload} (trace {int(trace)}) ==")
        b_runs = [r for r in before if key(r)[:2] == (workload, trace)]
        a_runs = [r for r in after if key(r)[:2] == (workload, trace)]
        for name in sorted(b_runs[0]["metrics"]):
            b_vals = [r["metrics"][name] for r in b_runs]
            b = statistics.median(b_vals)
            a = statistics.median(r["metrics"][name] for r in a_runs)
            change = (a - b) / b if b else 0.0
            verdict = ""
            if name in better and b:
                improved = change < 0 if better[name] == "lower" else change > 0
                verdict = "better" if improved else "worse" if change else ""
                # The host drifts between runs: a change no larger than the
                # before side's own quartile distance is not resolved.
                if verdict and len(b_vals) >= 2:
                    q = statistics.quantiles(b_vals, n=4)
                    if abs(a - b) <= q[2] - q[0]:
                        verdict = "unresolved (within the before-runs spread)"
            print(f"  {name:34s} {b:14.4f} -> {a:14.4f} {change:+8.2%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
