"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--runs 10] [--first 1] [--workloads a,b] [--against FILE]

Runs the benchmark command from BENCHMARK.json ``--runs`` times per
workload with seeds ``first .. first+runs-1``, interleaving the
workloads round-robin so slow drift of a shared host spreads over all of
them.  For each workload and end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound; ``!`` marks a spread
above a third of the bound.  ``--against`` compares the medians with an
earlier file this script wrote and marks (``WORSE``) a median that got
worse by more than the bound.  The raw results go to
``bench/out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--against", default=None)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    results = {name: [] for name in names}
    for seed in range(opts.first, opts.first + opts.runs):
        for name in names:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = json.loads(lines[-1])
            result["took_s"] = took
            results[name].append(result)
            print(f"{name} seed={seed} took {took:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    earlier = {}
    if opts.against:
        with open(opts.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["medians"]
    medians = {}
    for name in names:
        medians[name] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians[name][metric["name"]] = med
            mark = "!" if spread > metric["bound"] / 3 else " "
            line = (f"{name:10s} {metric['name']:12s} median {med:10.5g} q1 {q1:10.5g}"
                    f" q3 {q3:10.5g} spread {spread:6.3f}{mark} bound {metric['bound']}")
            if name in earlier:
                drift = med / earlier[name][metric["name"]] - 1
                line += f" vs earlier {drift:+.3f}" + (" WORSE" if drift > metric["bound"] else "")
            print(line)
        took = [r["took_s"] for r in results[name]]
        print(f"{name:10s} one run takes {statistics.median(took):.1f}s (max {max(took):.1f}s)")
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", f"spread-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"results": results, "medians": medians}, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
