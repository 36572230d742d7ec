"""The csflab benchmark: one workload per call, measured from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured run is a fresh child
process (``child.py``) that imports csflab from the checkout's ``src/``,
so no in-process cache of an earlier run is warm and no installed copy
is measured.  Each cold sweep gets a fresh cache directory, and
``CSFLAB_CACHE`` is removed from the child's environment because it
would override ``--cache`` and turn a cold run into a replay.

All workloads are exhaustive enumerations, so their inputs do not depend
on the seed: the seed is recorded and the same seed gives the same
inputs.  Every output is checked against the pinned exact results below.

``--trace 0`` times ``SETUP_SAMPLES`` fresh interpreters for ``setup_s``,
then repeats the cold run (followed, for a workload with a cache, by the
replay on that cache) until ``--seconds`` is used up, and reports the
end-to-end metrics as medians over the repeats.  ``--trace 1`` runs the
workload untraced at its own ``--jobs``, then untraced and traced at
``--jobs 1`` in one process, with spans recorded at csflab's module
boundaries (``spans.py``), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it show every metric with its unit and sample count.  A results file with
the raw samples and the provenance goes to ``bench/out/``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 15
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One exhaustive input set and the exact results it must produce.

    ``kind`` is ``verify`` (``csflab verify`` on a conjecture) or
    ``expand`` (``chromatic_e_expansion`` and ``csf_schur`` of every
    vector).  ``digest`` is the sha256 of the report's JSON-lines with
    ``seconds`` dropped, or of the expansion lines.
    """

    kind: str
    max_n: int
    units: int
    digest: str
    conjecture: str = ""
    jobs: int = 1
    counts: tuple = ()  # (holds, fails, skipped)
    failing: tuple = ()  # ((m, lam), ...) of the units that must fail
    cache: bool = False  # run with --cache, then replay on the filled cache


# The nine h-lower-bound failures at n <= 7: the finding this sweep
# reports, so expected output rather than run failures.
HBOUND_FAILING = (
    ((0, 0, 1, 1, 2, 4), (3, 2, 1)),
    ((0, 0, 1, 1, 1, 2, 5), (4, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4), (4, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4), (4, 3)),
    ((0, 0, 1, 1, 2, 2, 5), (4, 2, 1)),
    ((0, 0, 1, 1, 2, 4, 4), (3, 3, 1)),
    ((0, 0, 1, 1, 2, 4, 6), (3, 2, 1, 1)),
    ((0, 0, 1, 2, 2, 2, 5), (4, 2, 1)),
    ((0, 1, 1, 2, 2, 3, 5), (3, 2, 1, 1)),
)

WORKLOADS = {
    "suite-n6": Workload(
        kind="verify", conjecture="theorem-suite", max_n=6, jobs=2, units=1836,
        counts=(1836, 0, 0), cache=True,
        digest="d9267bf1fbf47c54de82b3e565bed3213fe53cf8966d502ed752d906117736e8",
    ),
    "hbound-n7": Workload(
        kind="verify", conjecture="h-lower-bound", max_n=7, jobs=1, units=8271,
        counts=(8262, 9, 0), failing=HBOUND_FAILING,
        digest="2dd0507b3fbd1d37bb7baa0d8ae631ddcbc90a2c58bc320d7184998badffdf51",
    ),
    "expand-n6": Workload(
        kind="expand", max_n=6, units=196,
        digest="78d01edf396ca61f698cadb41f4c759436790102779946d80532cdaf718e9068",
    ),
}


class BenchError(Exception):
    """A child process was killed: it hung past the timeout or crashed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "CSFLAB_CACHE"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, work):
    """Run child.py in its own session and reap it with wait4, which gives
    user+sys CPU and peak RSS over the child and every worker it waited
    for.  Wall time is from launch to exit."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "child.py"), *args],
            cwd=work, env=_child_env(), stdout=out, stderr=err,
            start_new_session=True,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # workers the child left behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    if proc.returncode < 0:
        raise BenchError(f"child {args[:3]} died by signal {-proc.returncode}: {stderr[-2000:]}")
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, stdout, stderr)


def verify_args(w, jobs, cache, report):
    args = ["--conjecture", w.conjecture, "--max-n", str(w.max_n), "--jobs", str(jobs),
            "--report", report]
    return ["cli", "verify", *args] + (["--cache", cache] if cache else [])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256_lines(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@dataclasses.dataclass
class Outcome:
    units: int = 0
    errors: int = 0
    unit_s_sum: float = 0.0
    body: bytes = b""
    problems: list = dataclasses.field(default_factory=list)


def check_verify(w, child, report_path):
    """Exit code, summary line, per-status counts, failing units, error
    witnesses and the digest of the report with ``seconds`` dropped."""
    out = Outcome()
    holds, fails, skipped = w.counts
    if child.code != (1 if fails else 0):
        out.problems.append(f"exit code {child.code}: {child.stderr[-500:]}")
    summary = f"{w.conjecture} n<={w.max_n}: holds={holds} fails={fails} skipped={skipped}"
    last = child.stdout.strip().splitlines()[-1:] or [""]
    if last[0] != summary:
        out.problems.append(f"summary {last[0]!r}, expected {summary!r}")
    try:
        with open(report_path, "rb") as fh:
            out.body = fh.read()
    except OSError as exc:
        out.problems.append(f"no report: {exc}")
        return out
    stripped, failing = [], set()
    for line in out.body.decode().splitlines():
        row = json.loads(line)
        out.unit_s_sum += row.pop("seconds")
        stripped.append(json.dumps(row))
        if isinstance(row["witness"], dict) and "error" in row["witness"]:
            out.errors += 1
        if row["status"] == "fails":
            failing.add((tuple(row["m"]), tuple(row["lam"] or ())))
    out.units = len(stripped)
    if out.units != w.units:
        out.problems.append(f"{out.units} units, expected {w.units}")
    if out.errors:
        out.problems.append(f"{out.errors} units carry an error witness")
    if failing != set(w.failing):
        out.problems.append(f"failing units {sorted(failing)}, expected {sorted(w.failing)}")
    if sha256_lines(stripped) != w.digest:
        out.problems.append(f"report digest {sha256_lines(stripped)}, expected {w.digest}")
    return out


def check_expand(w, child, out_path):
    out = Outcome()
    if child.code != 0:
        out.problems.append(f"exit code {child.code}: {child.stderr[-500:]}")
    try:
        with open(out_path, "rb") as fh:
            out.body = fh.read()
    except OSError as exc:
        out.problems.append(f"no output: {exc}")
        return out
    lines = out.body.decode().splitlines()
    out.units = len(lines)
    out.errors = sum(1 for line in lines if "error" in json.loads(line))
    if out.units != w.units:
        out.problems.append(f"{out.units} vectors, expected {w.units}")
    if out.errors:
        out.problems.append(f"{out.errors} vectors raised")
    if sha256_lines(lines) != w.digest:
        out.problems.append(f"expansion digest {sha256_lines(lines)}, expected {w.digest}")
    return out


# ---------------------------------------------------------------------------
# one benchmark call
# ---------------------------------------------------------------------------

class Run:
    """The state of one benchmark call: its scratch directory, its
    samples, and what the checks found."""

    def __init__(self, w, seconds):
        self.w, self.seconds = w, seconds
        self.work = os.path.join(OUT, f"work-{os.getpid()}")
        self.samples = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._k = 0

    def fresh_dir(self):
        self._k += 1
        path = os.path.join(self.work, str(self._k))
        os.makedirs(path)
        return path

    def child(self, kind, args):
        load1 = os.getloadavg()[0]
        c = run_child(args, self.fresh_dir())
        self.samples.append({"kind": kind, "load1": load1, "wall_s": c.wall_s,
                             "cpu_s": c.cpu_s, "rss_mb": c.rss_mb, "code": c.code})
        return c

    def tally(self, outcome, what):
        self.attempted += outcome.units
        self.failed += outcome.errors
        self.problems += [f"{what}: {p}" for p in outcome.problems]
        return outcome

    def setup(self):
        w = self.w
        args = ["setup", w.kind, w.conjecture or "-", str(w.max_n)]
        for _ in range(SETUP_SAMPLES):
            c = self.child("setup", args)
            if c.code != 0:
                self.problems.append(f"setup: exit code {c.code}: {c.stderr[-500:]}")

    def cold(self, jobs, prefix=None):
        """A cold run in a fresh directory, with a fresh cache for a
        workload that has one; returns (child, outcome, directory)."""
        w, d = self.w, self.fresh_dir()
        out = os.path.join(d, "out.jsonl")
        if w.kind == "verify":
            args = verify_args(w, jobs, os.path.join(d, "cache") if w.cache else None, out)
        else:
            args = ["expand", str(w.max_n), out]
        if prefix:
            args = ["trace", prefix, *args]
        c = self.child("traced" if prefix else f"cold-j{jobs}", args)
        check = check_verify if w.kind == "verify" else check_expand
        return c, self.tally(check(w, c, out), "cold run"), d

    def replay(self, cold_dir, cold_outcome, prefix=None):
        """The same sweep again on the cache the cold run filled; its
        report must be byte-identical to the cold one, ``seconds``
        included.  Returns its wall seconds."""
        w, out = self.w, os.path.join(self.fresh_dir(), "out.jsonl")
        args = verify_args(w, w.jobs, os.path.join(cold_dir, "cache"), out)
        if prefix:
            args = ["trace", prefix, *args]
        c = self.child("replay", args)
        outcome = self.tally(check_verify(w, c, out), "replay")
        if outcome.body != cold_outcome.body:
            self.problems.append("replay: report differs from the cold run's")
        return c.wall_s

    def repeat(self, once):
        """Call ``once`` until the run's seconds are used up: another
        repeat starts only if one more of the last one's length fits."""
        start = time.perf_counter()
        while True:
            before = time.perf_counter()
            once()
            now = time.perf_counter()
            if self.problems or now - start + (now - before) > self.seconds:
                return

    # -- trace 0 -----------------------------------------------------------

    def end_to_end(self):
        """(gated series, informational series), each name -> (values, unit)."""
        self.setup()
        sweep, cpu, rss, replay = [], [], [], []

        def once():
            c, outcome, d = self.cold(self.w.jobs)
            sweep.append(c.wall_s)
            cpu.append(c.cpu_s)
            rss.append(c.rss_mb)
            if self.w.cache:
                replay.append(self.replay(d, outcome))

        self.repeat(once)
        setup = [s["wall_s"] for s in self.samples if s["kind"] == "setup"]
        series = {"setup_s": (setup, "s"), "sweep_s": (sweep, "s"),
                  "cpu_s": (cpu, "s"), "peak_rss_mb": (rss, "MB")}
        return series, ({"replay_s": (replay, "s")} if replay else {})

    # -- trace 1 -----------------------------------------------------------

    def per_layer(self):
        """Per-layer series, name -> (values, unit), one value per repeat
        of: the untraced cold run (and replay) at the workload's jobs, an
        untraced cold run at --jobs 1, and the traced cold run (and
        replay) at --jobs 1."""
        import spans

        w = self.w
        reps = []

        def once():
            c, outcome, d = self.cold(w.jobs)
            replay_s = self.replay(d, outcome) if w.cache else 0.0
            unit_s_sum = outcome.unit_s_sum
            idle_s = w.jobs * c.wall_s - unit_s_sum if w.kind == "verify" else 0.0
            plain = c if w.jobs == 1 else self.cold(1)[0]
            prefixes = [os.path.join(self.fresh_dir(), "spans")]
            traced, traced_outcome, d = self.cold(1, prefixes[0])
            with open(prefixes[0] + ".dump_s", encoding="utf-8") as fh:
                traced_s = traced.wall_s - float(fh.read())
            if w.cache:
                prefixes.append(os.path.join(self.fresh_dir(), "spans"))
                self.replay(d, traced_outcome, prefixes[1])
            metrics = spans.layer_metrics(prefixes)
            metrics["harness.cache.replay_s"] = replay_s
            metrics["harness.pool.unit_s_sum"] = unit_s_sum
            metrics["harness.pool.idle_s"] = idle_s
            metrics["trace.overhead_share"] = (traced_s - plain.wall_s) / plain.wall_s
            reps.append(metrics)

        self.repeat(once)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        return {name: ([r[name] for r in reps], unit) for name, unit in units.items()}, {}


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance():
    """Where the numbers come from.  The source line count is recorded as
    information, not gated."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, commit = git.stdout.split()
        commit = commit if git.returncode == 0 and os.path.samefile(top, ROOT) else "unknown"
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = "unknown"
    digest, lines = hashlib.sha256(), 0
    pkg = os.path.join(SRC, "csflab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                body = fh.read()
            digest.update(name.encode())
            digest.update(body)
            lines += body.count(b"\n")
    return {"commit": commit, "src_digest": digest.hexdigest()[:16], "src_lines": lines,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}


def _mapping():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "csflab", "__init__.py")):
        print(f"no csflab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    w = workloads[opts.workload]
    run = Run(w, opts.seconds)
    started = time.time()
    load1 = os.getloadavg()[0]
    os.makedirs(run.work)
    try:
        series, info = run.per_layer() if opts.trace else run.end_to_end()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in series.items()}
    correct = not run.problems
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    record = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
              "trace": opts.trace, "started": started, "load1_at_start": load1,
              "provenance": provenance(), "layers": _mapping(),
              "samples": run.samples, "series": series, "info": info,
              "problems": run.problems,
              "result": result}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = os.path.join(OUT, f"{stamp}-{opts.workload}-t{opts.trace}-s{opts.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{opts.workload} seed={opts.seed} trace={opts.trace} load1={load1:.2f}"
          f" results={os.path.relpath(path, ROOT)}")
    for note, table in (("", series), (" (not gated)", info)):
        for name, (values, unit) in table.items():
            print(f"  {name:40s} {statistics.median(values):12.6g} {unit:6s}"
                  f" median of n={len(values)}, range {min(values):.6g}..{max(values):.6g}"
                  + note)
    print(f"  {'error_share':40s} {run.failed / max(run.attempted, 1):12.6g} ratio"
          f"  {run.failed} of {run.attempted} units")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
