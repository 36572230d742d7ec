"""In-memory span tracing around csflab's module boundaries.

A traced child process calls ``install()`` before it runs a workload.
That replaces the module attributes listed in ``BOUNDARIES`` with
wrappers; each call records one span (name, start, end, parent, count)
into flat arrays, and ``dump()`` writes the arrays out once at the end.
The benchmark process reads them back with ``load()`` and turns them
into per-layer metrics with ``layer_metrics()``.

Nothing in ``src/`` is edited: the wrappers replace the names the
callers look up at call time (``harness`` globals, the ``csf`` and
``tableaux`` globals that ``csf_schur`` and ``enumerate_class`` use,
``qcore.poly_gcd`` behind ``QRat``, and the ``_Cache`` methods).
"""

from __future__ import annotations

import functools
import json
import time
from array import array


def _colorings(expansion):
    return sum(int(poly.eval_at(1)) for poly in expansion.coeffs.values())


def _negative(verdict):
    return 0 if verdict[0] else 1


def _hit(report):
    return 0 if report is None else 1


# (module, attribute, span name, count of the result); a span name of
# None means "tableaux.class.<which>", taken from enumerate_class's
# third argument.
BOUNDARIES = (
    ("harness", "enumerate_hessenberg", "posets.enumerate_hessenberg", None),
    ("posets", "enumerate_hessenberg", "posets.enumerate_hessenberg", None),
    ("harness", "poset_from_hessenberg", "posets.poset_from_hessenberg", None),
    ("posets", "poset_from_hessenberg", "posets.poset_from_hessenberg", None),
    ("posets", "greedy_partition", "posets.greedy_partition", None),
    ("harness", "e_coeff", "csf.e_coeff", None),
    ("csf", "csf_coloring_oracle", "csf.coloring_oracle", _colorings),
    ("csf", "to_elementary", "csf.to_elementary", None),
    ("csf", "csf_schur", "csf.schur", None),
    ("csf", "enumerate_standard", "tableaux.standard", len),
    ("csf", "inv_p", "tableaux.inv_p", None),
    ("harness", "enumerate_class", None, len),
    ("harness", "inv_p", "tableaux.inv_p", None),
    ("tableaux", "enumerate_standard", "tableaux.standard", len),
    ("tableaux", "enumerate_powerful_arrays", "tableaux.powerful_arrays", len),
    ("harness", "enumerate_hikita", "hikita.enumerate", len),
    ("harness", "h", "hikita.h", None),
    ("qcore", "poly_gcd", "qcore.poly_gcd", None),
    ("harness", "q_factorial", "qcore.q_factorial", None),
    ("harness", "K_set", "structural.K_set", None),
    ("harness", "greedy_shape_family", "structural.greedy_shape_family", None),
    ("cli", "run_verification", "harness.run_verification", None),
    ("harness", "evaluate_task", "harness.evaluate_task", None),
    ("harness", "rat_nonneg_on_nonneg", "harness.rat_nonneg", _negative),
    ("cli", "emit_report", "harness.emit_report", None),
    ("harness._Cache", "load", "harness.cache.load", _hit),
    ("harness._Cache", "store", "harness.cache.store", None),
)

CLASS_SPANS = ("standard", "strong", "powerful")


class Tracer:
    """Spans kept in flat arrays, indexed by call order."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]

    def _id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, span, count):
        ids = None if span else {w: self._id(f"tableaux.class.{w}") for w in CLASS_SPANS}
        fixed = self._id(span) if span else None
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(fixed if ids is None else ids[args[2]])
            self.parent.append(stack[-1])
            self.count.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                self.count[idx] = count(result)
            return result

        return traced

    def dump(self, prefix):
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start)}, fh)
        for field in ("name", "parent", "start", "end", "count"):
            with open(f"{prefix}.{field}", "wb") as fh:
                getattr(self, field).tofile(fh)


def install(csflab_modules):
    """Wrap every boundary; ``csflab_modules`` maps short names to modules."""
    tracer = Tracer()
    for owner_path, attr, span, count in BOUNDARIES:
        module, _, cls = owner_path.partition(".")
        owner = csflab_modules[module]
        if cls:
            owner = getattr(owner, cls)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), span, count))
    return tracer


def load(prefix):
    """Read a dumped trace back as (names, name, parent, start, end, count)."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    n = head["spans"]
    out = [head["names"]]
    for field, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("count", "q")):
        values = array(code)
        with open(f"{prefix}.{field}", "rb") as fh:
            values.fromfile(fh, n)
        out.append(values)
    return tuple(out)


def span_totals(prefixes):
    """Per span name over all traces: calls, inclusive seconds, self
    seconds (inclusive minus the part covered by child spans), and the
    summed count.  Also the counts of standard spans opened directly
    under a strong-class span, the base of the strong keep share."""
    totals = {}
    strong_base = 0
    for prefix in prefixes:
        names, name, parent, start, end, count = load(prefix)
        child = [0.0] * len(start)
        for i in range(len(start)):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        strong_id = names.index("tableaux.class.strong")
        standard_id = names.index("tableaux.standard")
        for i in range(len(start)):
            entry = totals.setdefault(names[name[i]], [0, 0.0, 0.0, 0])
            dur = end[i] - start[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            entry[3] += count[i]
            if name[i] == standard_id and parent[i] >= 0 and name[parent[i]] == strong_id:
                strong_base += count[i]
    return totals, strong_base


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(prefixes):
    """Per-layer metrics (name -> value) from the dumped traces; spans a
    workload never opens read 0."""
    totals, strong_base = span_totals(prefixes)

    def get(span, i):
        return totals.get(span, (0, 0.0, 0.0, 0))[i]

    def calls(span):
        return get(span, 0)

    def self_s(span):
        return get(span, 2)

    def counted(span):
        return get(span, 3)

    out = {}
    for layer in ("posets", "csf", "tableaux", "hikita", "qcore", "structural", "harness"):
        out[f"{layer}.s"] = sum((t[2] for s, t in totals.items() if s.split(".")[0] == layer), 0.0)
    out.update({
        "posets.enumerate_hessenberg.s": self_s("posets.enumerate_hessenberg"),
        "posets.poset_from_hessenberg.s": self_s("posets.poset_from_hessenberg"),
        "posets.poset_from_hessenberg.calls": calls("posets.poset_from_hessenberg"),
        "posets.greedy_partition.s": self_s("posets.greedy_partition"),
        "posets.greedy_partition.calls": calls("posets.greedy_partition"),
        "csf.coloring_oracle.s": self_s("csf.coloring_oracle"),
        "csf.coloring_oracle.calls": calls("csf.coloring_oracle"),
        "csf.coloring_oracle.colorings": counted("csf.coloring_oracle"),
        "csf.to_elementary.s": self_s("csf.to_elementary"),
        "csf.schur.s": self_s("csf.schur"),
        "csf.schur.calls": calls("csf.schur"),
        "tableaux.standard.s": self_s("tableaux.standard"),
        "tableaux.standard.count": counted("tableaux.standard"),
        "tableaux.strong.s": self_s("tableaux.class.strong"),
        "tableaux.strong.count": counted("tableaux.class.strong"),
        "tableaux.strong.keep_share": _share(counted("tableaux.class.strong"), strong_base),
        "tableaux.powerful.s": self_s("tableaux.class.powerful") + self_s("tableaux.powerful_arrays"),
        "tableaux.powerful.arrays": counted("tableaux.powerful_arrays"),
        "tableaux.powerful.count": counted("tableaux.class.powerful"),
        "tableaux.powerful.image_share": _share(
            counted("tableaux.class.powerful"), counted("tableaux.powerful_arrays")
        ),
        "tableaux.inv_p.s": self_s("tableaux.inv_p"),
        "tableaux.inv_p.calls": calls("tableaux.inv_p"),
        "hikita.enumerate.s": self_s("hikita.enumerate"),
        "hikita.enumerate.count": counted("hikita.enumerate"),
        "hikita.h.s": self_s("hikita.h"),
        "hikita.h.calls": calls("hikita.h"),
        "qcore.poly_gcd.s": self_s("qcore.poly_gcd"),
        "qcore.poly_gcd.calls": calls("qcore.poly_gcd"),
        "qcore.q_factorial.s": self_s("qcore.q_factorial"),
        "qcore.q_factorial.calls": calls("qcore.q_factorial"),
        "structural.K_set.s": self_s("structural.K_set"),
        "structural.K_set.calls": calls("structural.K_set"),
        "structural.greedy_shape_family.s": self_s("structural.greedy_shape_family"),
        "structural.greedy_shape_family.calls": calls("structural.greedy_shape_family"),
        "harness.evaluate_task.s": get("harness.evaluate_task", 1),
        "harness.check_self.s": self_s("harness.evaluate_task"),
        "harness.rat_nonneg.s": self_s("harness.rat_nonneg"),
        "harness.rat_nonneg.calls": calls("harness.rat_nonneg"),
        "harness.rat_nonneg.negative": counted("harness.rat_nonneg"),
        "harness.units": calls("harness.evaluate_task"),
        "harness.emit_report.s": self_s("harness.emit_report"),
        "harness.cache.store.s": self_s("harness.cache.store"),
        "harness.cache.load.s": self_s("harness.cache.load"),
        "harness.cache.hit_share": _share(counted("harness.cache.load"), calls("harness.cache.load")),
    })
    return out
