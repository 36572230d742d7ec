"""Batch verification of the library's conjectures and theorems.

Sweeps every natural unit interval order up to a size cap, crossed with
every partition of the matching size, and dispatches the check selected
by a conjecture id.  Results come back as Report records that serialize
to JSON-lines; a content-addressed cache keyed by the package sources
makes re-runs cheap and lets a warm run reproduce its file byte for
byte, timing included.

The registry:

* ``bounds``            -- #strong <= c_lam(1) <= #powerful
* ``undercount-q``      -- c_lam(q) minus the strong inversion sum has
                           nonnegative integer coefficients
* ``overcount-q``       -- the powerful inversion sum minus c_lam(q) has
                           nonnegative integer coefficients
* ``nonzero``           -- no strong tableaux forces c_lam(1) = 0
* ``strong-iff-hikita`` -- strong tableaux exist exactly when reachable
                           insertion tableaux do
* ``h-lower-bound``     -- each reachable tableau's acceptance ratio is
                           at least 1 over the product of row q-factorials,
                           at every q >= 0
* ``barbell-powerful``  -- for two cliques joined by a path, the powerful
                           inversion sum gives every e-coefficient exactly
* ``theorem-suite``     -- the proven identities: class inclusions, the
                           (n-2,2) family, the path shapes, and the greedy
                           displacement shapes

All checks are pure, so the worker pool needs no shared state; a single
writer sorts and persists the merged reports.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import multiprocessing
import os
import random
import time
from fractions import Fraction

from .csf import SIZE_CAP, e_coeff
from .hikita import enumerate_hikita, h
from .posets import (
    check_hessenberg,
    enumerate_hessenberg,
    kchain_hessenberg,
    path_hessenberg,
    poset_from_hessenberg,
)
from .qcore import QPoly, QRat, check_partition, partitions, q_factorial
from .structural import K_set, greedy_shape_family
# inv_p is not called here; bench/spans.py looks up harness.inv_p by name.
from .tableaux import enumerate_class, inv_p, inv_sum

log = logging.getLogger("csflab.harness")

CONJECTURES = (
    "bounds",
    "undercount-q",
    "overcount-q",
    "nonzero",
    "strong-iff-hikita",
    "h-lower-bound",
    "barbell-powerful",
    "theorem-suite",
)

STATUSES = ("holds", "fails", "skipped")

#: Full sweeps above this size need the explicit override flag, which
#: raises the cap to ``SIZE_CAP``, the largest size the coloring walk takes.
DEFAULT_CAP = 8


# ---------------------------------------------------------------------------
# task and report records
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class VerificationTask:
    """One unit of work: a conjecture id, a reverse Hessenberg vector,
    and the partition it is checked at (None only for whole-poset skips)."""

    conjecture: str
    m: tuple
    lam: tuple | None = None

    def __post_init__(self):
        if self.conjecture not in CONJECTURES:
            raise ValueError(f"unknown conjecture id {self.conjecture!r}")
        object.__setattr__(self, "m", check_hessenberg(self.m))
        if self.lam is not None:
            lam = check_partition(self.lam)
            if sum(lam) != len(self.m):
                raise ValueError(
                    f"partition {lam} does not match the {len(self.m)}-element poset"
                )
            object.__setattr__(self, "lam", lam)


@dataclasses.dataclass(frozen=True)
class Report:
    task: VerificationTask
    status: str
    witness: dict | None
    seconds: float

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "fails" and not self.witness:
            raise ValueError("a failing report must carry a witness")

    def to_json_dict(self):
        return {
            "conjecture": self.task.conjecture,
            "n": len(self.task.m),
            "m": list(self.task.m),
            "lam": None if self.task.lam is None else list(self.task.lam),
            "status": self.status,
            "witness": self.witness,
            "seconds": round(self.seconds, 6),
        }


def report_from_json_dict(data):
    lam = None if data["lam"] is None else tuple(data["lam"])
    task = VerificationTask(data["conjecture"], tuple(data["m"]), lam)
    return Report(task, data["status"], data["witness"], data["seconds"])


def _report_key(report):
    task = report.task
    return (
        len(task.m),
        task.m,
        task.lam is not None,
        task.lam or (),
        task.conjecture,
    )


def summarize(reports):
    counts = {status: 0 for status in STATUSES}
    for report in reports:
        counts[report.status] += 1
    return counts


# ---------------------------------------------------------------------------
# exact nonnegativity of a polynomial on q >= 0
# ---------------------------------------------------------------------------

def _derivative(poly):
    return QPoly([i * c for i, c in enumerate(poly.coeffs)][1:])


def _squarefree(poly):
    from .qcore import poly_gcd

    g = poly_gcd(poly, _derivative(poly))
    out, _ = poly.divmod(g)
    return out


def _sturm_chain(poly):
    chain = [poly, _derivative(poly)]
    while chain[-1]:
        _, rem = chain[-2].divmod(chain[-1])
        if not rem:
            break
        chain.append(-rem)
    return [p for p in chain if p]


def _variations(chain, x):
    signs = []
    for poly in chain:
        v = poly.eval_at(x)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(poly):
    lead = abs(poly.coeffs[-1])
    top = max(abs(c) for c in poly.coeffs)
    return Fraction(1) + Fraction(top, lead)


def _tiny_positive(poly):
    """A rational point strictly below every positive root."""
    c0 = abs(poly.coeffs[0])
    top = max(abs(c) for c in poly.coeffs)
    return Fraction(c0, 2 * (c0 + top))


def _isolate(u, chain, a, b, count):
    """Disjoint rational intervals each holding one root of u in (a, b);
    the endpoints are never roots."""
    if count == 0:
        return []
    if count == 1:
        return [(a, b)]
    mid = (a + b) / 2
    if not u.eval_at(mid):
        # nudge off the root; u has finitely many, so some candidate works
        step = (b - a) / (2 * (u.degree + 2))
        for j in itertools.count(1):
            for cand in (mid + j * step, mid - j * step):
                if a < cand < b and u.eval_at(cand):
                    mid = cand
                    break
            else:
                continue
            break
    left = _variations(chain, a) - _variations(chain, mid)
    right = count - left
    return _isolate(u, chain, a, mid, left) + _isolate(u, chain, mid, b, right)


def poly_nonneg_on_nonneg(poly):
    """Exact decision of poly(x) >= 0 for all real x >= 0.

    Returns (verdict, witness); on False the witness is a rational point
    where the polynomial is negative.  Root analysis runs on the
    square-free part via Sturm counts, so no floating point is involved.
    """
    if not poly:
        return True, None
    coeffs = poly.coeffs
    shift = next(i for i, c in enumerate(coeffs) if c)
    reduced = QPoly(coeffs[shift:])
    if reduced.coeffs[0] < 0:
        witness = Fraction(0) if shift == 0 else _tiny_positive(reduced)
        return False, witness
    if reduced.coeffs[-1] < 0:
        return False, _cauchy_bound(reduced)
    if reduced.is_nonneg():
        return True, None
    u = _squarefree(reduced)
    chain = _sturm_chain(u)
    bound = _cauchy_bound(u)
    count = _variations(chain, Fraction(0)) - _variations(chain, bound)
    for a, b in _isolate(u, chain, Fraction(0), bound, count):
        for x in (a, b):
            if x and reduced.eval_at(x) < 0:
                return False, x
    return True, None


def rat_nonneg_on_nonneg(ratio):
    """The same decision for a reduced rational function, away from poles."""
    return poly_nonneg_on_nonneg(ratio.num * ratio.den)


# ---------------------------------------------------------------------------
# per-unit checks
# ---------------------------------------------------------------------------

def _integer_nonneg(poly):
    return poly.is_nonneg() and all(c.denominator == 1 for c in poly.coeffs)


def _check_bounds(m, lam):
    p = poset_from_hessenberg(m)
    at_one = e_coeff(p, lam).eval_at(1)
    n_strong = len(enumerate_class(p, lam, "strong"))
    n_powerful = len(enumerate_class(p, lam, "powerful"))
    if n_strong <= at_one <= n_powerful:
        return "holds", None
    return "fails", {
        "strong_count": n_strong,
        "powerful_count": n_powerful,
        "coefficient_at_one": str(at_one),
    }


def _check_undercount_q(m, lam):
    p = poset_from_hessenberg(m)
    margin = e_coeff(p, lam) - inv_sum(p, enumerate_class(p, lam, "strong"))
    if _integer_nonneg(margin):
        witness = {"discrepancy": margin.json_coeffs()} if margin else None
        return "holds", witness
    return "fails", {"discrepancy": margin.json_coeffs()}


def _check_overcount_q(m, lam):
    p = poset_from_hessenberg(m)
    margin = inv_sum(p, enumerate_class(p, lam, "powerful")) - e_coeff(p, lam)
    if _integer_nonneg(margin):
        witness = {"discrepancy": margin.json_coeffs()} if margin else None
        return "holds", witness
    return "fails", {"discrepancy": margin.json_coeffs()}


def _check_nonzero(m, lam):
    p = poset_from_hessenberg(m)
    if enumerate_class(p, lam, "strong"):
        return "holds", None
    at_one = e_coeff(p, lam).eval_at(1)
    if at_one == 0:
        return "holds", None
    return "fails", {
        "strong_count": 0,
        "coefficient_at_one": str(at_one),
        "coefficient": e_coeff(p, lam).json_coeffs(),
    }


def _check_strong_iff_hikita(m, lam):
    p = poset_from_hessenberg(m)
    n_strong = len(enumerate_class(p, lam, "strong"))
    n_hikita = len(enumerate_hikita(m, lam))
    if bool(n_strong) == bool(n_hikita):
        return "holds", None
    return "fails", {"strong_count": n_strong, "hikita_count": n_hikita}


@functools.lru_cache(maxsize=None)
def _row_factorials(lam):
    """The h-lower-bound floor, the product of the row q-factorials."""
    floor = QPoly.one()
    for part in lam:
        floor = floor * q_factorial(part)
    return floor


def _check_h_lower_bound(m, lam):
    floor = _row_factorials(lam)
    for cols in enumerate_hikita(m, lam):
        ht = h(m, cols)
        margin = QRat(ht.num * floor - ht.den, ht.den)
        ok, point = rat_nonneg_on_nonneg(margin)
        if not ok:
            return "fails", {
                "tableau": [list(c) for c in cols],
                "q": str(point),
                "margin_num": margin.num.json_coeffs(),
                "margin_den": margin.den.json_coeffs(),
            }
    return "holds", None


def _check_barbell(m, lam, gamma):
    p = poset_from_hessenberg(m)
    margin = inv_sum(p, enumerate_class(p, lam, "powerful")) - e_coeff(p, lam)
    if not margin:
        return "holds", {"gamma": list(gamma)}
    return "fails", {"gamma": list(gamma), "discrepancy": margin.json_coeffs()}


def _nonadjacent_subsets(indices):
    subsets = [()]
    for i in indices:
        subsets += [s + (i,) for s in subsets if not s or s[-1] != i - 1]
    return subsets


@functools.lru_cache(maxsize=None)
def _greedy_shapes(m):
    """Every shape the greedy displacement family produces for this poset."""
    from .posets import greedy_partition

    p = poset_from_hessenberg(m)
    base = greedy_partition(p)
    shapes = set()
    for cuts in _nonadjacent_subsets(range(1, len(base) + 1)):
        ranges = [range(1, base[i - 1] + 1) for i in cuts]
        for ks in itertools.product(*ranges):
            try:
                shapes.add(greedy_shape_family(p, cuts, dict(zip(cuts, ks))))
            except ValueError:
                continue
    return frozenset(shapes)


@functools.lru_cache(maxsize=None)
def _barbell_vectors(n):
    """Hessenberg vectors of chains (a, 2, 2, ..., 2, b), keyed to shape."""
    out = {}
    for a in range(2, n + 1):
        for b in range(2, n + 1):
            middle = n + 1 - a - b
            if middle < 0:
                continue
            gamma = (a,) + (2,) * middle + (b,)
            out.setdefault(kchain_hessenberg(gamma), gamma)
    return out


def _check_theorem_suite(m, lam):
    p = poset_from_hessenberg(m)
    n = len(m)
    ran = []

    hikita = set(enumerate_hikita(m, lam))
    strong = enumerate_class(p, lam, "strong")
    powerful = enumerate_class(p, lam, "powerful")
    standard = enumerate_class(p, lam, "standard")
    if not hikita <= set(strong):
        return "fails", {
            "check": "inclusions",
            "detail": "a reachable insertion tableau is not strong",
            "extra": sorted([list(c) for c in hikita - set(strong)]),
        }
    if not set(strong) <= set(powerful) or not set(powerful) <= set(standard):
        return "fails", {
            "check": "inclusions",
            "detail": "class containment broken",
            "counts": [len(strong), len(powerful), len(standard)],
        }
    ran.append("inclusions")

    coeff = e_coeff(p, lam)

    if n >= 5 and lam == (n - 2, 2):
        family = K_set(p)
        if inv_sum(p, family) != coeff:
            return "fails", {
                "check": "k2-identity",
                "family_sum": inv_sum(p, family).json_coeffs(),
                "coefficient": coeff.json_coeffs(),
            }
        ran.append("k2-identity")

    if m == path_hessenberg(n):
        if inv_sum(p, powerful) != coeff:
            return "fails", {
                "check": "path-identity",
                "powerful_sum": inv_sum(p, powerful).json_coeffs(),
                "coefficient": coeff.json_coeffs(),
            }
        ran.append("path-identity")

    if lam in _greedy_shapes(m):
        if inv_sum(p, strong) != coeff:
            return "fails", {
                "check": "greedy-identity",
                "strong_sum": inv_sum(p, strong).json_coeffs(),
                "coefficient": coeff.json_coeffs(),
            }
        ran.append("greedy-identity")

    return "holds", {"checks": ran}


_PER_UNIT = {
    "bounds": _check_bounds,
    "undercount-q": _check_undercount_q,
    "overcount-q": _check_overcount_q,
    "nonzero": _check_nonzero,
    "strong-iff-hikita": _check_strong_iff_hikita,
    "h-lower-bound": _check_h_lower_bound,
    "theorem-suite": _check_theorem_suite,
}


def evaluate_task(task):
    """Run one task; exceptions inside a check become failing reports."""
    start = time.perf_counter()
    try:
        if task.conjecture == "barbell-powerful":
            gamma = _barbell_vectors(len(task.m)).get(task.m)
            if gamma is None or task.lam is None:
                status, witness = "skipped", {
                    "reason": "incomparability graph is not two cliques joined by a path"
                }
            else:
                status, witness = _check_barbell(task.m, task.lam, gamma)
        elif task.lam is None:
            raise ValueError(f"{task.conjecture} needs a partition")
        else:
            status, witness = _PER_UNIT[task.conjecture](task.m, task.lam)
    except Exception as exc:  # captured, never propagated: the sweep must finish
        status = "fails"
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    return Report(task, status, witness, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def tasks_for(conjecture, n_max):
    """The deterministic work list: every poset size up to n_max, every
    reverse Hessenberg vector, every partition.  Posets outside a scoped
    conjecture's reach collapse to a single skip task."""
    if conjecture not in CONJECTURES:
        raise ValueError(f"unknown conjecture id {conjecture!r}")
    out = []
    for n in range(1, n_max + 1):
        for m in enumerate_hessenberg(n):
            if conjecture == "barbell-powerful" and m not in _barbell_vectors(n):
                out.append(VerificationTask(conjecture, m, None))
                continue
            for lam in partitions(n):
                out.append(VerificationTask(conjecture, m, lam))
    return out


def run_verification(
    conjecture,
    n_max,
    parallelism=1,
    *,
    cache_dir=None,
    override_cap=False,
):
    """Evaluate one conjecture over all posets with up to n_max elements.

    Results are sorted by (n, m, lam, conjecture), so the report sequence
    does not depend on the worker count.  With a cache directory, finished
    units are replayed (original timing included) instead of recomputed.
    """
    cap = SIZE_CAP if override_cap else DEFAULT_CAP
    if not 1 <= n_max <= cap:
        raise ValueError(
            f"n_max must be between 1 and {cap}"
            + ("" if override_cap else f" (pass override_cap=True to go to {SIZE_CAP})")
        )
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")

    tasks = tasks_for(conjecture, n_max)
    cache = _Cache(cache_dir) if cache_dir else None
    reports, pending, hits = [], [], 0
    for task in tasks:
        cached = cache.load(task) if cache else None
        if cached is not None:
            reports.append(cached)
            hits += 1
        else:
            pending.append(task)

    if parallelism == 1 or len(pending) <= 1:
        fresh = [evaluate_task(task) for task in pending]
    else:
        context = multiprocessing.get_context("fork")
        with context.Pool(parallelism) as pool:
            fresh = list(pool.imap_unordered(evaluate_task, pending, chunksize=1))

    if cache:
        for report in fresh:
            cache.store(report)
        log.info("cache hits: %d of %d tasks", hits, len(tasks))
    reports.extend(fresh)
    reports.sort(key=_report_key)
    return reports


def emit_report(reports, path):
    """Write reports as JSON-lines with a fixed field order, sorted the
    same way run_verification sorts, one report per line."""
    lines = [json.dumps(r.to_json_dict()) for r in sorted(reports, key=_report_key)]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def code_version():
    """Digest of the package sources; any edit invalidates the cache."""
    digest = hashlib.sha256()
    root = os.path.dirname(__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


class _Cache:
    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, task):
        key = json.dumps(
            [
                code_version(),
                task.conjecture,
                list(task.m),
                None if task.lam is None else list(task.lam),
            ]
        )
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.root, digest[:2], digest + ".json")

    def load(self, task):
        try:
            with open(self._path(task), "r", encoding="utf-8") as fh:
                return report_from_json_dict(json.load(fh))
        except (OSError, ValueError, KeyError):
            return None

    def store(self, report):
        path = self._path(report.task)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh)
        os.replace(tmp, path)


def audit_cache(conjecture, n_max, cache_dir, fraction=0.1, seed=0):
    """Recompute a random sample of cached units and diff them against the
    stored results (timing excluded).  Returns the list of mismatches;
    empty means the cache is faithful."""
    cache = _Cache(cache_dir)
    cached = [
        (task, hit)
        for task in tasks_for(conjecture, n_max)
        if (hit := cache.load(task)) is not None
    ]
    rng = random.Random(seed)
    k = max(1, round(fraction * len(cached))) if cached else 0
    mismatches = []
    for task, hit in rng.sample(cached, k):
        fresh = evaluate_task(task)
        old, new = hit.to_json_dict(), fresh.to_json_dict()
        old.pop("seconds"), new.pop("seconds")
        if old != new:
            mismatches.append({"cached": old, "recomputed": new})
    return mismatches
