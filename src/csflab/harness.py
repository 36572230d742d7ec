"""Batch verification of the library's conjectures and theorems.

Sweeps every natural unit interval order up to a size cap, crossed with
every partition of the matching size, and dispatches the check selected
by a conjecture id.  The sweep's record is the vector: one (m, shapes)
record each, whose checks return (status, witness, seconds) rows; a
content-addressed cache keyed by the package sources makes re-runs cheap
and lets a warm run reproduce its file byte for byte, timing included.

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

Each conjecture is one row of ``_PER_UNIT``: a check (m, lam) -> (status,
witness) and a scope, m -> None in reach or the reason m's poset is one
skipped unit.  Only ``barbell-powerful`` has a scope; ``CONJECTURES`` is
the keys.  ``theorem-suite`` runs its identities as rows of one loop, each
route only where its row applies.

``h-lower-bound`` decides each tableau on the unreduced integer margin
floor*num - den, where num/den is h = prob/zeta multiplied out of the
growth's factorization.  den is a product of q-integers [j]_q with j >= 2,
that is of cyclotomic factors Phi_d with d >= 2, each positive at every
q >= 0; so floor*num - den has the sign of the reduced margin's num*den
at every q >= 0 and the verdict is the same, with no gcd.  The verdict is
read off the coefficient signs (``poly_nonneg_on_nonneg``); a margin they
do not decide raises, so its vector's units are ``error`` rows.  The
verdict depends only on the column heights and the factorization, and is
cached by them.  Only a failing unit builds the reduced margin, a QRat
over the public ``h``, which gives its witness and must agree that it fails.

A check that raises is reported with status ``error``, never as a
counterexample, and is never stored in the cache.

All checks are pure, so the worker pool needs no shared state.  The unit
of work is one vector, largest vectors first.  The caches of one vector's
work hold one entry each, and the Hikita growth keeps only the latest
vector's prefixes, so that work is built once, in one process; no cache
here keeps an entry per vector.  A report's ``seconds`` is the time of
its own (m, lam) check, and a vector's cached work is charged to the
first unit that needs it.  The cache keeps one JSON-lines log per sweep,
a line per vector with no ``error`` unit, appended by the parent alone:
after each vector at one worker, as each share comes back from the pool,
so a killed sweep keeps every vector or share it finished.  Only the cache
imports ``hashlib`` and ``logging`` (for its hit count), only the pool
``multiprocessing``.

``run_verification`` returns a Sweep, a read-only sequence of Reports
built on access.  Every line of a report file, a cache log or the CLI's
echo comes from one template, ``_vector_lines``, which writes the bytes of
``json.dumps(report.to_json_dict())`` from a row and calls ``json.dumps``
only on a witness; a Sweep is written from its rows, without a Report.

With more than one worker the pending vectors are dealt round-robin into
``_SHARES_PER_WORKER`` shares per worker (never more shares than vectors,
never more workers than shares), largest first within a share, so every
share gets a like mix of large and small vectors.  Rows, and so any
progress the caller sees, come back one whole share at a time.
"""

from __future__ import annotations

import bisect
import collections.abc
import functools
import itertools
import json
import operator
import os
import time
from fractions import Fraction

from .csf import SIZE_CAP, e_coeff
from .hikita import enumerate_hikita, h, h_factors
from .posets import (
    check_hessenberg,
    enumerate_hessenberg,
    kchain_hessenberg,
    path_hessenberg,
    poset_from_hessenberg,
)
from .qcore import QRat, check_partition, coeff_tuple, conjugate, int_poly_add, int_poly_mul
from .qcore import partitions, poly_json, poly_text, q_factorial, q_int_ratio
from .structural import K_set, greedy_shape_family
# Not called here: bench/spans.py wraps harness.enumerate_class and .inv_p.
from .tableaux import colword, enumerate_class, inv_p, inv_sum, powerful_classes
from .tableaux import q_count, standard_classes, word_key

STATUSES = ("holds", "fails", "skipped", "error")

#: Full sweeps above this size need the explicit override flag, which
#: raises the cap to ``SIZE_CAP``, the largest sweep size csflab runs.
DEFAULT_CAP = 8


# ---------------------------------------------------------------------------
# task and report records
# ---------------------------------------------------------------------------

class VerificationTask(collections.namedtuple("VerificationTask", "conjecture m lam")):
    """One unit of work: a conjecture id, a reverse Hessenberg vector,
    and the partition it is checked at (None only for whole-poset skips)."""

    __slots__ = ()

    def __new__(cls, conjecture, m, lam=None):
        if conjecture not in CONJECTURES:
            raise ValueError(f"unknown conjecture id {conjecture!r}")
        m = check_hessenberg(m)
        if lam is not None:
            lam = check_partition(lam)
            if sum(lam) != len(m):
                raise ValueError(f"partition {lam} does not match the {len(m)}-element poset")
        return tuple.__new__(cls, (conjecture, m, lam))


def _check_status(status, witness):
    if status not in STATUSES:
        raise ValueError(f"unknown status {status!r}")
    if status in ("fails", "error") and not witness:
        raise ValueError(f"a {status} report must carry a witness")


class Report(collections.namedtuple("Report", "task status witness seconds")):
    __slots__ = ()

    def __new__(cls, task, status, witness, seconds):
        _check_status(status, witness)
        return tuple.__new__(cls, (task, status, witness, seconds))

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


class Sweep(collections.abc.Sequence):
    """One conjecture's reports in report order (n, m, lam), read-only: the
    ``tasks_for`` records and each one's rows in task order.  Item i is a
    Report built when asked for, and iteration walks the rows in order;
    ``report_lines`` reads the rows."""

    __slots__ = ("conjecture", "_records", "_rows", "_ends")

    def __init__(self, conjecture, records, rows):
        self.conjecture, self._records, self._rows = conjecture, records, rows
        self._ends = list(itertools.accumulate(len(shapes) for _, shapes in records))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        i = index + len(self) if index < 0 else index
        if not 0 <= i < len(self):
            raise IndexError("Sweep index out of range")
        k = bisect.bisect_right(self._ends, i)
        (m, shapes), j = self._records[k], self._ends[k] - 1 - i
        task = VerificationTask._make((self.conjecture, m, shapes[j]))
        return Report(task, *self._rows[k][j])

    def __iter__(self):
        for conjecture, m, units in _vectors(self):
            for lam, row in units:
                yield Report(VerificationTask._make((conjecture, m, lam)), *row)


def _vectors(reports):
    """(conjecture, m, units) per vector, each unit (lam, row), in the order
    of ``reports``: a Sweep's rows read backwards, from task order into
    report order, or runs of Reports of one conjecture and vector."""
    if isinstance(reports, Sweep):
        for (m, shapes), rows in zip(reports._records, reports._rows):
            yield reports.conjecture, m, zip(reversed(shapes), reversed(rows))
        return
    vector = operator.attrgetter("task.conjecture", "task.m")
    for (conjecture, m), group in itertools.groupby(reports, key=vector):
        yield conjecture, m, ((r.task.lam, (r.status, r.witness, r.seconds)) for r in group)


def _vector_lines(conjecture, m, units, shape_text, statuses=STATUSES):
    """The template: the ``json.dumps(report.to_json_dict())`` text of each
    unit of one vector whose status is in ``statuses``.  The head is built
    once per vector, a shape's text once per ``shape_text`` dict."""
    head = None
    for lam, (status, witness, seconds) in units:
        if status not in statuses:
            continue
        if head is None:
            head = (f'{{"conjecture": {json.dumps(conjecture)}, "n": {len(m)}, '
                    f'"m": {list(m)}, "lam": ')
        text = shape_text.get(lam)
        if text is None:
            text = shape_text[lam] = str(list(lam))
        witness = "null" if witness is None else json.dumps(witness)
        yield (f'{head}{text}, "status": "{status}", "witness": {witness}, '
               f'"seconds": {round(seconds, 6)!r}}}')


def report_lines(reports, statuses=STATUSES):
    """The JSON line, without newline, of each report (a Sweep or any
    iterable of Reports) whose status is in ``statuses``, in order."""
    shape_text = {None: "null"}
    for conjecture, m, units in _vectors(reports):
        yield from _vector_lines(conjecture, m, units, shape_text, statuses)


def summarize(reports):
    """Units per status; ``error`` is counted only when some unit raised."""
    counts = {status: 0 for status in STATUSES if status != "error"}
    for _, _, units in _vectors(reports):
        for _, (status, _, _) in units:
            counts[status] = counts.get(status, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# exact nonnegativity of a polynomial on q >= 0
# ---------------------------------------------------------------------------

def _cauchy_bound(coeffs):
    """A rational point above every real root: the sign of the leading
    coefficient holds from there on."""
    return Fraction(1) + Fraction(max(abs(c) for c in coeffs), abs(coeffs[-1]))


def _tiny_positive(coeffs):
    """A rational point strictly below every positive root."""
    c0 = abs(coeffs[0])
    top = max(abs(c) for c in coeffs)
    return Fraction(c0, 2 * (c0 + top))


def poly_nonneg_on_nonneg(coeffs):
    """Exact decision of p(q) >= 0 for all real q >= 0, from the signs of
    the coefficients (ints or Fractions, index i holding q^i) alone.

    Returns (verdict, witness); on False the witness is a rational point
    where p is negative.  With no negative coefficient p holds; a negative
    lowest nonzero coefficient makes p negative at or just above 0, a negative
    leading one makes it negative past the Cauchy bound.  Any other sign
    pattern would need real-root isolation, which no sweep up to n = 10
    reaches, so it raises ArithmeticError rather than guess.
    """
    if all(c >= 0 for c in coeffs):
        return True, None
    nonzero = [i for i, c in enumerate(coeffs) if c]
    shift, top = nonzero[0], nonzero[-1]
    reduced = coeffs[shift : top + 1]
    if reduced[0] < 0:
        return False, Fraction(0) if shift == 0 else _tiny_positive(reduced)
    if reduced[-1] < 0:
        return False, _cauchy_bound(reduced)
    raise ArithmeticError(
        f"the coefficient signs of {poly_text(coeffs)} do not decide its sign on q >= 0"
    )


def rat_nonneg_on_nonneg(ratio):
    """The same decision for a reduced rational function, away from poles."""
    return poly_nonneg_on_nonneg(int_poly_mul(ratio.num, ratio.den))


# ---------------------------------------------------------------------------
# per-unit checks
# ---------------------------------------------------------------------------

def _check_bounds(m, lam):
    p = poset_from_hessenberg(m)
    at_one = sum(e_coeff(p, lam))
    n_strong = len(standard_classes(p, lam)[1])
    n_powerful = len(powerful_classes(p, lam))
    if n_strong <= at_one <= n_powerful:
        return "holds", None
    return "fails", {
        "strong_count": n_strong,
        "powerful_count": n_powerful,
        "coefficient_at_one": str(at_one),
    }


def _difference(a, b):
    """a - b on integer coefficient tuples, as a coefficient tuple."""
    return coeff_tuple(int_poly_add(list(a), b, -1))


def _integer_nonneg_verdict(margin):
    """Holds when the integer margin has no negative coefficient; the
    witness carries the margin unless it is zero on a unit that holds."""
    if all(c >= 0 for c in margin):
        return "holds", {"discrepancy": list(margin)} if margin else None
    return "fails", {"discrepancy": list(margin)}


def _powerful_margin(m, lam):
    """The powerful inversion sum minus c_lam."""
    p = poset_from_hessenberg(m)
    return _difference(q_count(powerful_classes(p, lam).values()), e_coeff(p, lam))


def _check_undercount_q(m, lam):
    p = poset_from_hessenberg(m)
    margin = _difference(e_coeff(p, lam), q_count(standard_classes(p, lam)[1].values()))
    return _integer_nonneg_verdict(margin)


def _check_overcount_q(m, lam):
    return _integer_nonneg_verdict(_powerful_margin(m, lam))


def _check_nonzero(m, lam):
    p = poset_from_hessenberg(m)
    if standard_classes(p, lam)[1]:
        return "holds", None
    at_one = sum(e_coeff(p, lam))
    if at_one == 0:
        return "holds", None
    return "fails", {
        "strong_count": 0,
        "coefficient_at_one": str(at_one),
        "coefficient": list(e_coeff(p, lam)),
    }


def _check_strong_iff_hikita(m, lam):
    p = poset_from_hessenberg(m)
    n_strong = len(standard_classes(p, lam)[1])
    n_hikita = len(enumerate_hikita(m, lam))
    if bool(n_strong) == bool(n_hikita):
        return "holds", None
    return "fails", {"strong_count": n_strong, "hikita_count": n_hikita}


@functools.lru_cache(maxsize=None)
def _row_factorials(lam):
    """The h-lower-bound floor, the product of the row q-factorials, as an
    integer coefficient tuple."""
    return tuple(functools.reduce(int_poly_mul, map(q_factorial, lam), [1]))


@functools.lru_cache(maxsize=32768)
def _h_holds(heights, factors):
    """floor*num - den >= 0 at every q >= 0, decided on the integer signs,
    for a tableau of these column heights whose h = num/den is the product
    of [j]_q^x over the factors.  Shared across vectors; the bound holds
    all 25,414 keys of a sweep to n = 10 (7,017 to n = 9)."""
    num, den = q_int_ratio(factors)
    floor = _row_factorials(conjugate(heights))
    return poly_nonneg_on_nonneg(int_poly_add(int_poly_mul(floor, num), den, -1))[0]


@functools.lru_cache(maxsize=1)
def _h_failures(m):
    """Each shape whose h margin goes negative somewhere on q >= 0 -> its
    first such tableau in column-word order; a shape that holds is absent.
    One pass over the growth decides each reachable tableau once."""
    out = {}
    for cols, factors in h_factors(m):
        heights = tuple(map(len, cols))
        if not _h_holds(heights, factors):
            lam = conjugate(heights)
            out[lam] = min(out.get(lam, cols), cols, key=colword)
    return out


def _check_h_lower_bound(m, lam):
    cols = _h_failures(m).get(lam)
    if cols is None:
        return "holds", None
    floor = _row_factorials(lam)
    ht = h(m, cols)
    margin = QRat(int_poly_add(int_poly_mul(ht.num, floor), ht.den, -1), ht.den)
    ok, point = rat_nonneg_on_nonneg(margin)
    if ok:
        raise AssertionError(
            f"the integer and the reduced h margin disagree at {cols}"
        )
    return "fails", {
        "tableau": [list(c) for c in cols],
        "q": str(point),
        "margin_num": poly_json(margin.num),
        "margin_den": poly_json(margin.den),
    }


def _barbell_scope(m):
    """None for two cliques joined by a path, else why m is skipped."""
    if m not in _barbell_vectors(len(m)):
        return "incomparability graph is not two cliques joined by a path"


def _check_barbell(m, lam):
    gamma = _barbell_vectors(len(m))[m]
    margin = _powerful_margin(m, lam)
    if not margin:
        return "holds", {"gamma": list(gamma)}
    return "fails", {"gamma": list(gamma), "discrepancy": list(margin)}


@functools.lru_cache(maxsize=1)
def _greedy_shapes(m):
    """Every shape the greedy displacement family produces for this poset:
    cut i may move w cells from row i to row i+1 exactly when 2w <= row_i -
    row_{i+1} (a missing row is 0), and cuts that are not adjacent move
    independently, so only displacements that form a partition are built."""
    from .posets import greedy_partition

    p = poset_from_hessenberg(m)
    base = greedy_partition(p)
    moves = [{}]  # each nonadjacent cut set with room -> its weights
    for i, (row, below) in enumerate(zip(base, base[1:] + (0,)), 1):
        moves += [{**d, i: w} for d in moves if i - 1 not in d
                  for w in range(1, (row - below) // 2 + 1)]
    return frozenset(greedy_shape_family(p, set(d), d) for d in moves)


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

    hikita = {word_key(p, colword(cols)): cols for cols in enumerate_hikita(m, lam)}
    standard, strong = standard_classes(p, lam)
    powerful = powerful_classes(p, lam)
    if not hikita.keys() <= strong.keys():
        return "fails", {
            "check": "inclusions",
            "detail": "a reachable insertion tableau is not strong",
            "extra": sorted([list(c) for k, c in hikita.items() if k not in strong]),
        }
    if not strong.keys() <= powerful.keys() <= standard.keys():
        return "fails", {
            "check": "inclusions",
            "detail": "class containment broken",
            "counts": [len(strong), len(powerful), len(standard)],
        }
    ran.append("inclusions")

    coeff = e_coeff(p, lam)
    # (check, applies, witness key, route): a route runs only where it applies
    for check, applies, key, route in (
        ("k2-identity", n >= 5 and lam == (n - 2, 2), "family_sum",
         lambda: inv_sum(p, K_set(p))),
        ("path-identity", m == path_hessenberg(n), "powerful_sum",
         lambda: q_count(powerful.values())),
        ("greedy-identity", lam in _greedy_shapes(m), "strong_sum",
         lambda: q_count(strong.values())),
    ):
        if applies:
            total = route()
            if total != coeff:
                return "fails", {"check": check, key: list(total), "coefficient": list(coeff)}
            ran.append(check)
    return "holds", {"checks": ran}


_PER_UNIT = {
    "bounds": (_check_bounds, None),
    "undercount-q": (_check_undercount_q, None),
    "overcount-q": (_check_overcount_q, None),
    "nonzero": (_check_nonzero, None),
    "strong-iff-hikita": (_check_strong_iff_hikita, None),
    "h-lower-bound": (_check_h_lower_bound, None),
    "barbell-powerful": (_check_barbell, _barbell_scope),
    "theorem-suite": (_check_theorem_suite, None),
}

CONJECTURES = tuple(_PER_UNIT)


def evaluate_task(conjecture, m, lam):
    """Run one unit on a checked vector and shape: its (status, witness,
    seconds) row.  An exception inside a check becomes an ``error`` row,
    never a failing one."""
    start = time.perf_counter()
    try:
        check, scope = _PER_UNIT[conjecture]
        reason = scope and scope(m)
        if lam is None and not reason:
            raise ValueError(f"{conjecture} needs a partition")
        status, witness = ("skipped", {"reason": reason}) if reason else check(m, lam)
        _check_status(status, witness)
    except Exception as exc:  # captured, never propagated: the sweep must finish
        status = "error"
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    return status, witness, time.perf_counter() - start


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def tasks_for(conjecture, n_max):
    """The work list in report order: one (m, shapes) record per checked
    vector.  ``shapes`` is ``partitions(n)``, checked once per size and in
    task order, the reverse of report order, or (None,), a whole-poset
    skip for a vector outside a scoped conjecture's reach."""
    if conjecture not in CONJECTURES:
        raise ValueError(f"unknown conjecture id {conjecture!r}")
    scope, records = _PER_UNIT[conjecture][1], []
    for n in range(1, n_max + 1):
        shapes = tuple(check_partition(lam) for lam in partitions(n))
        for m in enumerate_hessenberg(n):
            m = check_hessenberg(m)
            records.append((m, (None,) if scope and scope(m) else shapes))
    return records


def _largest_first(records):
    """The records' indices, largest vector first, so none straggles."""
    return sorted(range(len(records)), key=lambda i: -len(records[i][0]))


#: Shares dealt per worker on the pool path: the parent reads a few
#: messages rather than one per vector, and a worker that finishes early
#: still finds shares left to take.  ``Pool.map`` uses the same factor for
#: its default chunk size.
_SHARES_PER_WORKER = 4


def _shares(pending, parallelism):
    """The pending vectors dealt round-robin into at most
    ``_SHARES_PER_WORKER * parallelism`` nonempty shares; each share keeps
    the largest-first order of ``pending``."""
    k = min(_SHARES_PER_WORKER * parallelism, len(pending))
    return [pending[i::k] for i in range(k)]


def _evaluate_share(share, conjecture):
    """One pool message (index, records): the index and each vector's rows."""
    index, records = share
    return index, [[evaluate_task(conjecture, m, lam) for lam in shapes] for m, shapes in records]


def run_verification(
    conjecture,
    n_max,
    parallelism=1,
    *,
    cache_dir=None,
    override_cap=False,
):
    """Evaluate one conjecture over all posets with up to n_max elements.

    Returns a Sweep, in report order whatever the worker count.  With a
    cache directory, finished vectors are replayed (original timing
    included) instead of recomputed.
    """
    if type(n_max) is not int or type(parallelism) is not int:
        raise ValueError(f"n_max and parallelism must be ints, not {n_max!r} and {parallelism!r}")
    cap = SIZE_CAP if override_cap else DEFAULT_CAP
    if not 1 <= n_max <= cap:
        raise ValueError(
            f"n_max must be between 1 and {cap}"
            + ("" if override_cap else f" (pass override_cap=True to go to {SIZE_CAP})")
        )
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")

    records = tasks_for(conjecture, n_max)
    cache = _Cache(cache_dir, conjecture) if cache_dir else None
    rows, pending = [None] * len(records), []
    for i in _largest_first(records):
        cached = cache.load(*records[i]) if cache else None
        if cached is None:
            pending.append(i)
        else:
            rows[i] = cached
    hits = sum(len(vector_rows) for vector_rows in rows if vector_rows is not None)

    if parallelism == 1 or len(pending) <= 1:
        for i in pending:
            m, shapes = records[i]
            rows[i] = [evaluate_task(conjecture, m, lam) for lam in shapes]
            if cache:
                cache.store(m, shapes, rows[i])
    else:
        import multiprocessing
        shares = _shares(pending, parallelism)
        messages = ((k, [records[i] for i in share]) for k, share in enumerate(shares))
        work = functools.partial(_evaluate_share, conjecture=conjecture)
        context = multiprocessing.get_context("fork")
        with context.Pool(min(parallelism, len(shares))) as pool:
            for k, share_rows in pool.imap_unordered(work, messages):
                for i, vector_rows in zip(shares[k], share_rows):
                    rows[i] = vector_rows
                    if cache:  # the parent is idle here while the pool works
                        cache.store(*records[i], vector_rows)

    sweep = Sweep(conjecture, records, rows)
    if cache:
        import logging
        logging.getLogger(__name__).info("cache hits: %d of %d tasks", hits, len(sweep))
    return sweep


def emit_report(reports, path):
    """Write reports (a Sweep or any iterable of Reports) as JSON-lines,
    one ``report_lines`` line each, in the order given."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in report_lines(reports))
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def code_version():
    """Digest of the package sources; any edit invalidates the cache."""
    import hashlib
    digest = hashlib.sha256()
    root = os.path.dirname(__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


class _Cache:
    """One conjecture's JSON-lines logs, ``DIR/<key>-<time_ns>-<pid>.jsonl``,
    the key a digest of the package sources and the conjecture; this sweep's
    log is created on its first store.  A line is one vector's report dicts
    in task order.  The logs are read once, in name order: a vector's last
    line is replayed."""

    def __init__(self, root, conjecture):
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use {root} as a cache directory: {exc.strerror}") from exc
        import hashlib
        key = hashlib.sha256(json.dumps([code_version(), conjecture]).encode()).hexdigest()[:32]
        self.root, self.conjecture, self._key = root, conjecture, key
        self._stored, self._log, self._shapes = None, None, {}

    def _read(self):
        """m -> (shapes, rows) of its last line that parses in a readable
        log (a torn line does not), or None if that line cannot replay."""
        prefix, stored = self._key + "-", {}
        for name in sorted(os.listdir(self.root)):
            if name.startswith(prefix) and name.endswith(".jsonl"):
                try:
                    with open(os.path.join(self.root, name), "rb") as fh:
                        for line in fh:
                            try:
                                dicts = json.loads(line)
                                m = tuple(dicts[0]["m"])
                                stored[m] = self._replayable(m, dicts)
                            except (ValueError, LookupError, TypeError):
                                continue
                except OSError:
                    continue
        return stored

    def _replayable(self, m, dicts):
        """A line's (shapes, rows), each distinct shapes tuple kept once, or
        None unless every row is a non-``error`` report of this vector."""
        try:
            rows = [(row["status"], row["witness"], row["seconds"]) for row in dicts]
            for row, (status, witness, seconds) in zip(dicts, rows):
                if (
                    (row["conjecture"], row["m"]) != (self.conjecture, list(m))
                    or status == "error"
                    or not isinstance(seconds, float)
                    or not isinstance(witness, (dict, type(None)))
                ):
                    return None
                _check_status(status, witness)
            shapes = tuple(row["lam"] and tuple(row["lam"]) for row in dicts)
            return self._shapes.setdefault(shapes, shapes), rows
        except (ValueError, KeyError, TypeError):
            return None

    def load(self, m, shapes):
        """One vector's rows in task order, or None on a miss.  A line that
        is not exactly those units' rows, in order, is a miss, so the whole
        vector is recomputed and its new line wins next time."""
        if self._stored is None:
            self._stored = self._read()
        stored = self._stored.get(m)
        return stored[1] if stored and stored[0] == shapes else None

    def store(self, m, shapes, rows):
        """Append one vector's rows, through the report template, to this
        sweep's log; nothing is stored when any is an ``error``, so a
        transient crash is recomputed rather than replayed."""
        if any(status == "error" for status, _, _ in rows):
            return
        path, mode = self._log, "a"
        if path is None:
            name = f"{self._key}-{time.time_ns():020d}-{os.getpid()}.jsonl"
            path, mode = os.path.join(self.root, name), "x"
        lines = _vector_lines(self.conjecture, m, zip(shapes, rows), {None: "null"})
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(f"[{', '.join(lines)}]\n")
        self._log = path
