from __future__ import annotations

import collections.abc
import hashlib
import itertools
import json
import logging
import multiprocessing
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csflab.csf import e_coeff
from csflab.harness import (
    CONJECTURES,
    STATUSES,
    Report,
    Sweep,
    VerificationTask,
    _Cache,
    _h_margin_nonneg,
    _largest_first,
    _row_factorials,
    _shares,
    code_version,
    emit_report,
    evaluate_task,
    poly_nonneg_on_nonneg,
    rat_nonneg_on_nonneg,
    report_lines,
    run_verification,
    summarize,
    tasks_for,
)
from csflab.hikita import enumerate_hikita, h, h_unreduced, h_unreduced_by_shape
from csflab.posets import check_hessenberg, enumerate_hessenberg, kchain_hessenberg
from csflab.posets import poset_from_hessenberg
from csflab.qcore import QRat, check_partition, int_poly_add, int_poly_mul, is_partition
from csflab.qcore import partitions, poly_eval
from csflab.tableaux import (
    enumerate_class,
    enumerate_powerful_arrays,
    inv_sum,
    is_powerful_array,
    rows_to_cols,
)
from oracles import audit_cache, qrat_at, text_to_tableau

JOBS = min(4, os.cpu_count() or 1)


def nonzero_discrepancies(reports):
    return [
        (r.task.m, r.task.lam, r.witness["discrepancy"])
        for r in reports
        if r.witness and r.witness.get("discrepancy")
    ]


def evaluate(task):
    """The Report of one task, through the sweep's own ``evaluate_task``."""
    return Report(task, *evaluate_task(task.conjecture, task.m, task.lam))


def without_seconds(reports):
    stripped = []
    for r in reports:
        d = r.to_json_dict()
        d.pop("seconds")
        stripped.append(d)
    return stripped


# ---------------------------------------------------------------------------
# registry, tasks, reports
# ---------------------------------------------------------------------------

def test_registry_ids():
    import csflab.harness as harness

    assert CONJECTURES == (
        "bounds",
        "undercount-q",
        "overcount-q",
        "nonzero",
        "strong-iff-hikita",
        "h-lower-bound",
        "barbell-powerful",
        "theorem-suite",
    )
    assert CONJECTURES == tuple(harness._PER_UNIT)


def test_only_barbell_powerful_takes_a_unit_without_a_shape():
    barbell, other = kchain_hessenberg((2, 2)), (0, 0, 0)
    reason = "incomparability graph is not two cliques joined by a path"
    for conjecture in CONJECTURES:
        for m in (barbell, other):
            status, witness, _ = evaluate_task(conjecture, m, None)
            if conjecture == "barbell-powerful" and m == other:
                assert (status, witness) == ("skipped", {"reason": reason})
            else:  # a vector in reach is checked at a shape
                assert (status, witness) == (
                    "error", {"error": f"ValueError: {conjecture} needs a partition"})
    # the scope, not the record, decides the skip: a shape does not bring
    # a vector into reach
    assert evaluate_task("barbell-powerful", other, (2, 1))[:2] == ("skipped", {"reason": reason})
    assert evaluate_task("barbell-powerful", barbell, (2, 1))[0] == "holds"


def test_task_validation():
    task = VerificationTask("bounds", [0, 0, 1], [2, 1])
    assert task.m == (0, 0, 1) and task.lam == (2, 1)
    for _ in range(2):  # a bad task raises again on a repeat
        with pytest.raises(ValueError):
            VerificationTask("positivity", (0, 0), (2,))
        with pytest.raises(ValueError):
            VerificationTask("bounds", (0, 2), (2,))  # not a Hessenberg vector
        with pytest.raises(ValueError):
            VerificationTask("bounds", (0, 0, 1), (2, 2))  # wrong size
        with pytest.raises(ValueError):
            VerificationTask("bounds", (0, 0, 1), (1, 2))  # not a partition


def test_bools_are_not_vector_or_shape_entries():
    # bool is an int subclass; a task of bools wrote "m": [0, True] into its
    # report line, which is not JSON
    for m, lam in [((0, True), (1, 1)), ((0, 0), (True, True)), ((False,), (1,))]:
        with pytest.raises(ValueError):
            VerificationTask("bounds", m, lam)
    with pytest.raises(ValueError):
        check_hessenberg((0, True))
    with pytest.raises(ValueError):
        check_partition((True,))
    assert not is_partition((2, True))


def test_failing_report_needs_witness():
    task = VerificationTask("bounds", (0,), (1,))
    with pytest.raises(ValueError):
        Report(task, "fails", None, 0.0)
    with pytest.raises(ValueError):
        Report(task, "error", None, 0.0)
    with pytest.raises(ValueError):
        Report(task, "unsure", None, 0.0)


def test_tasks_for_counts():
    # sizes 1..4 carry 1, 2, 3, 5 partitions and 1, 2, 5, 14 posets
    records = tasks_for("bounds", 4)
    assert len(records) == 1 + 2 + 5 + 14
    assert sum(len(shapes) for _, shapes in records) == 1 + 4 + 15 + 70
    # one record per vector, in report order; each size's shapes are
    # partitions(n), one shared tuple, and read backwards in report order
    assert [m for m, _ in records] == sorted((m for m, _ in records), key=lambda m: (len(m), m))
    first = {}
    for m, shapes in records:
        assert first.setdefault(len(m), shapes) is shapes
        assert shapes == tuple(partitions(len(m)))
        assert list(reversed(shapes)) == sorted(shapes)
    barbell = tasks_for("barbell-powerful", 4)
    skips = [m for m, shapes in barbell if shapes == (None,)]
    real = [(m, lam) for m, shapes in barbell for lam in shapes if lam is not None]
    # barbell vectors: (2,2) at n=3; (2,3), (3,2), (2,2,2) at n=4
    assert len(real) == 1 * 3 + 3 * 5
    assert len(skips) == 1 + 2 + 4 + 11
    assert len(barbell) == len(records)
    with pytest.raises(ValueError):
        tasks_for("everything", 3)


def test_run_verification_argument_errors():
    with pytest.raises(ValueError, match="override_cap"):
        run_verification("bounds", 9)
    with pytest.raises(ValueError):
        run_verification("bounds", 11, override_cap=True)
    with pytest.raises(ValueError):
        run_verification("bounds", 0)
    with pytest.raises(ValueError):
        run_verification("bounds", 3, parallelism=0)
    with pytest.raises(ValueError):
        run_verification("freshness", 3)


@pytest.mark.parametrize("n_max, parallelism", [(3.0, 1), (True, 1), (3, 2.0), (3, True)])
def test_run_verification_refuses_a_non_int_size_or_worker_count(n_max, parallelism):
    with pytest.raises(ValueError, match="must be ints"):
        run_verification("bounds", n_max, parallelism)


# ---------------------------------------------------------------------------
# sweeps against frozen data
# ---------------------------------------------------------------------------

def test_overcount_sweep_to_five_has_one_nonzero_gap():
    reports = run_verification("overcount-q", 5)
    assert summarize(reports) == {"holds": 384, "fails": 0, "skipped": 0}
    assert nonzero_discrepancies(reports) == [
        ((0, 0, 1, 1, 3), (3, 2), [0, 0, 0, 1]),
    ]


def test_overcount_sweep_to_six_frozen_row():
    reports = run_verification("overcount-q", 6, parallelism=JOBS)
    assert summarize(reports)["fails"] == 0
    gaps = dict(
        ((m, lam), poly) for m, lam, poly in nonzero_discrepancies(reports)
    )
    assert gaps[((0, 0, 1, 1, 1, 3), (4, 2))] == [0, 0, 0, 0, 1, 2, 1]


def _overcount_fails_by_brute_force(m, lam, discrepancy, arrays, powerful, coefficient):
    """overcount-q fails at the two-row unit (m, lam) with this witness, and
    every filling of the rows, in both orders of the parts, through the
    element-level definition gives exactly the kernel's arrays, with
    distinct images."""
    status, witness, _ = evaluate_task("overcount-q", m, lam)
    assert status == "fails"
    assert witness == {"discrepancy": discrepancy}
    p = poset_from_hessenberg(m)
    brute = set()
    for word in itertools.permutations(range(1, len(m) + 1)):
        for cut in set(lam):
            rows = (word[:cut], word[cut:])
            if is_powerful_array(p, rows):
                brute.add(rows)
    kernel = [rows for _, rows in enumerate_powerful_arrays(p, lam)]
    assert len(brute) == len(kernel) == arrays
    assert brute == {tuple(map(tuple, rows)) for rows in kernel}
    images = {rows_to_cols(rows) for rows in brute}
    assert len(images) == arrays
    assert list(inv_sum(p, enumerate_class(p, lam, "powerful"))) == powerful
    assert list(e_coeff(p, lam)) == coefficient


def test_overcount_fails_at_the_n8_unit_by_brute_force():
    _overcount_fails_by_brute_force(
        (0, 0, 1, 1, 2, 3, 4, 6), (4, 4), [0, 0, 0, 0, 0, -1, 1, 1], 33,
        powerful=[0, 0, 0, 2, 6, 7, 9, 7, 2], coefficient=[0, 0, 0, 2, 6, 8, 8, 6, 2],
    )


def test_overcount_fails_at_the_n9_unit_by_brute_force():
    # the second primitive failure, not the n = 8 unit with a point added;
    # 2 * 9! fillings
    _overcount_fails_by_brute_force(
        (0, 0, 1, 1, 2, 3, 4, 4, 6), (5, 4), [0, 0, 0, 0, 0, 0, -1, 1, 5, 4, 1], 346,
        powerful=[0, 0, 0, 1, 9, 30, 55, 73, 77, 60, 31, 9, 1],
        coefficient=[0, 0, 0, 1, 9, 30, 56, 72, 72, 56, 30, 9, 1],
    )


@pytest.fixture(scope="module")
def sweeps_to_six():
    """Every conjecture's n <= 6 sweep, run once for this module."""
    return {conjecture: run_verification(conjecture, 6, parallelism=JOBS)
            for conjecture in CONJECTURES}


def test_bounds_hold_to_six(sweeps_to_six):
    assert summarize(sweeps_to_six["bounds"]) == {"holds": 1836, "fails": 0, "skipped": 0}


# sha256 of each n <= 6 report's JSON-lines with ``seconds`` dropped, as
# bench/run.py digests suite-n6 (theorem-suite, pinned there); taken before
# the class kernels moved to column-word keys.
CLASS_REPORT_DIGESTS_TO_SIX = {
    "bounds": "e5cece92c2172b3077599a7ca3ff3d7f7f7a51c7b108572632ecad803869b3e1",
    "undercount-q": "b611da768f2376f3bd2d9b4eb43670b9da4d12bfc56f935b509f9b25a9c70b8b",
    "overcount-q": "dc53ee3dfcf142537170c7f9489256385f3ebe96b359e4f6f0a7b888be3489f4",
    "nonzero": "b2d9d5259da2492343d4f814f0df4c46800c9363e857da344dc3f8de2bb532b3",
    "strong-iff-hikita": "983d8c3ca7fad1f62d27528a94ed07149d3128e83c70fec655af34f5cf8dbc84",
    "barbell-powerful": "8cb5074d04d1ad0d83c7609df95658dda0cee4aeec26db0807d0088b134b022a",
}


@pytest.mark.parametrize("conjecture", sorted(CLASS_REPORT_DIGESTS_TO_SIX))
def test_class_conjecture_reports_pinned_to_six(conjecture, sweeps_to_six):
    digest = hashlib.sha256()
    for row in without_seconds(sweeps_to_six[conjecture]):
        digest.update(json.dumps(row).encode() + b"\n")
    assert digest.hexdigest() == CLASS_REPORT_DIGESTS_TO_SIX[conjecture]


def test_small_sweeps_hold():
    for conjecture in ("undercount-q", "nonzero", "strong-iff-hikita", "h-lower-bound"):
        reports = run_verification(conjecture, 5)
        assert summarize(reports) == {"holds": 384, "fails": 0, "skipped": 0}, conjecture


# the units where h-lower-bound fails at n <= 8: one at n = 6, eight at
# n = 7 (bench/run.py pins these nine) and 46 at n = 8
H_BOUND_FAILING = (
    ((0, 0, 1, 1, 2, 4), (3, 2, 1)),
    ((0, 0, 1, 1, 1, 2, 5), (4, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4), (4, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4), (4, 3)),
    ((0, 0, 1, 1, 2, 2, 5), (4, 2, 1)),
    ((0, 0, 1, 1, 2, 4, 4), (3, 3, 1)),
    ((0, 0, 1, 1, 2, 4, 6), (3, 2, 1, 1)),
    ((0, 0, 1, 2, 2, 2, 5), (4, 2, 1)),
    ((0, 1, 1, 2, 2, 3, 5), (3, 2, 1, 1)),
    ((0, 0, 0, 1, 2, 2, 4, 4), (4, 3, 1)),
    ((0, 0, 0, 1, 2, 2, 4, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 1, 2, 3, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 1, 2, 4, 4), (4, 3, 1)),
    ((0, 0, 1, 1, 1, 2, 4, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 1, 2, 5, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 1, 2, 5, 7), (4, 2, 1, 1)),
    ((0, 0, 1, 1, 2, 2, 3, 4), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 3, 4), (5, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 3, 4), (5, 3)),
    ((0, 0, 1, 1, 2, 2, 3, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 3, 5), (5, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 4), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 4), (5, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 4), (5, 3)),
    ((0, 0, 1, 1, 2, 2, 4, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 5), (5, 2, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 6), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 6), (4, 4)),
    ((0, 0, 1, 1, 2, 2, 4, 7), (4, 2, 1, 1)),
    ((0, 0, 1, 1, 2, 2, 4, 7), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 5, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 2, 5, 7), (4, 2, 1, 1)),
    ((0, 0, 1, 1, 2, 3, 4, 4), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 3, 4, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 4, 4, 5), (3, 3, 2)),
    ((0, 0, 1, 1, 2, 4, 4, 5), (4, 3, 1)),
    ((0, 0, 1, 1, 2, 4, 4, 7), (3, 3, 1, 1)),
    ((0, 0, 1, 1, 2, 4, 5, 6), (3, 2, 2, 1)),
    ((0, 0, 1, 1, 2, 4, 6, 7), (3, 2, 1, 1, 1)),
    ((0, 0, 1, 1, 3, 3, 3, 6), (4, 2, 1, 1)),
    ((0, 0, 1, 2, 2, 2, 2, 6), (5, 2, 1)),
    ((0, 0, 1, 2, 2, 2, 3, 5), (4, 3, 1)),
    ((0, 0, 1, 2, 2, 2, 4, 4), (4, 3, 1)),
    ((0, 0, 1, 2, 2, 2, 4, 5), (4, 3, 1)),
    ((0, 0, 1, 2, 2, 2, 5, 5), (4, 3, 1)),
    ((0, 0, 1, 2, 2, 2, 5, 7), (4, 2, 1, 1)),
    ((0, 0, 1, 2, 3, 3, 4, 6), (3, 2, 2, 1)),
    ((0, 1, 1, 2, 2, 2, 3, 6), (4, 2, 1, 1)),
    ((0, 1, 1, 2, 2, 3, 3, 5), (4, 2, 1, 1)),
    ((0, 1, 1, 2, 2, 3, 3, 5), (4, 3, 1)),
    ((0, 1, 1, 2, 2, 3, 3, 6), (4, 2, 1, 1)),
    ((0, 1, 1, 2, 2, 3, 5, 5), (3, 3, 1, 1)),
    ((0, 1, 1, 2, 2, 3, 5, 7), (3, 2, 1, 1, 1)),
    ((0, 1, 1, 2, 3, 3, 3, 6), (4, 2, 1, 1)),
    ((0, 1, 2, 2, 3, 3, 4, 6), (3, 2, 1, 1, 1)),
)


def test_h_lower_bound_fails_once_at_six():
    # the bound is refuted (or mis-stated) from n = 6 on: one unit at n = 6,
    # eight more at n = 7, 46 more at n = 8
    reports = run_verification("h-lower-bound", 8, parallelism=JOBS)
    assert summarize(reports) == {"holds": 39676, "fails": 55, "skipped": 0}
    failing = [r for r in reports if r.status == "fails"]
    assert sorted((r.task.m, r.task.lam) for r in failing) == sorted(H_BOUND_FAILING)
    assert summarize([r for r in reports if len(r.task.m) <= 7]) == {
        "holds": 8262, "fails": 9, "skipped": 0,
    }
    (bad,) = [r for r in failing if len(r.task.m) == 6]
    assert (bad.task.m, bad.task.lam) == ((0, 0, 1, 1, 2, 4), (3, 2, 1))
    assert bad.witness == {
        "tableau": [list(c) for c in text_to_tableau("1,2,3/4,5/6")],
        "q": "1/4",
        "margin_num": [0, -1],
        "margin_den": [1, 1],
    }


def test_integer_h_margin_matches_reduced_margin():
    # every reachable tableau with n <= 6: the unreduced integer verdict
    # equals the sign verdict on the reduced QRat margin
    verdicts = set()
    for n in range(1, 7):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                floor = _row_factorials(lam)
                for cols in enumerate_hikita(m, lam):
                    ht = h(m, cols)
                    reduced = QRat(int_poly_add(int_poly_mul(ht.num, floor), ht.den, -1), ht.den)
                    verdict = _h_margin_nonneg(floor, *h_unreduced(m, cols))
                    assert verdict == rat_nonneg_on_nonneg(reduced)[0], (m, cols)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def _sign_decided_margins(n_max):
    """(tableaux, failing) over every tableau reachable with n <= n_max:
    each integer h margin is decided by its signs, and each failing one's
    reduced QRat margin fails too, with a witness where both are negative."""
    tableaux = failing = 0
    for n in range(1, n_max + 1):
        for m in enumerate_hessenberg(n):
            for lam, tabs in h_unreduced_by_shape(m).items():
                floor = _row_factorials(lam)
                for cols, (num, den) in tabs:
                    tableaux += 1
                    margin = int_poly_add(int_poly_mul(floor, num), den, -1)
                    if poly_nonneg_on_nonneg(margin)[0]:
                        continue
                    failing += 1
                    ht = h(m, cols)
                    reduced = QRat(int_poly_add(int_poly_mul(ht.num, floor), ht.den, -1), ht.den)
                    verdict, point = rat_nonneg_on_nonneg(reduced)
                    assert not verdict, (m, cols)
                    assert qrat_at(reduced, point) < 0 and poly_eval(margin, point) < 0
    return tableaux, failing


def test_h_margins_are_decided_by_their_signs():
    assert _sign_decided_margins(8) == (16096, 60)


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to decide every h margin with n <= 10",
)
def test_h_margins_are_decided_by_their_signs_at_n10():
    assert _sign_decided_margins(10) == (600554, 2311)


# sha256 of the h-lower-bound report with n <= 9 and n <= 10, ``seconds``
# dropped, in emitted key order, as bench/run.py digests its reports
H_BOUND_REPORTS = {
    9: ({"holds": 185264, "fails": 327, "skipped": 0},
        "8cd44ee263cc9bcea60405e0f06a614f9719b26ebca55832ca8281a90ac345f5"),
    10: ({"holds": 889282, "fails": 1741, "skipped": 0},
         "125afb231d3c849de6d4e4e8539d352b737724893ef848d816566a0d115975bd"),
}


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to pin the h-lower-bound reports at n=9 and n=10",
)
@pytest.mark.parametrize("n_max", [9, 10], ids=["at_n9", "at_n10"])
def test_h_lower_bound_report_digest(n_max):
    reports = run_verification("h-lower-bound", n_max, parallelism=JOBS, override_cap=True)
    counts, expected = H_BOUND_REPORTS[n_max]
    assert summarize(reports) == counts
    digest = hashlib.sha256()
    for report in reports:
        row = report.to_json_dict()
        del row["seconds"]
        digest.update(json.dumps(row).encode() + b"\n")
    assert digest.hexdigest() == expected
    if n_max == 10:  # negative just above q = 0, or past the Cauchy bound
        low = sum(Fraction(r.witness["q"]) < 1 for r in reports if r.status == "fails")
        assert (low, counts["fails"] - low) == (1603, 138)


def test_undecided_h_margin_is_an_error_and_never_cached(monkeypatch, tmp_path):
    import csflab.harness as harness

    victim = (0, 0, 1, 1)
    real = harness.h_unreduced_by_shape

    def forced(m):
        """victim's first tableau gets the margin (q-1)^2, which the signs
        do not decide."""
        out = real(m)
        if m == victim:
            lam, tabs = next(iter(out.items()))
            floor = list(_row_factorials(lam))
            tabs[0] = tabs[0][0], ((1,), tuple(int_poly_add(floor, [1, -2, 1], -1)))
        return out

    harness._h_failures.cache_clear()
    monkeypatch.setattr(harness, "h_unreduced_by_shape", forced)
    reports = run_verification("h-lower-bound", 6, cache_dir=tmp_path)
    harness._h_failures.cache_clear()
    errors = [r for r in reports if r.status == "error"]
    assert [r.task.lam for r in errors] == sorted(partitions(4))
    assert all(r.task.m == victim for r in errors)
    for r in errors:  # the margin as int_poly_add leaves it, trailing zeros kept
        assert r.witness["error"].startswith("ArithmeticError: the coefficient signs of [1,-2,1,")
        assert r.witness["error"].endswith("do not decide its sign on q >= 0")
    # the one failure with n <= 6 is untouched
    assert summarize(reports) == {"holds": len(reports) - 6, "fails": 1, "skipped": 0, "error": 5}
    cache = _Cache(tmp_path, "h-lower-bound")
    records = tasks_for("h-lower-bound", 6)
    # one log, a line for every vector but the victim
    [logged] = _log_vectors(tmp_path)
    assert sorted(logged) == sorted(m for m, _ in records if m != victim)
    for m, shapes in records:
        assert (cache.load(m, shapes) is None) == (m == victim)


def test_barbell_sweep_skips_other_posets():
    reports = run_verification("barbell-powerful", 5)
    counts = summarize(reports)
    assert counts == {"holds": 60, "fails": 0, "skipped": 54}
    for r in reports:
        if r.status == "skipped":
            assert r.task.lam is None and "reason" in r.witness
        else:
            assert tuple(r.witness["gamma"]) in {
                (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4), (4, 2), (3, 3),
                (2, 2, 3), (3, 2, 2), (2, 2, 2, 2),
            }
    wider = run_verification("barbell-powerful", 7, parallelism=JOBS)
    assert summarize(wider) == {"holds": 395, "fails": 0, "skipped": 590}
    for r in wider:
        if r.status == "skipped":
            assert r.task.lam is None and "reason" in r.witness
        else:
            # two cliques of sizes a, b >= 2 joined by a path of 2-cliques
            gamma = r.witness["gamma"]
            a, *middle, b = gamma
            assert a >= 2 and b >= 2 and set(middle) <= {2}
            # consecutive cliques share one element
            assert sum(gamma) - (len(gamma) - 1) == len(r.task.m)


def test_theorem_suite_to_five():
    reports = run_verification("theorem-suite", 5, parallelism=JOBS)
    assert summarize(reports) == {"holds": 384, "fails": 0, "skipped": 0}
    by_check = {"k2-identity": 0, "path-identity": 0, "greedy-identity": 0}
    for r in reports:
        for name in r.witness["checks"]:
            if name in by_check:
                by_check[name] += 1
    # every 5-element poset has exactly one (3, 2) unit
    assert by_check["k2-identity"] == 42
    # one path poset per size, checked at every partition
    assert by_check["path-identity"] == 1 + 2 + 3 + 5 + 7
    # the displacement family always contains at least the greedy shape itself
    assert by_check["greedy-identity"] >= 1 + 2 + 5 + 14 + 42
    example = {
        r.task.lam
        for r in reports
        if r.task.m == (0, 0, 1, 1, 3) and "greedy-identity" in r.witness["checks"]
    }
    assert {(3, 1, 1), (3, 2)} <= example


def test_theorem_suite_walks_standard_tableaux_once_per_unit(monkeypatch):
    import csflab.harness as harness

    walks = []
    walk = harness.standard_classes

    def counted(p, lam):
        walks.append((p.m, lam))
        return walk(p, lam)

    monkeypatch.setattr(harness, "standard_classes", counted)
    reports = run_verification("theorem-suite", 5)
    assert len(reports) == 384
    assert sorted(walks) == sorted((r.task.m, r.task.lam) for r in reports)


def test_check_panic_becomes_error_report(monkeypatch, tmp_path):
    import csflab.harness as harness

    def boom(m, lam):
        raise RuntimeError("wired to explode")

    cache = str(tmp_path / "cache")
    monkeypatch.setitem(harness._PER_UNIT, "bounds", (boom, None))
    reports = run_verification("bounds", 2, cache_dir=cache)
    assert all(r.status == "error" for r in reports)
    assert all("wired to explode" in r.witness["error"] for r in reports)
    assert summarize(reports) == {"holds": 0, "fails": 0, "skipped": 0, "error": 5}
    # a crash is never cached, and no log is created: the next run
    # recomputes every unit
    assert not list((tmp_path / "cache").iterdir())
    monkeypatch.undo()
    again = run_verification("bounds", 2, cache_dir=cache)
    assert summarize(again) == {"holds": 5, "fails": 0, "skipped": 0}


# ---------------------------------------------------------------------------
# the vector record, the Sweep and the report template
# ---------------------------------------------------------------------------

def _as_json(reports, statuses=STATUSES):
    return [json.dumps(r.to_json_dict()) for r in reports if r.status in statuses]


def test_template_writes_json_dumps_bytes_on_every_n6_report(sweeps_to_six, tmp_path):
    seen = set()
    for conjecture, sweep in sweeps_to_six.items():
        reports = list(sweep)
        expected = _as_json(reports)
        assert list(report_lines(sweep)) == expected, conjecture
        assert list(report_lines(reports)) == expected, conjecture
        wanted = ("fails", "error")
        assert list(report_lines(sweep, wanted)) == _as_json(reports, wanted), conjecture
        path = tmp_path / f"{conjecture}.jsonl"
        emit_report(sweep, path)
        assert path.read_text() == "".join(line + "\n" for line in expected)
        # any other iterable of Reports is written in the order given
        emit_report(reversed(reports), path)
        assert path.read_text() == "".join(line + "\n" for line in reversed(expected))
        seen |= {(r.status, r.task.lam is None, r.witness is None) for r in reports}
    # whole-poset skips, failures and witnessed and bare holds all occur
    assert {("skipped", True, False), ("fails", False, False),
            ("holds", False, False), ("holds", False, True)} <= seen


EDGE_REPORTS = (
    Report(VerificationTask("barbell-powerful", (0, 0, 1)), "skipped", {"reason": "r"}, 2e-06),
    Report(VerificationTask("nonzero", (0, 0)), "error",
           {"error": "ValueError: nonzero needs a partition"}, 0.0),
    Report(VerificationTask("bounds", (0, 0), (1, 1)), "error",
           {"error": 'RuntimeError: "quoted" \\ tab\t \u00fc \u2603'}, 1e-09),
    Report(VerificationTask("bounds", (0, 0), (2,)), "holds", None, 4.9e-07),
    Report(VerificationTask("bounds", (0, 0), (2,)), "holds", None, -4e-07),
    Report(VerificationTask("bounds", (0, 0), (2,)), "holds", None, 0),
    Report(VerificationTask("h-lower-bound", (0, 0, 1, 1, 2, 4), (3, 2, 1)), "fails",
           {"tableau": [[1, 4, 6], [2, 5], [3]], "q": "1/4", "margin_num": [0, -1],
            "margin_den": [1, 1]}, 12345.678901234),
    Report(VerificationTask("theorem-suite", (0, 0, 1, 2)), "skipped", {}, 5e-07),
)


def test_template_on_hand_made_edge_cases(tmp_path):
    assert round(EDGE_REPORTS[2].seconds, 6) == 0 and round(EDGE_REPORTS[4].seconds, 6) == 0
    expected = _as_json(EDGE_REPORTS)
    assert list(report_lines(EDGE_REPORTS)) == expected
    assert list(report_lines(EDGE_REPORTS[::-1])) == expected[::-1]
    path = tmp_path / "edge.jsonl"
    emit_report(EDGE_REPORTS, path)
    assert path.read_bytes() == "".join(line + "\n" for line in expected).encode()


_json_leaf = st.none() | st.booleans() | st.integers() | st.text(max_size=6) | st.floats(
    allow_nan=False, allow_infinity=False)
_witness = st.dictionaries(st.text(max_size=6), st.recursive(
    _json_leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3), max_leaves=6), min_size=1, max_size=3)


@st.composite
def _reports(draw):
    conjecture = draw(st.sampled_from(CONJECTURES))
    n = draw(st.integers(1, 5))
    m = draw(st.sampled_from(enumerate_hessenberg(n)))
    lam = draw(st.none() | st.sampled_from(list(partitions(n))))
    status = draw(st.sampled_from(STATUSES))
    witness = draw(_witness if status in ("fails", "error") else st.none() | _witness)
    seconds = draw(st.floats(allow_nan=False, allow_infinity=False)
                   | st.floats(-1e-6, 1e-6) | st.integers(0, 10))
    return Report(VerificationTask(conjecture, m, lam), status, witness, seconds)


@given(st.lists(_reports(), max_size=12))
@settings(deadline=None, max_examples=100)
def test_template_matches_json_dumps_on_any_reports(reports):
    assert list(report_lines(reports)) == _as_json(reports)
    wanted = ("fails", "error")
    assert list(report_lines(iter(reports), wanted)) == _as_json(reports, wanted)
    counts = {status: 0 for status in ("holds", "fails", "skipped")}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    assert summarize(reports) == counts


def test_sweep_is_a_read_only_sequence_of_reports_built_on_access():
    sweep = run_verification("barbell-powerful", 4)
    assert isinstance(sweep, Sweep) and isinstance(sweep, collections.abc.Sequence)
    reports = list(sweep)
    assert len(sweep) == len(reports) == 18 + 18  # 18 skipped vectors, 18 units
    assert [sweep[i] for i in range(len(sweep))] == reports
    assert [sweep[i] for i in range(-len(sweep), 0)] == reports
    assert list(reversed(sweep)) == reports[::-1] and sweep.index(reports[7]) == 7
    for index in (len(sweep), -len(sweep) - 1):
        with pytest.raises(IndexError):
            sweep[index]
    with pytest.raises(TypeError):
        sweep[0] = reports[1]
    with pytest.raises(AttributeError):
        sweep.extra = None
    assert sweep[0] == sweep[0] and sweep[0] is not sweep[0]  # built on access
    # report order: by n, then m, then lam, a whole-poset skip first
    key = lambda r: (len(r.task.m), r.task.m, r.task.lam is not None, r.task.lam or ())
    assert reports == sorted(reports, key=key)
    assert summarize(sweep) == summarize(reports) == {"holds": 18, "fails": 0, "skipped": 18}
    empty = Sweep("bounds", [], [])
    assert len(empty) == 0 and list(empty) == [] and list(report_lines(empty)) == []


def test_sweep_iteration_equals_indexing_and_checks_nothing_again(monkeypatch):
    import csflab.harness as harness

    sweeps = [run_verification(conjecture, 5) for conjecture in CONJECTURES]
    calls = []
    for name in ("check_hessenberg", "check_partition"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda x, real=real, name=name: (
            calls.append(name), real(x))[1])
    for sweep in sweeps:
        walked = list(sweep)
        assert walked == [sweep[i] for i in range(len(sweep))]
        assert list(iter(sweep)) == walked and walked[0] is not list(sweep)[0]
    assert calls == []
    monkeypatch.undo()
    for sweep in sweeps:  # the unchecked tasks equal checked ones, hash included
        for report in sweep:
            task = VerificationTask(report.task.conjecture, report.task.m, report.task.lam)
            assert task == report.task and hash(task) == hash(report.task)
            assert type(report.task.m) is tuple
            assert report.task.lam is None or type(report.task.lam) is tuple


def test_no_harness_cache_grows_with_the_vectors_swept():
    import csflab.harness as harness

    assert not hasattr(harness, "_checked_vector")
    assert not hasattr(harness, "_checked_partition")
    # every cache in the module's namespace, also one that wraps an imported function
    caches = {name: fn for name, fn in vars(harness).items() if hasattr(fn, "cache_info")}
    assert {"_h_failures", "_greedy_shapes", "_h_margin_nonneg", "_row_factorials"} <= set(caches)
    for fn in caches.values():
        fn.cache_clear()

    def sizes(n_max):
        for conjecture in CONJECTURES:
            run_verification(conjecture, n_max)
        return {name: fn.cache_info().currsize for name, fn in caches.items()}

    # n = 5 adds 42 vectors, but only 7 shapes and one size
    before, after = sizes(4), sizes(5)
    for name, fn in caches.items():
        bounded = (fn.cache_parameters()["maxsize"] or float("inf")) <= 4096
        assert bounded or after[name] - before[name] <= 7, (name, before[name], after[name])


def test_every_csflab_cache_is_inventoried():
    import importlib
    import pkgutil

    import csflab

    # each lru_cache once, named by the module that defines it (the module of
    # the function it wraps, else the first module that binds it)
    found = {}
    for info in sorted(pkgutil.iter_modules(csflab.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"csflab.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info"):
                label = f"{info.name}.{name}"
                if id(fn) not in found or fn.__module__ == module.__name__:
                    found[id(fn)] = (label, fn.cache_parameters()["maxsize"])
    # a cache keyed by a poset or a vector keeps only the latest one's entry
    per_vector = ("csf.chromatic_e_expansion", "harness._greedy_shapes",
                  "harness._h_failures", "hikita._by_shape", "posets._hessenberg_poset",
                  "tableaux._pair_test")
    # keyed by a shape, a size, a factorization or a (tableau, r) pair
    unbounded = ("csf._e_in_s", "csf.e_to_m",
                 "harness._barbell_vectors", "harness._row_factorials",
                 "harness.code_version", "hikita._steps", "qcore.q_int_product",
                 "tableaux._powerful_plan")
    expected = {**dict.fromkeys(per_vector, 1), "harness._h_margin_nonneg": 4096,
                **dict.fromkeys(unbounded, None)}
    assert dict(found.values()) == expected


# ---------------------------------------------------------------------------
# persistence, cache, determinism
# ---------------------------------------------------------------------------

def test_emit_empty_report_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit_report([], path)
    assert path.read_bytes() == b""


def test_emit_single_line_field_order(tmp_path):
    report = evaluate(VerificationTask("bounds", (0, 0), (1, 1)))
    path = tmp_path / "one.jsonl"
    emit_report([report], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert list(parsed) == ["conjecture", "n", "m", "lam", "status", "witness", "seconds"]
    assert parsed["status"] == "holds"
    assert parsed["m"] == [0, 0] and parsed["lam"] == [1, 1]


def test_emit_failure_names_the_path(tmp_path):
    report = evaluate(VerificationTask("bounds", (0,), (1,)))
    with pytest.raises(OSError, match="missing/nested.jsonl"):
        emit_report([report], tmp_path / "missing" / "nested.jsonl")


def test_parallel_runs_match_serial(tmp_path):
    serial = run_verification("overcount-q", 4)
    parallel = run_verification("overcount-q", 4, parallelism=3)
    assert without_seconds(serial) == without_seconds(parallel)


def test_vector_dispatch_matches_serial_theorem_suite():
    serial = without_seconds(run_verification("theorem-suite", 5))
    for jobs in (2, 3):  # an odd worker count deals uneven shares
        assert without_seconds(run_verification("theorem-suite", 5, parallelism=jobs)) == serial


def test_vector_dispatch_matches_serial_h_lower_bound():
    serial = run_verification("h-lower-bound", 6)
    parallel = run_verification("h-lower-bound", 6, parallelism=2)
    assert without_seconds(parallel) == without_seconds(serial)
    failing = [r for r in parallel if r.status == "fails"]
    assert [(r.task.m, r.task.lam) for r in failing] == [((0, 0, 1, 1, 2, 4), (3, 2, 1))]
    assert failing[0].witness == [r for r in serial if r.status == "fails"][0].witness


def test_vector_dispatch_on_half_warm_cache(tmp_path):
    cache = str(tmp_path / "cache")
    warm = run_verification("theorem-suite", 4, cache_dir=cache)
    mixed = run_verification("theorem-suite", 5, parallelism=2, cache_dir=cache)
    # the second sweep appends only the vectors the first one lacked, in a
    # log of its own, and a third replays across both, seconds included
    first, second = _log_vectors(tmp_path / "cache")
    assert sorted(first) == sorted(m for m, _ in tasks_for("theorem-suite", 4))
    assert sorted(second) == sorted(m for m, _ in tasks_for("theorem-suite", 5) if len(m) == 5)
    assert list(report_lines(run_verification("theorem-suite", 5, cache_dir=cache))) == list(
        report_lines(mixed))
    assert len(_log_vectors(tmp_path / "cache")) == 2
    cold = run_verification("theorem-suite", 5)
    a, b = tmp_path / "mixed.jsonl", tmp_path / "cold.jsonl"
    emit_report(mixed, a)
    emit_report(cold, b)

    def stripped(path):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            row.pop("seconds")
        return "".join(json.dumps(row) + "\n" for row in rows).encode()

    assert stripped(a) == stripped(b)
    # the n <= 4 units are replays: they keep the timing of the run that stored them
    replayed = [r.to_json_dict()["seconds"] for r in mixed if len(r.task.m) <= 4]
    assert replayed == [r.to_json_dict()["seconds"] for r in warm]


@pytest.mark.parametrize("parallelism", [2, 3, 4, 5])
@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
def test_shares_partition_pending_in_order(parallelism, n_max):
    records = tasks_for("theorem-suite", n_max)
    pending = _largest_first(records)
    sizes = [len(records[i][0]) for i in pending]
    assert sorted(pending) == list(range(len(records)))
    assert sizes == sorted(sizes, reverse=True)
    position = {i: k for k, i in enumerate(pending)}
    shares = _shares(pending, parallelism)
    assert len(shares) == min(4 * parallelism, len(pending))
    assert all(shares)
    # dealt, not sliced: the largest vectors lead the shares, one each
    assert [share[0] for share in shares] == pending[: len(shares)]
    dealt = sorted(position[i] for share in shares for i in share)
    assert dealt == list(range(len(pending)))
    for share in shares:
        order = [position[i] for i in share]
        assert order == sorted(order)


class _InlinePool:
    """A stand-in for a fork Pool that runs its work in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, iterable):
        return map(fn, iterable)


def test_pool_has_no_more_workers_than_shares(monkeypatch):
    sizes = []

    def recording_pool(processes):
        sizes.append(processes)
        return _InlinePool()

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", recording_pool)
    serial = run_verification("bounds", 3)
    assert len(tasks_for("bounds", 3)) == 8
    for jobs, workers in ((64, 8), (5, 5), (2, 2)):
        reports = run_verification("bounds", 3, parallelism=jobs)
        assert sizes.pop() == workers
        assert without_seconds(reports) == without_seconds(serial)
    assert not sizes


def test_pool_workers_call_evaluate_task_by_module_name(monkeypatch):
    import csflab.harness as harness

    plain = harness.evaluate_task

    def marked(conjecture, m, lam):
        status, witness, _ = plain(conjecture, m, lam)
        return status, witness, -1.0

    monkeypatch.setattr(harness, "evaluate_task", marked)
    reports = run_verification("bounds", 4, parallelism=2)
    assert reports and all(r.seconds == -1.0 for r in reports)


def test_sweep_holds_one_vectors_cached_work_at_a_time(monkeypatch):
    import csflab.harness as harness
    from csflab import csf, hikita, posets, tableaux

    one_vector = (
        csf.chromatic_e_expansion,
        hikita._by_shape,
        posets._hessenberg_poset,
        harness._h_failures,
        harness._greedy_shapes,
        tableaux._pair_test,
    )
    assert all(c.cache_parameters()["maxsize"] == 1 for c in one_vector)

    plain = harness.evaluate_task
    paths = []

    def recorded(conjecture, m, lam):
        row = plain(conjecture, m, lam)
        paths.append((m, [prefix for prefix, _ in hikita._path]))
        return row

    monkeypatch.setattr(harness, "evaluate_task", recorded)
    for conjecture in ("theorem-suite", "h-lower-bound"):
        reports = run_verification(conjecture, 5)
        assert summarize(reports) == {"holds": 384, "fails": 0, "skipped": 0}
    # after each unit the growth path is exactly its vector's prefixes
    assert len(paths) == 2 * 384
    assert all(path == [m[:i] for i in range(len(m) + 1)] for m, path in paths)

    for m in enumerate_hessenberg(7):
        csf.csf_schur(poset_from_hessenberg(m))
    assert len(hikita._path) <= 8
    assert [prefix for prefix, _ in hikita._path] == [m[:i] for i in range(8)]


def test_records_are_slotted_and_pickle_by_fields():
    task = VerificationTask("overcount-q", (0, 0, 1), (2, 1))
    report = evaluate(task)
    for record in (task, report):
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        report.status = "fails"


_LEAN_IMPORTS = """
import json, sys, tempfile
before = set(sys.modules)
from csflab.cli import main
from csflab.csf import csf_schur
from csflab.harness import run_verification
from csflab.posets import poset_from_hessenberg

try:
    main(["verify", "--conjecture", "theorem-suite", "--max-n", "4", "--jobs", "1"])
except SystemExit as stop:
    assert stop.code == 0, stop.code
csf_schur(poset_from_hessenberg((0, 0, 1, 2)))
lean = sorted(set(sys.modules) - before)
with tempfile.TemporaryDirectory() as cache_dir:
    run_verification("theorem-suite", 3, cache_dir=cache_dir)
cached = sorted(set(sys.modules) - before)
print(json.dumps({"before": sorted(before), "lean": lean, "cached": cached}))
"""


def test_serial_sweep_and_expansions_load_no_pool_or_hashing():
    import csflab

    src = os.path.dirname(os.path.dirname(os.path.abspath(csflab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _LEAN_IMPORTS], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(run.stdout.splitlines()[-1])
    lean = set(seen["lean"])
    # the CLI and the sweep need only the standard library, and not its
    # heavier modules
    assert {name.partition(".")[0] for name in lean} <= {"csflab", *sys.stdlib_module_names}, lean
    assert not {"dataclasses", "inspect", "logging", "multiprocessing", "hashlib"} & lean, lean
    assert "hashlib" in set(seen["cached"]) | set(seen["before"])
    assert "logging" in set(seen["cached"]) | set(seen["before"])
    assert "multiprocessing" not in seen["cached"]


def test_warm_cache_replays_bytes_and_logs_hits(tmp_path, caplog):
    cache = tmp_path / "cache"
    first = run_verification("overcount-q", 4, parallelism=2, cache_dir=str(cache))
    a = tmp_path / "a.jsonl"
    emit_report(first, a)
    with caplog.at_level(logging.INFO, logger="csflab.harness"):
        second = run_verification("overcount-q", 4, cache_dir=str(cache))
    b = tmp_path / "b.jsonl"
    emit_report(second, b)
    assert a.read_bytes() == b.read_bytes()
    assert "cache hits: 90 of 90" in caplog.text


def test_cache_audit_sample_is_clean(tmp_path):
    cache = tmp_path / "cache"
    run_verification("bounds", 4, cache_dir=str(cache))
    assert audit_cache("bounds", 4, str(cache), fraction=0.1, seed=3) == []


def test_cache_audit_catches_tampering(tmp_path):
    cache = tmp_path / "cache"
    run_verification("bounds", 3, cache_dir=str(cache))
    [log] = cache.iterdir()
    lines = log.read_text().splitlines()
    rows = json.loads(lines[0])
    rows[0]["status"] = "skipped"
    lines[0] = json.dumps(rows)
    log.write_text("".join(f"{line}\n" for line in lines))
    bad = audit_cache("bounds", 3, str(cache), fraction=1.0, seed=0)
    assert len(bad) == 1
    assert bad[0]["cached"]["status"] == "skipped"
    assert bad[0]["recomputed"]["status"] == "holds"


def _vectors(conjecture, n_max):
    """Each vector's shapes, in task order."""
    return dict(tasks_for(conjecture, n_max))


def _recording(monkeypatch):
    """Record the (m, lam) of every unit the sweep evaluates; serial
    sweeps only."""
    import csflab.harness as harness

    plain, seen = harness.evaluate_task, []

    def recorded(conjecture, m, lam):
        seen.append((m, lam))
        return plain(conjecture, m, lam)

    monkeypatch.setattr(harness, "evaluate_task", recorded)
    return seen


def _log_vectors(cache):
    """The m of each line of each log in the cache directory, logs in name
    order and lines in file order."""
    return [[tuple(json.loads(line)[0]["m"]) for line in log.read_text().splitlines()]
            for log in sorted(cache.glob("*.jsonl"))]


def _tamper(log, m, edit):
    """Rewrite m's line of ``log`` as ``edit`` leaves its parsed rows."""
    lines = log.read_text().splitlines()
    for k, line in enumerate(lines):
        rows = json.loads(line)
        if tuple(rows[0]["m"]) == m:
            lines[k] = json.dumps(edit(rows))
    log.write_text("".join(f"{line}\n" for line in lines))


def test_cold_pool_run_stores_one_line_per_vector(tmp_path):
    cache = tmp_path / "cache"
    sweep = run_verification("theorem-suite", 5, parallelism=2, cache_dir=str(cache))
    vectors = _vectors("theorem-suite", 5)
    # one log, named by the key, a zero-padded time and the parent's pid:
    # the workers never touch the cache, and no temporary file is left
    [log] = cache.iterdir()
    key, stamp, pid = log.name.removesuffix(".jsonl").split("-")
    assert key == hashlib.sha256(
        json.dumps([code_version(), "theorem-suite"]).encode()).hexdigest()[:32]
    assert len(stamp) == 20 and stamp.isdigit() and pid == str(os.getpid())
    text = log.read_text()
    assert text.endswith("\n")
    lines = {tuple(json.loads(line)[0]["m"]): line for line in text.splitlines()}
    assert len(lines) == len(text.splitlines()) == len(vectors)
    # each line is its vector's reports in task order, seconds rounded,
    # as json.dumps writes the list of their dicts
    for (m, shapes), rows in zip(sweep._records, sweep._rows):
        assert shapes == vectors[m]
        loaded = _Cache(str(cache), "theorem-suite").load(m, shapes)
        assert loaded == [(status, witness, round(s, 6)) for status, witness, s in rows]
        reports = [Report(VerificationTask._make(("theorem-suite", m, lam)), *row)
                   for lam, row in zip(shapes, rows)]
        assert lines[m] == json.dumps([r.to_json_dict() for r in reports])
    # a full replay creates no file and appends nothing
    run_verification("theorem-suite", 5, parallelism=2, cache_dir=str(cache))
    assert list(cache.iterdir()) == [log] and log.read_text() == text


def test_cold_sweep_leaves_a_flat_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    run_verification("theorem-suite", 4, cache_dir=str(cache))
    [log] = cache.iterdir()
    assert log.is_file() and log.suffix == ".jsonl"
    assert len(log.read_text().splitlines()) == 22 == len(_vectors("theorem-suite", 4))
    before = log.read_bytes()
    run_verification("theorem-suite", 4, cache_dir=str(cache))
    assert list(cache.iterdir()) == [log] and log.read_bytes() == before


def test_vector_with_an_error_is_not_stored(monkeypatch, tmp_path, caplog):
    import csflab.harness as harness

    cache = str(tmp_path / "cache")
    victim = ((0, 0, 1, 2), (2, 1, 1))
    plain, scope = harness._PER_UNIT["theorem-suite"]

    def boom(m, lam):
        if (m, lam) == victim:
            raise RuntimeError("wired to explode")
        return plain(m, lam)

    monkeypatch.setitem(harness._PER_UNIT, "theorem-suite", (boom, scope))
    first = run_verification("theorem-suite", 4, parallelism=2, cache_dir=cache)
    assert [(r.task.m, r.task.lam) for r in first if r.status == "error"] == [victim]
    monkeypatch.undo()

    vectors = _vectors("theorem-suite", 4)
    [logged] = _log_vectors(tmp_path / "cache")
    assert sorted(logged) == sorted(m for m in vectors if m != victim[0])

    seen = _recording(monkeypatch)
    with caplog.at_level(logging.INFO, logger="csflab.harness"):
        again = run_verification("theorem-suite", 4, cache_dir=cache)
    assert seen == [(victim[0], lam) for lam in vectors[victim[0]]]
    total = sum(len(shapes) for shapes in vectors.values())
    assert f"cache hits: {total - len(seen)} of {total}" in caplog.text
    assert summarize(again) == {"holds": total, "fails": 0, "skipped": 0}
    # the recomputed vector is the one line of the second run's log
    assert _log_vectors(tmp_path / "cache")[1:] == [[victim[0]]]


@pytest.mark.parametrize("tamper", ["drop", "swap", "shape"])
def test_damaged_vector_file_is_recomputed_whole(monkeypatch, tmp_path, tamper):
    cache = str(tmp_path / "cache")
    cold = run_verification("theorem-suite", 4, cache_dir=cache)
    vectors = _vectors("theorem-suite", 4)
    victim = (0, 0, 1, 2)
    [log] = (tmp_path / "cache").iterdir()
    if tamper == "drop":
        _tamper(log, victim, lambda rows: rows[:2] + rows[3:])
    elif tamper == "swap":
        _tamper(log, victim, lambda rows: [rows[0], rows[3], rows[2], rows[1], *rows[4:]])
    else:
        _tamper(log, victim, lambda rows: rows[:1] + [row["status"] for row in rows[1:]])

    seen = _recording(monkeypatch)
    again = run_verification("theorem-suite", 4, cache_dir=cache)
    assert seen == [(victim, lam) for lam in vectors[victim]]
    assert without_seconds(again) == without_seconds(cold)
    # every other vector is a replay, timing included
    others = [r.to_json_dict() for r in again if r.task.m != victim]
    assert others == [r.to_json_dict() for r in cold if r.task.m != victim]
    # the recomputed line, in the second log, wins over the damaged one
    assert _log_vectors(tmp_path / "cache")[1:] == [[victim]]
    seen.clear()
    third = run_verification("theorem-suite", 4, cache_dir=cache)
    assert seen == [] and list(report_lines(third)) == list(report_lines(again))


def test_torn_last_line_recomputes_only_its_vector(monkeypatch, tmp_path):
    cache = str(tmp_path / "cache")
    cold = run_verification("theorem-suite", 4, cache_dir=cache)
    [log] = (tmp_path / "cache").iterdir()
    text = log.read_text()
    last = text.splitlines()[-1]
    victim = tuple(json.loads(last)[0]["m"])
    log.write_text(text[: len(text) - len(last) // 2])  # killed mid-write

    seen = _recording(monkeypatch)
    again = run_verification("theorem-suite", 4, cache_dir=cache)
    assert seen == [(victim, lam) for lam in _vectors("theorem-suite", 4)[victim]]
    others = [r.to_json_dict() for r in again if r.task.m != victim]
    assert others == [r.to_json_dict() for r in cold if r.task.m != victim]
    assert without_seconds(again) == without_seconds(cold)


def test_later_line_of_a_vector_wins(tmp_path):
    m, shapes = (0, 0, 1), tuple(partitions(3))
    rows = [evaluate_task("bounds", m, lam) for lam in shapes]

    def timed(seconds):
        return [(status, witness, seconds) for status, witness, _ in rows]

    first = _Cache(str(tmp_path), "bounds")
    first.store(m, shapes, timed(1.5))
    first.store(m, shapes, timed(2.5))  # later in the same log
    assert _Cache(str(tmp_path), "bounds").load(m, shapes) == timed(2.5)
    _Cache(str(tmp_path), "bounds").store(m, shapes, timed(3.5))  # in a later log
    assert _Cache(str(tmp_path), "bounds").load(m, shapes) == timed(3.5)
    assert [len(logged) for logged in _log_vectors(tmp_path)] == [2, 1]


def test_old_layout_files_are_ignored(monkeypatch, tmp_path):
    """A file per (conjecture, vector), ``DIR/<digest>.json``, as an older
    cache wrote it: here each holds failing rows, which must not replay."""
    records = tasks_for("bounds", 3)
    for m, shapes in records:
        key = json.dumps([code_version(), "bounds", list(m)]).encode()
        rows = [Report(VerificationTask("bounds", m, lam), "fails", {"forced": True}, 0.5)
                for lam in shapes]
        path = tmp_path / f"{hashlib.sha256(key).hexdigest()}.json"
        path.write_text(json.dumps([r.to_json_dict() for r in rows]))
    old = sorted(tmp_path.iterdir())
    seen = _recording(monkeypatch)
    sweep = run_verification("bounds", 3, cache_dir=str(tmp_path))
    assert len(seen) == len(sweep) == 20
    assert summarize(sweep) == {"holds": 20, "fails": 0, "skipped": 0}
    assert len(list(tmp_path.glob("*.jsonl"))) == 1
    assert sorted(tmp_path.glob("*.json")) == old


def test_code_version_is_stable_hex():
    v = code_version()
    assert v == code_version()
    assert len(v) == 16 and all(c in "0123456789abcdef" for c in v)


# ---------------------------------------------------------------------------
# exact nonnegativity decision
# ---------------------------------------------------------------------------

def test_poly_nonneg_fixed_cases():
    # zero ends are ignored: a list from int_poly_add keeps trailing zeros
    yes = [[], [0, 0], [5], [0, 2, 0, 3, 0], [Fraction(1, 2), 0, 1], (1, 0, 0)]
    for coeffs in yes:
        assert poly_nonneg_on_nonneg(coeffs) == (True, None), coeffs
    no = [
        ([-1], Fraction(0)),
        ([0, -1], Fraction(1, 4)),              # -q: just above 0
        ([-1, 3, -3, 1], Fraction(0)),          # (q-1)^3
        ([0, 0, -2, 5, 0], Fraction(1, 7)),
        ([1, 1, -1], Fraction(2)),              # the Cauchy bound
        ([1, -1, 0], Fraction(2)),              # 1 - q, a trailing zero kept
        ([0, 3, 0, -1, 0, 0], Fraction(4)),
        ([Fraction(1, 2), Fraction(-1, 3)], Fraction(5, 2)),
    ]
    for coeffs, point in no:
        assert poly_nonneg_on_nonneg(coeffs) == (False, point), coeffs
        assert poly_eval(coeffs, point) < 0, coeffs
    undecided = [
        [1, -2, 1],                             # (q-1)^2
        [0, 1, -2, 1],                          # q(q-1)^2
        [3, -4, 1],                             # (q-1)(q-3)
        [1, -1, 1],                             # no real roots
        [1, -2, 1, 0, 0],
        [Fraction(1, 2), -1, 1],
    ]
    for coeffs in undecided:
        with pytest.raises(ArithmeticError, match="do not decide"):
            poly_nonneg_on_nonneg(coeffs)


def test_rat_nonneg_cases():
    assert rat_nonneg_on_nonneg(QRat((0, 1), (1, 1)))[0]
    verdict, witness = rat_nonneg_on_nonneg(QRat((-1, 1)))
    assert not verdict and witness == 0
    ratio = QRat((1,), (-1, 1))
    verdict, witness = rat_nonneg_on_nonneg(ratio)
    assert not verdict and qrat_at(ratio, witness) < 0


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=4, max_denominator=6),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=4,
    ),
    st.sampled_from([1, -1]),
)
@settings(deadline=None)
def test_poly_nonneg_matches_root_construction(factors, scalar):
    poly = [scalar]
    for root, multiplicity in factors:
        for _ in range(multiplicity):
            poly = int_poly_mul(poly, [-root, 1])
    odd_positive = {
        root
        for root, _ in factors
        if root > 0 and sum(k for r, k in factors if r == root) % 2
    }
    expected = scalar > 0 and not odd_positive
    ends = [c for c in poly if c]
    if ends[0] > 0 and ends[-1] > 0 and min(ends) < 0:
        with pytest.raises(ArithmeticError):
            poly_nonneg_on_nonneg(poly)
        return
    verdict, witness = poly_nonneg_on_nonneg(poly)
    assert verdict == expected
    if not verdict:
        assert poly_eval(poly, witness) < 0
