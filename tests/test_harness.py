from __future__ import annotations

import json
import logging
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csflab.harness import (
    CONJECTURES,
    Report,
    VerificationTask,
    audit_cache,
    code_version,
    emit_report,
    evaluate_task,
    poly_nonneg_on_nonneg,
    rat_nonneg_on_nonneg,
    run_verification,
    summarize,
    tasks_for,
)
from csflab.qcore import QPoly, QRat
from csflab.tableaux import text_to_tableau

JOBS = min(4, os.cpu_count() or 1)


def nonzero_discrepancies(reports):
    return [
        (r.task.m, r.task.lam, r.witness["discrepancy"])
        for r in reports
        if r.witness and r.witness.get("discrepancy")
    ]


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


def test_task_validation():
    task = VerificationTask("bounds", [0, 0, 1], [2, 1])
    assert task.m == (0, 0, 1) and task.lam == (2, 1)
    with pytest.raises(ValueError):
        VerificationTask("positivity", (0, 0), (2,))
    with pytest.raises(ValueError):
        VerificationTask("bounds", (0, 2), (2,))  # not a Hessenberg vector
    with pytest.raises(ValueError):
        VerificationTask("bounds", (0, 0, 1), (2, 2))  # wrong size


def test_failing_report_needs_witness():
    task = VerificationTask("bounds", (0,), (1,))
    with pytest.raises(ValueError):
        Report(task, "fails", None, 0.0)
    with pytest.raises(ValueError):
        Report(task, "unsure", None, 0.0)


def test_tasks_for_counts():
    # sizes 1..4 carry 1, 2, 3, 5 partitions and 1, 2, 5, 14 posets
    assert len(tasks_for("bounds", 4)) == 1 + 4 + 15 + 70
    barbell = tasks_for("barbell-powerful", 4)
    skips = [t for t in barbell if t.lam is None]
    real = [t for t in barbell if t.lam is not None]
    # barbell vectors: (2,2) at n=3; (2,3), (3,2), (2,2,2) at n=4
    assert len(real) == 1 * 3 + 3 * 5
    assert len(skips) == 1 + 2 + 4 + 11
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


def test_bounds_hold_to_six():
    reports = run_verification("bounds", 6, parallelism=JOBS)
    assert summarize(reports) == {"holds": 1836, "fails": 0, "skipped": 0}


def test_small_sweeps_hold():
    for conjecture in ("undercount-q", "nonzero", "strong-iff-hikita", "h-lower-bound"):
        reports = run_verification(conjecture, 5)
        assert summarize(reports) == {"holds": 384, "fails": 0, "skipped": 0}, conjecture


# the units where h-lower-bound fails at n <= 7 (bench/run.py pins the same nine)
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
)


def test_h_lower_bound_fails_once_at_six():
    # the bound is refuted (or mis-stated) from n = 6 on: one unit at n = 6,
    # eight more at n = 7
    reports = run_verification("h-lower-bound", 7, parallelism=JOBS)
    assert summarize(reports) == {"holds": 8262, "fails": 9, "skipped": 0}
    failing = [r for r in reports if r.status == "fails"]
    assert sorted((r.task.m, r.task.lam) for r in failing) == sorted(H_BOUND_FAILING)
    (bad,) = [r for r in failing if len(r.task.m) == 6]
    assert (bad.task.m, bad.task.lam) == ((0, 0, 1, 1, 2, 4), (3, 2, 1))
    assert bad.witness == {
        "tableau": [list(c) for c in text_to_tableau("1,2,3/4,5/6")],
        "q": "1/4",
        "margin_num": [0, -1],
        "margin_den": [1, 1],
    }


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


def test_check_panic_becomes_failing_report(monkeypatch):
    import csflab.harness as harness

    def boom(m, lam):
        raise RuntimeError("wired to explode")

    monkeypatch.setitem(harness._PER_UNIT, "bounds", boom)
    reports = run_verification("bounds", 2)
    assert all(r.status == "fails" for r in reports)
    assert all("wired to explode" in r.witness["error"] for r in reports)


# ---------------------------------------------------------------------------
# persistence, cache, determinism
# ---------------------------------------------------------------------------

def test_emit_empty_report_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit_report([], path)
    assert path.read_bytes() == b""


def test_emit_single_line_field_order(tmp_path):
    report = evaluate_task(VerificationTask("bounds", (0, 0), (1, 1)))
    path = tmp_path / "one.jsonl"
    emit_report([report], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert list(parsed) == ["conjecture", "n", "m", "lam", "status", "witness", "seconds"]
    assert parsed["status"] == "holds"
    assert parsed["m"] == [0, 0] and parsed["lam"] == [1, 1]


def test_emit_failure_names_the_path(tmp_path):
    report = evaluate_task(VerificationTask("bounds", (0,), (1,)))
    with pytest.raises(OSError, match="missing/nested.jsonl"):
        emit_report([report], tmp_path / "missing" / "nested.jsonl")


def test_parallel_runs_match_serial(tmp_path):
    serial = run_verification("overcount-q", 4)
    parallel = run_verification("overcount-q", 4, parallelism=3)
    assert without_seconds(serial) == without_seconds(parallel)


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
    victim = sorted(cache.rglob("*.json"))[0]
    data = json.loads(victim.read_text())
    data["status"] = "skipped"
    victim.write_text(json.dumps(data))
    bad = audit_cache("bounds", 3, str(cache), fraction=1.0, seed=0)
    assert len(bad) == 1
    assert bad[0]["cached"]["status"] == "skipped"
    assert bad[0]["recomputed"]["status"] == "holds"


def test_code_version_is_stable_hex():
    v = code_version()
    assert v == code_version()
    assert len(v) == 16 and all(c in "0123456789abcdef" for c in v)


# ---------------------------------------------------------------------------
# exact nonnegativity decision
# ---------------------------------------------------------------------------

def test_poly_nonneg_fixed_cases():
    yes = [
        QPoly([]),
        QPoly([5]),
        QPoly([1, -2, 1]),          # (q-1)^2
        QPoly([0, 1, -2, 1]),       # q(q-1)^2
        QPoly([4, -12, 13, -6, 1]), # ((q-1)(q-2))^2
        QPoly([9, -24, 22, -8, 1]), # ((q-1)(q-3))^2
        QPoly([1, -1, 1]),          # no real roots
    ]
    for poly in yes:
        verdict, witness = poly_nonneg_on_nonneg(poly)
        assert verdict and witness is None, poly.text()
    no = [
        QPoly([-1]),
        QPoly([0, -1]),
        QPoly([-1, 3, -3, 1]),      # (q-1)^3
        QPoly([3, -4, 1]),          # (q-1)(q-3), negative between the roots
        QPoly([1, 1, -1]),          # negative leading coefficient
    ]
    for poly in no:
        verdict, witness = poly_nonneg_on_nonneg(poly)
        assert not verdict, poly.text()
        assert poly.eval_at(witness) < 0, poly.text()


def test_rat_nonneg_cases():
    assert rat_nonneg_on_nonneg(QRat(QPoly([0, 1]), QPoly([1, 1])))[0]
    verdict, witness = rat_nonneg_on_nonneg(QRat(QPoly([-1, 1])))
    assert not verdict and witness == 0
    ratio = QRat(QPoly([1]), QPoly([-1, 1]))
    verdict, witness = rat_nonneg_on_nonneg(ratio)
    assert not verdict and ratio.eval_at(witness) < 0


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
    poly = QPoly([scalar])
    for root, multiplicity in factors:
        for _ in range(multiplicity):
            poly = poly * QPoly([-root, 1])
    odd_positive = {
        root
        for root, _ in factors
        if root > 0 and sum(k for r, k in factors if r == root) % 2
    }
    expected = scalar > 0 and not odd_positive
    verdict, witness = poly_nonneg_on_nonneg(poly)
    assert verdict == expected
    if not verdict:
        assert poly.eval_at(witness) < 0
