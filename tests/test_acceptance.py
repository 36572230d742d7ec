"""Acceptance gate: the eleven deliverable criteria, one test each.

Each test states its claim, its exact-arithmetic check, and (where the
deliverable fixes one) its wall-clock budget.  Frozen reference data
lives in overcount_table.py and test_tableaux.py; everything else is
recomputed from scratch through the public library surface and the
second routes in oracles.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from csflab.csf import (
    chromatic_e_expansion,
    csf_schur,
    kchain_formula,
    path_formula,
    to_elementary,
)
from csflab.harness import _greedy_shapes, run_verification, summarize
from csflab.hikita import delta, enumerate_hikita, h_unreduced, zeta
from csflab.posets import (
    enumerate_hessenberg,
    kchain_hessenberg,
    path_hessenberg,
    poset_from_hessenberg,
)
from csflab.qcore import (
    QRat,
    coeff_tuple,
    int_poly_add,
    int_poly_mul,
    partitions,
    poly_text,
    sort_desc,
)
from csflab.structural import K_set
from csflab.tableaux import enumerate_class, inv_p, inv_sum, is_strong

from oracles import (
    RelationPoset,
    e_expansion_at_one,
    e_expansion_by_colorings,
    enumerate_syt,
    factored_value,
    inc_components,
    inc_is_connected,
    monomial,
    pairwise_part_products,
    rat_add,
    schur_to_monomial,
    text_to_tableau,
)
from overcount_table import E5_ELEMENTARY, E5_SCHUR, OVERCOUNT_ROWS
from test_harness import H_BOUND_REPORTS
from test_tableaux import CENSUS, POWERFUL_322

E5 = (0, 0, 1, 1, 3)
JOBS = min(8, os.cpu_count() or 1)
ONE = QRat((1,))
ZERO = QRat(())


def poly_from_powers(powers):
    """The coefficient tuple of {power: coefficient}."""
    return tuple(powers.get(i, 0) for i in range(max(powers, default=-1) + 1))


def powerful_expansion(p):
    out = {}
    for lam in partitions(p.n):
        poly = inv_sum(p, enumerate_class(p, lam, "powerful"))
        if poly:
            out[lam] = poly
    return out


def convolve(a, b):
    out = {}
    for mu, pa in a.items():
        for nu, pb in b.items():
            key = sort_desc(mu + nu)
            out[key] = int_poly_add(out.get(key, []), int_poly_mul(pa, pb))
    return {k: coeff_tuple(v) for k, v in out.items() if any(v)}


def induced_poset(p, verts):
    verts = sorted(verts)
    index = {v: i + 1 for i, v in enumerate(verts)}
    pairs = [
        (index[a], index[b]) for a in verts for b in verts if p.less(a, b)
    ]
    return RelationPoset(len(verts), pairs)


@pytest.fixture(scope="module")
def suite7():
    """One theorem-suite sweep over every unit order with at most 7
    elements; shared by the inclusion, (n-2,2), and greedy criteria."""
    return run_verification("theorem-suite", 7, parallelism=JOBS)


def test_criterion_01_frozen_e_and_s_expansions():
    started = time.perf_counter()
    p = poset_from_hessenberg(E5)
    expansion = chromatic_e_expansion(p)
    assert expansion.coeffs == {
        lam: poly_from_powers(d) for lam, d in E5_ELEMENTARY.items()
    }
    schur = csf_schur(p)
    assert schur.coeffs == {
        lam: poly_from_powers(d) for lam, d in E5_SCHUR.items()
    }
    assert time.perf_counter() - started < 1.0


def test_criterion_02_powerful_overcount_table():
    started = time.perf_counter()
    table = {(m, lam): poly_from_powers(d) for m, lam, d in OVERCOUNT_ROWS}
    assert len(table) == len(OVERCOUNT_ROWS) == 106
    seen = set()
    for n in (5, 6, 7):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            powerful = powerful_expansion(p)
            e_exp = chromatic_e_expansion(p).coeffs
            if inc_is_connected(p):
                for lam in partitions(n):
                    gap = coeff_tuple(int_poly_add(list(powerful.get(lam, ())),
                                                   e_exp.get(lam, ()), -1))
                    row = table.get((m, lam))
                    if row is None:
                        assert not gap, (m, lam, poly_text(gap))
                    else:
                        seen.add((m, lam))
                        assert gap == coeff_tuple(row), (m, lam, poly_text(gap))
            else:
                # rows for split incomparability graphs stay out of the
                # table; their data must factor through the components
                conv_pow, conv_e = {(): (1,)}, {(): (1,)}
                for comp in inc_components(p):
                    part = induced_poset(p, comp)
                    conv_pow = convolve(conv_pow, powerful_expansion(part))
                    conv_e = convolve(conv_e, chromatic_e_expansion(part).coeffs)
                assert powerful == conv_pow, m
                assert e_exp == conv_e, m
    assert seen == set(table)
    assert time.perf_counter() - started < 600.0


def test_criterion_03_shape_322_powerful_class():
    p = poset_from_hessenberg((0, 0, 1, 1, 3, 4, 5))
    found = enumerate_class(p, (3, 2, 2), "powerful")
    assert len(found) == len(POWERFUL_322) == 3
    assert set(found) == {text_to_tableau(text) for text, _ in POWERFUL_322}
    flags = [strong for _, strong in POWERFUL_322]
    assert flags == [True, True, False]
    for text, strong in POWERFUL_322:
        assert is_strong(p, text_to_tableau(text)) == strong


def test_criterion_04_powerful_census():
    p = poset_from_hessenberg(E5)
    assert {lam: len(rows) for lam, rows in CENSUS.items()} == {
        (5,): 10,
        (4, 1): 10,
        (3, 2): 3,
        (3, 1, 1): 2,
    }
    for lam in partitions(5):
        found = enumerate_class(p, lam, "powerful")
        rows = CENSUS.get(lam, [])
        got = {(t, inv_p(p, t), is_strong(p, t)) for t in found}
        want = {(text_to_tableau(text), inv, strong) for text, inv, strong in rows}
        assert got == want, lam


def test_criterion_05_route_equivalence():
    started = time.perf_counter()
    for n in range(1, 7):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            via_colorings = e_expansion_by_colorings(p)
            via_schur = to_elementary(schur_to_monomial(csf_schur(p)))
            assert via_colorings == via_schur, m
            assert via_colorings == chromatic_e_expansion(p), m
            at_one = e_expansion_at_one(p)
            assert at_one.coeffs == {
                lam: (sum(poly),) for lam, poly in via_colorings.coeffs.items()
            }, m
    assert time.perf_counter() - started < 300.0


def coloring_e_expansion(m):
    """The second e-route: the proper-coloring count's m-expansion peeled
    into the e basis.  Not cached: at n = 10 a cache would hold 16,796
    expansions, and the n <= 7 route costs well under a second."""
    return e_expansion_by_colorings(poset_from_hessenberg(m))


def e_routes_disagree(sizes):
    """The vectors of the given sizes whose production e-expansion (the
    Hikita identity) differs from the coloring route."""
    return [
        m
        for n in sizes
        for m in enumerate_hessenberg(n)
        if chromatic_e_expansion(poset_from_hessenberg(m)) != coloring_e_expansion(m)
    ]


def test_e_expansion_matches_the_coloring_route():
    assert e_routes_disagree(range(8)) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to compare the two e-routes at n=8",
)
def test_e_expansion_matches_the_coloring_route_at_n8():
    assert e_routes_disagree([8]) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to compare the two e-routes at n=9 (about 40 s)",
)
def test_e_expansion_matches_the_coloring_route_at_n9():
    assert e_routes_disagree([9]) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to compare the two e-routes at n=10 (about 5.5 min)",
)
def test_e_expansion_matches_the_coloring_route_at_n10():
    assert e_routes_disagree([10]) == []


def reach_total(m, lam):
    """The sum of prob(T) over the tableaux of the shape reachable under m,
    as an integer pair (num, den): each prob is zeta times h, and the
    terms are added over their distinct h denominators, a/b + c/d =
    (ad + cb)/bd, so no gcd is taken."""
    by_den = {}
    for t in enumerate_hikita(m, lam):
        num, den = h_unreduced(m, t)
        term = [0] * (len(zeta(m, t)) - 1) + list(num)
        by_den[tuple(den)] = add_int_polys(by_den.get(tuple(den), []), term)
    total_num, total_den = [], [1]
    for den, num in by_den.items():
        total_num = add_int_polys(int_poly_mul(total_num, den), int_poly_mul(num, total_den))
        total_den = int_poly_mul(total_den, den)
    return total_num, total_den


def add_int_polys(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def test_criterion_06_insertion_identities():
    # distribution total: q^star prod [lam_i]_q! sum_T prob(T) = q^|m| c_lam
    # on every unit with n <= 7, cross-multiplied to avoid division; c_lam
    # comes from the coloring route, since the production e-expansion is
    # computed from this identity
    for n in range(1, 8):
        for m in enumerate_hessenberg(n):
            expansion = coloring_e_expansion(m)
            for lam in partitions(n):
                num, den = reach_total(m, lam)
                for part in lam:
                    for j in range(2, part + 1):
                        num = int_poly_mul(num, [1] * j)
                lhs = [0] * pairwise_part_products(lam) + num
                rhs = [0] * sum(m) + int_poly_mul(list(expansion.coeff(lam)), den)
                assert coeff_tuple(lhs) == coeff_tuple(rhs), (m, lam)

    # each insertion step is a probability distribution over landing columns
    for size in range(8):
        for lam in partitions(size):
            for t in enumerate_syt(lam):
                for r in range(size + 1):
                    total = ZERO
                    cs = delta(t, r)
                    for k in range(cs.ell + 1):
                        total = rat_add(total, factored_value(*cs.weight(k)))
                    assert total == ONE

    # the inversion statistic is the zeta power, shifted between the
    # relation count and the pairwise shape product
    for n in range(1, 7):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam in partitions(n):
                star = pairwise_part_products(lam)
                for t in enumerate_hikita(m, lam):
                    assert monomial(inv_p(p, t) + sum(m)) == (0,) * star + zeta(m, t)


def test_criterion_07_class_inclusions(suite7):
    assert len(suite7) == 8271
    assert summarize(suite7) == {"holds": 8271, "fails": 0, "skipped": 0}
    assert all("inclusions" in r.witness["checks"] for r in suite7)


def test_criterion_08_closed_formulas():
    for n in range(1, 8):
        path = poset_from_hessenberg(path_hessenberg(n))
        assert path_formula(n) == chromatic_e_expansion(path), n
    for n in range(1, 9):
        path = poset_from_hessenberg(path_hessenberg(n))
        assert path_formula(n).coeffs == powerful_expansion(path), n

    def gammas(limit):
        yield from ((g,) for g in range(2, limit + 1))
        for g in range(2, limit + 1):
            for rest in gammas(limit - g + 1):
                yield (g,) + rest

    checked = 0
    for gamma in gammas(7):
        p = poset_from_hessenberg(kchain_hessenberg(gamma))
        if p.n > 7:
            continue
        assert kchain_formula(gamma) == chromatic_e_expansion(p), gamma
        checked += 1
    assert checked == 63  # glued sizes 2..7 give 1+2+4+8+16+32 vectors


def test_criterion_09_ksum_identity(suite7):
    ran = [r for r in suite7 if "k2-identity" in r.witness["checks"]]
    assert len(ran) == 42 + 132 + 429  # one (n-2,2) unit per poset, n=5..7
    assert all(r.status == "holds" for r in ran)

    p = poset_from_hessenberg((0, 0, 1, 1, 2, 4))
    assert len(enumerate_class(p, (4, 2), "strong")) == 6
    assert len(K_set(p)) == 8
    assert len(enumerate_class(p, (4, 2), "powerful")) == 10


def test_criterion_10_greedy_family_positivity(suite7):
    ran = [r for r in suite7 if "greedy-identity" in r.witness["checks"]]
    expected = sum(
        len(_greedy_shapes(m))
        for n in range(1, 8)
        for m in enumerate_hessenberg(n)
    )
    posets = sum(len(enumerate_hessenberg(n)) for n in range(1, 8))
    assert len(ran) == expected >= posets
    assert all(r.status == "holds" for r in ran)


def test_criterion_11_conjecture_sweeps():
    started = time.perf_counter()
    for conjecture in (
        "bounds",
        "undercount-q",
        "overcount-q",
        "nonzero",
        "strong-iff-hikita",
    ):
        reports = run_verification(conjecture, 7, parallelism=JOBS)
        assert summarize(reports) == {
            "holds": 8271,
            "fails": 0,
            "skipped": 0,
        }, conjecture
    assert time.perf_counter() - started < 900.0


# every conjecture's summary at n <= 8 (39731 units, 2856 vectors): exact
# counts, never bounds
N8_SUMMARIES = {
    "bounds": {"holds": 39731, "fails": 0, "skipped": 0},
    "undercount-q": {"holds": 39731, "fails": 0, "skipped": 0},
    "overcount-q": {"holds": 39730, "fails": 1, "skipped": 0},
    "nonzero": {"holds": 39731, "fails": 0, "skipped": 0},
    "strong-iff-hikita": {"holds": 39731, "fails": 0, "skipped": 0},
    "h-lower-bound": {"holds": 39676, "fails": 55, "skipped": 0},
    "barbell-powerful": {"holds": 857, "fails": 0, "skipped": 1999},
    "theorem-suite": {"holds": 39731, "fails": 0, "skipped": 0},
}


def report_digest(reports):
    """sha256 of a report's JSON-lines with ``seconds`` dropped, in emitted
    key order, as bench/run.py digests its reports."""
    digest = hashlib.sha256()
    for report in reports:
        row = report.to_json_dict()
        del row["seconds"]
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


# the ``report_digest`` of each n <= 8 report
N8_DIGESTS = {
    "bounds": "b82b00db7397522a10adbfd45911849835015057c6da0a0d664b181609028aa6",
    "undercount-q": "aea111f107b1cbcc0336a622503019bf1173842182b4d2c06493e135a06f8663",
    "overcount-q": "469b8c2e7300b43d0a97399048193b5bd0db977aa54b841334b08a0137a5837b",
    "nonzero": "1907def3a0e0f08a153df1003fa6034186f2f36f2a931867d510b920456e77f1",
    "strong-iff-hikita": "1aae4b18cd0b31fff52ba2e8268cd6985ac55fa651fe9462b9d6ef1ffdea5220",
    "h-lower-bound": "3974f4c79c836b20fc371e3e08c1cc3ae290634e2772e98e9371d5aa50c1ef99",
    "barbell-powerful": "2bb732ecf6d7e50abb3c13b7700d002afcc8f6ee467fc2c3812e675b7495c7a5",
    "theorem-suite": "b7351477f50c9cda45aa65b38a4b0d2d885e6db5845ccf129e07001ae4445729",
}


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to sweep all eight conjectures at n=8",
)
def test_criterion_11_extended_size_eight():
    started = time.perf_counter()
    for conjecture, summary in N8_SUMMARIES.items():
        reports = run_verification(conjecture, 8, parallelism=JOBS)
        assert summarize(reports) == summary, conjecture
        assert report_digest(reports) == N8_DIGESTS[conjecture], conjecture
        if conjecture == "overcount-q":
            (bad,) = [r for r in reports if r.status == "fails"]
            assert (bad.task.m, bad.task.lam) == ((0, 0, 1, 1, 2, 3, 4, 6), (4, 4))
            assert bad.witness == {"discrepancy": [0, 0, 0, 0, 0, -1, 1, 1]}
    assert time.perf_counter() - started < 7200.0


def _holds(count, fails=0, skipped=0):
    return {"holds": count, "fails": fails, "skipped": skipped}


# every conjecture's summary and ``report_digest`` at n <= 9 (185591 units,
# 6917 vectors); h-lower-bound's is the pin of its own opt-in test
N9_REPORTS = {
    "bounds": (_holds(185591),
               "5ed1d79828630c6824337f71c87dada6c4c5597f85d703a9077263558d501d3e"),
    "undercount-q": (_holds(185591),
                     "0e51c95555f372bea39cfcb7d46d3b91c14f1ec55c3af07e9c51cbd464e41cce"),
    "overcount-q": (_holds(185587, fails=4),
                    "4654478fbfe2d8b4e8b940a5dd0563a283b071c1b96c1fcd66d6f1d658a80b09"),
    "nonzero": (_holds(185591),
                "1033a2cfd6e16905265698f3b53ad451c153c60976f27eb2ccdaa27659f31e49"),
    "strong-iff-hikita": (_holds(185591),
                          "45ba68c806ee9cf40c3f9257ce831437695ae19ac235c988f3162ace0b2561f9"),
    "h-lower-bound": H_BOUND_REPORTS[9],
    "barbell-powerful": (_holds(1697, skipped=6833),
                         "5e4f07a66f102f4b8b7b79884f7f4929f799272f7b886916029b8e5547336cec"),
    "theorem-suite": (_holds(185591),
                      "401954b9002c829b538d0684d9c61721a885e1414c167be92918e06b5246751d"),
}

# the units that fail overcount-q at n <= 9, in report order: the primitive
# n = 8 and (5, 4) units, and the n = 8 unit with a point added above or below
N9_OVERCOUNT_FAILURES = [
    ((0, 0, 1, 1, 2, 3, 4, 6), (4, 4)),
    ((0, 0, 1, 1, 2, 3, 4, 4, 6), (5, 4)),
    ((0, 0, 1, 1, 2, 3, 4, 6, 8), (4, 4, 1)),
    ((0, 1, 1, 2, 2, 3, 4, 5, 7), (4, 4, 1)),
]


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to sweep all eight conjectures at n=9 (about 16 min)",
)
def test_every_report_pinned_at_n9():
    for conjecture, (summary, expected) in N9_REPORTS.items():
        reports = run_verification(conjecture, 9, parallelism=JOBS, override_cap=True)
        assert summarize(reports) == summary, conjecture
        assert report_digest(reports) == expected, conjecture
        if conjecture == "overcount-q":
            bad = [(r.task.m, r.task.lam) for r in reports if r.status == "fails"]
            assert bad == N9_OVERCOUNT_FAILURES
