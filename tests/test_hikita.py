import itertools
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csflab import hikita
from csflab.csf import e_coeff
from csflab.hikita import (
    _grown,
    _steps,
    enumerate_hikita,
    h,
    h_unreduced,
    is_syt,
    prob,
    zeta,
)
from csflab.posets import enumerate_hessenberg, poset_from_hessenberg
from csflab.qcore import (
    QRat,
    coeff_tuple,
    int_poly_add,
    int_poly_mul,
    partitions,
    poly_eval,
    q_factorial,
    q_int,
    q_int_ratio,
)
from csflab.tableaux import enumerate_class, inv_p

from oracles import (
    color_sequence,
    delta,
    enumerate_hikita_by_pruning,
    enumerate_syt,
    factored_value,
    grown_by_recursion,
    insert,
    is_reachable,
    monomial,
    pairwise_part_products,
    path_weights,
    phi,
    phi_tilde,
    qrat_at,
    rat_add,
    rat_mul,
    text_to_tableau,
    walk_by_stripping,
)

ONE = QRat((1,))
ZERO = QRat(())

ROW2 = ((1,), (2,))
COL2 = ((1, 2),)


def all_syt(n):
    for lam in partitions(n):
        for t in enumerate_syt(lam):
            yield lam, t


def test_is_syt():
    assert is_syt(())
    assert is_syt(((1, 3), (2,)))
    assert not is_syt(((2, 3), (1,)))  # first column must start at 1
    assert not is_syt(((1,), (2, 3)))  # ragged heights
    assert not is_syt(((1, 2), (4,), (3,)))  # row must increase


def test_syt_counts():
    assert enumerate_syt(()) == [()]
    assert len(enumerate_syt((3, 2))) == 5
    assert len(enumerate_syt((2, 1))) == 2
    assert len(enumerate_syt((1, 1, 1))) == 1
    assert len(enumerate_syt((4,))) == 1
    assert len(enumerate_syt((2, 2, 1))) == 5


def test_delta_examples():
    assert color_sequence(delta((), 0)) == (0,)
    assert color_sequence(delta(((1,), (2,), (3,)), 0)) == (1, 1, 1, 0)
    cs = delta(((1, 2, 3),), 2)
    assert color_sequence(cs) == (1, 0, 0, 0)
    assert cs.b == (1,) and cs.a == (3,) and cs.ell == 0


def test_delta_structure_small():
    for n in range(5):
        for _, t in all_syt(n):
            for r in range(n + 1):
                cs = delta(t, r)
                seq = color_sequence(cs)
                assert len(seq) == n + 1
                assert seq[-1] == 0
                for i in range(1, n + 2):
                    expected = 1 if i <= len(t) and t[i - 1][-1] > r else 0
                    assert seq[i - 1] == expected
                cols = cs.insertion_columns()
                assert len(cols) == cs.ell + 1
                assert cols == sorted(cols)
                for c in cols:
                    assert seq[c - 1] == 0
                    assert c == 1 or seq[c - 2] == 1


def test_insert_examples():
    assert insert((), 0, 0) == ((1,),)
    assert insert((), 3, 0) == ((1,),)
    # threshold 0: the sole entry 1 exceeds it, so the new column opens
    assert insert(((1,),), 0, 0) == ((1,), (2,))
    # threshold 1: nothing exceeds it and the entry stacks
    assert insert(((1,),), 1, 0) == ((1, 2),)
    assert insert(((1,), (2,)), 2, 0) == ((1, 3), (2,))
    with pytest.raises(ValueError):
        insert(((1,),), 0, 5)


def test_insert_always_valid():
    for n in range(5):
        for _, t in all_syt(n):
            for r in range(n + 1):
                for k in range(delta(t, r).ell + 1):
                    bigger = insert(t, r, k)
                    assert is_syt(bigger)
                    assert sum(len(c) for c in bigger) == n + 1


def test_steps_match_the_run_length_reference():
    # every standard Young tableau with at most 8 cells, at every threshold
    for n in range(9):
        for _, t in all_syt(n):
            for r in range(n + 1):
                cs = delta(t, r)
                reference = tuple((insert(t, r, k), cs.weight(k)) for k in range(cs.ell + 1))
                assert _steps(t, r) == reference, (t, r)


def test_phi_single_run_is_trivial():
    assert phi((), 0, 0) == ONE
    assert phi_tilde((), 0, 0) == (1,)
    assert phi(((1,), (2,)), 2, 0) == ONE


def test_phi_hand_values():
    assert phi(ROW2, 1, 0) == QRat((1,), q_int(2))
    assert phi(ROW2, 1, 1) == QRat(monomial(1), q_int(2))
    assert phi_tilde(ROW2, 1, 0) == (1,)
    assert phi_tilde(ROW2, 1, 1) == monomial(1)


def test_phi_sums_to_one():
    for n in range(6):
        for _, t in all_syt(n):
            for r in range(n + 1):
                ks = range(delta(t, r).ell + 1)
                total = ZERO
                for k in ks:
                    assert poly_eval(phi_tilde(t, r, k), 1) == 1
                    total = rat_add(total, phi(t, r, k))
                assert total == ONE


def step_weights_sum_to_one(steps):
    """Whether the factored weights of ``_steps`` add up to exactly 1, over
    the common denominator prod [j]_q^d_j, d_j the largest power of [j]_q
    that any one weight divides by, so no gcd is taken."""
    weights = [weight for _, weight in steps]
    common = {}
    for _, factors in weights:
        for j, x in factors.items():
            common[j] = max(common.get(j, 0), -x)
    total = []
    for e, factors in weights:
        exponents = dict(common)
        for j, x in factors.items():
            exponents[j] = exponents.get(j, 0) + x
        int_poly_add(total, q_int_ratio(exponents.items())[0], 1, e)
    return coeff_tuple(total) == q_int_ratio(common.items())[0]


def test_step_weights_sum_to_one_on_every_small_sequence():
    # every run-length sequence with l <= 4 and runs of 1 or 2 (b_0 may be
    # 0), straight from the factored weights: l >= 2 needs the first
    # product's denominator to be A(i..k) + B(i..k).  Single-entry columns
    # realise any sequence: (2,) is a one and (1,) a zero at threshold 1,
    # and the absent column n+1 is the last zero of a_{l+1}
    runs = (1, 2)
    checked = 0
    for ell in range(5):
        for b in itertools.product((0,) + runs, *[runs] * ell):
            for a in itertools.product(runs, repeat=ell + 1):
                bits = [bit for bi, ai in zip(b, a) for bit in [1] * bi + [0] * ai][:-1]
                steps = _steps(tuple((2,) if bit else (1,) for bit in bits), 1)
                assert len(steps) == ell + 1 and step_weights_sum_to_one(steps), (b, a)
                checked += 1
    assert checked == 3 * (2 + 8 + 32 + 128 + 512)


def test_factored_weights_match_reference():
    # every step weight, factored, equals the unfactored reference weight
    for n in range(6):
        for _, t in all_syt(n):
            for r in range(n + 1):
                for k, (_, (e, factors)) in enumerate(_steps(t, r)):
                    assert 1 not in factors and 0 not in factors.values()
                    assert factored_value(e, factors) == phi(t, r, k)
                    assert monomial(e) == phi_tilde(t, r, k)


def test_path_views_match_reference_products():
    # prob, zeta and h are the products of the reference weights along the path
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            for _, t in all_syt(n):
                pr, z = path_weights(m, t)
                assert prob(m, t) == pr
                assert zeta(m, t) == z
                if pr.num:
                    assert h(m, t) == rat_mul(pr, QRat((1,), z))
                else:
                    with pytest.raises(ValueError):
                        h(m, t)


def test_prob_two_elements():
    assert prob((0, 0), ROW2) == ONE
    assert prob((0, 0), COL2) == ZERO
    assert prob((0, 1), ROW2) == ZERO
    assert prob((0, 1), COL2) == ONE


def test_prob_empty():
    assert prob((), ()) == ONE
    assert zeta((), ()) == (1,)
    assert h((), ()) == ONE


def test_prob_hand_frozen():
    assert prob((0, 0, 1), ((1, 3), (2,))) == QRat((1,), q_int(2))


def test_prob_argument_errors():
    with pytest.raises(ValueError):
        prob((0, 0), ((1,),))
    with pytest.raises(ValueError):
        prob((0, 0), ((2, 1),))


def test_reachability_routes_agree():
    for n in range(1, 5):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                hik = enumerate_hikita(m, lam)
                assert hik == sorted(
                    (t for _, t in all_syt(n) if _shape(t) == lam and prob(m, t).num),
                    key=_colkey,
                )
                for _, t in all_syt(n):
                    if _shape(t) == lam:
                        assert is_reachable(m, t) == bool(prob(m, t).num)


def _shape(t):
    heights = tuple(len(c) for c in t)
    row = []
    for i in range(max(heights, default=0)):
        row.append(sum(1 for hh in heights if hh > i))
    return tuple(row)


def _colkey(t):
    return tuple(x for col in t for x in reversed(col))


def test_prob_sum_theorem():
    # the reachable-tableau distribution recovers the elementary coefficient
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam in partitions(n):
                total = ZERO
                for t in enumerate_syt(lam):
                    total = rat_add(total, prob(m, t))
                fact = (1,)
                for part in lam:
                    fact = int_poly_mul(fact, q_factorial(part))
                star = pairwise_part_products(lam)
                lhs = rat_mul(total, QRat((0,) * star + tuple(fact)))
                rhs = QRat((0,) * sum(m) + e_coeff(p, lam))
                assert lhs == rhs


def test_zeta_monomial_identity():
    # q^inv of a reachable tableau matches the zeta power, up to the shift
    # between total relation count and the pairwise shape product
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam in partitions(n):
                star = pairwise_part_products(lam)
                for t in enumerate_hikita(m, lam):
                    assert monomial(inv_p(p, t) + sum(m)) == (0,) * star + zeta(m, t)


SAMPLE_POINTS = (
    Fraction(0),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(10),
)


def test_h_bounds_at_sample_points():
    for n in range(1, 5):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                for t in enumerate_hikita(m, lam):
                    ht = h(m, t)
                    for alpha in SAMPLE_POINTS:
                        val = qrat_at(ht, alpha)
                        assert 0 < val <= 1


def test_h_undefined_off_support():
    with pytest.raises(ValueError):
        h((0, 0), COL2)
    with pytest.raises(ValueError):
        h_unreduced((0, 0), COL2)


def test_h_unreduced_matches_reference_on_every_reachable_tableau():
    # n <= 6, every shape: the integer pair is a product of q-integers
    # (positive coefficients, constant term 1) whose ratio is h and the
    # reference prob/zeta
    for n in range(1, 7):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                for t in enumerate_hikita(m, lam):
                    num, den = h_unreduced(m, t)
                    for coeffs in (num, den):
                        assert coeffs[0] == 1 and all(
                            isinstance(c, int) and c > 0 for c in coeffs
                        )
                    ratio = QRat(num, den)
                    assert ratio == h(m, t)
                    pr, z = path_weights(m, t)
                    assert ratio == rat_mul(pr, QRat((1,), z))


def test_h_at_the_first_failing_unit():
    # the n = 6 h-lower-bound witness: h times the row floor [3]_q! [2]_q!
    # is 1/(1+q), so the margin is -q/(1+q)
    m, t = (0, 0, 1, 1, 2, 4), text_to_tableau("1,2,3/4,5/6")
    pr, z = path_weights(m, t)
    assert h(m, t) == rat_mul(pr, QRat((1,), z))
    floor = int_poly_mul(q_factorial(3), q_factorial(2))
    assert rat_mul(h(m, t), QRat(floor)) == QRat((1,), (1, 1))


def test_h_sum_identity():
    # summing q^inv h_T over reachable tableaux gives c_lam / prod [lam_i]!
    for n in range(1, 5):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam in partitions(n):
                total = ZERO
                for t in enumerate_hikita(m, lam):
                    total = rat_add(total, rat_mul(QRat(monomial(inv_p(p, t))), h(m, t)))
                fact = (1,)
                for part in lam:
                    fact = int_poly_mul(fact, q_factorial(part))
                assert total == QRat(e_coeff(p, lam), fact)


def test_reachable_growth_matches_pruned_growth():
    # one growth per vector, bucketed by shape, gives the same lists in the
    # same order as growing each shape with pruning
    for n in range(8):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                assert enumerate_hikita(m, lam) == enumerate_hikita_by_pruning(m, lam)
    # callers get their own list, not the cached bucket
    tabs = enumerate_hikita((0, 0, 1), (2, 1))
    tabs.clear()
    assert enumerate_hikita((0, 0, 1), (2, 1))


def _check_prefix_growth(m):
    # the prefix growth holds exactly the SYT whose stripped walk exists,
    # with the same factored weight; every other SYT has probability zero
    walks = {}
    for _, t in all_syt(len(m)):
        walk = walk_by_stripping(m, t)
        if walk is not None:
            walks[t] = walk
            continue
        assert prob(m, t) == ZERO and zeta(m, t) == ()
        with pytest.raises(ValueError):
            h(m, t)
    assert _grown(m) == walks
    assert all(0 not in factors for _, factors in walks.values())  # no [0]_q step


def test_prefix_growth_matches_walk_by_stripping():
    # its shape buckets are checked against the pruned growth in
    # test_reachable_growth_matches_pruned_growth
    for n in range(7):
        for m in enumerate_hessenberg(n):
            _check_prefix_growth(m)


VECTORS_TO_7 = [m for n in range(8) for m in enumerate_hessenberg(n)]


def _copied(grown):
    return {cols: (e, dict(factors)) for cols, (e, factors) in grown.items()}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(VECTORS_TO_7), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 7), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)
def test_prefix_path_growth_matches_recursion_in_any_order(bases, calls):
    # calls in any order: repeats, prefixes after extensions and unrelated
    # vectors; a list is no prefix of any tuple, so it drops every entry of
    # the path but the root.  The path then holds exactly m's prefixes, and
    # no dict handed out earlier has changed.
    handed_out = []
    for i, k, as_list in calls:
        m = bases[i % len(bases)][:k]
        grown = _grown(list(m) if as_list else m)
        assert grown == grown_by_recursion(m)
        assert [tuple(prefix) for prefix, _ in hikita._path] == [m[:j] for j in range(len(m) + 1)]
        handed_out.append((grown, _copied(grown)))
        assert all(held == copied for held, copied in handed_out)


def test_prefix_path_growth_under_concurrent_threads():
    # each thread walks its own vectors; a call that saw another thread's
    # half-grown path would return some other vector's growth
    vectors = [m for n in range(4, 7) for m in enumerate_hessenberg(n)]
    expected = {m: grown_by_recursion(m) for m in vectors}
    wrong = []

    def walk(ms):
        for _ in range(3):
            wrong.extend(m for m in ms if _grown(m) != expected[m])

    shares = [vectors[i % 3 :: 3][:: -1 if i % 2 else 1] for i in range(6)]
    threads = [threading.Thread(target=walk, args=(share,)) for share in shares]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(enumerate_hessenberg(7))))
def test_prefix_growth_matches_walk_by_stripping_at_seven(m):
    _check_prefix_growth(m)


def test_enumerate_hikita_examples():
    assert enumerate_hikita((), ()) == [()]
    # complete incomparability graph: only the single row survives
    assert enumerate_hikita((0, 0, 0), (3,)) == [((1,), (2,), (3,))]
    assert enumerate_hikita((0, 0, 0), (1, 1, 1)) == []
    # empty incomparability graph: only the single column survives
    assert enumerate_hikita((0, 1, 2), (1, 1, 1)) == [((1, 2, 3),)]
    assert enumerate_hikita((0, 1, 2), (3,)) == []


def test_hikita_within_strong():
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam in partitions(n):
                hik = set(enumerate_hikita(m, lam))
                if not hik:
                    continue
                strong = set(enumerate_class(p, lam, "strong"))
                assert hik <= strong


@given(st.integers(min_value=1, max_value=5), st.data())
def test_phi_distribution_property(n, data):
    ms = list(enumerate_hessenberg(n))
    m = data.draw(st.sampled_from(ms))
    lam = data.draw(st.sampled_from(list(partitions(n))))
    tabs = enumerate_syt(lam)
    t = data.draw(st.sampled_from(tabs))
    r = data.draw(st.integers(min_value=0, max_value=n))
    total = ZERO
    for grown, weight in _steps(t, r):
        total = rat_add(total, factored_value(*weight))
        # each transition grows the tableau by one cell
        assert is_syt(grown) and sum(map(len, grown)) == n + 1
    assert total == ONE
    # reachability agrees with a literal nonzero check of the product form
    assert is_reachable(m, t) == bool(prob(m, t).num)
