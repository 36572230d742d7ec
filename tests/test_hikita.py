from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from csflab.csf import e_coeff
from csflab.hikita import (
    delta,
    enumerate_hikita,
    h,
    insert,
    is_syt,
    prob,
    zeta,
)
from csflab.posets import enumerate_hessenberg, poset_from_hessenberg
from csflab.qcore import (
    QPoly,
    QRat,
    partitions,
    q_factorial,
    q_int,
)
from csflab.tableaux import enumerate_class, inv_p

from oracles import (
    enumerate_syt,
    factored_value,
    is_reachable,
    pairwise_part_products,
    path_weights,
    phi,
    phi_tilde,
)

ONE = QRat(QPoly.one())
ZERO = QRat(QPoly.zero())

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
    assert delta((), 0).sequence() == (0,)
    assert delta(((1,), (2,), (3,)), 0).sequence() == (1, 1, 1, 0)
    cs = delta(((1, 2, 3),), 2)
    assert cs.sequence() == (1, 0, 0, 0)
    assert cs.b == (1,) and cs.a == (3,) and cs.ell == 0


def test_delta_structure_small():
    for n in range(5):
        for _, t in all_syt(n):
            for r in range(n + 1):
                cs = delta(t, r)
                seq = cs.sequence()
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


def test_phi_single_run_is_trivial():
    assert phi((), 0, 0) == ONE
    assert phi_tilde((), 0, 0) == QPoly.one()
    assert phi(((1,), (2,)), 2, 0) == ONE


def test_phi_hand_values():
    assert phi(ROW2, 1, 0) == QRat(QPoly.one(), q_int(2))
    assert phi(ROW2, 1, 1) == QRat(QPoly.monomial(1), q_int(2))
    assert phi_tilde(ROW2, 1, 0) == QPoly.one()
    assert phi_tilde(ROW2, 1, 1) == QPoly.monomial(1)


def test_phi_sums_to_one():
    for n in range(6):
        for _, t in all_syt(n):
            for r in range(n + 1):
                ks = range(delta(t, r).ell + 1)
                total = ZERO
                for k in ks:
                    assert phi_tilde(t, r, k).eval_at(1) == 1
                    total = total + phi(t, r, k)
                assert total == ONE


def test_factored_weights_match_reference():
    # every step weight, factored, equals the unfactored reference weight
    for n in range(6):
        for _, t in all_syt(n):
            for r in range(n + 1):
                cs = delta(t, r)
                for k in range(cs.ell + 1):
                    e, factors = cs.weight(k)
                    assert 1 not in factors and 0 not in factors.values()
                    assert factored_value(e, factors) == phi(t, r, k)
                    assert QPoly.monomial(e) == phi_tilde(t, r, k)
                with pytest.raises(ValueError):
                    cs.weight(cs.ell + 1)


def test_path_views_match_reference_products():
    # prob, zeta and h are the products of the reference weights along the path
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            for _, t in all_syt(n):
                pr, z = path_weights(m, t)
                assert prob(m, t) == pr
                assert zeta(m, t) == z
                if pr:
                    assert h(m, t) == pr / QRat(z)
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
    assert zeta((), ()) == QPoly.one()
    assert h((), ()) == ONE


def test_prob_hand_frozen():
    assert prob((0, 0, 1), ((1, 3), (2,))) == QRat(QPoly.one(), q_int(2))


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
                    (t for _, t in all_syt(n) if _shape(t) == lam and prob(m, t)),
                    key=_colkey,
                )
                for _, t in all_syt(n):
                    if _shape(t) == lam:
                        assert is_reachable(m, t) == bool(prob(m, t))


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
                    total = total + prob(m, t)
                fact = QPoly.one()
                for part in lam:
                    fact = fact * q_factorial(part)
                star = pairwise_part_products(lam)
                lhs = total * QRat(QPoly.monomial(star) * fact)
                rhs = QRat(QPoly.monomial(sum(m)) * e_coeff(p, lam))
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
                    z = zeta(m, t)
                    lhs = QPoly.monomial(inv_p(p, t) + sum(m))
                    assert lhs == QPoly.monomial(star) * z


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
                        val = ht.eval_at(alpha)
                        assert 0 < val <= 1


def test_h_undefined_off_support():
    with pytest.raises(ValueError):
        h((0, 0), COL2)


def test_h_sum_identity():
    # summing q^inv h_T over reachable tableaux gives c_lam / prod [lam_i]!
    for n in range(1, 5):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam in partitions(n):
                total = ZERO
                for t in enumerate_hikita(m, lam):
                    total = total + QRat(QPoly.monomial(inv_p(p, t))) * h(m, t)
                fact = QPoly.one()
                for part in lam:
                    fact = fact * q_factorial(part)
                assert total == QRat(e_coeff(p, lam), fact)


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
    cs = delta(t, r)
    total = ZERO
    for k in range(cs.ell + 1):
        f = factored_value(*cs.weight(k))
        total = total + f
        # each transition inserts where the color sequence allows
        assert insert(t, r, k) != t
    assert total == ONE
    # reachability agrees with a literal nonzero check of the product form
    assert is_reachable(m, t) == bool(prob(m, t))
