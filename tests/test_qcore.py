import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from csflab.qcore import (
    QPoly,
    QRat,
    compositions,
    compositions_with_sort,
    conjugate,
    parse_int_tuple,
    partitions,
    poly_gcd,
    q_factorial,
    q_int,
    sort_desc,
)

from oracles import add_parts, dominates, pairwise_part_products, remove_first_column


def test_q_int_basics():
    assert q_int(0) == QPoly.zero()
    assert q_int(1) == QPoly.one()
    assert q_int(5) == QPoly([1, 1, 1, 1, 1])


def test_q_factorial_small():
    assert q_factorial(0) == QPoly.one()
    assert q_factorial(2) == QPoly([1, 1])
    # (1+q)(1+q+q^2) expanded by hand
    assert q_factorial(3) == QPoly([1, 2, 2, 1])


def test_q_specializations_at_one():
    for n in range(21):
        assert q_int(n).eval_at(1) == n
        assert q_factorial(n).eval_at(1) == factorial(n)


def test_poly_arithmetic_and_text():
    p = QPoly([1, 2, 2, 1])
    assert p.text() == "[1,2,2,1]"
    assert QPoly.from_text("[1,2,2,1]") == p
    assert QPoly.from_text("[]") == QPoly.zero()
    assert (p - p) == QPoly.zero()
    assert p * QPoly.zero() == QPoly.zero()
    assert QPoly.monomial(3) == QPoly([0, 0, 0, 1])
    assert p.coeff(10) == 0


def test_poly_divmod_exact():
    a = q_int(6)
    b = q_int(3)
    quo, rem = a.divmod(b)
    assert rem == QPoly.zero()
    assert quo * b == a
    # a nontrivial remainder case
    quo, rem = QPoly([0, 0, 0, 1]).divmod(QPoly([1, 1]))
    assert quo * QPoly([1, 1]) + rem == QPoly([0, 0, 0, 1])
    assert rem.degree < 1


def test_poly_gcd_monic():
    g = poly_gcd(q_int(6), q_int(4))
    # common roots are the 2nd roots of unity factors: gcd = 1 + q
    assert g == QPoly([1, 1])


def test_qrat_add_to_one():
    q = QPoly.monomial(1)
    one_plus_q = QPoly([1, 1])
    assert QRat(q, one_plus_q) + QRat(QPoly.one(), one_plus_q) == QRat.one()


def test_qrat_cancellation():
    num = QPoly([-1, 0, 1])  # q^2 - 1
    den = QPoly([-1, 1])  # q - 1
    assert QRat(num, den) == QRat(QPoly([1, 1]))


def test_qrat_eval():
    r = QRat(QPoly([1, 1]), QPoly([1, 1, 1]))
    assert r.eval_at(1) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        QRat(QPoly.one(), QPoly([-1, 1])).eval_at(1)


def test_qrat_division():
    r = QRat(q_int(3)) / QRat(q_int(2))
    assert r * QRat(q_int(2)) == QRat(q_int(3))
    with pytest.raises(ZeroDivisionError):
        QRat.one() / QRat.zero()


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_qrat_canonical_eq_matches_pointwise(ns):
    # build the same rational function two ways and compare structurally
    num = QPoly.one()
    for n in ns:
        num = num * q_int(n)
    r1 = QRat(num, q_int(ns[0]))
    r2 = QRat.one()
    for n in ns[1:]:
        r2 = r2 * QRat(q_int(n))
    assert r1 == r2
    for pt in (Fraction(2), Fraction(1, 3), Fraction(5, 7), Fraction(3), Fraction(7, 2)):
        assert r1.eval_at(pt) == r2.eval_at(pt)


def test_conjugate_examples():
    assert conjugate((3, 1, 1)) == (3, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate(()) == ()


@given(st.integers(min_value=0, max_value=12))
def test_conjugate_involution(n):
    for lam in partitions(n):
        assert conjugate(conjugate(lam)) == lam


def test_dominates_examples():
    assert dominates((3, 1, 1), (3, 1, 1))
    assert dominates((3, 2), (2, 2, 1))
    assert not dominates((2, 2, 1), (3, 2))
    with pytest.raises(ValueError):
        dominates((2,), (1, 1, 1))


def test_dominance_is_partial_order_and_conjugation_reverses():
    for n in (6, 8):
        lams = list(partitions(n))
        for a in lams:
            assert dominates(a, a)
            for b in lams:
                if dominates(a, b) and dominates(b, a):
                    assert a == b
                assert dominates(a, b) == dominates(conjugate(b), conjugate(a))
        for a in lams:
            for b in lams:
                if not dominates(a, b):
                    continue
                for c in lams:
                    if dominates(b, c):
                        assert dominates(a, c)


def test_partitions_order_and_counts():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = {5: 7, 8: 22, 10: 42}
    for n, c in counts.items():
        lams = list(partitions(n))
        assert len(lams) == c
        assert lams == sorted(lams, reverse=True)
        # the listing order refines dominance
        for i, a in enumerate(lams):
            for b in lams[i + 1 :]:
                assert not dominates(b, a) or a == b


def test_compositions_with_sort():
    assert compositions_with_sort((2, 2)) == [(2, 2)]
    assert compositions_with_sort((2, 1)) == [(2, 1), (1, 2)]
    assert len(compositions_with_sort((3, 1, 1))) == 3
    assert all(sort_desc(a) == (3, 1, 1) for a in compositions_with_sort((3, 1, 1)))
    # the same list as sorting the set of every permutation, without building it
    for n in range(8):
        for lam in partitions(n):
            assert compositions_with_sort(lam) == sorted(set(itertools.permutations(lam)), reverse=True)
    assert compositions_with_sort((1,) * 10) == [(1,) * 10]


def test_compositions_of_n():
    assert sorted(compositions(3)) == sorted([(3,), (2, 1), (1, 2), (1, 1, 1)])
    assert len(list(compositions(6))) == 32  # 2^(n-1)


def test_partition_part_helpers():
    assert pairwise_part_products((3, 2)) == 6
    assert pairwise_part_products((3, 1, 1)) == 7
    assert pairwise_part_products((5,)) == 0
    assert remove_first_column((3, 2, 1)) == (2, 1)
    assert remove_first_column((1, 1)) == ()
    assert add_parts((3, 1), (2, 2, 1)) == (5, 3, 1)


def test_parse_int_tuple():
    assert parse_int_tuple("0,0,1,1,3") == (0, 0, 1, 1, 3)
    assert parse_int_tuple("") == ()
    assert parse_int_tuple("()") == ()
    assert parse_int_tuple("7") == (7,)
