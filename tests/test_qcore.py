import itertools
import pickle
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from csflab.qcore import (
    QRat,
    coeff_tuple,
    compositions_with_sort,
    conjugate,
    int_poly_add,
    int_poly_divexact,
    int_poly_mul,
    parse_int_tuple,
    partitions,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_text,
    q_factorial,
    q_int,
    q_int_product,
    sort_desc,
)

from oracles import (
    add_parts,
    compositions,
    dominates,
    pairwise_part_products,
    qrat_at,
    rat_add,
    rat_mul,
)
from oracles import remove_first_column

COEFFS = st.lists(st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4), max_size=5)
NONZERO = COEFFS.filter(any)


def test_q_int_basics():
    assert q_int(0) == ()
    assert q_int(1) == (1,)
    assert q_int(5) == (1, 1, 1, 1, 1)


def test_q_factorial_small():
    assert q_factorial(0) == (1,)
    assert q_factorial(2) == (1, 1)
    # (1+q)(1+q+q^2) expanded by hand
    assert q_factorial(3) == (1, 2, 2, 1)


def test_q_specializations_at_one():
    for n in range(21):
        assert poly_eval(q_int(n), 1) == n
        assert poly_eval(q_factorial(n), 1) == factorial(n)


def test_poly_arithmetic_and_text():
    p = (1, 2, 2, 1)
    assert poly_text(p) == "[1,2,2,1]"
    assert poly_text(()) == "[]"
    assert coeff_tuple(int_poly_add(list(p), p, -1)) == ()
    assert int_poly_mul(p, ()) == []
    assert coeff_tuple([0, 0, 0, 1, 0]) == (0, 0, 0, 1)
    assert coeff_tuple(["1/2", Fraction(4, 2), 0]) == (Fraction(1, 2), 2)


def test_poly_divmod_exact():
    quo, rem = poly_divmod(q_int(6), q_int(3))
    assert rem == ()
    assert quo == (1, 0, 0, 1)
    # a nontrivial remainder case: q^3 = (q^2 - q + 1)(1 + q) - 1
    assert poly_divmod((0, 0, 0, 1), (1, 1)) == ((1, -1, 1), (-1,))
    with pytest.raises(ZeroDivisionError):
        poly_divmod((1,), (0,))


@given(COEFFS, NONZERO)
def test_poly_divmod_is_euclidean_division(a, d):
    quo, rem = poly_divmod(a, d)
    assert coeff_tuple(int_poly_add(int_poly_mul(quo, d), rem)) == coeff_tuple(a)
    assert len(rem) < len(coeff_tuple(d))
    assert quo == coeff_tuple(quo) and rem == coeff_tuple(rem)


def test_poly_gcd_monic():
    # common roots are the 2nd roots of unity factors: gcd = 1 + q
    assert poly_gcd(q_int(6), q_int(4)) == (1, 1)
    assert poly_gcd((2, 2), ()) == (1, 1)
    assert poly_gcd((), ()) == ()


def test_qrat_add_to_one():
    one_plus_q = (1, 1)
    assert rat_add(QRat((0, 1), one_plus_q), QRat((1,), one_plus_q)) == QRat((1,))


def test_qrat_cancellation():
    # (q^2 - 1) / (q - 1)
    assert QRat((-1, 0, 1), (-1, 1)) == QRat((1, 1)) == ((1, 1), (1,))
    assert QRat(()) == QRat((0, 0), (3, 5)) == ((), (1,))
    assert QRat((2,), (4, 2)) == ((1,), (2, 1))
    assert QRat((1,)) != 1
    assert [name for name in vars(QRat) if not name.startswith("_")] == ["text"]
    with pytest.raises(ZeroDivisionError):
        QRat((1,), ())


def test_qrat_eval():
    r = QRat((1, 1), (1, 1, 1))
    assert qrat_at(r, 1) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        qrat_at(QRat((1,), (-1, 1)), 1)


@given(COEFFS, NONZERO, NONZERO)
def test_qrat_is_reduced_and_canonical(a, b, g):
    r = QRat(a, b)
    assert QRat(int_poly_mul(a, g), int_poly_mul(b, g)) == r
    assert r.den[-1] == 1
    assert poly_gcd(r.num, r.den) == (1,)
    assert r.num == coeff_tuple(r.num) and r.den == coeff_tuple(r.den)
    copy = pickle.loads(pickle.dumps(r))
    assert copy == r and type(copy) is QRat
    for x in range(-2, 3):
        if poly_eval(b, x):
            assert qrat_at(r, x) == poly_eval(a, x) / poly_eval(b, x)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_qrat_canonical_eq_matches_pointwise(ns):
    # build the same rational function two ways and compare structurally
    num = (1,)
    for n in ns:
        num = int_poly_mul(num, q_int(n))
    r1 = QRat(num, q_int(ns[0]))
    r2 = QRat((1,))
    for n in ns[1:]:
        r2 = rat_mul(r2, QRat(q_int(n)))
    assert r1 == r2
    for pt in (Fraction(2), Fraction(1, 3), Fraction(5, 7), Fraction(3), Fraction(7, 2)):
        assert qrat_at(r1, pt) == qrat_at(r2, pt)


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


def test_q_int_product_is_cached_and_immutable():
    assert q_int_product(()) == (1,)
    assert q_int_product(((2, 1), (3, 2))) == tuple(
        int_poly_mul(int_poly_mul(q_int(2), q_int(3)), q_int(3))
    )
    assert q_int_product(((0, 1),)) == ()  # [0]_q = 0
    assert q_int_product(((4, 3),)) is q_int_product(((4, 3),))


def test_int_poly_divexact():
    # products of q-integers divide exactly, factor by factor
    a = [3, 0, -2, 5]
    for factors in (((2, 1),), ((2, 2), (3, 1)), ((5, 1), (4, 2), (2, 3))):
        d = q_int_product(factors)
        assert int_poly_divexact(int_poly_mul(a, d), d) == a
        assert int_poly_divexact(d, d) == [1]
    assert int_poly_divexact([], (1, 1)) == []
    assert int_poly_divexact([0, 0, 7], (1,)) == [0, 0, 7]
    # 1 + q^3 = (1 + q)(1 - q + q^2)
    assert int_poly_divexact([1, 0, 0, 1], (1, 1)) == [1, -1, 1]
    # a nonzero remainder aborts: 1 + q^2 is 2 at q = -1, and a lower
    # degree than the divisor leaves everything over
    for a, d in (([1, 0, 1], (1, 1)), ([1, 2, 2, 1, 1], (1, 1, 1)), ([1], (1, 1))):
        with pytest.raises(ArithmeticError):
            int_poly_divexact(a, d)
    # only a monic divisor is accepted
    with pytest.raises(ValueError):
        int_poly_divexact([2, 2], (1, 2))


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
