from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from csflab.posets import (
    Poset,
    enumerate_hessenberg,
    greedy_partition,
    natural_unit_m,
    poset_from_hessenberg,
    poset_from_relations,
)

from oracles import (
    classify,
    inc_components,
    inc_is_connected,
    incomparability_graph,
    injective_chain_shapes,
    max_chain_length,
    poset_from_units,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_antichain_has_no_relations():
    p = poset_from_hessenberg((0, 0))
    assert p.relations() == ()
    assert p.incomparable(1, 2)


def test_example_poset_relations():
    p = poset_from_hessenberg((0, 0, 1, 1, 3))
    assert set(p.relations()) == {(1, 3), (1, 4), (1, 5), (2, 5), (3, 5)}
    assert p.less(1, 5)
    assert not p.less(5, 1)
    assert p.incomparable(3, 4)
    assert p.same_or_incomparable(2, 2)


def test_units_match_hessenberg_example():
    pts = (0, Fraction(1, 2), Fraction(11, 10), Fraction(7, 5), Fraction(11, 5))
    assert poset_from_units(pts) == poset_from_hessenberg((0, 0, 1, 1, 3))


def test_units_extremes():
    assert poset_from_units((0, 0, 0)).relations() == ()
    chain = poset_from_units((0, 2, 4))
    assert set(chain.relations()) == {(1, 2), (1, 3), (2, 3)}
    with pytest.raises(ValueError):
        poset_from_units((1, 0))


def test_invalid_hessenberg_rejected():
    with pytest.raises(ValueError):
        poset_from_hessenberg((1,))
    with pytest.raises(ValueError):
        poset_from_hessenberg((0, 1, 0))
    with pytest.raises(ValueError):
        poset_from_hessenberg((0, 2))


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(2, [(1, 1)])
    with pytest.raises(ValueError):
        Poset(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Poset(3, [(1, 2), (2, 3)])  # missing (1,3)
    # closure helper fills in the missing pair
    p = poset_from_relations(3, [(1, 2), (2, 3)])
    assert p.less(1, 3)


def test_enumerate_hessenberg_counts_and_order():
    assert enumerate_hessenberg(0) == [()]
    assert enumerate_hessenberg(1) == [(0,)]
    e3 = enumerate_hessenberg(3)
    assert len(e3) == 5
    assert (0, 1, 2) in e3  # the 3-chain is a valid vector
    assert e3 == sorted(e3)
    for n in range(9):
        assert len(enumerate_hessenberg(n)) == CATALAN[n]


def test_enumerated_posets_are_31_and_22_free():
    for n in range(7):
        for m in enumerate_hessenberg(n):
            c = classify(poset_from_hessenberg(m))
            assert c.is_31_free and c.is_22_free


def test_classify_patterns():
    four_chain = poset_from_relations(4, [(1, 2), (2, 3), (3, 4)])
    c = classify(four_chain)
    assert c.is_31_free and not c.is_3_free
    three_plus_one = poset_from_relations(4, [(1, 2), (2, 3)])
    assert not classify(three_plus_one).is_31_free
    two_plus_two = poset_from_relations(4, [(1, 2), (3, 4)])
    assert not classify(two_plus_two).is_22_free
    assert classify(poset_from_hessenberg((0, 0, 0))).is_3_free


def test_incomparability_graph_shapes():
    chain = poset_from_hessenberg((0, 1, 2))
    assert incomparability_graph(chain) == ()
    path = poset_from_hessenberg((0, 0, 1, 2, 3))
    assert incomparability_graph(path) == ((1, 2), (2, 3), (3, 4), (4, 5))
    anti = poset_from_hessenberg((0, 0, 0))
    assert incomparability_graph(anti) == ((1, 2), (1, 3), (2, 3))


def test_inc_connectivity():
    assert inc_is_connected(poset_from_hessenberg((0, 0, 1, 2, 3)))
    chain = poset_from_hessenberg((0, 1, 2))
    assert inc_components(chain) == ((1,), (2,), (3,))
    assert not inc_is_connected(chain)
    # 132 of the 429 seven-element posets have connected incomparability graphs
    count = sum(
        1
        for m in enumerate_hessenberg(7)
        if inc_is_connected(poset_from_hessenberg(m))
    )
    assert count == 132


def test_max_chain_length():
    assert max_chain_length(poset_from_hessenberg((0, 0, 0))) == 1
    assert max_chain_length(poset_from_hessenberg((0, 1, 2, 3))) == 4
    assert max_chain_length(poset_from_hessenberg((0, 0, 1, 1, 3))) == 3


def test_greedy_partition_examples():
    assert greedy_partition(poset_from_hessenberg((0, 0, 1, 1, 3))) == (3, 1, 1)
    assert greedy_partition(poset_from_hessenberg((0, 0, 0, 0))) == (1, 1, 1, 1)
    assert greedy_partition(poset_from_hessenberg((0, 1, 2, 3))) == (4,)


def test_greedy_partition_first_part_is_max_chain():
    for n in range(8):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            lam = greedy_partition(p)
            if n == 0:
                assert lam == ()
            else:
                assert lam[0] == max_chain_length(p)


def test_injective_shapes_prefix_dominated_by_greedy():
    for n in range(7):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            greedy = greedy_partition(p)
            for nu in injective_chain_shapes(p):
                for i in range(len(nu)):
                    assert sum(nu[: i + 1]) <= sum(greedy[: i + 1])


def test_natural_unit_roundtrip():
    for n in range(6):
        for m in enumerate_hessenberg(n):
            assert natural_unit_m(poset_from_hessenberg(m)) == m
    # a non-unit poset: 2+2 is not an interval order at all
    assert natural_unit_m(poset_from_relations(4, [(1, 2), (3, 4)])) is None


@given(st.integers(min_value=1, max_value=6), st.data())
def test_hessenberg_relation_characterization(n, data):
    ms = enumerate_hessenberg(n)
    m = data.draw(st.sampled_from(ms))
    p = poset_from_hessenberg(m)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            assert p.less(i, j) == (i <= m[j - 1])
