from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csflab.csf import chromatic_e_expansion
from csflab.posets import (
    Poset,
    enumerate_hessenberg,
    greedy_partition,
    poset_from_hessenberg,
)

from oracles import (
    RelationPoset,
    classify,
    greedy_partition_by_search,
    inc_components,
    inc_is_connected,
    incomparability_graph,
    incomparable,
    injective_chain_shapes,
    max_chain_length,
    natural_unit_m,
    poset_from_units,
    relations,
    same_or_incomparable,
)
from test_csf import relation_posets

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_antichain_has_no_relations():
    p = poset_from_hessenberg((0, 0))
    assert relations(p) == ()
    assert incomparable(p, 1, 2)


def test_hessenberg_poset_is_shared_and_still_checked():
    assert poset_from_hessenberg([0, 0, 1]) is poset_from_hessenberg((0, 0, 1))
    for _ in range(2):
        with pytest.raises(ValueError):
            poset_from_hessenberg((0, 2))


def test_example_poset_relations():
    p = poset_from_hessenberg((0, 0, 1, 1, 3))
    assert set(relations(p)) == {(1, 3), (1, 4), (1, 5), (2, 5), (3, 5)}
    assert p.less(1, 5)
    assert not p.less(5, 1)
    assert incomparable(p, 3, 4)
    assert same_or_incomparable(p, 2, 2)


def test_units_match_hessenberg_example():
    pts = (0, Fraction(1, 2), Fraction(11, 10), Fraction(7, 5), Fraction(11, 5))
    assert poset_from_units(pts) == poset_from_hessenberg((0, 0, 1, 1, 3))
    # equal posets share the library's per-poset caches
    e5 = chromatic_e_expansion(poset_from_hessenberg((0, 0, 1, 1, 3)))
    assert chromatic_e_expansion(poset_from_units(pts)) is e5


def test_units_extremes():
    assert relations(poset_from_units((0, 0, 0))) == ()
    chain = poset_from_units((0, 2, 4))
    assert set(relations(chain)) == {(1, 2), (1, 3), (2, 3)}
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
    # the constructor takes only a reverse Hessenberg vector and checks it
    for bad in ((1,), (0, 1, 0), (0, 2), (0, 0.5)):
        with pytest.raises(ValueError):
            Poset(bad)
    assert Poset([0, 0, 1]).m == (0, 0, 1)
    assert repr(Poset((0, 0, 1))) == "Poset((0, 0, 1))"
    # the test builder fills in the missing pair and refuses a cycle
    p = RelationPoset(3, [(1, 2), (2, 3)])
    assert p.less(1, 3)
    with pytest.raises(ValueError):
        RelationPoset(2, [(1, 2), (2, 1)])


def test_vector_poset_matches_relation_builder():
    # Poset(m) fills its masks straight from the vector; the builder closes
    # the pairs i < j with i <= m(j) and recovers m from the closed masks
    for n in range(8):
        for m in enumerate_hessenberg(n):
            p = Poset(m)
            q = RelationPoset(n, [(i, j) for j in range(1, n + 1) for i in range(1, m[j - 1] + 1)])
            assert (p._up, p._down, p._inc) == (q._up, q._down, q._inc), m
            assert q.m == p.m == m
            assert p == q and hash(p) == hash(q)


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
    four_chain = RelationPoset(4, [(1, 2), (2, 3), (3, 4)])
    c = classify(four_chain)
    assert c.is_31_free and not c.is_3_free
    three_plus_one = RelationPoset(4, [(1, 2), (2, 3)])
    assert not classify(three_plus_one).is_31_free
    two_plus_two = RelationPoset(4, [(1, 2), (3, 4)])
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


def test_greedy_peel_matches_search():
    # the peel against the exhaustive chain-partition search, every vector
    for n in range(8):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            assert greedy_partition(p) == greedy_partition_by_search(p), m


def test_greedy_partition_needs_a_unit_order():
    # 2+2 is not an interval order, so the builder recovers no m for it
    two_plus_two = RelationPoset(4, [(1, 2), (3, 4)])
    assert two_plus_two.m is None
    assert greedy_partition_by_search(two_plus_two) == (2, 2)
    with pytest.raises(ValueError):
        greedy_partition(two_plus_two)


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
    assert natural_unit_m(RelationPoset(4, [(1, 2), (3, 4)])) is None


VECTORS_TO_6 = [m for n in range(7) for m in enumerate_hessenberg(n)]


@settings(deadline=None)
@given(st.one_of(relation_posets(), st.sampled_from(VECTORS_TO_6).map(poset_from_hessenberg)))
def test_natural_unit_m_matches_rebuilt_poset(p):
    m = natural_unit_m(p)
    if m is None:
        assert all(poset_from_hessenberg(v) != p for v in enumerate_hessenberg(p.n))
    else:
        assert poset_from_hessenberg(m) == p


@given(st.integers(min_value=1, max_value=6), st.data())
def test_hessenberg_relation_characterization(n, data):
    ms = enumerate_hessenberg(n)
    m = data.draw(st.sampled_from(ms))
    p = poset_from_hessenberg(m)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            assert p.less(i, j) == (i <= m[j - 1])
