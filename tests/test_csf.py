import hashlib
import json
import os
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from csflab import csf, harness
from csflab.csf import (
    SymFunc,
    chromatic_e_expansion,
    csf_coloring_oracle,
    csf_schur,
    e_coeff,
    e_to_m,
    kchain_formula,
    path_formula,
    to_elementary,
)
from csflab.posets import (
    enumerate_hessenberg,
    kchain_hessenberg,
    path_hessenberg,
    poset_from_hessenberg,
)
from csflab.qcore import coeff_tuple, conjugate, int_poly_add, partitions, q_factorial
from csflab.tableaux import powerful_classes, q_count, standard_classes

from oracles import (
    RelationPoset,
    coloring_weights,
    coloring_weights_by_walk,
    e_expansion_at_one,
    e_expansion_by_colorings,
    e_to_m_by_subsets,
    incomparability_graph,
    incomparable,
    kostka,
    monomial_by_colorings,
    path_formula_by_compositions,
    schur_by_p_tableaux,
    schur_to_monomial,
    symfunc_from_json,
    to_elementary_by_qpoly,
)

P5 = poset_from_hessenberg((0, 0, 1, 1, 3))

P5_ELEMENTARY = {
    (3, 1, 1): (0, 0, 1, 1),
    (3, 2): (0, 0, 1, 1),
    (4, 1): (0, 2, 3, 3, 2),
    (5,): (1, 2, 2, 2, 2, 1),
}

P5_SCHUR = {
    (1, 1, 1, 1, 1): (1, 4, 7, 7, 4, 1),
    (2, 1, 1, 1): (0, 2, 6, 6, 2),
    (2, 2, 1): (0, 0, 2, 2),
    (3, 1, 1): (0, 0, 1, 1),
}


def test_frozen_elementary_expansion():
    assert e_expansion_by_colorings(P5).coeffs == P5_ELEMENTARY


def test_frozen_schur_expansion():
    assert csf_schur(P5).coeffs == P5_SCHUR


def test_routes_agree_on_example():
    assert to_elementary(schur_to_monomial(csf_schur(P5))) == e_expansion_by_colorings(P5)


def test_e_coeff_examples():
    assert e_coeff(P5, (3, 2)) == (0, 0, 1, 1)
    assert e_coeff(P5, [3, 1, 1]) == (0, 0, 1, 1)
    assert e_coeff(P5, (2, 2, 1)) == ()
    with pytest.raises(ValueError):
        e_coeff(P5, (3, 1))


def test_two_vertex_cases():
    # complete incomparability graph on two vertices
    k2 = poset_from_hessenberg((0, 0))
    assert csf_coloring_oracle(k2).coeffs == {(1, 1): (1, 1)}
    assert e_coeff(k2, (2,)) == (1, 1)
    assert e_coeff(k2, (1, 1)) == ()
    # empty incomparability graph on two vertices
    c2 = poset_from_hessenberg((0, 1))
    assert csf_coloring_oracle(c2).coeffs == {(2,): (1,), (1, 1): (2,)}


def test_monomial_to_elementary_basics():
    f = SymFunc("m", 2, {(2,): (1,), (1, 1): (2,)})
    assert to_elementary(f).coeffs == {(1, 1): (1,)}
    assert e_to_m((1, 1), 2) == {(2,): 1, (1, 1): 2}
    assert e_to_m((2,), 2) == {(1, 1): 1}
    assert e_to_m((3,), 2) == {}


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (3,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2


def test_e_in_s_is_the_transposed_kostka_table():
    # e_mu = sum_nu K_{nu' mu} s_nu, with no zero entries stored
    for n in range(9):
        for mu in partitions(n):
            want = {}
            for nu in partitions(n):
                k = kostka(conjugate(nu), mu)
                if k:
                    want[nu] = k
            assert csf._e_in_s(mu) == want, mu


def schur_routes_disagree(sizes):
    """The vectors of the given sizes whose Schur expansion, read off the
    e-expansion, is not byte-identical to the P-tableau sum."""
    out = []
    for n in sizes:
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            if csf_schur(p).to_json_dict() != schur_by_p_tableaux(p).to_json_dict():
                out.append(m)
    return out


def test_schur_expansion_matches_the_p_tableau_sum():
    assert schur_routes_disagree(range(8)) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to compare the two Schur routes at n=8",
)
def test_schur_expansion_matches_the_p_tableau_sum_at_n8():
    assert schur_routes_disagree([8]) == []


def monomial_routes_disagree(sizes):
    """The vectors of the given sizes whose monomial expansion, read off
    the e-expansion, is not byte-identical to the proper-coloring count."""
    out = []
    for n in sizes:
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            if csf_coloring_oracle(p).to_json_dict() != monomial_by_colorings(p).to_json_dict():
                out.append(m)
    return out


def test_monomial_expansion_matches_the_coloring_count():
    assert monomial_routes_disagree(range(8)) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to compare the two m-routes at n=8",
)
def test_monomial_expansion_matches_the_coloring_count_at_n8():
    assert monomial_routes_disagree([8]) == []


def test_e_to_m_matches_the_subset_table():
    # the Kostka product against multiplying out one e_k at a time
    for size in range(12):
        for mu in partitions(size):
            for n in range(11):
                assert e_to_m(mu, n) == e_to_m_by_subsets(mu, n), (mu, n)


def e_expansion_identities_broken(sizes):
    """The vectors whose production e-expansion breaks an identity that
    needs no second route: every c_lam has nonnegative integer
    coefficients and is palindromic about |E|/2, where |E| = sum_j
    (j - 1 - m(j)) counts the incomparable pairs; and the coefficient of
    x_1...x_n at q = 1 gives sum_lam c_lam(1) n!/prod lam_i! = n!, since
    every injective coloring is proper."""
    broken = []
    for n in sizes:
        for m in enumerate_hessenberg(n):
            edges = sum(j - r for j, r in enumerate(m))  # m[j] is m(j + 1)
            injective = 0
            for lam, poly in chromatic_e_expansion(poset_from_hessenberg(m)).coeffs.items():
                c = list(poly)
                integral = all(type(x) is int and x >= 0 for x in c)
                c += [0] * (edges + 1 - len(c))
                if not integral or len(c) > edges + 1 or c != c[::-1]:
                    broken.append((m, lam))
                injective += sum(c) * factorial(n) // prod(factorial(part) for part in lam)
            if injective != factorial(n):
                broken.append((m, None))
    return broken


def test_e_expansion_identities():
    assert e_expansion_identities_broken(range(1, 9)) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to check the e-expansion identities at n=9",
)
def test_e_expansion_identities_at_n9():
    assert e_expansion_identities_broken([9]) == []


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to check the e-expansion identities at n=10",
)
def test_e_expansion_identities_at_n10():
    assert e_expansion_identities_broken([10]) == []


def test_computed_coefficients_are_int_tuples():
    # every c_lam, Schur coefficient and class inversion sum at n <= 6 is a
    # canonical integer coefficient tuple: plain ints, no trailing zero
    def canonical(poly, zero_allowed=False):
        return (type(poly) is tuple and all(type(c) is int for c in poly)
                and (poly[-1] != 0 if poly else zero_allowed))

    for n in range(7):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            e, s = chromatic_e_expansion(p), csf_schur(p)
            assert all(canonical(poly) for poly in e.coeffs.values()), m
            assert all(canonical(poly) for poly in s.coeffs.values()), m
            for lam in partitions(n):
                assert canonical(e_coeff(p, lam), zero_allowed=True), (m, lam)
                standard, strong = standard_classes(p, lam)
                for invs in (standard, strong, powerful_classes(p, lam)):
                    assert canonical(q_count(invs.values()), zero_allowed=True), (m, lam)


# sha256 of the e- and s-expansion lines of every vector of one size, in
# enumerate_hessenberg order, one json.dumps({"m": ..., "e"|"s": ...},
# sort_keys=True) line each, as bench/child.py writes them; taken before the
# coefficients became integer tuples.
EXPANSION_DIGESTS = {
    9: ("aa57199d82d545c80c59d8c46f30e99fc7bbb3541501d2cb369b3c847508c554",
        "3db0e83070f050ba6633ebb18fdd7703c8199ee0a6115d9ae136e0460f6bc67c"),
    10: ("9b7efd5964ad0ffd3a4ab73f4d4dcabddb48da57153cf0e4d26cb53bc0859e25",
         "8b9609e514a2af9ce6cdfc9460e2b249c82746891dfc65420182593340f179c8"),
}


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to pin the e- and s-expansions at n=9 and n=10",
)
@pytest.mark.parametrize("n", sorted(EXPANSION_DIGESTS))
def test_expansion_digests_past_n8(n):
    e_digest, s_digest = hashlib.sha256(), hashlib.sha256()
    for m in enumerate_hessenberg(n):
        p = poset_from_hessenberg(m)
        for digest, basis, f in ((e_digest, "e", chromatic_e_expansion(p)),
                                 (s_digest, "s", csf_schur(p))):
            line = json.dumps({"m": list(m), basis: f.to_json_dict()}, sort_keys=True)
            digest.update(line.encode() + b"\n")
    assert (e_digest.hexdigest(), s_digest.hexdigest()) == EXPANSION_DIGESTS[n]


def test_routes_agree_small():
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            assert to_elementary(schur_to_monomial(csf_schur(p))) == e_expansion_by_colorings(p)


def _count_injective_arrays(p, chain_sizes):
    """Fillings of a shape with column heights chain_sizes: each column is a
    set of pairwise comparable elements, entries 1..n used once each."""

    def rec(avail, sizes):
        if not sizes:
            return 0 if avail else 1
        total = 0
        for combo in combinations(sorted(avail), sizes[0]):
            if all(not incomparable(p, a, b) for a, b in combinations(combo, 2)):
                total += rec(avail - set(combo), sizes[1:])
        return total

    return rec(set(range(1, p.n + 1)), list(chain_sizes))


def test_monomial_coefficient_counts_injective_arrays():
    for n in range(1, 5):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            mono = csf_coloring_oracle(p)
            for lam in partitions(n):
                count = _count_injective_arrays(p, lam)
                assert sum(mono.coeff(lam)) == count


def test_content_permutation_symmetry():
    for m in enumerate_hessenberg(4):
        p = poset_from_hessenberg(m)
        for lam in partitions(4):
            base = coloring_weights(p, lam)
            for perm in set(permutations(lam)):
                assert coloring_weights(p, perm) == base


def test_positivity_at_one():
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            for lam, poly in chromatic_coeffs(p):
                assert all(type(c) is int for c in poly) and sum(poly) >= 0


def chromatic_coeffs(p):
    return sorted(e_expansion_by_colorings(p).coeffs.items())


def test_path_formula_small():
    assert path_formula(1).coeffs == {(1,): (1,)}
    assert path_formula(2).coeffs == {(2,): (1, 1)}
    with pytest.raises(ValueError):
        path_formula(0)


def test_path_formula_matches_oracle():
    for n in range(1, 7):
        p = poset_from_hessenberg(path_hessenberg(n))
        assert path_formula(n) == e_expansion_by_colorings(p)


def test_kchain_single_block_is_factorial():
    for n in range(2, 6):
        assert kchain_formula((n,)).coeffs == {(n,): q_factorial(n)}


def test_kchain_formula_matches_oracle():
    for gamma in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2), (4, 2)):
        p = poset_from_hessenberg(kchain_hessenberg(gamma))
        assert kchain_formula(gamma) == e_expansion_by_colorings(p)


def test_kchain_of_edges_is_a_path():
    """``path_formula`` reads the chain of 2-cliques off ``kchain_formula``;
    the reference sums over the compositions of n instead."""
    for n in range(1, 15):
        assert path_formula(n) == path_formula_by_compositions(n), n


def test_kchain_rejects_small_parts():
    with pytest.raises(ValueError):
        kchain_formula((2, 1))
    with pytest.raises(ValueError):
        kchain_formula(())


def test_path_hessenberg_structure():
    assert path_hessenberg(0) == ()
    assert path_hessenberg(1) == (0,)
    assert path_hessenberg(4) == (0, 0, 1, 2)
    p = poset_from_hessenberg(path_hessenberg(5))
    assert incomparability_graph(p) == tuple(
        (i, i + 1) for i in range(1, 5)
    )
    with pytest.raises(ValueError):
        path_hessenberg(-1)


def test_kchain_hessenberg_structure():
    assert kchain_hessenberg((2, 2)) == (0, 0, 1)
    assert kchain_hessenberg((3, 2)) == (0, 0, 0, 2)
    p = poset_from_hessenberg(kchain_hessenberg((3, 3)))
    # cliques {1,2,3} and {3,4,5} glued at vertex 3
    expected = {(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)}
    assert set(incomparability_graph(p)) == expected
    with pytest.raises(ValueError):
        kchain_hessenberg((2, 1))


def test_symfunc_validation():
    with pytest.raises(ValueError):
        SymFunc("p", 2, {})
    with pytest.raises(ValueError):
        SymFunc("m", 3, {(2,): (1,)})
    with pytest.raises(ValueError):
        SymFunc("m", 3, {(2, 2, -1): (1,)})
    with pytest.raises(ValueError):  # bool is an int subclass, not a part
        SymFunc("e", 2, {(True, True): [1]})
    f = SymFunc("m", 2, {(2,): [0], (1, 1): (1,)})
    assert f.coeffs == {(1, 1): (1,)}
    g = SymFunc("m", 2, {(2,): [0, 0], (1, 1): ["2/2", Fraction(0), 0]})
    assert g.coeffs == {(1, 1): (1,)} and type(g.coeffs[(1, 1)][0]) is int
    with pytest.raises(AttributeError):
        f.basis = "e"
    assert f == ("m", 2, {(1, 1): (1,)}) and SymFunc._make(f) == f


def test_symfunc_eval_at():
    f = chromatic_e_expansion(P5)
    assert f.eval_at(1) == {
        (3, 1, 1): 2,
        (3, 2): 2,
        (4, 1): 10,
        (5,): 10,
    }
    assert f.eval_at(0) == {
        (3, 1, 1): 0,
        (3, 2): 0,
        (4, 1): 0,
        (5,): 1,
    }


def test_json_shape_and_roundtrip():
    f = chromatic_e_expansion(P5)
    doc = f.to_json_dict()
    assert doc == {
        "basis": "e",
        "n": 5,
        "coeffs": [
            {"partition": [3, 1, 1], "poly": [0, 0, 1, 1]},
            {"partition": [3, 2], "poly": [0, 0, 1, 1]},
            {"partition": [4, 1], "poly": [0, 2, 3, 3, 2]},
            {"partition": [5], "poly": [1, 2, 2, 2, 2, 1]},
        ],
    }
    assert symfunc_from_json(doc) == f


def test_json_fraction_coefficients():
    f = SymFunc("m", 2, {(1, 1): (Fraction(1, 2), Fraction(3))})
    assert f.coeffs == {(1, 1): (Fraction(1, 2), 3)}
    assert type(f.coeffs[(1, 1)][1]) is int
    doc = f.to_json_dict()
    assert doc["coeffs"][0]["poly"] == ["1/2", 3]
    assert symfunc_from_json(doc) == f


TWO_PLUS_TWO = RelationPoset(4, [(1, 2), (3, 4)])


def test_oracle_warns_off_unit_orders():
    with pytest.warns(UserWarning):
        monomial_by_colorings(TWO_PLUS_TWO)
    # the Schur route reads the e-expansion, which refuses non-unit orders
    with pytest.raises(ValueError):
        csf_schur(TWO_PLUS_TWO)


def test_monomial_route_refused_off_unit_orders():
    # it reads the e-expansion too, so it raises instead of warning
    with pytest.raises(ValueError, match="natural unit interval order"):
        csf_coloring_oracle(TWO_PLUS_TWO)


def test_symbolic_e_extraction_refused_off_unit_orders():
    with pytest.raises(ValueError):
        chromatic_e_expansion(TWO_PLUS_TWO)
    with pytest.raises(ValueError):
        e_coeff(TWO_PLUS_TWO, (2, 2))


def test_e_expansion_at_one_off_unit_orders():
    # incomparability graph is the 4-cycle; its chromatic function is
    # symmetric even though the q-refinement is not
    f = e_expansion_at_one(TWO_PLUS_TWO)
    assert f.coeffs == {(2, 2): (2,), (4,): (12,)}


def test_oracle_bound():
    # the extended sweep cap and the cap of the e-expansion, which every
    # basis reads, are one constant
    assert harness.SIZE_CAP == csf.SIZE_CAP == 10
    with pytest.raises(ValueError):
        csf_coloring_oracle(poset_from_hessenberg((0,) * 11))
    with pytest.raises(ValueError):
        chromatic_e_expansion(poset_from_hessenberg((0,) * 11))
    with pytest.raises(ValueError):
        csf_schur(poset_from_hessenberg((0,) * 11))
    # K10: every coloring uses all ten colours; the expansion is [10]_q! e_10
    k10 = (0,) * 10
    assert chromatic_e_expansion(poset_from_hessenberg(k10)).coeffs == {
        (10,): q_factorial(10)
    }
    # a sweep unit at the cap reuses that expansion and is not an error
    status, witness, _ = harness.evaluate_task("nonzero", k10, (1,) * 10)
    assert (status, witness) == ("holds", None)
    # the 10-chain has no incomparable pair: X = e_1^10, whose m_lam
    # coefficient is the multinomial 10!/lam!, in particular 10! at 1^10
    chain = csf_coloring_oracle(poset_from_hessenberg(tuple(range(10))))
    assert chain.coeffs == {
        lam: (factorial(10) // prod(map(factorial, lam)),) for lam in partitions(10)
    }
    assert chain.coeff((1,) * 10) == (factorial(10),)
    assert to_elementary(chain).coeffs == {(1,) * 10: (1,)}
    path = poset_from_hessenberg(path_hessenberg(10))
    assert chromatic_e_expansion(path) == path_formula(10)


@st.composite
def relation_posets(draw):
    """Posets from random relations on 1..n, labelled in a random order, so
    neither a natural labelling nor a unit interval order is assumed."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = list(combinations(draw(st.permutations(range(1, n + 1))), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return RelationPoset(n, [pair for pair, k in zip(pairs, keep) if k])


VECTORS_TO_7 = [m for n in range(8) for m in enumerate_hessenberg(n)]


@settings(deadline=None)
@given(st.data())
def test_coloring_weights_match_walk(data):
    # every content: any order of a partition's parts, zero parts included
    p = data.draw(
        st.one_of(
            st.just(TWO_PLUS_TWO),
            st.sampled_from(VECTORS_TO_7).map(poset_from_hessenberg),
            relation_posets(),
        )
    )
    lam = data.draw(st.sampled_from(list(partitions(p.n))))
    zeros = data.draw(st.integers(min_value=0, max_value=2))
    content = tuple(data.draw(st.permutations(lam + (0,) * zeros)))
    assert coloring_weights(p, content) == coloring_weights_by_walk(p, content)


@given(st.data())
def test_elementary_conversion_roundtrip(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    parts = list(partitions(n))
    chosen = data.draw(
        st.dictionaries(
            st.sampled_from(parts),
            st.lists(st.integers(-3, 3), min_size=1, max_size=3),
            min_size=1,
            max_size=len(parts),
        )
    )
    f = SymFunc("m", n, chosen)
    g = to_elementary(f)
    # expand the elementary form back over monomials by hand
    back = {}
    for lam, poly in g.coeffs.items():
        for mu, k in e_to_m(lam, n).items():
            back[mu] = int_poly_add(back.get(mu, []), poly, k)
    assert {mu: coeff_tuple(c) for mu, c in back.items() if any(c)} == f.coeffs


def _monomial_inputs(data, coefficients):
    """A random m-basis function of degree n <= 6 in n variables."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    parts = list(partitions(n))
    chosen = data.draw(
        st.dictionaries(
            st.sampled_from(parts),
            st.lists(coefficients, min_size=1, max_size=4),
            min_size=1,
            max_size=len(parts),
        )
    )
    return SymFunc("m", n, chosen)


COEFFICIENTS = {
    "int": st.integers(-50, 50),
    "fraction": st.fractions(min_value=-5, max_value=5, max_denominator=7),
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
@settings(deadline=None)
@given(data=st.data())
def test_integer_peel_matches_qpoly_peel(kind, data):
    f = _monomial_inputs(data, COEFFICIENTS[kind])
    assert to_elementary(f) == to_elementary_by_qpoly(f)


@given(st.data())
def test_both_peels_reject_a_residue(data):
    # every m-function of degree n in n variables lies in the span of the
    # e_lam, so only a term the peel never reaches (here, one of the wrong
    # degree, which SymFunc itself would refuse) can leave a residue
    f = _monomial_inputs(data, st.integers(-3, 3))
    stray = data.draw(st.sampled_from(list(partitions(f.n + 1))))
    f = SymFunc._make((f.basis, f.n, {**f.coeffs, stray: (1,)}))
    with pytest.raises(ArithmeticError):
        to_elementary(f)
    with pytest.raises(ArithmeticError):
        to_elementary_by_qpoly(f)


def test_to_elementary_rejects_the_schur_basis():
    with pytest.raises(ValueError):
        to_elementary(csf_schur(P5))
