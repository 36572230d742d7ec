from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from csflab import csf, harness
from csflab.csf import (
    SymFunc,
    chromatic_e_expansion,
    coloring_weights,
    csf_coloring_oracle,
    csf_schur,
    e_coeff,
    e_to_m,
    kchain_formula,
    kostka,
    path_formula,
    to_elementary,
)
from csflab.posets import (
    enumerate_hessenberg,
    kchain_hessenberg,
    path_hessenberg,
    poset_from_hessenberg,
    poset_from_relations,
)
from csflab.qcore import QPoly, conjugate, partitions, q_factorial

from oracles import e_expansion_at_one, incomparability_graph

P5 = poset_from_hessenberg((0, 0, 1, 1, 3))

P5_ELEMENTARY = {
    (3, 1, 1): QPoly((0, 0, 1, 1)),
    (3, 2): QPoly((0, 0, 1, 1)),
    (4, 1): QPoly((0, 2, 3, 3, 2)),
    (5,): QPoly((1, 2, 2, 2, 2, 1)),
}

P5_SCHUR = {
    (1, 1, 1, 1, 1): QPoly((1, 4, 7, 7, 4, 1)),
    (2, 1, 1, 1): QPoly((0, 2, 6, 6, 2)),
    (2, 2, 1): QPoly((0, 0, 2, 2)),
    (3, 1, 1): QPoly((0, 0, 1, 1)),
}


def test_frozen_elementary_expansion():
    assert to_elementary(csf_coloring_oracle(P5)).coeffs == P5_ELEMENTARY


def test_frozen_schur_expansion():
    assert csf_schur(P5).coeffs == P5_SCHUR


def test_routes_agree_on_example():
    assert to_elementary(csf_schur(P5)) == to_elementary(csf_coloring_oracle(P5))


def test_e_coeff_examples():
    assert e_coeff(P5, (3, 2)) == QPoly((0, 0, 1, 1))
    assert e_coeff(P5, (3, 1, 1)) == QPoly((0, 0, 1, 1))
    assert e_coeff(P5, (2, 2, 1)) == QPoly.zero()
    with pytest.raises(ValueError):
        e_coeff(P5, (3, 1))


def test_two_vertex_cases():
    # complete incomparability graph on two vertices
    k2 = poset_from_hessenberg((0, 0))
    assert csf_coloring_oracle(k2).coeffs == {(1, 1): QPoly((1, 1))}
    assert e_coeff(k2, (2,)) == QPoly((1, 1))
    assert e_coeff(k2, (1, 1)) == QPoly.zero()
    # empty incomparability graph on two vertices
    c2 = poset_from_hessenberg((0, 1))
    assert csf_coloring_oracle(c2).coeffs == {
        (2,): QPoly.one(),
        (1, 1): QPoly.const(2),
    }


def test_monomial_to_elementary_basics():
    f = SymFunc("m", 2, {(2,): QPoly.one(), (1, 1): QPoly.const(2)})
    assert to_elementary(f).coeffs == {(1, 1): QPoly.one()}
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


def test_routes_agree_small():
    for n in range(1, 6):
        for m in enumerate_hessenberg(n):
            p = poset_from_hessenberg(m)
            assert to_elementary(csf_schur(p)) == to_elementary(
                csf_coloring_oracle(p)
            )


def _count_injective_arrays(p, chain_sizes):
    """Fillings of a shape with column heights chain_sizes: each column is a
    set of pairwise comparable elements, entries 1..n used once each."""

    def rec(avail, sizes):
        if not sizes:
            return 0 if avail else 1
        total = 0
        for combo in combinations(sorted(avail), sizes[0]):
            if all(not p.incomparable(a, b) for a, b in combinations(combo, 2)):
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
                assert mono.coeff(lam).eval_at(1) == count


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
                value = poly.eval_at(1)
                assert value == int(value) and value >= 0


def chromatic_coeffs(p):
    return sorted(to_elementary(csf_coloring_oracle(p)).coeffs.items())


def test_path_formula_small():
    assert path_formula(1).coeffs == {(1,): QPoly.one()}
    assert path_formula(2).coeffs == {(2,): QPoly((1, 1))}
    with pytest.raises(ValueError):
        path_formula(0)


def test_path_formula_matches_oracle():
    for n in range(1, 7):
        p = poset_from_hessenberg(path_hessenberg(n))
        assert path_formula(n) == to_elementary(csf_coloring_oracle(p))


def test_kchain_single_block_is_factorial():
    for n in range(2, 6):
        assert kchain_formula((n,)).coeffs == {(n,): q_factorial(n)}


def test_kchain_formula_matches_oracle():
    for gamma in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2), (4, 2)):
        p = poset_from_hessenberg(kchain_hessenberg(gamma))
        assert kchain_formula(gamma) == to_elementary(csf_coloring_oracle(p))


def test_kchain_of_edges_is_a_path():
    assert kchain_formula((2, 2)) == path_formula(3)
    assert kchain_formula((2, 2, 2)) == path_formula(4)


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
        SymFunc("m", 3, {(2,): QPoly.one()})
    f = SymFunc("m", 2, {(2,): QPoly.zero(), (1, 1): QPoly.one()})
    assert f.coeffs == {(1, 1): QPoly.one()}
    with pytest.raises(AttributeError):
        f.basis = "e"


def test_symfunc_eval_at():
    f = to_elementary(csf_coloring_oracle(P5))
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
    f = to_elementary(csf_coloring_oracle(P5))
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
    assert SymFunc.from_json_dict(doc) == f


def test_json_fraction_coefficients():
    f = SymFunc("m", 2, {(1, 1): QPoly((Fraction(1, 2), Fraction(3)))})
    doc = f.to_json_dict()
    assert doc["coeffs"][0]["poly"] == ["1/2", 3]
    assert SymFunc.from_json_dict(doc) == f


TWO_PLUS_TWO = poset_from_relations(4, [(1, 2), (3, 4)])


def test_oracle_warns_off_unit_orders():
    with pytest.warns(UserWarning):
        csf_coloring_oracle(TWO_PLUS_TWO)
    with pytest.warns(UserWarning):
        csf_schur(TWO_PLUS_TWO)


def test_symbolic_e_extraction_refused_off_unit_orders():
    with pytest.raises(ValueError):
        e_coeff(TWO_PLUS_TWO, (2, 2))


def test_e_expansion_at_one_off_unit_orders():
    # incomparability graph is the 4-cycle; its chromatic function is
    # symmetric even though the q-refinement is not
    f = e_expansion_at_one(TWO_PLUS_TWO)
    assert f.coeffs == {(2, 2): QPoly.const(2), (4,): QPoly.const(12)}


def test_oracle_bound():
    # the extended sweep cap and the coloring walk's cap are one constant
    assert harness.SIZE_CAP == csf.SIZE_CAP == 10
    with pytest.raises(ValueError):
        csf_coloring_oracle(poset_from_hessenberg((0,) * 11))
    # K10 walks all 10! colorings; its expansion is [10]_q! e_10
    k10 = (0,) * 10
    assert chromatic_e_expansion(poset_from_hessenberg(k10)).coeffs == {
        (10,): q_factorial(10)
    }
    # a sweep unit at the cap reuses that expansion and is not an error
    report = harness.evaluate_task(harness.VerificationTask("nonzero", k10, (1,) * 10))
    assert (report.status, report.witness) == ("holds", None)


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
    f = SymFunc("m", n, {lam: QPoly(c) for lam, c in chosen.items()})
    g = to_elementary(f)
    # expand the elementary form back over monomials by hand
    back = {}
    for lam, poly in g.coeffs.items():
        for mu, k in e_to_m(lam, n).items():
            back[mu] = back.get(mu, QPoly.zero()) + poly * k
    assert {mu: c for mu, c in back.items() if c} == f.coeffs
