from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from csflab.csf import csf_schur, e_coeff, path_formula
from csflab.posets import (
    enumerate_hessenberg,
    greedy_partition,
    natural_unit_m,
    path_hessenberg,
    poset_from_hessenberg,
    poset_from_relations,
)
from csflab.qcore import (
    QPoly,
    compositions,
    compositions_with_sort,
    conjugate,
    partitions,
    q_int,
)
from csflab.structural import (
    FactorPair,
    K_set,
    complemented_set,
    factorize,
    greedy_shape_family,
    mult_map,
    powersum_words,
    r_index,
)
from csflab.tableaux import (
    enumerate_class,
    enumerate_powerful_arrays,
    inv_p,
    inv_sum,
    is_strong,
    rows_to_cols,
    tab,
    text_to_rows,
)

from oracles import (
    add_parts,
    bpa_enumerate,
    classify,
    concat,
    dominates,
    e_expansion_at_one,
    in_mult_image,
    is_p_tableau,
    m_product_coeffs,
    max_chain_length,
    maxchain_extend,
    peak,
    peak_inversions,
    remove_first_column,
    tab_inverse,
)

P5 = poset_from_hessenberg((0, 0, 1, 1, 3))
P6 = poset_from_hessenberg((0, 0, 1, 1, 2, 4))
CHAIN5 = poset_from_hessenberg((0, 1, 2, 3, 4))

# The ten powerful standard tableaux of P6 with shape (4, 2), split into the
# strong ones, the two extra members of K(4, 2), and the two left over.
KSET_SPLIT_42 = [
    ("2,1,3,4/6,5", "strong", 4),
    ("2,1,4,3/6,5", "strong", 5),
    ("1,2,3,4/6,5", "strong", 3),
    ("1,2,4,3/6,5", "strong", 4),
    ("1,2,3,4/5,6", "strong", 2),
    ("1,2,4,3/5,6", "strong", 3),
    ("1,3,2,4/5,6", "k-only", 3),
    ("1,4,2,3/5,6", "k-only", 4),
    ("1,3,4,2/5,6", "powerful-only", 4),
    ("1,4,3,2/5,6", "powerful-only", 5),
]


def all_posets(n):
    return [poset_from_hessenberg(m) for m in enumerate_hessenberg(n)]


def split_cols(labels):
    return {
        rows_to_cols(text_to_rows(txt))
        for txt, label, _ in KSET_SPLIT_42
        if label in labels
    }


def injective_fillings(p, lam, keep):
    """Distinct-label fillings of a shape drawn from any subset of p."""
    heights = conjugate(lam)
    cells = sum(lam)
    out = set()
    for combo in itertools.combinations(p.elements(), cells):
        for perm in itertools.permutations(combo):
            cols, i = [], 0
            for h in heights:
                cols.append(perm[i : i + h])
                i += h
            cols = tuple(cols)
            if keep(p, cols):
                out.add(cols)
    return out


def injective_powerful(p, lam):
    return injective_fillings(
        p,
        lam,
        lambda q, cols: is_p_tableau(q, cols) and tab_inverse(q, cols) is not None,
    )


def key_family(p, lam):
    """Tableau family built from the two base cases by full-column extension."""
    if not lam:
        return {()}
    if len(lam) == 1:
        return {tuple((x,) for x in w) for w in powersum_words(p, lam[0])}
    if lam[0] == 1:
        return injective_fillings(p, lam, is_p_tableau)
    return maxchain_extend(p, lam, key_family(p, remove_first_column(lam)))


# -- concatenation ------------------------------------------------------------

def test_concat_example():
    s = ((1, 3, 5), (2, 4))
    t = ((6, 8, 9), (7,))
    assert concat(s, t) == ((1, 3, 5), (2, 4), (6, 8, 9), (7,))
    assert concat(s, ()) == s
    assert concat((), t) == t


def test_concat_glues_strong_families():
    # prefix shape (2, 2) covers the two largest greedy chains of P5 (3 + 1
    # cells); suffix a single cell.  Gluing the strong fillings of the pieces
    # yields exactly the strong standard tableaux of the sum shape (3, 2).
    strong_pieces = injective_fillings(
        P5, (2, 2), lambda q, c: is_p_tableau(q, c) and is_strong(q, c)
    )
    glued = set()
    for s in strong_pieces:
        used = {x for col in s for x in col}
        (rest,) = [x for x in P5.elements() if x not in used]
        cand = concat(s, ((rest,),))
        if is_p_tableau(P5, cand):
            glued.add(cand)
    assert glued == set(enumerate_class(P5, (3, 2), "strong"))


def test_concat_glues_chain_pairs():
    # both pieces single columns: gluing disjoint chains gives the strong
    # standard tableaux of the two-column shape
    p = poset_from_hessenberg((0, 0, 1, 2))
    chains = injective_fillings(p, (1, 1), is_p_tableau)
    glued = set()
    for s, t in itertools.permutations(chains, 2):
        if {x for c in s for x in c}.isdisjoint(x for c in t for x in c):
            cand = concat(s, t)
            if is_p_tableau(p, cand):
                glued.add(cand)
    assert glued == set(enumerate_class(p, (2, 2), "strong"))


# -- greedy displacement family ------------------------------------------------

def test_greedy_family_example():
    assert greedy_partition(P5) == (3, 1, 1)
    assert greedy_shape_family(P5, {1}, {1: 1}) == (3, 2)
    assert e_coeff(P5, (3, 2)) == QPoly([0, 0, 1, 1])


def test_greedy_family_no_cuts():
    assert greedy_shape_family(P5, set(), {}) == conjugate((3, 1, 1))


def test_greedy_family_rejects_bad_input():
    with pytest.raises(ValueError):
        greedy_shape_family(P5, {1, 2}, {1: 1, 2: 1})  # adjacent cuts
    with pytest.raises(ValueError):
        greedy_shape_family(P5, {1}, {2: 1})  # weights keyed wrong
    with pytest.raises(ValueError):
        greedy_shape_family(P5, {1}, {1: 0})  # weight not positive
    with pytest.raises(ValueError):
        greedy_shape_family(P5, {2}, {2: 1})  # rows (3, 0, 2) not a partition
    with pytest.raises(ValueError):
        greedy_shape_family(P5, {1}, {1: 3})  # first row would vanish


def test_greedy_family_members_sum_over_strong():
    for n in (4, 5):
        for p in all_posets(n):
            top = len(greedy_partition(p))
            cut_choices = [
                cuts
                for r in range(top + 1)
                for cuts in itertools.combinations(range(1, top + 1), r)
                if all(b - a > 1 for a, b in zip(cuts, cuts[1:]))
            ]
            for cuts in cut_choices:
                for ws in itertools.product(range(1, 4), repeat=len(cuts)):
                    try:
                        lam = greedy_shape_family(p, set(cuts), dict(zip(cuts, ws)))
                    except ValueError:
                        continue
                    strong = enumerate_class(p, lam, "strong")
                    assert e_coeff(p, lam) == inv_sum(p, strong)


# -- factorization -------------------------------------------------------------

def test_r_index():
    assert r_index(P5, (2, 1)) == 1
    assert r_index(P5, (1, 3, 2)) == 2
    with pytest.raises(ValueError):
        r_index(CHAIN5, (1, 2, 3))  # comparable throughout


def test_factorize_hits_each_arrangement():
    # incomparable pair up front stays put
    assert factorize(P5, (2, 3, 5, 4)) == FactorPair((2, 3), (5, 4))
    # first break preceded by a smaller letter: the break pair moves out
    assert factorize(P5, (1, 3, 4, 2)) == FactorPair((3, 4), (1, 2))
    # break pair swaps when a later letter stays incomparable to the prefix
    assert factorize(P5, (2, 5, 4, 3)) == FactorPair((4, 5), (2, 3))
    # blocked case: letters one and three pair up
    assert factorize(P5, (1, 3, 2, 4)) == FactorPair((2, 1), (3, 4))


def test_factorize_rejects_short_or_invalid():
    with pytest.raises(ValueError):
        factorize(P5, (2, 1))
    with pytest.raises(ValueError):
        factorize(CHAIN5, (1, 2, 3))  # not a powersum word


def test_factorize_is_injective():
    for p in all_posets(5):
        for k in (3, 4, 5):
            words = powersum_words(p, k)
            pairs = [factorize(p, w) for w in words]
            assert len(set(pairs)) == len(words)


def test_powersum_words_match_single_row_arrays():
    for p in all_posets(4):
        rows = {w for alpha, r in enumerate_powerful_arrays(p, (4,)) for w in r}
        assert set(powersum_words(p, 4)) == rows


# -- the complemented set ------------------------------------------------------

def test_complemented_set_requires_k_above_4():
    with pytest.raises(ValueError):
        complemented_set(P5, 4)


def test_complemented_set_empty_for_chain():
    assert complemented_set(CHAIN5, 5) == set()


def test_complemented_set_recovers_coefficient():
    fc = complemented_set(P6, 6)
    assert len(fc) == 8
    total = inv_sum(P6, [a + b for a, b in fc])
    assert total == e_coeff(P6, (4, 2))
    assert total == QPoly([0, 0, 1, 3, 3, 1])


def test_complemented_set_routes_agree_everywhere():
    # the set is computed both by complementing the factorization image and
    # from the relation patterns; construction aborts if they ever differ
    for p in all_posets(5):
        complemented_set(p, 5)


# -- gluing into two-row tableaux ----------------------------------------------

def test_kset_split_42_census():
    strong = split_cols({"strong"})
    k_extra = split_cols({"k-only"})
    powerful = split_cols({"strong", "k-only", "powerful-only"})
    assert set(enumerate_class(P6, (4, 2), "strong")) == strong
    assert set(enumerate_class(P6, (4, 2), "powerful")) == powerful
    assert K_set(P6) == strong | k_extra
    for txt, _, inv in KSET_SPLIT_42:
        assert inv_p(P6, rows_to_cols(text_to_rows(txt))) == inv


def test_k_set_sum_is_the_e_coefficient():
    assert inv_sum(P6, K_set(P6)) == QPoly([0, 0, 1, 3, 3, 1])


def test_mult_map_rejects_out_of_domain():
    w = (1, 2, 3, 4, 6, 5)
    pair = factorize(P6, w)  # in the factorization image, so not glueable
    with pytest.raises(ValueError):
        mult_map(P6, pair)
    with pytest.raises(ValueError):
        mult_map(P6, ((1, 3), (2, 4, 6, 5)))  # (1, 3) is not a powersum word


def test_k_set_between_strong_and_powerful():
    for p in all_posets(5):
        strong = set(enumerate_class(p, (3, 2), "strong"))
        powerful = set(enumerate_class(p, (3, 2), "powerful"))
        k = K_set(p)
        assert strong <= k <= powerful
        assert inv_sum(p, k) == e_coeff(p, (3, 2))
        assert k == {t for t in powerful if in_mult_image(p, t)}


def test_k_set_sample_n6():
    for m in list(enumerate_hessenberg(6))[::6]:
        p = poset_from_hessenberg(m)
        strong = set(enumerate_class(p, (4, 2), "strong"))
        powerful = set(enumerate_class(p, (4, 2), "powerful"))
        k = K_set(p)
        assert strong <= k <= powerful
        assert inv_sum(p, k) == e_coeff(p, (4, 2))
        assert k == {t for t in powerful if in_mult_image(p, t)}


# -- peaks over the path order ---------------------------------------------------

def test_single_row_peaks():
    assert bpa_enumerate(4, (4,)) == {
        ((1, 2, 3, 4),),
        ((1, 2, 4, 3),),
        ((1, 4, 3, 2),),
        ((4, 3, 2, 1),),
    }
    assert peak(((1, 2, 4, 3),)) == (3,)
    assert peak(((4, 3, 2, 1),)) == (1,)


def test_two_row_peaks():
    arrays = bpa_enumerate(4, (2, 2))
    assert arrays == {((2, 1), (4, 3)), ((1, 2), (3, 4))}
    assert {peak(a) for a in arrays} == {(1, 1), (2, 2)}


def test_peak_validation():
    antichain = poset_from_hessenberg((0, 0, 0, 0))
    with pytest.raises(ValueError):
        peak(((1, 2, 4, 3),), p=antichain)  # not the path order
    with pytest.raises(ValueError):
        peak(((1, 2), (3, 5)))  # not onto 1..4
    with pytest.raises(ValueError):
        peak(((1, 3), (2, 4)))  # row (1, 3) is not a powersum word


def test_bpa_rejects_bad_row_sizes():
    with pytest.raises(ValueError):
        bpa_enumerate(4, (2, 1, 2))
    with pytest.raises(ValueError):
        bpa_enumerate(4, (2, 0, 2))


def test_bpa_matches_powerful_enumeration():
    for n in range(1, 7):
        p = poset_from_hessenberg(path_hessenberg(n))
        for lam in partitions(n):
            direct = {
                rows for _, rows in enumerate_powerful_arrays(p, lam)
            }
            via_peaks = set()
            for alpha in compositions_with_sort(lam):
                via_peaks |= bpa_enumerate(n, alpha)
            assert via_peaks == direct


def test_bpa_inversion_counts_and_row_product():
    for n in range(1, 8):
        p = poset_from_hessenberg(path_hessenberg(n))
        for alpha in compositions(n):
            total = QPoly.zero()
            for rows in bpa_enumerate(n, alpha):
                inv = peak_inversions(alpha, peak(rows))
                assert inv == inv_p(p, tab(p, rows))
                total = total + QPoly.monomial(inv)
            closed = QPoly.monomial(len(alpha) - 1) * q_int(alpha[-1])
            for part in alpha[:-1]:
                closed = closed * q_int(part - 1)
            assert total == closed


def test_bpa_sums_recover_path_coefficients():
    n = 6
    expansion = path_formula(n)
    for lam in partitions(n):
        total = QPoly.zero()
        for alpha in compositions_with_sort(lam):
            for rows in bpa_enumerate(n, alpha):
                total = total + QPoly.monomial(peak_inversions(alpha, peak(rows)))
        assert total == expansion.coeff(lam)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_bpa_peaks_are_distinct(alpha):
    alpha = tuple(alpha)
    arrays = bpa_enumerate(sum(alpha), alpha)
    assert len({peak(a) for a in arrays}) == len(arrays)


# -- full-column extension -------------------------------------------------------

def test_maxchain_extend_single_column():
    assert maxchain_extend(P5, (1, 1, 1), [()]) == {((1, 3, 5),)}


def test_maxchain_extend_validates_shapes():
    with pytest.raises(ValueError):
        maxchain_extend(P5, (2, 2), [()])  # length 2, longest chain 3
    with pytest.raises(ValueError):
        maxchain_extend(P5, (2, 1, 1), [((1, 2),)])  # inner heights wrong


def test_maxchain_extension_of_p5():
    # shape (3,1,1): inner family is the single-row powersum words of length 2
    fam = key_family(P5, (3, 1, 1))
    assert fam <= injective_powerful(P5, (3, 1, 1))
    standard = {t for t in fam if sum(len(c) for c in t) == 5}
    assert inv_sum(P5, standard) == e_coeff(P5, (3, 1, 1))
    # shape (2,2,1) admits no standard tableaux at all for this order
    assert e_coeff(P5, (2, 2, 1)) == QPoly.zero()
    fam = key_family(P5, (2, 2, 1))
    assert {t for t in fam if sum(len(c) for c in t) == 5} == set()


def test_maxchain_families_equal_powerful_when_three_free():
    # posets without a 3-chain: extension families coincide with the
    # injective powerful tableaux, and standard sums give the coefficients
    for n in (4, 5):
        for p in all_posets(n):
            if max_chain_length(p) != 2:
                continue
            shapes = [
                (a, b)
                for a in range(1, n)
                for b in range(1, a + 1)
                if a + b <= n
            ]
            for lam in shapes:
                fam = key_family(p, lam)
                assert fam == injective_powerful(p, lam)
                if sum(lam) == p.n:
                    standard = {
                        t for t in fam if sum(len(c) for c in t) == p.n
                    }
                    assert inv_sum(p, standard) == e_coeff(p, lam)


def test_rectangle_families_match_schur_coefficients():
    # for rectangle shapes c^r with r the longest chain, the family's
    # standard sum is the Schur coefficient of the transposed rectangle
    for p in all_posets(4):
        r = max_chain_length(p)
        if 4 % r:
            continue
        c = 4 // r
        lam = (c,) * r
        fam = key_family(p, lam)
        standard = {t for t in fam if sum(len(cc) for cc in t) == 4}
        assert inv_sum(p, standard) == csf_schur(p).coeff((r,) * c)


# -- monomial structure coefficients --------------------------------------------

def test_m_product_small_cases():
    assert m_product_coeffs((1,), (1,)) == {(2,): 1, (1, 1): 2}
    assert m_product_coeffs((2, 1), (1,)) == {
        (3, 1): 1,
        (2, 2): 2,
        (2, 1, 1): 2,
    }
    assert m_product_coeffs((), (2, 1)) == {(2, 1): 1}


def test_m_product_structure_bounds():
    parts = [lam for k in range(9) for lam in partitions(k)]
    for mu in parts:
        for nu in parts:
            if sum(mu) + sum(nu) > 8 or sum(mu) < sum(nu):
                continue
            coeffs = m_product_coeffs(mu, nu)
            top = add_parts(mu, nu)
            assert coeffs.get(top) == 1
            cm, cn = conjugate(mu), conjugate(nu)
            for eta in coeffs:
                assert dominates(top, eta)
                ce = conjugate(eta)
                for i, (am, an) in enumerate(itertools.zip_longest(cm, cn, fillvalue=0)):
                    assert ce[i] >= max(am, an)


PARTS_SMALL = [lam for k in range(6) for lam in partitions(k)]


@settings(deadline=None)
@given(st.sampled_from(PARTS_SMALL), st.sampled_from(PARTS_SMALL))
def test_m_product_commutes(mu, nu):
    assert m_product_coeffs(mu, nu) == m_product_coeffs(nu, mu)


# -- hand-built non-unit posets --------------------------------------------------
#
# A small bank of posets that avoid a 3-chain-plus-point but contain a 2+2, so
# they are not unit interval orders under any labeling.  The chain-free
# identities survive on them; the word-splitting machinery does not, and the
# bank pins down exactly where.

TWO_PLUS_TWO = poset_from_relations(4, [(1, 3), (2, 4)])
TWO_PLUS_TWO_TOPPED = poset_from_relations(
    5, [(1, 3), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
)
TWO_PLUS_TWO_POINT = poset_from_relations(5, [(1, 3), (2, 4)])


def test_bank_posets_are_non_unit():
    for p in (TWO_PLUS_TWO, TWO_PLUS_TWO_TOPPED, TWO_PLUS_TWO_POINT):
        label = classify(p)
        assert label.is_31_free and not label.is_22_free
        assert natural_unit_m(p) is None


def test_bank_chain_free_families_still_work():
    # no 3-chain in these two, so extension families must equal the
    # injective powerful tableaux, and standard counts match the q=1
    # elementary coefficients
    cases = [
        (TWO_PLUS_TWO, (2, 2), 2),
        (TWO_PLUS_TWO_POINT, (3, 2), 2),
        (TWO_PLUS_TWO_POINT, (4, 1), 6),
    ]
    for p, lam, count in cases:
        fam = key_family(p, lam)
        assert fam == injective_powerful(p, lam)
        standard = {t for t in fam if sum(len(c) for c in t) == p.n}
        assert len(standard) == count
        assert e_expansion_at_one(p).coeff(lam).eval_at(1) == count


def test_bank_topped_poset_has_no_powersum_covers():
    # the top element must sit last in its row, where it turns the previous
    # letter into a sub-everything minimum, so no length-5 powersum word and
    # no two-row census at all; the coefficient identity holds as 0 = 0
    p = TWO_PLUS_TWO_TOPPED
    assert powersum_words(p, 5) == []
    assert complemented_set(p, 5) == set()
    assert K_set(p) == set()
    assert enumerate_class(p, (3, 2), "powerful") == []
    assert e_expansion_at_one(p).coeff((3, 2)) == QPoly.zero()


def test_bank_isolated_point_breaks_word_splitting():
    # known scope boundary: with an all-incomparable point, the swapped-pair
    # arrangement drags letter 4 across the comparable prefix AND the
    # isolated 5, changing the inversion count; the runtime guard trips
    # rather than returning a silently wrong split
    p = TWO_PLUS_TWO_POINT
    with pytest.raises(RuntimeError):
        factorize(p, (1, 3, 4, 5, 2))
    with pytest.raises(RuntimeError):
        K_set(p)
