from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from csflab.posets import enumerate_hessenberg, poset_from_hessenberg
from csflab.qcore import partitions
from csflab.tableaux import (
    _pair_test,
    cols_to_rows,
    colword,
    enumerate_class,
    enumerate_powerful_arrays,
    enumerate_standard,
    inv_p,
    inv_sum,
    inv_word,
    is_powerful_array,
    is_powersum_word,
    is_strong,
    key_to_tableau,
    powerful_classes,
    rows_to_cols,
    rows_to_text,
    standard_classes,
    tab,
    tableau_to_text,
    word_key,
)

from oracles import (
    RelationPoset,
    col_heights,
    enumerate_powerful_arrays_by_less,
    enumerate_standard_by_less,
    eval_q,
    eval_q_partial,
    inv_sum_by_monomials,
    inv_word_by_pairs,
    is_p_array,
    is_p_tableau,
    is_powersum_word_by_less,
    is_strong_by_ladders,
    is_strong_by_matching,
    ladder_swap,
    ladders,
    monomial,
    pair_strong_by_growth,
    powerful_arrays_by_rows,
    powerful_classes_by_rows,
    same_or_incomparable,
    shape_from_cols,
    standard_classes_by_nested_grid,
    standard_inv_counts,
    tab_inverse,
    text_to_rows,
    text_to_tableau,
)
from test_csf import relation_posets

P5 = poset_from_hessenberg((0, 0, 1, 1, 3))
P7 = poset_from_hessenberg((0, 0, 1, 1, 3, 4, 5))

# Every tableau of P5 whose column pushup has a row-shaped preimage, with its
# inversion count and whether it is strong.  Grouped by shape.
CENSUS = {
    (5,): [
        ("1,2,3,4,5", 0, True),
        ("1,2,3,5,4", 1, False),
        ("1,3,2,4,5", 1, False),
        ("1,2,5,4,3", 2, False),
        ("1,3,2,5,4", 2, False),
        ("1,3,5,4,2", 3, False),
        ("1,5,4,2,3", 3, False),
        ("1,5,4,3,2", 4, False),
        ("3,5,4,2,1", 4, False),
        ("5,4,3,2,1", 5, True),
    ],
    (4, 1): [
        ("1,2,4,5/3", 1, True),
        ("1,2,3,4/5", 1, True),
        ("1,2,5,4/3", 2, False),
        ("1,2,4,3/5", 2, True),
        ("1,3,2,4/5", 2, False),
        ("1,5,4,2/3", 3, False),
        ("1,3,4,2/5", 3, False),
        ("1,4,2,3/5", 3, True),
        ("1,4,3,2/5", 4, True),
        ("3,4,2,1/5", 4, True),
    ],
    (3, 2): [
        ("1,2,3/4,5", 2, True),
        ("2,1,3/5,4", 3, True),
        ("1,3,2/4,5", 3, False),
    ],
    (3, 1, 1): [
        ("1,2,4/3/5", 2, True),
        ("1,4,2/3/5", 3, True),
    ],
}

POWERFUL_322 = [
    ("2,1,3/5,4/7,6", True),
    ("1,2,3/4,5/6,7", True),
    ("1,3,2/4,5/6,7", False),
]


def all_posets(n):
    return [poset_from_hessenberg(m) for m in enumerate_hessenberg(n)]


# -- layout and text ---------------------------------------------------------

def test_text_roundtrip():
    cols = text_to_tableau("1,2,4/3,5/6")
    assert cols == ((1, 3, 6), (2, 5), (4,))
    assert tableau_to_text(cols) == "1,2,4/3,5/6"
    assert shape_from_cols(cols) == (3, 2, 1)
    assert col_heights(cols) == (3, 2, 1)


def test_rows_text_roundtrip():
    rows = ((1,), (3, 2, 4), (6, 5))
    assert text_to_rows("1/3,2,4/6,5") == rows
    assert rows_to_text(rows) == "1/3,2,4/6,5"


@given(st.lists(st.lists(st.integers(1, 99), min_size=1, max_size=5), min_size=1, max_size=4))
def test_rows_text_roundtrip_random(raw):
    rows = tuple(tuple(r) for r in raw)
    assert text_to_rows(rows_to_text(rows)) == rows


def test_ragged_array_from_units_example():
    cols = ((3, 5), (1, 3, 5), (4,), (1, 4))
    assert is_p_array(P5, cols)
    with pytest.raises(ValueError):
        shape_from_cols(cols)  # heights (2,3,1,2) are not weakly decreasing


def test_single_cell_is_tableau():
    assert is_p_tableau(P5, ((1,),))


# -- inversions --------------------------------------------------------------

def inv_by_cell_pairs(p, cols):
    """Direct transcription of the inversion definition, used as an oracle."""
    column_of = {v: j for j, c in enumerate(cols) for v in c}
    vals = sorted(column_of)
    return sum(
        1
        for a, i in enumerate(vals)
        for j in vals[a + 1 :]
        if same_or_incomparable(p, i, j) and column_of[i] > column_of[j]
    )


def test_inv_word_examples():
    assert inv_word(P5, (5, 1, 4, 2, 3)) == 3
    assert inv_word(P5, (1, 2, 3, 4, 5)) == 0
    assert inv_word(P5, (5, 4, 3, 2, 1)) == 5


def test_inv_matches_cell_pair_definition():
    for lam in partitions(5):
        for t in enumerate_standard(P5, lam):
            assert inv_p(P5, t) == inv_by_cell_pairs(P5, t)


def test_eval_q():
    assert eval_q(P5, (5, 4, 3, 2, 1)) == monomial(5)
    assert eval_q(P5, (1, 2, 3, 4)) == ()
    assert eval_q(P5, (1, 2, 3, 4, 4)) == ()
    assert eval_q_partial(P5, (5, 4)) == monomial(1)
    assert eval_q_partial(P5, (4, 4)) == ()


@given(st.permutations(list(range(1, 6))))
def test_eval_q_is_inv_monomial_on_permutations(w):
    assert eval_q(P5, tuple(w)) == monomial(inv_word(P5, tuple(w)))


POSETS_TO_5 = [m for n in range(1, 6) for m in enumerate_hessenberg(n)]


@given(
    st.sampled_from(POSETS_TO_5),
    st.sampled_from(["standard", "strong", "powerful"]),
    st.data(),
)
def test_inv_sum_matches_monomial_loop(m, which, data):
    p = poset_from_hessenberg(m)
    lam = data.draw(st.sampled_from(list(partitions(p.n))))
    found = enumerate_class(p, lam, which)
    # any sub-multiset, repeats included, so equal inv values pile up
    picked = data.draw(st.lists(st.sampled_from(found), max_size=12)) if found else []
    for tableaux in (found, picked):
        assert inv_sum(p, tableaux) == inv_sum_by_monomials(p, tableaux)


# -- standard enumeration ----------------------------------------------------

def test_standard_counts_for_p5():
    # row sums of the Schur expansion at q=1, shape by conjugate shape
    assert len(enumerate_standard(P5, (5,))) == 24
    assert len(enumerate_standard(P5, (4, 1))) == 16
    assert len(enumerate_standard(P5, (3, 2))) == 4
    assert len(enumerate_standard(P5, (3, 1, 1))) == 2
    assert len(enumerate_standard(P5, (2, 2, 1))) == 0
    assert len(enumerate_standard(P5, (2, 1, 1, 1))) == 0
    assert len(enumerate_standard(P5, (1, 1, 1, 1, 1))) == 0


def test_standard_shape_mismatch():
    with pytest.raises(ValueError):
        enumerate_standard(P5, (3, 1))


def test_standard_sorted_by_colword_and_valid():
    for lam in [(5,), (4, 1), (3, 2), (3, 1, 1)]:
        ts = enumerate_standard(P5, lam)
        words = [colword(t) for t in ts]
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        for t in ts:
            assert is_p_tableau(P5, t)
            assert shape_from_cols(t) == lam


def test_standard_is_exactly_the_valid_fillings():
    # brute force: every way of placing 1..4 into the shape's cells
    p = poset_from_hessenberg((0, 1, 1, 2))
    lam = (2, 2)
    found = set()
    for perm in itertools.permutations(range(1, 5)):
        cols = ((perm[0], perm[1]), (perm[2], perm[3]))
        if is_p_tableau(p, cols):
            found.add(cols)
    assert found == set(enumerate_standard(p, lam))


# -- ladders and strength ----------------------------------------------------

def test_ladders_on_shape_322_example():
    cols = rows_to_cols(text_to_rows("1,3,2/4,5/6,7"))
    rungs = ladders(P7, cols, 1)
    assert len(rungs) == 2
    big = [lad for lad in rungs if len(lad.left) + len(lad.right) == 5][0]
    assert {v for _, v in big.left} == {4, 6}
    assert {v for _, v in big.right} == {3, 5, 7}
    assert big.balance == "right_unbalanced"
    small = [lad for lad in rungs if lad is not big][0]
    assert {v for _, v in small.left} == {1}
    assert small.balance == "left_unbalanced"


def test_ladder_swap_moves_a_cell_and_inverts():
    cols = rows_to_cols(text_to_rows("1,3,2/4,5/6,7"))
    bad = [k for k in ladders(P7, cols, 1) if k.balance == "right_unbalanced"][0]
    swapped = ladder_swap(P7, cols, bad)
    assert col_heights(swapped) == (4, 2, 1)
    assert swapped[0] == (1, 3, 5, 7)
    assert swapped[1] == (4, 6)
    # same component reappears on the other side; swapping back restores
    vals = {v for _, v in bad.left} | {v for _, v in bad.right}
    back = [
        k
        for k in ladders(P7, swapped, 1)
        if {v for _, v in k.left} | {v for _, v in k.right} == vals
    ][0]
    assert back.balance == "left_unbalanced"
    assert ladder_swap(P7, swapped, back) == cols


def test_ladder_swap_refuses_balanced():
    cols = rows_to_cols(text_to_rows("1,2,3,4,5"))
    bal = ladders(P5, cols, 1)[0]
    assert bal.balance == "balanced"
    with pytest.raises(ValueError):
        ladder_swap(P5, cols, bal)


def test_ladder_swap_involution_everywhere():
    for p in all_posets(5):
        for lam in partitions(5):
            for t in enumerate_standard(p, lam):
                for i in range(1, len(t)):
                    for k in ladders(p, t, i):
                        if k.balance == "balanced":
                            continue
                        moved = ladder_swap(p, t, k)
                        vals = {v for _, v in k.left} | {v for _, v in k.right}
                        back = [
                            kk
                            for kk in ladders(p, moved, i)
                            if {v for _, v in kk.left} | {v for _, v in kk.right} == vals
                        ]
                        assert len(back) == 1
                        assert ladder_swap(p, moved, back[0]) == t


def test_strong_agrees_with_matching():
    for p in all_posets(5):
        for lam in partitions(5):
            for t in enumerate_standard(p, lam):
                assert is_strong(p, t) == is_strong_by_matching(p, t)


def test_is_strong_needs_a_natural_unit_interval_order():
    # the one-pass ladder test reads each run off the natural unit labelling
    two_plus_two = RelationPoset(4, [(1, 3), (2, 4)])
    assert two_plus_two.m is None
    with pytest.raises(ValueError, match="natural unit interval order"):
        is_strong(two_plus_two, ((1, 3), (2, 4)))
    chain = RelationPoset(3, [(1, 2), (2, 3)])  # the same order as Poset((0, 1, 2))
    assert is_strong(chain, ((1, 2, 3),)) and not is_strong(chain, ((1, 2), (3,)))


def test_strong_flags_match_census():
    for lam, entries in CENSUS.items():
        for text, _, strong in entries:
            assert is_strong(P5, text_to_tableau(text)) == strong


# -- powersum words and powerful arrays --------------------------------------

def test_powersum_words():
    assert is_powersum_word(P5, (1, 4, 2, 3))
    assert is_powersum_word(P5, (4, 5))
    assert not is_powersum_word(P5, (4, 5, 1))  # ends in a global minimum
    assert not is_powersum_word(P5, (5, 1))  # steps down
    assert is_powersum_word(P5, (5,))
    assert not is_powersum_word(P5, (1, 5))  # 1 sits below everything later


def test_powerful_array_example():
    p = poset_from_hessenberg((0, 1, 1, 1, 2, 3))
    rows = text_to_rows("1/3,2,4/6,5")
    assert is_powerful_array(p, rows)
    assert tab(p, rows) == text_to_tableau("1,2,4/3,5/6")
    assert tab_inverse(p, text_to_tableau("1,2,4/3,5/6")) == rows


def test_tab_rejects_invalid():
    with pytest.raises(ValueError):
        tab(P5, ((5, 1),))  # row steps down in P


def test_census_is_exactly_the_powerful_class():
    for lam, entries in CENSUS.items():
        got = enumerate_class(P5, lam, "powerful")
        want = {text_to_tableau(text) for text, _, _ in entries}
        assert set(got) == want
        assert len(got) == len(entries)
        for text, inv, _ in entries:
            assert inv_p(P5, text_to_tableau(text)) == inv


def test_powerful_empty_shapes_for_p5():
    for lam in [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:
        assert enumerate_class(P5, lam, "powerful") == []


def test_shape_322_class_and_strength():
    got = enumerate_class(P7, (3, 2, 2), "powerful")
    want = {text_to_tableau(text) for text, _ in POWERFUL_322}
    assert set(got) == want
    for text, strong in POWERFUL_322:
        assert is_strong(P7, text_to_tableau(text)) == strong
    assert [t for t in got if is_strong(P7, t)] == sorted(
        (text_to_tableau(text) for text, strong in POWERFUL_322 if strong),
        key=colword,
    )


def test_strong_census_matches_strong_class():
    for lam, entries in CENSUS.items():
        got = enumerate_class(P5, lam, "strong")
        want = {text_to_tableau(text) for text, _, strong in entries if strong}
        # strong tableaux are powerful, so the census covers them all
        assert set(got) == want


def test_tab_inverse_roundtrip_everywhere():
    for p in all_posets(5) + [poset_from_hessenberg((0, 0, 1, 1, 2, 4))]:
        for lam in partitions(p.n):
            arrays = enumerate_powerful_arrays(p, lam)
            images = set()
            for alpha, rows in arrays:
                assert tuple(len(r) for r in rows) == alpha
                assert is_powerful_array(p, rows)
                t = tab(p, rows)
                assert tab_inverse(p, t) == rows
                images.add(t)
            # pushing up is injective on powerful arrays
            assert len(images) == len(arrays)
            # tableaux outside the image have no preimage
            for t in enumerate_standard(p, lam):
                if t not in images:
                    assert tab_inverse(p, t) is None


def test_class_inclusions():
    for p in all_posets(5):
        for lam in partitions(5):
            standard = set(enumerate_standard(p, lam))
            powerful = set(enumerate_class(p, lam, "powerful"))
            strong = set(enumerate_class(p, lam, "strong"))
            assert strong <= powerful <= standard


def test_two_column_shapes_collapse():
    # with at most two columns, powerful and strong coincide
    for p in all_posets(6):
        for lam in partitions(6):
            if lam and lam[0] > 2:
                continue
            powerful = set(enumerate_class(p, lam, "powerful"))
            strong = set(enumerate_class(p, lam, "strong"))
            assert powerful == strong


# -- bitmask kernels against the P.less kernels they replaced -----------------

VECTORS_TO_7 = [m for n in range(1, 8) for m in enumerate_hessenberg(n)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(VECTORS_TO_7))
def test_bitmask_enumerations_match_less_kernels(m):
    p = poset_from_hessenberg(m)
    for lam in partitions(p.n):
        standard = enumerate_standard(p, lam)
        assert standard == enumerate_standard_by_less(p, lam)
        assert enumerate_powerful_arrays(p, lam) == enumerate_powerful_arrays_by_less(p, lam)
        for t in standard:
            assert is_strong(p, t) == is_strong_by_ladders(p, t)


# -- keyed class kernels against the P.less oracles ----------------------------

def _packed(t, width):
    """The column word of t packed here, ``width`` bits per letter, first
    letter highest: the key format, independent of ``word_key``."""
    key = 0
    for v in colword(t):
        key = key << width | v
    return key


def _keyed_classes_match_oracles(m):
    """On every shape: the walk's keys decode to the oracle's standard
    tableaux in the same order, with the oracle's inv and strong flags; the
    powerful keys are the top-justified images of the oracle's arrays, with
    their inv.  Keys are packed at n.bit_length() bits per entry."""
    p = poset_from_hessenberg(m)
    width = p.n.bit_length()
    for lam in partitions(p.n):
        standard, strong = standard_classes(p, lam)
        tableaux = enumerate_standard_by_less(p, lam)
        assert [key_to_tableau(p, key, lam) for key in standard] == tableaux
        want = {_packed(t, width): inv_word_by_pairs(p, colword(t)) for t in tableaux}
        assert list(standard.items()) == list(want.items())
        assert strong == {
            _packed(t, width): want[_packed(t, width)]
            for t in tableaux if is_strong_by_ladders(p, t)
        }
        images = {rows_to_cols(rows) for _, rows in enumerate_powerful_arrays_by_less(p, lam)}
        assert powerful_classes(p, lam) == {
            _packed(t, width): inv_word_by_pairs(p, colword(t)) for t in images
        }


VECTORS_TO_6 = [m for m in VECTORS_TO_7 if len(m) <= 6]
VECTORS_7 = [m for m in VECTORS_TO_7 if len(m) == 7]


def test_keyed_classes_match_oracles_to_six():
    for m in VECTORS_TO_6:
        _keyed_classes_match_oracles(m)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(VECTORS_7))
def test_keyed_classes_match_oracles_at_seven_sampled(m):
    _keyed_classes_match_oracles(m)


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to check every unit order with n=7",
)
def test_keyed_classes_match_oracles_at_seven_in_full():
    for m in VECTORS_7:
        _keyed_classes_match_oracles(m)


# -- cell-table kernels against the nested-list kernels they replaced ---------

def _cell_tables_match_nested_kernels(m):
    """On every shape: the same powerful arrays, the same powerful keys and
    invs, and the same standard and strong keys and invs, in the same order."""
    p = poset_from_hessenberg(m)
    for lam in partitions(p.n):
        assert enumerate_powerful_arrays(p, lam) == powerful_arrays_by_rows(p, lam), lam
        assert list(powerful_classes(p, lam).items()) == list(
            powerful_classes_by_rows(p, lam).items()
        ), lam
        walk, nested = standard_classes(p, lam), standard_classes_by_nested_grid(p, lam)
        assert [list(d.items()) for d in walk] == [list(d.items()) for d in nested], lam


def test_cell_table_kernels_match_nested_kernels_to_seven():
    for m in [()] + VECTORS_TO_7:  # (): one shape with no cells, one leaf call
        _cell_tables_match_nested_kernels(m)


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to check every unit order with n=8",
)
def test_cell_table_kernels_match_nested_kernels_at_n8():
    for m in enumerate_hessenberg(8):
        _cell_tables_match_nested_kernels(m)


# -- the one-pass strength test against the ladder search it replaced ---------

def _chain_masks(p):
    """Every chain of p as a mask, the empty one first, each other grown
    upward from its least element, one element of ``_up`` at a time."""
    out = [0]

    def grow(mask, top):
        out.append(mask)
        above = p._up[top]
        while above:
            low = above & -above
            above ^= low
            grow(mask | low, low.bit_length() - 1)

    for v in range(1, p.n + 1):
        grow(1 << v, v)
    return out


def _pair_tests_match_the_ladder_search(vectors):
    """`_pair_test` against `pair_strong_by_growth` on every pair of disjoint
    chains, as left and right column, with |right| <= |left|; the number of
    pairs checked."""
    pairs = 0
    for m in vectors:
        p = poset_from_hessenberg(m)
        pair_strong, chains = _pair_test(p._inc), _chain_masks(p)
        for left in chains:
            for right in chains:
                if not left & right and right.bit_count() <= left.bit_count():
                    pairs += 1
                    want = pair_strong_by_growth(p._inc, left, right)
                    assert pair_strong(left, right) == want, (m, bin(left), bin(right))
    return pairs


def test_pair_test_matches_the_ladder_search_to_seven():
    assert _pair_tests_match_the_ladder_search(VECTORS_TO_7) == 163050


@pytest.mark.skipif(
    not os.environ.get("CSFLAB_ACCEPT_N8"),
    reason="set CSFLAB_ACCEPT_N8=1 to check every unit order with n=8 and n=9",
)
def test_pair_test_matches_the_ladder_search_at_n9():
    vectors = enumerate_hessenberg(8) + enumerate_hessenberg(9)
    assert _pair_tests_match_the_ladder_search(vectors) == 7983184


def test_tableau_keys_roundtrip_in_column_word_order():
    width = P7.n.bit_length()
    for lam in partitions(7):
        tableaux = enumerate_standard(P7, lam)
        keys = [word_key(P7, colword(t)) for t in tableaux]
        assert keys == [_packed(t, width) for t in tableaux] == sorted(set(keys))
        assert [key_to_tableau(P7, k, lam) for k in keys] == tableaux
    empty = poset_from_hessenberg(())
    assert word_key(empty, ()) == 0 and key_to_tableau(empty, 0, ()) == ()


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(VECTORS_TO_7))
def test_bitmask_word_kernels_match_on_every_injective_word(m):
    p = poset_from_hessenberg(m)
    for k in range(p.n + 1):
        for w in itertools.permutations(range(1, p.n + 1), k):
            assert is_powersum_word(p, w) == is_powersum_word_by_less(p, w)
            assert inv_word(p, w) == inv_word_by_pairs(p, w)


@settings(deadline=None)
@given(relation_posets())
def test_standard_inv_counts_match_monomial_sums(p):
    for lam in partitions(p.n):
        want = inv_sum_by_monomials(p, enumerate_standard_by_less(p, lam))
        counts = standard_inv_counts(p, lam)
        assert all(type(c) is int for c in counts)
        assert tuple(counts) == want, lam


def test_enumerate_class_rejects_unknown():
    with pytest.raises(ValueError):
        enumerate_class(P5, (5,), "mystery")
