from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from csflab.posets import enumerate_hessenberg, poset_from_hessenberg
from csflab.qcore import QPoly, partitions
from csflab.tableaux import (
    col_heights,
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
    ladders,
    rows_to_cols,
    rows_to_text,
    tab,
    tableau_to_text,
    text_to_rows,
    text_to_tableau,
)

from oracles import (
    eval_q,
    eval_q_partial,
    inv_sum_by_monomials,
    is_p_array,
    is_p_tableau,
    is_strong_by_matching,
    ladder_swap,
    shape_from_cols,
    tab_inverse,
)

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
        if p.same_or_incomparable(i, j) and column_of[i] > column_of[j]
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
    assert eval_q(P5, (5, 4, 3, 2, 1)) == QPoly.monomial(5)
    assert eval_q(P5, (1, 2, 3, 4)) == QPoly.zero()
    assert eval_q(P5, (1, 2, 3, 4, 4)) == QPoly.zero()
    assert eval_q_partial(P5, (5, 4)) == QPoly.monomial(1)
    assert eval_q_partial(P5, (4, 4)) == QPoly.zero()


@given(st.permutations(list(range(1, 6))))
def test_eval_q_is_inv_monomial_on_permutations(w):
    assert eval_q(P5, tuple(w)) == QPoly.monomial(inv_word(P5, tuple(w)))


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


def test_enumerate_class_rejects_unknown():
    with pytest.raises(ValueError):
        enumerate_class(P5, (5,), "mystery")
