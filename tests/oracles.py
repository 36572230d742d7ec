"""Independent second routes that the tests check the library against.

Each function here is a reference: a direct transcription of a
definition, or a second construction from the paper that reaches a
quantity the library computes another way.  ``src/`` keeps one
production route per quantity; these stay in the tests so that the
agreement of the two routes is still checked.  The module has no
``test_`` prefix, so pytest imports it but does not collect it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from csflab.csf import SIZE_CAP, SymFunc, e_to_m, to_elementary
from csflab.harness import Report, VerificationTask, _Cache, evaluate_task, tasks_for
from csflab.hikita import _steps, is_syt, tableau_size
from csflab.posets import (
    Poset,
    check_hessenberg,
    greedy_partition,
    path_hessenberg,
    poset_from_hessenberg,
)
from csflab.qcore import (
    QRat,
    check_partition,
    coeff_tuple,
    compositions_with_sort,
    conjugate,
    int_poly_add,
    int_poly_mul,
    partitions,
    poly_eval,
    q_int,
    sort_desc,
)
from csflab.structural import greedy_shape_family, powersum_words, r_index
from csflab.tableaux import (
    colword,
    enumerate_standard,
    inv_p,
    inv_word,
    is_powersum_word,
    is_powerful_array,
    rows_to_cols,
    standard_classes,
)


# ---------------------------------------------------------------------------
# coefficient tuples and QRat values (from qcore)
# ---------------------------------------------------------------------------

def monomial(k):
    """q^k as a coefficient tuple."""
    return (0,) * k + (1,)


def rat_mul(a, b):
    return QRat(int_poly_mul(a.num, b.num), int_poly_mul(a.den, b.den))


def rat_add(a, b):
    return QRat(int_poly_add(int_poly_mul(a.num, b.den), int_poly_mul(b.num, a.den)),
                int_poly_mul(a.den, b.den))


def qrat_at(ratio, x):
    """A QRat's exact value at a rational point, which must not be a root
    of its denominator."""
    den = poly_eval(ratio.den, x)
    if not den:
        raise ZeroDivisionError(f"evaluation at a denominator root: q={Fraction(x)}")
    return poly_eval(ratio.num, x) / den


def interpolate(points, values):
    """The coefficient tuple of the polynomial of degree below len(points)
    that takes each value at its point, by Lagrange's formula."""
    total = []
    for i, (x, y) in enumerate(zip(points, values)):
        term = [y]
        for j, other in enumerate(points):
            if j != i:
                term = int_poly_mul(term, [Fraction(-other, x - other), Fraction(1, x - other)])
        int_poly_add(total, term)
    return coeff_tuple(total)


# ---------------------------------------------------------------------------
# partitions (from qcore)
# ---------------------------------------------------------------------------

def dominates(lam, mu):
    """Prefix sums of lam are all >= those of mu (same total size required)."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"dominance needs equal size: {lam} vs {mu}")
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def pairwise_part_products(lam):
    """Sum of lam_i * lam_j over all pairs i < j."""
    total = sum(lam)
    return (total * total - sum(p * p for p in lam)) // 2


def remove_first_column(lam):
    """Partition left after deleting the first column (each part minus one)."""
    return tuple(p - 1 for p in lam if p > 1)


def add_parts(mu, nu):
    """Componentwise sum of two partitions (zero-padded); again a partition."""
    k = max(len(mu), len(nu))
    mu = tuple(mu) + (0,) * (k - len(mu))
    nu = tuple(nu) + (0,) * (k - len(nu))
    return tuple(a + b for a, b in zip(mu, nu))


def compositions(n):
    """All compositions of n (ordered tuples of positive parts)."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in compositions(n - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# posets: other constructions and brute-force invariants
# ---------------------------------------------------------------------------

def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def natural_unit_m(p):
    """Recover the reverse Hessenberg vector if p is a natural unit interval
    order labeled compatibly; None otherwise.

    m(j) is the largest element below j, read off the masks; p is the
    order of m exactly when m is weakly increasing with m(j) < j and the
    elements below each j are exactly 1..m(j).
    """
    m = []
    for j in range(1, p.n + 1):
        below = p._down[j]
        top = max(below.bit_length() - 1, 0)
        if top >= j or below != (1 << (top + 1)) - 2 or (m and top < m[-1]):
            return None
        m.append(top)
    return tuple(m)


class RelationPoset(Poset):
    """A poset on 1..n from any acyclic relations, closed transitively.

    It carries the masks of a vector-built ``Poset``, so the tableau kernels
    read it alike, and it equals (and shares caches with) the ``Poset`` of
    the same order.  ``m`` is what ``natural_unit_m`` recovers, None off the
    natural unit interval orders, so the library's unit-only entry points
    refuse it exactly when they refuse that order.
    """

    __slots__ = ()

    def __init__(self, n, pairs):
        up = [0] * (n + 1)
        for a, b in pairs:
            up[a] |= 1 << b
        for k in range(1, n + 1):  # Warshall's closure on the masks
            for i in range(1, n + 1):
                if (up[i] >> k) & 1:
                    up[i] |= up[k]
        if any((up[a] >> a) & 1 for a in range(1, n + 1)):
            raise ValueError(f"relations {pairs} have a cycle")
        down = [0] * (n + 1)
        for a in range(1, n + 1):
            for b in _bits(up[a]):
                down[b] |= 1 << a
        full = (1 << (n + 1)) - 2  # bits 1..n
        inc = [full & ~(up[a] | down[a] | (1 << a)) if a else 0 for a in range(n + 1)]
        hi = tuple(mask & ~((2 << a) - 1) for a, mask in enumerate(inc))
        for name, value in (("n", n), ("_up", tuple(up)), ("_down", tuple(down)), ("_inc", tuple(inc)),
                            ("_hi", hi)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "m", natural_unit_m(self))

    def __repr__(self):
        return f"RelationPoset({self.n}, {list(relations(self))})"


def incomparable(p, a, b):
    return a != b and not p.less(a, b) and not p.less(b, a)


def relations(p):
    """The strict relation as (a, b) pairs with a < b in P, sorted."""
    return tuple((a, b) for a in range(1, p.n + 1) for b in _bits(p._up[a]))


def poset_from_units(points):
    """Order by unit intervals: i < j in P iff a_i + 1 < a_j (exact rationals)."""
    pts = [Fraction(x) for x in points]
    if any(pts[i] > pts[i + 1] for i in range(len(pts) - 1)):
        raise ValueError(f"interval left endpoints must be nondecreasing: {points}")
    n = len(pts)
    rels = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if pts[i - 1] + 1 < pts[j - 1]
    ]
    return RelationPoset(n, rels)


@dataclass(frozen=True)
class PosetClass:
    is_31_free: bool
    is_22_free: bool
    is_3_free: bool


def classify(p):
    """Brute-force scan for induced 3-chain+point, 2+2, and 3-chain patterns."""
    chains3 = [
        (a, b, c)
        for a in range(1, p.n + 1)
        for b in _bits(p._up[a])
        for c in _bits(p._up[b])
    ]
    has_31 = any(
        d not in (a, b, c)
        and incomparable(p, d, a)
        and incomparable(p, d, b)
        and incomparable(p, d, c)
        for (a, b, c) in chains3
        for d in range(1, p.n + 1)
    )
    pairs = [(a, b) for a in range(1, p.n + 1) for b in _bits(p._up[a])]
    has_22 = any(
        len({a, b, c, d}) == 4
        and incomparable(p, a, c)
        and incomparable(p, a, d)
        and incomparable(p, b, c)
        and incomparable(p, b, d)
        for (a, b) in pairs
        for (c, d) in pairs
    )
    return PosetClass(
        is_31_free=not has_31, is_22_free=not has_22, is_3_free=not chains3
    )


def same_or_incomparable(p, a, b):
    """The reflexive incomparability relation used by inversion counting."""
    return not p.less(a, b) and not p.less(b, a)


def incomparability_graph(p):
    """Edges {i, j} with i < j as integers, sorted."""
    return tuple(
        (a, b)
        for a in range(1, p.n + 1)
        for b in _bits(p._inc[a])
        if a < b
    )


def inc_components(p):
    """Connected components of the incomparability graph, as sorted tuples."""
    seen = set()
    comps = []
    for start in range(1, p.n + 1):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in _bits(p._inc[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def inc_is_connected(p):
    return len(inc_components(p)) <= 1


def max_chain_length(p):
    """Number of elements in a longest chain (longest path in the order DAG)."""
    if p.n == 0:
        return 0
    depth = {}

    def rec(v):
        if v in depth:
            return depth[v]
        best = 1
        for w in _bits(p._up[v]):
            best = max(best, 1 + rec(w))
        depth[v] = best
        return best

    return max(rec(v) for v in range(1, p.n + 1))


def _chain_partition_feasible(p, sizes):
    """Can the elements be split into disjoint chains with these sizes?

    Backtracking on the smallest unused element: enumerate every chain of the
    requested size through it.  Memoized on (used-mask, remaining sizes).
    """
    n = p.n

    @functools.lru_cache(maxsize=None)
    def chains_through(e, size, avail_mask):
        """All chains (as masks) of `size` elements containing e, within avail."""
        if size == 1:
            return (1 << e,)
        out = []
        comparables = (p._up[e] | p._down[e]) & avail_mask
        seen = set()
        for f in _bits(comparables):
            for sub in chains_through(f, size - 1, avail_mask & ~(1 << e)):
                mask = sub | (1 << e)
                if mask in seen:
                    continue
                if _mask_is_chain(p, mask):
                    seen.add(mask)
                    out.append(mask)
        return tuple(out)

    full = (1 << (n + 1)) - 2

    @functools.lru_cache(maxsize=None)
    def solve(used, sizes_left):
        if not sizes_left:
            return used == full
        rest = full & ~used
        e = (rest & -rest).bit_length() - 1
        tried = set()
        for idx, s in enumerate(sizes_left):
            if s in tried:
                continue
            tried.add(s)
            nxt = sizes_left[:idx] + sizes_left[idx + 1 :]
            for mask in chains_through(e, s, rest):
                if solve(used | mask, nxt):
                    return True
        return False

    return solve(0, tuple(sorted(sizes, reverse=True)))


def _mask_is_chain(p, mask):
    elems = list(_bits(mask))
    return all(
        p.less(a, b) or p.less(b, a)
        for a, b in itertools.combinations(elems, 2)
    )


def greedy_partition_by_search(p):
    """The dominance-maximum chain-size partition by exhaustive search: the
    reference for the greedy chain peel in ``csflab.posets.greedy_partition``.

    Candidate shapes are scanned from the dominant end (reverse-lex refines
    dominance), so the first feasible chain-size partition is the maximum.
    """
    if p.n == 0:
        return ()
    for nu in partitions(p.n):
        if _chain_partition_feasible(p, nu):
            return nu
    raise AssertionError("singleton chains always work")  # pragma: no cover


def injective_chain_shapes(p):
    """All partitions (of any size <= n) realizable as disjoint chain sizes."""
    out = []
    for k in range(p.n + 1):
        for nu in partitions(k):
            padded = tuple(nu) + (1,) * (p.n - k)
            if _chain_partition_feasible(p, padded):
                out.append(nu)
    return out


# ---------------------------------------------------------------------------
# tableaux: validity, inversion sums, ladder swaps, second routes
# ---------------------------------------------------------------------------

def text_to_rows(text):
    """The row layout of the package's text form, e.g. "1,2,4/3,5/6"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(
        tuple(int(tok) for tok in part.split(",")) for part in text.split("/")
    )


def text_to_tableau(text):
    """The column layout of a tableau in the package's text form."""
    return rows_to_cols(text_to_rows(text))


def inv_sum_by_monomials(p, tableaux):
    """Sum of q^inv added one monomial per tableau, as a coefficient tuple:
    the reference for ``csflab.tableaux.inv_sum``."""
    total = []
    for t in tableaux:
        int_poly_add(total, (1,), 1, inv_p(p, t))
    return coeff_tuple(total)


def col_heights(cols):
    return tuple(len(c) for c in cols)


def shape_from_cols(cols):
    """Row-shape partition of a column layout (heights must be weakly decreasing)."""
    h = col_heights(cols)
    if any(h[i] < h[i + 1] for i in range(len(h) - 1)):
        raise ValueError(f"column heights not weakly decreasing: {h}")
    return conjugate(h)


def is_p_array(p, cols):
    """Columns are chains, increasing downward."""
    return all(
        p.less(c[i], c[i + 1]) for c in cols for i in range(len(c) - 1)
    )


def is_p_tableau(p, cols):
    """A column-increasing array whose rows never step strictly down in P."""
    if not is_p_array(p, cols):
        return False
    for j in range(len(cols) - 1):
        a, b = cols[j], cols[j + 1]
        for i in range(min(len(a), len(b))):
            if p.less(b[i], a[i]):  # left entry strictly above right one
                return False
    return True


def eval_q(p, w):
    """q^inv for words that use every element exactly once; zero otherwise."""
    if sorted(w) != list(range(1, p.n + 1)):
        return ()
    return monomial(inv_word(p, w))


def eval_q_partial(p, w):
    """q^inv for repeat-free words; zero when any entry repeats."""
    if len(set(w)) != len(w):
        return ()
    return monomial(inv_word(p, w))


def _sort_chain(p, values):
    vals = list(values)
    depth = {v: sum(1 for u in vals if p.less(u, v)) for v in vals}
    return tuple(sorted(vals, key=depth.__getitem__))


def ladder_swap(p, cols, ladder):
    """Exchange the two sides of an unbalanced ladder between its columns.

    The element counts of the two columns move one step toward the larger
    side's column; the result is validated as a column-increasing array.
    """
    if ladder.balance == "balanced":
        raise ValueError("refusing to swap a balanced ladder")
    i = ladder.column
    lvals = {v for _, v in ladder.left}
    rvals = {v for _, v in ladder.right}
    new_left = [v for v in cols[i - 1] if v not in lvals] + sorted(rvals)
    new_right = [v for v in cols[i] if v not in rvals] + sorted(lvals)
    new_cols = list(cols)
    new_cols[i - 1] = _sort_chain(p, new_left)
    new_cols[i] = _sort_chain(p, new_right)
    new_cols = tuple(new_cols)
    if not is_p_array(p, new_cols):
        raise AssertionError("ladder swap produced a non-chain column")
    old_h, new_h = col_heights(cols), col_heights(new_cols)
    delta = 1 if ladder.balance == "right_unbalanced" else -1
    expected = list(old_h)
    expected[i - 1] += delta
    expected[i] -= delta
    if list(new_h) != expected:
        raise AssertionError(
            f"swap changed shape {old_h} -> {new_h}, expected {tuple(expected)}"
        )
    return new_cols


def is_strong_by_matching(p, cols):
    """Independent check: each column injects into its left neighbor through
    incomparable partners (bipartite matching)."""
    for i in range(1, len(cols)):
        left, right = cols[i - 1], cols[i]
        match = {}

        def try_assign(ridx, seen):
            for lidx, lval in enumerate(left):
                if lidx in seen or not same_or_incomparable(p, right[ridx], lval):
                    continue
                seen.add(lidx)
                if match.get(lidx) is None or try_assign(match[lidx], seen):
                    match[lidx] = ridx
                    return True
            return False

        count = sum(1 for r in range(len(right)) if try_assign(r, set()))
        if count < len(right):
            return False
    return True


def _leftmost_rl_minimum(p, w):
    for i in range(len(w)):
        if all(p.less(w[i], w[j]) for j in range(i + 1, len(w))):
            return i
    raise AssertionError("the final position is always a minimum")


def tab_inverse(p, cols):
    """Unique row-shaped preimage under `tab`, or None when there is none.

    Peels the top row of the leading columns: the next array row always ends
    at the leftmost position of the current first row that sits below the
    whole remainder.  The candidate is validated wholesale at the end, so a
    failed reconstruction can only return None, never a wrong array.
    """
    original = tuple(tuple(c) for c in cols)
    work = [list(c) for c in original if c]
    rows = []
    while work:
        first_row = tuple(c[0] for c in work)
        cut = _leftmost_rl_minimum(p, first_row) + 1
        row = first_row[:cut]
        if not is_powersum_word(p, row):
            return None
        rows.append(row)
        for j in range(cut):
            work[j].pop(0)
        work = [c for c in work if c]
        work_heights = [len(c) for c in work]
        if any(
            work_heights[i] < work_heights[i + 1]
            for i in range(len(work_heights) - 1)
        ):
            return None
    rows = tuple(rows)
    if not is_powerful_array(p, rows):
        return None
    if rows_to_cols(rows) != original:
        return None
    return rows


# ---------------------------------------------------------------------------
# tableau and word kernels on P.less: the references for the bitmask kernels
# ---------------------------------------------------------------------------

def inv_word_by_pairs(p, w):
    """Pairs read in decreasing label order whose entries are incomparable."""
    return sum(
        1
        for s in range(len(w))
        for t in range(s + 1, len(w))
        if w[s] > w[t] and same_or_incomparable(p, w[s], w[t])
    )


def enumerate_standard_by_less(p, lam):
    """All tableaux of the given row shape using each of 1..n once.

    Cells are filled along the column word (leftmost column bottom-to-top
    first) trying small values first, so the output is sorted by column word.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return [()]
    heights = conjugate(lam)
    ncols = lam[0]
    cells = [
        (j, i) for j in range(ncols) for i in range(heights[j] - 1, -1, -1)
    ]
    grid = [[None] * heights[j] for j in range(ncols)]
    used = [False] * (p.n + 1)
    out = []

    def place(idx):
        if idx == len(cells):
            out.append(tuple(tuple(c) for c in grid))
            return
        j, i = cells[idx]
        below = grid[j][i + 1] if i + 1 < heights[j] else None
        left = grid[j - 1][i] if j else None
        for v in range(1, p.n + 1):
            if used[v]:
                continue
            if below is not None and not p.less(v, below):
                continue
            if left is not None and p.less(v, left):
                continue
            used[v] = True
            grid[j][i] = v
            place(idx + 1)
            used[v] = False
        grid[j][i] = None

    place(0)
    return out


@dataclass(frozen=True)
class Ladder:
    """One incomparability component across an adjacent column pair."""

    column: int  # 1-based index of the left column
    left: tuple  # ((row, value), ...) in the left column, rows 1-based
    right: tuple
    balance: str  # "balanced" | "left_unbalanced" | "right_unbalanced"


def ladders(p, cols, i):
    """Incomparability components between columns i and i+1 (1-based)."""
    if not (1 <= i < len(cols)):
        raise ValueError(f"no column pair at {i} in shape {col_heights(cols)}")
    left = [(r + 1, v) for r, v in enumerate(cols[i - 1])]
    right = [(r + 1, v) for r, v in enumerate(cols[i])]
    nodes = [("L", rv) for rv in left] + [("R", rv) for rv in right]
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lnode in left:
        for rnode in right:
            if incomparable(p, lnode[1], rnode[1]):
                ra, rb = find(("L", lnode)), find(("R", rnode))
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for node in nodes:
        groups.setdefault(find(node), []).append(node)
    out = []
    for members in groups.values():
        lpart = tuple(sorted(rv for side, rv in members if side == "L"))
        rpart = tuple(sorted(rv for side, rv in members if side == "R"))
        if len(lpart) == len(rpart):
            bal = "balanced"
        elif len(lpart) > len(rpart):
            bal = "left_unbalanced"
        else:
            bal = "right_unbalanced"
        out.append(Ladder(column=i, left=lpart, right=rpart, balance=bal))
    out.sort(key=lambda k: min(k.left + k.right))
    return out


def _reach(inc, mask):
    """Every element incomparable to some element of the mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= inc[low.bit_length() - 1]
    return out


def pair_strong_by_growth(inc, left_col, right_col):
    """The ladder search that ``tableaux._pair_test`` replaced: grow each
    ladder (a component of the incomparability graph between two columns,
    as masks) from a seed in the right column, and ask that none holds more
    right entries than left.  It reads only the masks, so it holds on any
    poset."""
    rest = right_col
    while rest:
        right = grow = rest & -rest
        left = 0
        while grow:
            new_left = _reach(inc, grow) & left_col & ~left
            left |= new_left
            grow = _reach(inc, new_left) & rest & ~right
            right |= grow
        if right.bit_count() > left.bit_count():
            return False
        rest &= ~right
    return True


def is_strong_by_ladders(p, cols):
    """No adjacent column pair carries a right-unbalanced ladder."""
    return not any(
        lad.balance == "right_unbalanced"
        for i in range(1, len(cols))
        for lad in ladders(p, cols, i)
    )


def is_powersum_word_by_less(p, w):
    """No adjacent step down in P, and no position other than the last that
    sits below everything to its right."""
    for i in range(len(w) - 1):
        if p.less(w[i + 1], w[i]):
            return False
    for i in range(len(w) - 1):
        if all(p.less(w[i], w[j]) for j in range(i + 1, len(w))):
            return False
    return True


def powersum_words_by_filter(p, letters, length):
    """The orderings of ``length`` of the given letters that pass
    ``is_powersum_word``, in lexicographic order: the permutation filter
    that the DFS kernel behind ``structural.powersum_words`` and
    ``complemented_set`` replaced."""
    return [
        w for w in itertools.permutations(sorted(letters), length)
        if is_powersum_word(p, w)
    ]


def enumerate_powerful_arrays_by_less(p, lam):
    """All row-shaped powerful arrays using 1..n once, over every ordering
    of lam's parts.  Returned as (row_shape, rows) pairs."""
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return [((), ())]
    out = []
    for alpha in compositions_with_sort(lam):
        rows = []
        used = [False] * (p.n + 1)

        def fill_row(ridx, pos, row):
            target = alpha[ridx]
            if pos == target:
                if not is_powersum_word_by_less(p, row):
                    return
                rows.append(tuple(row))
                if ridx + 1 == len(alpha):
                    out.append((alpha, tuple(rows)))
                else:
                    fill_row(ridx + 1, 0, [])
                rows.pop()
                return
            for v in range(1, p.n + 1):
                if used[v]:
                    continue
                if pos and p.less(v, row[pos - 1]):
                    continue  # a step down in P inside the row
                ok = True
                for r in range(ridx):
                    prev = rows[r]
                    anchor = prev[pos] if len(prev) > pos else prev[-1]
                    if not p.less(anchor, v):
                        ok = False
                        break
                if not ok:
                    continue
                used[v] = True
                row.append(v)
                fill_row(ridx, pos + 1, row)
                row.pop()
                used[v] = False

        fill_row(0, 0, [])
    return out


# ---------------------------------------------------------------------------
# the nested-list kernels that the cell tables of csflab.tableaux replaced
# ---------------------------------------------------------------------------

def standard_classes_by_nested_grid(p, lam):
    """`standard_classes` over a grid of columns, each cell reading the
    cells below and to its left as ``grid[j][i + 1]`` and ``grid[j - 1][i]``,
    and testing each column pair by the ladder search `pair_strong_by_growth`."""
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return {0: 0}, {0: 0}
    down, hi, width = p._down, p._hi, p.n.bit_length()
    pair_strong = functools.lru_cache(maxsize=None)(
        functools.partial(pair_strong_by_growth, p._inc))
    heights = conjugate(lam)
    # (column, row, has a cell below, has a cell to the left) in fill order
    cells = [
        (j, i, i + 1 < heights[j], j > 0)
        for j in range(lam[0])
        for i in range(heights[j] - 1, -1, -1)
    ]
    last = len(cells) - 1
    grid = [[0] * height for height in heights]
    done = [0] * lam[0]  # the entries of each completed column, as a mask
    standard, strong = {}, {}

    def place(idx, free, inv, key, col, ok):
        j, i, below, left = cells[idx]
        cand = free
        if below:
            cand &= down[grid[j][i + 1]]
        if left:
            cand &= ~down[grid[j - 1][i]]
        column = grid[j]
        while cand:
            low = cand & -cand
            cand ^= low
            v = column[i] = low.bit_length() - 1
            now = inv + (hi[v] & ~free).bit_count()
            code = key << width | v
            if i:
                place(idx + 1, free ^ low, now, code, col | low, ok)
                continue
            full = col | low
            pair = ok and (not left or pair_strong(done[j - 1], full))
            if idx < last:
                done[j] = full
                place(idx + 1, free ^ low, now, code, 0, pair)
            else:
                standard[code] = now
                if pair:
                    strong[code] = now

    place(0, (1 << (p.n + 1)) - 2, 0, 0, 0, True)
    return standard, strong


def powerful_plan_by_rows(lam):
    """Each ordering alpha of lam's parts with its table need[r][pos]: the
    cells of later rows that must sit above row r's entry at pos (the same
    column, and every column from there on when pos is the row's last);
    and its image: the (r, pos) cells in the column word of `tab`'s result."""
    return tuple(
        (alpha, tuple(
            tuple(sum(max(0, part - pos) if pos + 1 == width else part > pos
                      for part in alpha[r + 1 :]) for pos in range(width))
            for r, width in enumerate(alpha)
        ), tuple((r, pos) for pos in range(max(alpha, default=0))
                 for r in reversed(range(len(alpha))) if alpha[r] > pos))
        for alpha in compositions_with_sort(lam)
    )


def fill_powerful_by_rows(p, lam, leaf):
    """The powerful fill one row at a time: ``leaf(alpha, rows, image)`` on
    every row-shaped powerful array, with a new closure, anchor list and
    row list for each row and every finished row copied into ``rows``;
    ``image`` comes from `powerful_plan_by_rows`."""
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    up, down = p._up, p._down
    full = (1 << (p.n + 1)) - 2

    def fill_row(alpha, need, image, rows, free):
        if len(rows) == len(alpha):
            leaf(alpha, rows, image)
            return
        width, wanted = alpha[len(rows)], need[len(rows)]
        anchored = [full] * width
        for prev in rows:
            for pos in range(width):
                anchored[pos] &= up[prev[pos] if pos < len(prev) else prev[-1]]
        row = [0] * width

        def fill(pos, free, allowed, pending):
            cand = free & allowed & anchored[pos]
            last = pos + 1 == width
            while cand:
                low = cand & -cand
                cand ^= low
                v = row[pos] = low.bit_length() - 1
                rest = free ^ low
                if (rest & up[v]).bit_count() < wanted[pos]:
                    continue
                if not last and rest & ~up[v]:  # else v sits below the rest of its row
                    fill(pos + 1, rest, ~down[v], (pending & down[v]) | low)
                elif last and not pending & down[v]:
                    rows.append(tuple(row))
                    fill_row(alpha, need, image, rows, rest)
                    rows.pop()

        fill(0, free, -1, 0)

    for alpha, need, image in powerful_plan_by_rows(lam):
        fill_row(alpha, need, image, [], full)


def powerful_arrays_by_rows(p, lam):
    """`enumerate_powerful_arrays` over `fill_powerful_by_rows`."""
    out = []
    fill_powerful_by_rows(p, lam, lambda alpha, rows, image: out.append((alpha, tuple(rows))))
    return out


def powerful_classes_by_rows(p, lam):
    """`powerful_classes` over `fill_powerful_by_rows`."""
    width, hi = p.n.bit_length(), p._hi
    images = {}

    def leaf(alpha, rows, image):
        key = seen = inv = 0
        for r, pos in image:
            v = rows[r][pos]
            key = key << width | v
            inv += (seen & hi[v]).bit_count()
            seen |= 1 << v
        images[key] = inv

    fill_powerful_by_rows(p, lam, leaf)
    return images


# ---------------------------------------------------------------------------
# insertion: classical tableaux and direct reachability
# ---------------------------------------------------------------------------

def enumerate_syt(lam):
    """Standard Young tableaux of a shape (via the chain order, under which
    the poset tableau conditions reduce to classical standardness)."""
    lam = check_partition(lam)
    n = sum(lam)
    chain = poset_from_hessenberg(tuple(range(n)))
    return enumerate_standard(chain, lam)


class ColorSequence(collections.namedtuple("ColorSequence", "b a")):
    """Run-length form (1^{b_0}, 0^{a_1}, 1^{b_1}, ..., 1^{b_l}, 0^{a_{l+1}})
    of the binary column sequence of a tableau at threshold r: b holds
    b[0..l], and a[0] holds a_1, ..., a[l] holds a_{l+1}."""

    __slots__ = ()

    @property
    def ell(self):
        return len(self.b) - 1

    def insertion_columns(self):
        """c_k = 1 + a_1 + ... + a_k + b_0 + ... + b_k for 0 <= k <= l."""
        return [1 + sum(self.a[:k]) + sum(self.b[: k + 1]) for k in range(self.ell + 1)]

    def weight(self, k):
        """Transition weight for the k-th admissible column, factored as
        (e, {j: x}): q^(a_1 + ... + a_k) times the product of [j]_q^x.

        The ratios are [A(i+1..k) + B(i..k)] / [A(i..k) + B(i..k)] for
        1 <= i <= k and [A(k+1..i) + B(k+1..i-1)] / [A(k+1..i) + B(k+1..i)]
        for k < i <= l, with A and B the run sums; [1]_q factors and zero
        exponents are dropped, and a [0]_q numerator stays (weight zero).
        """
        if not 0 <= k <= self.ell:
            raise ValueError(f"k={k} out of range; ell={self.ell}")
        a, b = self.a, self.b  # a[i - 1] holds a_i, b[i] holds b_i
        ratios = [(sum(a[i:k]) + sum(b[i : k + 1]), sum(a[i - 1 : k]) + sum(b[i : k + 1]))
                  for i in range(1, k + 1)]
        ratios += [(sum(a[k:i]) + sum(b[k + 1 : i]), sum(a[k:i]) + sum(b[k + 1 : i + 1]))
                   for i in range(k + 1, self.ell + 1)]
        factors = {}
        for num, den in ratios:
            if not den:
                raise AssertionError("zero denominator in transition weight")
            factors[num] = factors.get(num, 0) + 1
            factors[den] = factors.get(den, 0) - 1
        return sum(a[:k]), {j: x for j, x in factors.items() if x and j != 1}


def delta(cols, r):
    """Column sequence of length n+1: a one marks a column whose largest
    entry exceeds r, absent columns count as zeros."""
    seq = [int(i < len(cols) and bool(cols[i]) and cols[i][-1] > r)
           for i in range(tableau_size(cols) + 1)]
    runs = [len(list(run)) for _, run in itertools.groupby(seq)]
    if seq[0] == 0:
        runs.insert(0, 0)  # b_0 = 0: the sequence opens with zeros
    # the sequence always ends on a zero (column n+1 is absent), so the
    # runs alternate b_0, a_1, b_1, ..., b_l, a_{l+1}
    return ColorSequence(tuple(runs[0::2]), tuple(runs[1::2]))


def insert(cols, r, k):
    """Grow the tableau by n+1 at the bottom of its k-th admissible column."""
    cs = delta(cols, r)
    columns = cs.insertion_columns()
    if not 0 <= k < len(columns):
        raise ValueError(f"k={k} out of range; {len(columns)} insertion columns")
    c = columns[k]
    v = tableau_size(cols) + 1
    if c <= len(cols):
        out = list(cols)
        out[c - 1] = out[c - 1] + (v,)
    else:
        if c != len(cols) + 1:
            raise AssertionError(f"insertion column {c} skips an empty column")
        out = list(cols) + [(v,)]
    heights = [len(col) for col in out]
    if any(heights[i] < heights[i + 1] for i in range(len(heights) - 1)):
        raise AssertionError("insertion broke the partition shape")
    return tuple(out)


def color_sequence(cs):
    """The binary column sequence that a ColorSequence run-length encodes."""
    out = [1] * cs.b[0]
    for i in range(len(cs.a)):
        out.extend([0] * cs.a[i])
        if i + 1 < len(cs.b):
            out.extend([1] * cs.b[i + 1])
    return tuple(out)


def strip_max(cols):
    """Remove the largest entry; returns (smaller tableau, its column)."""
    n = tableau_size(cols)
    for j, c in enumerate(cols):
        if c and c[-1] == n:
            shrunk = c[:-1]
            if shrunk:
                out = cols[:j] + (shrunk,) + cols[j + 1 :]
            else:
                if j != len(cols) - 1:
                    raise ValueError("largest entry is not at a corner")
                out = cols[:j]
            return out, j + 1
    raise ValueError("largest entry is not at the bottom of a column")


def walk_by_stripping(m, cols):
    """Factored weight (e, {j: x}) of the insertion path that grows
    ``cols`` under ``m``, found by stripping the largest entry step by
    step; None when some step lands in a column the sequence does not
    admit."""
    if not cols:
        return 0, {}
    n = tableau_size(cols)
    smaller, col = strip_max(cols)
    cs = delta(smaller, m[n - 1])
    columns = cs.insertion_columns()
    if col not in columns:
        return None
    e, factors = cs.weight(columns.index(col))
    rest = walk_by_stripping(m[: n - 1], smaller)
    if rest is None:
        return None
    net = dict(rest[1])
    for j, x in factors.items():
        net[j] = net.get(j, 0) + x
    return rest[0] + e, {j: x for j, x in net.items() if x}


def is_reachable(m, cols):
    """Direct test against the insertion conditions, entry by entry:
    the cell above the new entry must lie at or below the threshold, and the
    column to its left must already reach above the threshold."""
    m = check_hessenberg(m)
    cols = tuple(tuple(c) for c in cols)
    if tableau_size(cols) != len(m):
        raise ValueError("tableau size does not match the function's domain")
    while cols:
        n = tableau_size(cols)
        if not is_syt(cols):
            return False
        r = m[n - 1]
        smaller, col = strip_max(cols)
        height = len(cols[col - 1])
        if height > 1 and not cols[col - 1][height - 2] <= r:
            return False
        if col > 1 and not cols[col - 2][-1] > r:
            return False
        cols = smaller
    return True


def enumerate_hikita_by_pruning(m, lam):
    """All standard Young tableaux of the shape reachable under m,
    grown by insertion with pruning to the target shape."""
    m = check_hessenberg(m)
    lam = check_partition(lam)
    if sum(lam) != len(m):
        raise ValueError(f"shape {lam} does not match domain size {len(m)}")
    target_heights = conjugate(lam)
    ncols = lam[0] if lam else 0
    current = {()}
    for t in range(1, len(m) + 1):
        r = m[t - 1]
        grown = set()
        for s in current:
            for k in range(delta(s, r).ell + 1):
                bigger = insert(s, r, k)
                if len(bigger) > ncols:
                    continue
                if any(len(bigger[j]) > target_heights[j] for j in range(len(bigger))):
                    continue
                grown.add(bigger)
        current = grown
    return sorted(current, key=colword)


@functools.lru_cache(maxsize=None)
def grown_by_recursion(m):
    """Each tableau reachable under m -> the factored weight (e, {j: x}) of
    its one insertion path (read-only: the cache hands out the same dicts)."""
    if not m:
        return {(): (0, {})}
    out = {}
    for smaller, (e0, net0) in grown_by_recursion(m[:-1]).items():
        for cols, (e, factors) in _steps(smaller, m[-1]):
            net = dict(net0)
            for j, x in factors.items():
                net[j] = net.get(j, 0) + x
            out[cols] = e0 + e, {j: x for j, x in net.items() if x}
    return out


def phi(cols, r, k):
    """Transition weight for the k-th admissible column, a rational function
    built from q-integers of run sums."""
    cs = delta(cols, r)
    ell = cs.ell
    if not 0 <= k <= ell:
        raise ValueError(f"k={k} out of range; ell={ell}")
    a = lambda i: cs.a[i - 1]  # noqa: E731 - a_1..a_{l+1}
    b = lambda i: cs.b[i]  # noqa: E731 - b_0..b_l
    result = QRat(monomial(sum(a(i) for i in range(1, k + 1))))
    for i in range(1, k + 1):
        num = q_int(sum(a(j) for j in range(i + 1, k + 1)) + sum(b(j) for j in range(i, k + 1)))
        den = q_int(sum(a(j) for j in range(i, k + 1)) + sum(b(j) for j in range(i, k + 1)))
        if not den:
            raise AssertionError("zero denominator in transition weight")
        result = rat_mul(result, QRat(num, den))
    for i in range(k + 1, ell + 1):
        num = q_int(sum(a(j) for j in range(k + 1, i + 1)) + sum(b(j) for j in range(k + 1, i)))
        den = q_int(sum(a(j) for j in range(k + 1, i + 1)) + sum(b(j) for j in range(k + 1, i + 1)))
        if not den:
            raise AssertionError("zero denominator in transition weight")
        result = rat_mul(result, QRat(num, den))
    return result


def phi_tilde(cols, r, k):
    """Monomial part of the transition weight, q^(a_1 + ... + a_k)."""
    cs = delta(cols, r)
    if not 0 <= k <= cs.ell:
        raise ValueError(f"k={k} out of range; ell={cs.ell}")
    return monomial(sum(cs.a[:k]))


def path_weights(m, cols):
    """(prob, zeta) as the products of ``phi`` and ``phi_tilde`` along the
    insertion path, one reduced QRat multiply per step; zero when a step
    lands in a column the sequence does not admit."""
    pr, z = QRat((1,)), (1,)
    while cols:
        n = tableau_size(cols)
        r = m[n - 1]
        smaller, col = strip_max(cols)
        columns = delta(smaller, r).insertion_columns()
        if col not in columns:
            return QRat(()), ()
        k = columns.index(col)
        pr = rat_mul(pr, phi(smaller, r, k))
        z = tuple(int_poly_mul(z, phi_tilde(smaller, r, k)))
        cols = smaller
    return pr, z


def factored_value(e, factors):
    """q^e times the product of [j]_q^x, by plain QRat arithmetic."""
    out = QRat(monomial(e))
    for j, x in factors.items():
        for _ in range(abs(x)):
            out = rat_mul(out, QRat(q_int(j)) if x > 0 else QRat((1,), q_int(j)))
    return out


# ---------------------------------------------------------------------------
# coloring route (from csf): the proper colorings of inc(P) that define X,
# by a dynamic program over chains and vertex by vertex
# ---------------------------------------------------------------------------

def coloring_counts(p):
    """Memoised ``counts(used, parts)``: the q^inv counts, as a coefficient
    list, of the proper colorings of inc(P) outside ``used`` by colour
    classes of the sizes ``parts`` in colour order, every vertex in ``used``
    having a smaller colour.  A colour class is a chain of P; placing a chain
    S adds one inversion for each u in S and each incomparable v > u in used.
    """
    n, up, hi = p.n, p._up, p._hi
    # chains[k]: (mask, the ``_hi`` masks of its elements) per k-chain
    chains = [[] for _ in range(n + 1)]

    def grow(mask, later, above):
        chains[len(later)].append((mask, later))
        for v in range(1, n + 1):
            if (above >> v) & 1:
                grow(mask | 1 << v, later + (hi[v],), up[v])

    grow(0, (), (1 << (n + 1)) - 2)
    memo = {}

    def counts(used, parts):
        if not parts:
            return [1]
        got = memo.get((used, parts))
        if got is None:
            got = []
            rest = parts[1:]
            for chain, later in chains[parts[0]]:
                if chain & used:
                    continue
                sub = counts(used | chain, rest)
                if not sub:
                    continue
                bump = 0
                for mask in later:
                    bump += (mask & used).bit_count()
                int_poly_add(got, sub, 1, bump)
            memo[used, parts] = got
        return got

    return counts


def monomial_by_colorings(p):
    """Monomial expansion from proper colorings of the incomparability
    graph: the second m-route for ``csflab.csf.csf_coloring_oracle``, which
    reads it off the e-expansion.  Defined on any poset, with a warning off
    the natural unit interval orders."""
    if p.n > SIZE_CAP:
        raise ValueError(f"n={p.n} exceeds the size cap {SIZE_CAP}")
    if p.n and p.m is None:
        warnings.warn(
            "q-weights of a poset that is not a natural unit interval order "
            "need not assemble into a symmetric function; only the q=1 "
            "specialization is reliable",
            stacklevel=2,
        )
    counts = coloring_counts(p)
    found = {lam: tuple(c) for lam in partitions(p.n) if (c := counts(0, lam))}
    return SymFunc._make(("m", p.n, found))


def e_expansion_by_colorings(p):
    """The second e-route: the coloring count's m-expansion peeled into the
    e basis.  Independent of the Hikita identity that the production
    e-expansion reads."""
    return to_elementary(monomial_by_colorings(p))


def coloring_weights_by_walk(p, content):
    """q-weight generating polynomial of the proper colorings of inc(P)
    where color i is used exactly content[i] times, as a coefficient tuple."""
    n = p.n
    if sum(content) != n:
        raise ValueError(f"content {content} does not use {n} cells")
    before = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        before[v] = [u for u in range(1, v) if incomparable(p, u, v)]
    counts = {}
    remaining = list(content)
    color = [0] * (n + 1)

    def walk(v, inv):
        if v > n:
            counts[inv] = counts.get(inv, 0) + 1
            return
        for c in range(len(remaining)):
            if not remaining[c]:
                continue
            bump = 0
            for u in before[v]:
                if color[u] == c:
                    break
                if color[u] > c:
                    bump += 1
            else:
                remaining[c] -= 1
                color[v] = c
                walk(v + 1, inv + bump)
                color[v] = 0
                remaining[c] += 1

    walk(1, 0)
    return tuple(counts.get(i, 0) for i in range(max(counts, default=-1) + 1))


def coloring_weights(p, content):
    """``coloring_weights_by_walk`` read off the dynamic program
    ``coloring_counts`` instead of walking every coloring."""
    if sum(content) != p.n:
        raise ValueError(f"content {content} does not use {p.n} cells")
    return tuple(coloring_counts(p)(0, tuple(content)))


# ---------------------------------------------------------------------------
# closed formulas (from csf)
# ---------------------------------------------------------------------------

def path_formula_by_compositions(n):
    """e-expansion of the chromatic function of the n-vertex path, summed over
    the compositions alpha of n (Shareshian and Wachs): each adds
    [alpha_last]_q * q^(len - 1) * prod of the other [alpha_i - 1]_q to
    e_sort(alpha), for n >= 1.  The reference for ``csflab.csf.path_formula``."""
    coeffs = {}
    for alpha in compositions(n):
        term = [0] * (len(alpha) - 1) + [1] * alpha[-1]
        for part in alpha[:-1]:
            term = int_poly_mul(term, [1] * (part - 1))
        if term:
            int_poly_add(coeffs.setdefault(sort_desc(alpha), []), term)
    return SymFunc._make(("e", n, {key: tuple(c) for key, c in coeffs.items()}))


# ---------------------------------------------------------------------------
# chromatic function at q = 1 for any poset
# ---------------------------------------------------------------------------

def e_expansion_at_one(p):
    """e-expansion of the q=1 specialization; valid for any poset whose
    chromatic function is symmetric (in particular every (3+1)-free one)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mono = monomial_by_colorings(p)
    flat = {part: (sum(poly),) for part, poly in mono.coeffs.items()}
    return to_elementary(SymFunc("m", p.n, flat))


# ---------------------------------------------------------------------------
# basis changes (from csf): the P-tableau Schur sum, the Schur route into
# m, e_mu into m over subsets of the variables, and the m->e peel at
# rational points
# ---------------------------------------------------------------------------

def standard_inv_counts(p, lam):
    """Sum of q^inv over the tableaux of `enumerate_standard`, as an integer
    coefficient list without trailing zeros."""
    counts = [0] * (p.n * (p.n - 1) // 2 + 1)
    for inv in standard_classes(p, lam)[0].values():
        counts[inv] += 1
    while counts and not counts[-1]:
        counts.pop()
    return counts


def schur_by_p_tableaux(p):
    """The Schur expansion that ``csf_schur`` reads off the e-expansion,
    summed the Shareshian-Wachs / Gasharov way: the coefficient of s_lam
    sums q^inv over the P-tableaux of the conjugate shape.  Defined on any
    poset; its q-values are only established on natural unit interval
    orders."""
    coeffs = {}
    for lam in partitions(p.n):
        counts = standard_inv_counts(p, conjugate(lam))
        if counts:
            coeffs[lam] = counts
    return SymFunc("s", p.n, coeffs)


@functools.lru_cache(maxsize=None)
def kostka(lam, mu):
    """Number of semistandard tableaux of shape lam and content mu."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        return 0
    rows = len(lam)
    avail = list(mu)

    def fill(r, c, row_prev, row_above):
        if r == rows:
            return 1
        if c == lam[r]:
            return fill(r + 1, 0, [], row_prev)
        lo = row_prev[c - 1] if c else 1
        total = 0
        for v in range(lo, len(mu) + 1):
            if not avail[v - 1]:
                continue
            if row_above is not None and c < len(row_above) and v <= row_above[c]:
                continue
            avail[v - 1] -= 1
            row_prev.append(v)
            total += fill(r, c + 1, row_prev, row_above)
            row_prev.pop()
            avail[v - 1] += 1
        return total

    return fill(0, 0, [], None)


def s_to_m(lam, n):
    """Monomial expansion of a Schur function in n variables."""
    lam = check_partition(lam)
    out = {}
    for mu in partitions(sum(lam)):
        if len(mu) > n:
            continue
        k = kostka(lam, mu)
        if k:
            out[mu] = k
    return out


def schur_to_monomial(f):
    """The monomial expansion of a function given in the Schur basis, so
    that ``to_elementary`` can take the Schur route's output."""
    if f.basis != "s":
        raise ValueError(f"expected the s basis, got {f.basis!r}")
    coeffs = {}
    for part, poly in f.coeffs.items():
        for mu, c in s_to_m(part, f.n).items():
            coeffs[mu] = int_poly_add(coeffs.get(mu, []), poly, c)
    return SymFunc("m", f.n, {mu: coeff_tuple(poly) for mu, poly in coeffs.items()})


@functools.lru_cache(maxsize=None)
def mult_table_e(d, k, n):
    """For each partition nu of d+k, the subsets S of the n variable slots
    such that nu - 1_S is a partition of d, grouped as {nu: [mu, ...]}."""
    out = {}
    for nu in partitions(d + k, max_part=None):
        if len(nu) > n:
            continue
        padded = nu + (0,) * (n - len(nu))
        hits = []
        for sub in itertools.combinations(range(n), k):
            vec = list(padded)
            ok = True
            for pos in sub:
                vec[pos] -= 1
                if vec[pos] < 0:
                    ok = False
                    break
            if ok:
                hits.append(tuple(sorted((x for x in vec if x), reverse=True)))
        out[nu] = tuple(hits)
    return out


def e_to_m_by_subsets(mu, n):
    """Monomial expansion of e_mu in n variables, as {partition: integer},
    multiplied out one e_k at a time over the subsets of ``mult_table_e``:
    the reference for the Kostka product in ``csflab.csf.e_to_m``."""
    mu = check_partition(mu)
    if mu and mu[0] > n:
        return {}
    table = {(): 1}
    d = 0
    for k in mu:
        table_next = {}
        for nu, sources in mult_table_e(d, k, n).items():
            total = 0
            for src in sources:
                total += table.get(src, 0)
            if total:
                table_next[nu] = total
        table = table_next
        d += k
    return table


def to_elementary_by_qpoly(f):
    """The m->e peel on exact values: the reference for the integer peel in
    ``csflab.csf.to_elementary``.  The change of basis is linear with
    integer entries, so it peels the Fraction value of every coefficient at
    deg + 1 rational points and interpolates each e-coefficient back."""
    if f.basis != "m":
        raise ValueError(f"expected the m basis, got {f.basis!r}")
    points = range(max(map(len, f.coeffs.values()), default=0))
    peeled = []
    for x in points:
        residual = {lam: poly_eval(poly, x) for lam, poly in f.coeffs.items()}
        out = {}
        for lam in partitions(f.n):
            c = residual.pop(lam, 0)
            out[conjugate(lam)] = c
            for mu, t in e_to_m(conjugate(lam), f.n).items():
                if mu != lam:
                    residual[mu] = residual.get(mu, 0) - c * t
        if any(residual.values()):
            raise ArithmeticError(
                f"input is not a nonneg-span symmetric function; residue at {sorted(residual)}"
            )
        peeled.append(out)
    coeffs = {lam: interpolate(points, [out[lam] for out in peeled])
              for lam in map(conjugate, partitions(f.n))}
    return SymFunc("e", f.n, {lam: poly for lam, poly in coeffs.items() if poly})


def symfunc_from_json(data):
    """The SymFunc of a ``SymFunc.to_json_dict`` document; the constructor
    checks it and parses "p/q" coefficients."""
    coeffs = {tuple(item["partition"]): item["poly"] for item in data["coeffs"]}
    return SymFunc(data["basis"], data["n"], coeffs)


# ---------------------------------------------------------------------------
# structural: concatenation, gluing image, peak vectors, extension
# ---------------------------------------------------------------------------

def concat(s_cols, t_cols):
    """Columns of the first array followed by the columns of the second.

    No validity checking happens here: concatenation is used both on
    tableaux (partition column shapes) and on ragged arrays, and the caller
    decides which predicate the result must satisfy.
    """
    return tuple(tuple(c) for c in s_cols) + tuple(tuple(c) for c in t_cols)


def _nonadjacent_subsets(indices):
    subsets = [()]
    for i in indices:
        subsets += [s + (i,) for s in subsets if not s or s[-1] != i - 1]
    return subsets


def greedy_shapes_by_trial(m):
    """Every shape the greedy displacement family produces for this poset,
    by trying each nonadjacent cut set with every weight up to the row it
    shrinks and dropping the displacements that are no partition: the
    reference for ``csflab.harness._greedy_shapes``."""
    p = poset_from_hessenberg(m)
    base = greedy_partition(p)
    shapes = set()
    for cuts in _nonadjacent_subsets(range(1, len(base) + 1)):
        ranges = [range(1, base[i - 1] + 1) for i in cuts]
        for ks in itertools.product(*ranges):
            try:
                shapes.add(greedy_shape_family(p, cuts, dict(zip(cuts, ks))))
            except ValueError:
                continue
    return frozenset(shapes)


@dataclass(frozen=True)
class FactorPair:
    """A 2-letter and a (k-2)-letter powersum word, kept in order."""

    a: tuple
    b: tuple

    def __iter__(self):
        return iter((self.a, self.b))


def factorize(p, w):
    """Split a powersum word of length k > 2 into a 2 + (k-2) pair.

    The split swaps only comparable adjacent letters, so the inversion count
    of the concatenated pair matches the input; that and the powersum-ness of
    both halves are re-checked on every call.
    """
    w = tuple(w)
    if len(w) <= 2:
        raise ValueError(f"need at least 3 letters, got {len(w)}")
    if not is_powersum_word(p, w):
        raise ValueError(f"not a powersum word: {w!r}")
    r = r_index(p, w)

    if r == 1:
        a, b = w[:2], w[2:]
    elif p.less(w[r - 2], w[r]):
        a, b = (w[r - 1], w[r]), w[: r - 1] + w[r + 1 :]
    elif incomparable(p, w[r - 2], w[r]):
        if any(not p.less(w[r - 2], w[j]) for j in range(r + 1, len(w))):
            a, b = (w[r], w[r - 1]), w[: r - 1] + w[r + 1 :]
        else:
            if r != 2:
                raise RuntimeError(
                    f"blocked split should only happen at position 2, got {r}"
                )
            a, b = (w[2], w[0]), (w[1],) + w[3:]
    else:
        raise RuntimeError(
            f"letter below its second-left neighbour in powersum word {w!r}"
        )

    if not is_powersum_word(p, a) or not is_powersum_word(p, b):
        raise RuntimeError(f"split of {w!r} produced a non-powersum half")
    if inv_word(p, a + b) != inv_word(p, w):
        raise RuntimeError(f"split of {w!r} changed the inversion count")
    return FactorPair(a, b)


def complement_of_factorization_image(p, k):
    """Disjoint-support (2, k-2) powersum word pairs that no length-k
    powersum word factorizes into, as plain ``(a, b)`` tuples.

    The literal set complement of the factorization image: the reference
    for ``structural.complemented_set``, which reads the same pairs off the
    relation patterns.
    """
    universe = set()
    tails = powersum_words(p, k - 2)
    for a in powersum_words(p, 2):
        sa = set(a)
        for b in tails:
            if sa.isdisjoint(b):
                universe.add(FactorPair(a, tuple(b)))

    image = {factorize(p, w) for w in powersum_words(p, k)}
    return {(fp.a, fp.b) for fp in universe - image}


def missed_pattern_by_less(p, a, b):
    """``structural._missed_pattern`` letter by letter through ``p.less``
    and ``incomparable``: the relation pattern 1, 2, 4 or 5 that the
    pair (a, b) matches, or 0."""
    r = next(i + 1 for i in range(len(b) - 1) if incomparable(p, b[i], b[i + 1]))
    below_all = all(p.less(a[1], x) for x in b)
    tail_up = all(p.less(a[0], b[j]) for j in range(1, len(b)))
    hits = []
    if below_all and p.less(a[0], b[0]):
        hits.append(1)
    if below_all and incomparable(p, a[0], b[0]) and tail_up:
        hits.append(2)
    if p.less(b[r - 1], a[0]) and p.less(b[r - 1], a[1]) and p.less(b[r], a[1]):
        hits.append(4)
    if incomparable(p, b[r - 1], a[0]) and p.less(b[r - 1], a[1]) and p.less(b[r], a[0]):
        hits.append(5)
    if len(hits) > 1:
        raise RuntimeError(f"patterns {hits} overlap on pair ({a!r}, {b!r})")
    return hits[0] if hits else 0


def in_mult_image(p, cols):
    """Whether a powerful (k-2, 2) tableau is glued from some missed pair.

    Decided from the tableau's unique row-shaped preimage alone, with no
    reference to the gluing map — an independent route used to cross-check
    the image computed by ``K_set``.
    """
    rows = tab_inverse(p, cols)
    if rows is None:
        raise ValueError("not a powerful tableau")
    lengths = tuple(len(r) for r in rows)
    if len(lengths) != 2 or sorted(lengths) != [2, sum(lengths) - 2]:
        raise ValueError(f"expected two rows of sizes (k-2, 2), got {lengths}")
    if lengths[0] == 2:
        return True
    v, w = rows
    r = r_index(p, v)
    if r == 1:
        return True
    if p.less(v[r - 1], w[0]) and p.less(v[r - 1], w[1]) and p.less(v[r], w[1]):
        return True
    return (
        incomparable(p, v[r - 1], w[0])
        and p.less(v[r - 1], w[1])
        and p.less(v[r], w[0])
    )


def _path_poset(n):
    return poset_from_hessenberg(path_hessenberg(n))


def peak(rows, p=None):
    """Positions of each row's maximum in a bijective powerful path array."""
    rows = tuple(tuple(r) for r in rows)
    n = sum(len(r) for r in rows)
    if p is None:
        p = _path_poset(n)
    elif p.n != n or p.m != path_hessenberg(p.n):
        raise ValueError("rows must form an array over the path order")
    if sorted(x for r in rows for x in r) != list(range(1, n + 1)):
        raise ValueError("array is not bijective onto 1..n")
    if not is_powerful_array(p, rows):
        raise ValueError("not a powerful array")
    return tuple(r.index(max(r)) + 1 for r in rows)


def _peak_admissible(alpha, rvec):
    for i in range(1, len(alpha)):
        if rvec[i] == 1:
            if rvec[i - 1] == min(alpha[i], alpha[i - 1]):
                return False
        elif rvec[i - 1] == 1:
            return False
    return True


def _peak_rows(alpha, rvec):
    rows = []
    z = 0
    for size, r in zip(alpha, rvec):
        rows.append(
            tuple(range(z + 1, z + r)) + tuple(range(z + size, z + r - 1, -1))
        )
        z += size
    return tuple(rows)


def peak_inversions(alpha, rvec):
    """Closed-form inversion count of the array with the given peak vector.

    Row i contributes alpha_i - r_i inversions internally, plus one against
    the next row unless that row's maximum sits first and points left of it;
    the last row has no next row and contributes nothing extra.
    """
    total = 0
    last = len(alpha) - 1
    for i, (size, r) in enumerate(zip(alpha, rvec)):
        total += size - r
        if i < last and not (rvec[i + 1] == 1 and r < alpha[i + 1]):
            total += 1
    return total


def bpa_enumerate(n, alpha):
    """All bijective powerful arrays over the path order with given row sizes.

    Generates the admissible peak vectors directly and materializes each row
    as its forced consecutive block, ascending up to the peak and descending
    after it.
    """
    alpha = tuple(alpha)
    if not alpha or any(not isinstance(a, int) or a <= 0 for a in alpha):
        raise ValueError(f"row sizes must be positive integers: {alpha!r}")
    if sum(alpha) != n:
        raise ValueError(f"row sizes {alpha} do not total {n}")
    out = set()
    for rvec in itertools.product(*[range(1, a + 1) for a in alpha]):
        if _peak_admissible(alpha, rvec):
            out.add(_peak_rows(alpha, rvec))
    return out


def _chains(p, r):
    out = []
    for combo in itertools.combinations(range(1, p.n + 1), r):
        ordered = tuple(
            sorted(combo, key=lambda x: sum(1 for y in combo if p.less(y, x)))
        )
        if all(p.less(ordered[i], ordered[i + 1]) for i in range(r - 1)):
            out.append(ordered)
    return out


def maxchain_extend(p, lam, key_inner):
    """Prepend full-height chain columns to a family of inner tableaux.

    Valid only when the shape's length equals the longest chain of the
    poset; then the tableaux of shape ``lam`` whose first-column removal
    lands in ``key_inner`` are exactly the valid chain-prepends, and they
    inherit the inner family's coefficient property.
    """
    lam = check_partition(lam)
    r = len(lam)
    if r != max_chain_length(p):
        raise ValueError(
            f"shape length {r} must equal the longest chain {max_chain_length(p)}"
        )
    inner = [tuple(tuple(c) for c in t) for t in key_inner]
    want = conjugate(remove_first_column(lam))
    for t in inner:
        if tuple(len(c) for c in t) != want:
            raise ValueError(f"inner tableau has column heights "
                             f"{tuple(len(c) for c in t)}, expected {want}")
    out = set()
    for column in _chains(p, r):
        taken = set(column)
        for t in inner:
            if any(taken.intersection(c) for c in t):
                continue
            cand = (column,) + t
            if is_p_tableau(p, cand):
                out.add(cand)
    return out


def m_product_coeffs(mu, nu):
    """Structure coefficients of a product of two monomial symmetric functions.

    Returns {partition: coefficient} over partitions of |mu| + |nu|, computed
    by counting exponent-vector pairs in as many variables as the two lengths
    combined (enough for every partition that can appear).  The coefficient
    of the componentwise sum is always 1, and every partition appearing is
    dominated by that sum.
    """
    mu, nu = check_partition(mu), check_partition(nu)
    width = len(mu) + len(nu)
    if width == 0:
        return {(): 1}
    vecs_mu = set(itertools.permutations(mu + (0,) * (width - len(mu))))
    vecs_nu = set(itertools.permutations(nu + (0,) * (width - len(nu))))
    out = {}
    for eta in partitions(sum(mu) + sum(nu)):
        if len(eta) > width:
            continue
        target = eta + (0,) * (width - len(eta))
        count = 0
        for u in vecs_mu:
            w = tuple(t - x for t, x in zip(target, u))
            if all(c >= 0 for c in w) and w in vecs_nu:
                count += 1
        if count:
            out[eta] = count
    return out


def audit_cache(conjecture, n_max, cache_dir, fraction=0.1, seed=0):
    """Recompute a random sample of the units a result cache would replay
    and diff them against the stored reports (timing excluded).  Returns the list of mismatches; empty means the cache is
    faithful."""
    cache = _Cache(cache_dir, conjecture)
    cached = [
        Report(VerificationTask(conjecture, m, lam), *row)
        for m, shapes in tasks_for(conjecture, n_max)
        for lam, row in zip(shapes, cache.load(m, shapes) or ())
    ]
    rng = random.Random(seed)
    k = max(1, round(fraction * len(cached))) if cached else 0
    mismatches = []
    for hit in rng.sample(cached, k):
        row = evaluate_task(conjecture, hit.task.m, hit.task.lam)
        old, new = hit.to_json_dict(), Report(hit.task, *row).to_json_dict()
        old.pop("seconds"), new.pop("seconds")
        if old != new:
            mismatches.append({"cached": old, "recomputed": new})
    return mismatches
