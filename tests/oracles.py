"""Independent second routes that the tests check the library against.

Each function here is a reference: a direct transcription of a
definition, or a second construction from the paper that reaches a
quantity the library computes another way.  ``src/`` keeps one
production route per quantity; these stay in the tests so that the
agreement of the two routes is still checked.  The module has no
``test_`` prefix, so pytest imports it but does not collect it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from csflab.csf import SymFunc, csf_coloring_oracle, to_elementary
from csflab.hikita import _strip_max, delta, is_syt, tableau_size
from csflab.posets import (
    Poset,
    _bits,
    _chain_partition_feasible,
    check_hessenberg,
    natural_unit_m,
    path_hessenberg,
    poset_from_hessenberg,
)
from csflab.qcore import QPoly, QRat, check_partition, conjugate, partitions, q_int
from csflab.structural import r_index
from csflab.tableaux import (
    col_heights,
    enumerate_standard,
    inv_p,
    inv_word,
    is_powersum_word,
    is_powerful_array,
    rows_to_cols,
)


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


# ---------------------------------------------------------------------------
# posets: other constructions and brute-force invariants
# ---------------------------------------------------------------------------

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
    return Poset(n, rels)


@dataclass(frozen=True)
class PosetClass:
    is_31_free: bool
    is_22_free: bool
    is_3_free: bool


def classify(p):
    """Brute-force scan for induced 3-chain+point, 2+2, and 3-chain patterns."""
    chains3 = [
        (a, b, c)
        for a in p.elements()
        for b in _bits(p.above(a))
        for c in _bits(p.above(b))
    ]
    has_31 = any(
        d not in (a, b, c)
        and p.incomparable(d, a)
        and p.incomparable(d, b)
        and p.incomparable(d, c)
        for (a, b, c) in chains3
        for d in p.elements()
    )
    pairs = [(a, b) for a in p.elements() for b in _bits(p.above(a))]
    has_22 = any(
        len({a, b, c, d}) == 4
        and p.incomparable(a, c)
        and p.incomparable(a, d)
        and p.incomparable(b, c)
        and p.incomparable(b, d)
        for (a, b) in pairs
        for (c, d) in pairs
    )
    return PosetClass(
        is_31_free=not has_31, is_22_free=not has_22, is_3_free=not chains3
    )


def incomparability_graph(p):
    """Edges {i, j} with i < j as integers, sorted."""
    return tuple(
        (a, b)
        for a in p.elements()
        for b in _bits(p.incomparables(a))
        if a < b
    )


def inc_components(p):
    """Connected components of the incomparability graph, as sorted tuples."""
    seen = set()
    comps = []
    for start in p.elements():
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in _bits(p.incomparables(v)):
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
        for w in _bits(p.above(v)):
            best = max(best, 1 + rec(w))
        depth[v] = best
        return best

    return max(rec(v) for v in p.elements())


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

def inv_sum_by_monomials(p, tableaux):
    """Sum of q^inv added one monomial per tableau: the reference for
    ``csflab.tableaux.inv_sum``."""
    total = QPoly.zero()
    for t in tableaux:
        total = total + QPoly.monomial(inv_p(p, t))
    return total


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
        return QPoly.zero()
    return QPoly.monomial(inv_word(p, w))


def eval_q_partial(p, w):
    """q^inv for repeat-free words; zero when any entry repeats."""
    if len(set(w)) != len(w):
        return QPoly.zero()
    return QPoly.monomial(inv_word(p, w))


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
                if lidx in seen or not p.same_or_incomparable(right[ridx], lval):
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
# insertion: classical tableaux and direct reachability
# ---------------------------------------------------------------------------

def enumerate_syt(lam):
    """Standard Young tableaux of a shape (via the chain order, under which
    the poset tableau conditions reduce to classical standardness)."""
    lam = check_partition(lam)
    n = sum(lam)
    chain = poset_from_hessenberg(tuple(range(n)))
    return enumerate_standard(chain, lam)


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
        smaller, col = _strip_max(cols)
        height = len(cols[col - 1])
        if height > 1 and not cols[col - 1][height - 2] <= r:
            return False
        if col > 1 and not cols[col - 2][-1] > r:
            return False
        cols = smaller
    return True


def phi(cols, r, k):
    """Transition weight for the k-th admissible column, a rational function
    built from q-integers of run sums."""
    cs = delta(cols, r)
    ell = cs.ell
    if not 0 <= k <= ell:
        raise ValueError(f"k={k} out of range; ell={ell}")
    a = lambda i: cs.a[i - 1]  # noqa: E731 - a_1..a_{l+1}
    b = lambda i: cs.b[i]  # noqa: E731 - b_0..b_l
    result = QRat(QPoly.monomial(sum(a(i) for i in range(1, k + 1))))
    for i in range(1, k + 1):
        num = q_int(sum(a(j) for j in range(i + 1, k + 1)) + sum(b(j) for j in range(i, k + 1)))
        den = q_int(sum(a(j) for j in range(1, k + 1)) + sum(b(j) for j in range(i, k + 1)))
        if not den:
            raise AssertionError("zero denominator in transition weight")
        result = result * QRat(num, den)
    for i in range(k + 1, ell + 1):
        num = q_int(sum(a(j) for j in range(k + 1, i + 1)) + sum(b(j) for j in range(k + 1, i)))
        den = q_int(sum(a(j) for j in range(k + 1, i + 1)) + sum(b(j) for j in range(k + 1, i + 1)))
        if not den:
            raise AssertionError("zero denominator in transition weight")
        result = result * QRat(num, den)
    return result


def phi_tilde(cols, r, k):
    """Monomial part of the transition weight, q^(a_1 + ... + a_k)."""
    cs = delta(cols, r)
    if not 0 <= k <= cs.ell:
        raise ValueError(f"k={k} out of range; ell={cs.ell}")
    return QPoly.monomial(sum(cs.a[:k]))


def path_weights(m, cols):
    """(prob, zeta) as the products of ``phi`` and ``phi_tilde`` along the
    insertion path, one reduced QRat multiply per step; zero when a step
    lands in a column the sequence does not admit."""
    pr, z = QRat.one(), QPoly.one()
    while cols:
        n = tableau_size(cols)
        r = m[n - 1]
        smaller, col = _strip_max(cols)
        columns = delta(smaller, r).insertion_columns()
        if col not in columns:
            return QRat.zero(), QPoly.zero()
        k = columns.index(col)
        pr = pr * phi(smaller, r, k)
        z = z * phi_tilde(smaller, r, k)
        cols = smaller
    return pr, z


def factored_value(e, factors):
    """q^e times the product of [j]_q^x, by plain QRat arithmetic."""
    out = QRat(QPoly.monomial(e))
    for j, x in factors.items():
        for _ in range(abs(x)):
            out = out * q_int(j) if x > 0 else out / q_int(j)
    return out


# ---------------------------------------------------------------------------
# chromatic function at q = 1 for any poset
# ---------------------------------------------------------------------------

def e_expansion_at_one(p):
    """e-expansion of the q=1 specialization; valid for any poset whose
    chromatic function is symmetric (in particular every (3+1)-free one)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mono = csf_coloring_oracle(p)
    flat = {
        part: QPoly.const(poly.eval_at(1)) for part, poly in mono.coeffs.items()
    }
    return to_elementary(SymFunc("m", p.n, flat))


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
        p.incomparable(v[r - 1], w[0])
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
    elif p.n != n or natural_unit_m(p) != path_hessenberg(p.n):
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
    for combo in itertools.combinations(p.elements(), r):
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
