"""Insertion dynamics on standard Young tableaux driven by a reverse
Hessenberg function, with exact transition weights.

Tableaux here are classical standard Young tableaux in the same column
layout as `csflab.tableaux` (tuples of top-to-bottom columns): rows and
columns strictly increase.  A tableau of size n is grown by inserting
n+1 at the bottom of an admissible column; which columns are admissible,
and with what weight, is read off a binary column sequence.

``_steps`` is the one definition of a step: it reads the runs of the
sequence once and builds from them each admissible column and its weight,
q^(a_1 + ... + a_k) times a ratio of q-integers of run sums (Hikita,
arXiv:2410.12758), kept factored: a q-power and the net exponent of each
[j]_q.

The growth is shared across prefixes.  Every prefix of a Hessenberg vector
is one, and a tableau reachable under m is one insertion step from a
tableau reachable under m[:-1], so ``_grown(m)`` extends the growth of
m[:-1] by every admissible step (``_steps``, cached with its weight), adds
each step's weight to its parent's, and keeps only the latest vector's
prefixes.  The resulting map from each reachable tableau to the weight of
its path serves ``prob`` (the full product), ``zeta`` (the q-power alone)
and ``h`` (the q-integer part, prob/zeta); a tableau it lacks has
probability zero.  ``h_unreduced`` multiplies the q-integers out into an
integer numerator and denominator with no gcd (``qcore.q_int_product``,
once per factorization); ``prob`` and ``h`` build their reduced QRat from
that same pair of coefficient tuples, and ``zeta`` is a coefficient tuple.
``enumerate_hikita`` buckets the map by shape, in column-word order;
insertion only adds cells, so each bucket is what a growth pruned to its
shape returns.  ``e_coefficients_by_shape`` sums each bucket into the
elementary coefficients of the chromatic function through Hikita's
identity; ``csf.chromatic_e_expansion`` reads them.

The tests hold the second routes in ``tests/oracles.py``:
``enumerate_syt``, the entry-by-entry reachability test ``is_reachable``,
the step reference (``delta``'s run-length ``ColorSequence``, its
``insertion_columns`` and ``weight``, and ``insert``), the shape-pruned
growth ``enumerate_hikita_by_pruning``, the path weight
``walk_by_stripping`` found by removing the largest entry step by step,
and the unfactored per-step weights ``phi`` and ``phi_tilde``.
"""

from __future__ import annotations

import functools
import itertools

from .posets import check_hessenberg
from .qcore import QRat, check_partition, conjugate, int_poly_add, int_poly_divexact
from .qcore import q_factorial_factors, q_int_product
from .tableaux import colword


def tableau_size(cols):
    return sum(len(c) for c in cols)


def is_syt(cols):
    """Classical standardness: entries 1..n once, rows and columns increase."""
    n = tableau_size(cols)
    if sorted(v for c in cols for v in c) != list(range(1, n + 1)) or not all(cols):
        return False
    return all(c[i] < c[i + 1] for c in cols for i in range(len(c) - 1)) and all(
        len(left) >= len(right) and all(x < y for x, y in zip(left, right))
        for left, right in zip(cols, cols[1:])
    )


# ---------------------------------------------------------------------------
# insertion steps
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _steps(cols, r):
    """Every insertion step out of ``cols`` at threshold r, in column order:
    (the grown tableau, the step's factored weight (e, {j: x})).

    A column is a one when its largest entry exceeds r; column n+1 is
    absent, a zero.  The runs of this sequence are b_0, a_1, b_1, ..., b_l,
    a_{l+1}, with b_0 = 0 when it opens with a zero.  Step k puts n+1 at
    the bottom of column c_k = 1 + a_1 + ... + a_k + b_0 + ... + b_k; its
    weight is q^(a_1 + ... + a_k) times the ratios
    [A(i+1..k) + B(i..k)] / [A(i..k) + B(i..k)] for 1 <= i <= k and
    [A(k+1..i) + B(k+1..i-1)] / [A(k+1..i) + B(k+1..i)] for k < i <= l,
    with A and B the run sums.  Each ratio holds a positive run, so none
    is [0]_q; [1]_q factors and zero exponents are dropped.
    """
    runs = [len(list(run)) for _, run in itertools.groupby(
        [1] + [int(col[-1] > r) for col in cols] + [0])]
    runs[0] -= 1  # the leading one only opens b_0, which may be 0
    b, a = runs[0::2], runs[1::2]  # b[i] holds b_i, a[i - 1] holds a_i
    v = tableau_size(cols) + 1
    steps = []
    for k in range(len(b)):
        ratios = [(sum(a[i:k]) + sum(b[i : k + 1]), sum(a[i - 1 : k]) + sum(b[i : k + 1]))
                  for i in range(1, k + 1)]
        ratios += [(sum(a[k:i]) + sum(b[k + 1 : i]), sum(a[k:i]) + sum(b[k + 1 : i + 1]))
                   for i in range(k + 1, len(b))]
        factors = {}
        for num, den in ratios:
            factors[num] = factors.get(num, 0) + 1
            factors[den] = factors.get(den, 0) - 1
        c = sum(a[:k]) + sum(b[: k + 1])  # c_k - 1, at most len(cols)
        grown = cols[:c] + ((cols[c] if c < len(cols) else ()) + (v,),) + cols[c + 1 :]
        steps.append((grown, (sum(a[:k]), {j: x for j, x in factors.items() if x and j != 1})))
    return tuple(steps)


# ---------------------------------------------------------------------------
# the insertion path and its three views
# ---------------------------------------------------------------------------

_path = [((), {(): (0, {})})]  # (prefix, growth) along the latest vector


def _grown(m):
    """Each tableau reachable under m -> the factored weight (e, {j: x}) of
    its one insertion path (read-only: the path hands out the same dicts)."""
    path = list(_path)  # grown privately, so a concurrent call never sees it half done
    while len(path) > 1 and m[: len(path[-1][0])] != path[-1][0]:
        path.pop()  # no prefix of m; the root () never goes
    while len(path) <= len(m):
        out = {}
        for smaller, (e0, net0) in path[-1][1].items():
            for cols, (e, factors) in _steps(smaller, m[len(path) - 1]):
                net = dict(net0)
                for j, x in factors.items():
                    net[j] = net.get(j, 0) + x
                out[cols] = e0 + e, {j: x for j, x in net.items() if x}
        path.append((m[: len(path)], out))
    _path[:] = path
    return path[-1][1]


def _product(factors):
    """The product of [j]_q^x as integer coefficient tuples (num, den)."""
    return (q_int_product(tuple(sorted((j, x) for j, x in factors.items() if x > 0))),
            q_int_product(tuple(sorted((j, -x) for j, x in factors.items() if x < 0))))


def _check_args(m, cols):
    m = check_hessenberg(m)
    cols = tuple(tuple(c) for c in cols)
    if tableau_size(cols) != len(m):
        raise ValueError("tableau size does not match the function's domain")
    if not is_syt(cols):
        raise ValueError(f"not a standard Young tableau: {cols}")
    return m, cols


def prob(m, cols):
    m, cols = _check_args(m, cols)
    path = _grown(m).get(cols)
    if path is None:
        return QRat(())
    num, den = _product(path[1])
    return QRat((0,) * path[0] + num, den)


def zeta(m, cols):
    """The monomial q^e of the insertion path as a coefficient tuple; ()
    on a tableau of probability zero."""
    m, cols = _check_args(m, cols)
    path = _grown(m).get(cols)
    return () if path is None else (0,) * path[0] + (1,)


def h_unreduced(m, cols):
    """prob/zeta as integer coefficient lists (num, den), not reduced.

    Each is a product of q-integers [j]_q with j >= 2, so den is positive
    at every q >= 0.  Only defined on tableaux the distribution can reach.
    """
    m, cols = _check_args(m, cols)
    path = _grown(m).get(cols)
    if path is None or path[1].get(0, 0) > 0:
        raise ValueError("h is undefined: the tableau has probability zero")
    return _product(path[1])


def h(m, cols):
    """prob/zeta as a canonical QRat; only defined on reachable tableaux."""
    return QRat(*h_unreduced(m, cols))


# ---------------------------------------------------------------------------
# reachable tableaux
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)  # one vector's buckets
def _by_shape(m):
    """The tableaux of ``_grown(m)`` bucketed by shape, each bucket a tuple
    in column-word order."""
    by_shape = {}
    for cols in _grown(m):
        by_shape.setdefault(conjugate([len(c) for c in cols]), []).append(cols)
    return {lam: tuple(sorted(tabs, key=colword)) for lam, tabs in by_shape.items()}


def enumerate_hikita(m, lam):
    """All standard Young tableaux of the shape reachable under m, in
    column-word order."""
    m = check_hessenberg(m)
    lam = check_partition(lam)
    if sum(lam) != len(m):
        raise ValueError(f"shape {lam} does not match domain size {len(m)}")
    return list(_by_shape(m).get(lam, ()))


def h_unreduced_by_shape(m):
    """Each shape reachable under m -> [(cols, h_unreduced(m, cols)), ...]
    in column-word order, for a sweep over vectors it made itself: nothing
    is validated, and no step weight is zero, so every h is defined."""
    grown = _grown(m)
    return {lam: [(cols, _product(grown[cols][1])) for cols in tabs]
            for lam, tabs in _by_shape(m).items()}


def e_coefficients_by_shape(m):
    """Each shape reachable under m -> the e-coefficient c_lam of the
    chromatic function of m, as an integer coefficient tuple, from Hikita's
    identity c_lam = prod_i [lam_i]_q! * sum_T q^inv(T) h(T) over the
    reachable tableaux T of shape lam, where inv(T) = e_T + star - |m|,
    q^e_T = zeta(T) and star = sum_{i<j} lam_i lam_j.

    Each term is q^e_T times a product of [j]_q^x, the factorials folded
    in.  With need_j the largest negative exponent of [j]_q over the
    shape, every term times prod [j]_q^need_j is an integer polynomial;
    their sum is divided exactly by that monic product.  Integers only: no
    Fraction and no gcd, and an inexact division raises ArithmeticError.
    Nothing is validated: m must be a Hessenberg vector.
    """
    grown = _grown(m)
    out = {}
    for lam, tabs in _by_shape(m).items():
        shift = (len(m) ** 2 - sum(part * part for part in lam)) // 2 - sum(m)
        floor = q_factorial_factors(lam)
        terms, need = [], {}
        for cols in tabs:
            e, factors = grown[cols]
            expo = dict(floor)
            for j, x in factors.items():
                expo[j] = expo.get(j, 0) + x
            for j, x in expo.items():
                if x < -need.get(j, 0):
                    need[j] = -x
            terms.append((e + shift, expo))
        total = []
        for offset, expo in terms:
            if offset < 0:
                raise ArithmeticError(f"negative inversion count at shape {lam}")
            for j, x in need.items():
                expo[j] = expo.get(j, 0) + x
            num = q_int_product(tuple(sorted((j, x) for j, x in expo.items() if x)))
            int_poly_add(total, num, 1, offset)
        out[lam] = tuple(int_poly_divexact(total, q_int_product(tuple(sorted(need.items())))))
    return out
