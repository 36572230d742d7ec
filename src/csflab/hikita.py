"""Insertion dynamics on standard Young tableaux driven by a reverse
Hessenberg function, with exact transition weights.

Tableaux here are classical standard Young tableaux in the same column
layout as `csflab.tableaux` (tuples of top-to-bottom columns): rows and
columns strictly increase.  A tableau of size n is grown by inserting
n+1 at the bottom of an admissible column; which columns are admissible,
and with what weight, is read off a binary column sequence.

Each step's weight is q^(a_1 + ... + a_k) times a ratio of q-integers of
run sums, so a whole insertion path is kept in factored form: a q-power
and the net exponent of each [j]_q.  One cached walk per tableau serves
``prob`` (the full product), ``zeta`` (the q-power alone) and ``h`` (the
q-integer part, prob/zeta); each reduces to a canonical QRat only once.

The tests hold the second routes: ``enumerate_syt`` and the entry-by-entry
reachability test ``is_reachable`` live in ``tests/oracles.py``, with the
per-step weights ``phi`` and ``phi_tilde`` as unfactored rational functions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .posets import check_hessenberg
from .qcore import QPoly, QRat, check_partition, conjugate, q_int
from .tableaux import colword


def tableau_size(cols):
    return sum(len(c) for c in cols)


def is_syt(cols):
    """Classical standardness: entries 1..n once, rows and columns increase."""
    n = tableau_size(cols)
    entries = sorted(v for c in cols for v in c)
    if entries != list(range(1, n + 1)):
        return False
    heights = [len(c) for c in cols]
    if any(heights[i] < heights[i + 1] for i in range(len(heights) - 1)):
        return False
    if any(h == 0 for h in heights):
        return False
    for c in cols:
        if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            return False
    for j in range(len(cols) - 1):
        for i in range(len(cols[j + 1])):
            if cols[j][i] >= cols[j + 1][i]:
                return False
    return True


# ---------------------------------------------------------------------------
# column sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColorSequence:
    """Run-length form (1^{b_0}, 0^{a_1}, 1^{b_1}, ..., 1^{b_l}, 0^{a_{l+1}})
    of the binary column sequence of a tableau at threshold r."""

    b: tuple  # b[0..l]
    a: tuple  # a[0] holds a_1, ..., a[l] holds a_{l+1}

    @property
    def ell(self):
        return len(self.b) - 1

    def sequence(self):
        out = [1] * self.b[0]
        for i in range(len(self.a)):
            out.extend([0] * self.a[i])
            if i + 1 < len(self.b):
                out.extend([1] * self.b[i + 1])
        return tuple(out)

    def insertion_columns(self):
        """c_k = 1 + a_1 + ... + a_k + b_0 + ... + b_k for 0 <= k <= l."""
        return [1 + sum(self.a[:k]) + sum(self.b[: k + 1]) for k in range(self.ell + 1)]

    def weight(self, k):
        """Transition weight for the k-th admissible column, factored as
        (e, {j: x}): q^(a_1 + ... + a_k) times the product of [j]_q^x.

        The ratios are [A(i+1..k) + B(i..k)] / [A(1..k) + B(i..k)] for
        1 <= i <= k and [A(k+1..i) + B(k+1..i-1)] / [A(k+1..i) + B(k+1..i)]
        for k < i <= l, with A and B the run sums; [1]_q factors and zero
        exponents are dropped, and a [0]_q numerator stays (weight zero).
        """
        if not 0 <= k <= self.ell:
            raise ValueError(f"k={k} out of range; ell={self.ell}")
        a, b = self.a, self.b  # a[i - 1] holds a_i, b[i] holds b_i
        ratios = [(sum(a[i:k]) + sum(b[i : k + 1]), sum(a[:k]) + sum(b[i : k + 1]))
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


# ---------------------------------------------------------------------------
# the insertion path and its three views
# ---------------------------------------------------------------------------

def _strip_max(cols):
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


@functools.lru_cache(maxsize=None)
def _walk(m, cols):
    """Weight of the insertion path that grows ``cols`` under ``m``.

    None when some step lands in a column the sequence does not admit;
    otherwise the factored product of the step weights (read-only: the
    cache hands out the same dict again).
    """
    if not cols:
        return 0, {}
    n = tableau_size(cols)
    smaller, col = _strip_max(cols)
    cs = delta(smaller, m[n - 1])
    columns = cs.insertion_columns()
    if col not in columns:
        return None
    e, factors = cs.weight(columns.index(col))
    rest = _walk(m[: n - 1], smaller)
    if rest is None:
        return None
    net = dict(rest[1])
    for j, x in factors.items():
        net[j] = net.get(j, 0) + x
    return rest[0] + e, {j: x for j, x in net.items() if x}


def _reduce(e, factors):
    """One canonical QRat for q^e times the product of [j]_q^x."""
    num, den = QPoly.monomial(e), QPoly.one()
    for j, x in factors.items():
        for _ in range(x):
            num = num * q_int(j)
        for _ in range(-x):
            den = den * q_int(j)
    return QRat(num, den)


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
    path = _walk(m, cols)
    return QRat.zero() if path is None else _reduce(*path)


def zeta(m, cols):
    m, cols = _check_args(m, cols)
    path = _walk(m, cols)
    return QPoly.zero() if path is None else QPoly.monomial(path[0])


def h(m, cols):
    """prob/zeta; only defined on tableaux the distribution can reach."""
    m, cols = _check_args(m, cols)
    path = _walk(m, cols)
    if path is None or path[1].get(0, 0) > 0:
        raise ValueError("h is undefined: the tableau has probability zero")
    return _reduce(0, path[1])


# ---------------------------------------------------------------------------
# reachable tableaux
# ---------------------------------------------------------------------------

def enumerate_hikita(m, lam):
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
