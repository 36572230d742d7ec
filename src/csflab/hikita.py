"""Insertion dynamics on standard Young tableaux driven by a reverse
Hessenberg function, with exact transition weights.

Tableaux here are classical standard Young tableaux in the same column
layout as `csflab.tableaux` (tuples of top-to-bottom columns): rows and
columns strictly increase.  A tableau of size n is grown by inserting
n+1 at the bottom of an admissible column; which columns are admissible,
and with what weight, is read off a binary column sequence.

The tests hold the second routes: ``enumerate_syt`` and the entry-by-entry
reachability test ``is_reachable`` live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
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
        out = []
        for k in range(self.ell + 1):
            out.append(1 + sum(self.a[:k]) + sum(self.b[: k + 1]))
        return out


def delta(cols, r):
    """Column sequence of length n+1: a one marks a column whose largest
    entry exceeds r, absent columns count as zeros."""
    n = tableau_size(cols)
    seq = []
    for i in range(n + 1):
        on = i < len(cols) and bool(cols[i]) and cols[i][-1] > r
        seq.append(1 if on else 0)
    b, a = [], []
    j = 0
    while j < len(seq) and seq[j] == 1:
        j += 1
    b.append(j)
    while j < len(seq):
        k = j
        while k < len(seq) and seq[k] == 0:
            k += 1
        a.append(k - j)
        j = k
        if j < len(seq):
            k = j
            while k < len(seq) and seq[k] == 1:
                k += 1
            b.append(k - j)
            j = k
    if len(a) < len(b):
        a.append(0)  # sequence ended on a one; only possible for n = -1, kept safe
    return ColorSequence(tuple(b), tuple(a))


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
# transition weights
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# the distribution and its monomial shadow
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
def _prob(m, cols):
    if not cols:
        return QRat.one()
    n = tableau_size(cols)
    r = m[n - 1]
    smaller, col = _strip_max(cols)
    columns = delta(smaller, r).insertion_columns()
    if col not in columns:
        return QRat.zero()
    k = columns.index(col)
    return phi(smaller, r, k) * _prob(m[: n - 1], smaller)


@functools.lru_cache(maxsize=None)
def _zeta(m, cols):
    if not cols:
        return QPoly.one()
    n = tableau_size(cols)
    r = m[n - 1]
    smaller, col = _strip_max(cols)
    columns = delta(smaller, r).insertion_columns()
    if col not in columns:
        return QPoly.zero()
    k = columns.index(col)
    return phi_tilde(smaller, r, k) * _zeta(m[: n - 1], smaller)


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
    return _prob(m, cols)


def zeta(m, cols):
    m, cols = _check_args(m, cols)
    return _zeta(m, cols)


def h(m, cols):
    """prob/zeta; only defined on tableaux the distribution can reach."""
    m, cols = _check_args(m, cols)
    pr = _prob(m, cols)
    if not pr:
        raise ValueError("h is undefined: the tableau has probability zero")
    return pr / QRat(_zeta(m, cols))


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
