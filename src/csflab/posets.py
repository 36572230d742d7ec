"""Natural unit interval orders on {1..n}, built from their vectors.

A reverse Hessenberg vector m (1-indexed, weakly increasing, m(i) < i)
encodes the order i < j in P exactly when i <= m(j).  These are exactly
the orders whose incomparability graphs are the unit interval graphs, and
the Catalan(n) vectors of length n give all of them (Shareshian and Wachs,
*Chromatic quasisymmetric functions*), so ``Poset(m)`` is the only way the
package builds a poset.  Posets built from explicit relations (2+2 and
other non-unit orders), and the brute-force invariants used to cross-check
the family (pattern classification, incomparability components, longest
chains, the unit-interval construction, the exhaustive chain-partition
search behind the greedy partition), live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools


def check_hessenberg(m):
    m = tuple(m)
    for i, v in enumerate(m, start=1):
        if type(v) is not int or v < 0 or v >= i:
            raise ValueError(f"entry {v} at position {i} out of range in {m}")
    if any(m[i] > m[i + 1] for i in range(len(m) - 1)):
        raise ValueError(f"not weakly increasing: {m}")
    return m


class Poset:
    """The natural unit interval order of a reverse Hessenberg vector m.

    Elements are 1..n, and i < j exactly when i <= m(j).  The strict
    relation is stored as per-element bitmasks: bit j of ``_up[i]`` and bit
    i of ``_down[j]`` are set when i < j, so ``_down[j]`` is the bits
    1..m(j).  The incomparability masks ``_inc`` are cached too, since
    tableau backtracking hammers them, and so is ``_hi[v]``, the elements
    above v in label that are incomparable to it: an inversion is such an
    element read before v.  ``m`` is kept, so the entry points defined on
    unit orders only read it instead of recovering it.
    """

    __slots__ = ("n", "m", "_up", "_down", "_inc", "_hi")

    def __init__(self, m):
        m = check_hessenberg(m)
        n = len(m)
        up = (0,) + tuple(
            sum(1 << j for j, v in enumerate(m, start=1) if i <= v) for i in range(1, n + 1)
        )
        down = (0,) + tuple((1 << (v + 1)) - 2 for v in m)
        full = (1 << (n + 1)) - 2  # bits 1..n
        inc = (0,) + tuple(full & ~(up[a] | down[a] | (1 << a)) for a in range(1, n + 1))
        hi = tuple(mask & ~((2 << a) - 1) for a, mask in enumerate(inc))
        for name, value in zip(Poset.__slots__, (n, m, up, down, inc, hi)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def less(self, a, b):
        """a < b in P."""
        return bool((self._up[a] >> b) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Poset) and self.n == other.n and self._up == other._up
        )

    def __hash__(self):
        return hash((self.n, self._up))

    def __repr__(self):
        return f"Poset({self.m})"


def poset_from_hessenberg(m):
    return _hessenberg_poset(check_hessenberg(m))


_hessenberg_poset = functools.lru_cache(maxsize=1)(Poset)  # the latest vector's Poset


def enumerate_hessenberg(n):
    """All reverse Hessenberg vectors of length n, lexicographically.

    There are Catalan(n) of them; n = 0 contributes the single empty vector.
    """
    if n < 0:
        raise ValueError(f"negative n: {n}")

    def rec(i, lo):
        if i > n:
            yield ()
            return
        for v in range(lo, i):
            for rest in rec(i + 1, v):
                yield (v,) + rest

    return list(rec(1, 0))


@functools.lru_cache(maxsize=1)  # the latest poset's peel, which the greedy family reads again
def greedy_partition(p):
    """The dominance-maximum partition of n into disjoint chain sizes.

    Greedy chain peel: start a chain at the smallest unused element, step
    to the smallest unused element above it until there is none, and
    repeat; the chain sizes, sorted decreasing, are the partition (the
    dominance maximum of Greene's theorem, C. Greene, JCTA 20, 1976).
    Defined on natural unit interval orders only: it agrees with an
    exhaustive chain-partition search on every vector with n <= 9, and the
    tests check that on every vector with n <= 7.  Raises ValueError on any
    other poset.
    """
    if p.m is None:
        raise ValueError("greedy_partition needs a natural unit interval order")
    free = (1 << (p.n + 1)) - 2
    sizes = []
    while free:
        size, v = 0, free & -free
        while v:
            free ^= v
            size += 1
            above = free & p._up[v.bit_length() - 1]
            v = above & -above
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


@functools.lru_cache(maxsize=None)  # one vector per size
def path_hessenberg(n):
    """The order whose incomparability graph is the n-vertex path."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return (0,) * n
    return kchain_hessenberg((2,) * (n - 1))


def kchain_hessenberg(gamma):
    """The order whose incomparability graph is a chain of complete graphs
    of sizes gamma, consecutive cliques sharing one vertex."""
    gamma = tuple(gamma)
    if not gamma or any(g < 2 for g in gamma):
        raise ValueError(f"clique sizes must all be at least 2: {gamma}")
    starts = [1]
    for g in gamma[:-1]:
        starts.append(starts[-1] + g - 1)
    n = starts[-1] + gamma[-1] - 1
    m = []
    for j in range(1, n + 1):
        first = max(c for c in range(len(gamma)) if starts[c] <= j)
        if j == starts[first] and first > 0:
            first -= 1  # a shared vertex belongs to the earlier clique too
        m.append(starts[first] - 1)
    return tuple(m)
