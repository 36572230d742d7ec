"""Finite posets on {1..n}, specialized to natural unit interval orders.

A reverse Hessenberg vector m (1-indexed, weakly increasing, m(i) < i) encodes
the order i < j in P exactly when i <= m(j).  General posets built from
explicit relations are supported as input; the heavy enumeration machinery
only ever sees the unit-interval family.  Brute-force invariants used to
cross-check the family (pattern classification, incomparability
components, longest chains, the unit-interval construction, the
exhaustive chain-partition search behind the greedy partition) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import itertools


def check_hessenberg(m):
    m = tuple(m)
    for i, v in enumerate(m, start=1):
        if not isinstance(v, int) or v < 0 or v >= i:
            raise ValueError(f"entry {v} at position {i} out of range in {m}")
    if any(m[i] > m[i + 1] for i in range(len(m) - 1)):
        raise ValueError(f"not weakly increasing: {m}")
    return m


class Poset:
    """Immutable poset on elements 1..n with O(1) order queries.

    The full strict relation is stored as per-element bitmasks (bit j of
    up[i] set when i < j in P), with the incomparability masks cached since
    tableau backtracking hammers them.
    """

    __slots__ = ("n", "_up", "_down", "_inc")

    def __init__(self, n, relations):
        up = [0] * (n + 1)
        down = [0] * (n + 1)
        rel = set()
        for a, b in relations:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"element out of range in relation ({a},{b})")
            if a == b:
                raise ValueError(f"reflexive relation ({a},{b})")
            rel.add((a, b))
        for a, b in rel:
            if (b, a) in rel:
                raise ValueError(f"antisymmetry violated on ({a},{b})")
            up[a] |= 1 << b
            down[b] |= 1 << a
        for a, b in rel:
            for c in _bits(up[b]):
                if not (up[a] >> c) & 1:
                    raise ValueError(f"not transitive: {a}<{b}<{c} but not {a}<{c}")
        full = (1 << (n + 1)) - 2  # bits 1..n
        inc = [0] * (n + 1)
        for a in range(1, n + 1):
            inc[a] = full & ~(up[a] | down[a] | (1 << a))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_inc", tuple(inc))

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def less(self, a, b):
        """a < b in P."""
        return bool((self._up[a] >> b) & 1)

    def incomparable(self, a, b):
        return a != b and not self.less(a, b) and not self.less(b, a)

    def above(self, a):
        """Bitmask of elements strictly above a."""
        return self._up[a]

    def below(self, a):
        return self._down[a]

    def elements(self):
        return range(1, self.n + 1)

    def relations(self):
        return tuple(
            (a, b) for a in self.elements() for b in _bits(self._up[a])
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poset) and self.n == other.n and self._up == other._up
        )

    def __hash__(self):
        return hash((self.n, self._up))

    def __repr__(self):
        return f"Poset(n={self.n}, relations={list(self.relations())})"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(n, pairs):
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def poset_from_relations(n, pairs):
    """Build a poset from cover (or any) relations, closing transitively."""
    return Poset(n, transitive_closure(n, pairs))


def poset_from_hessenberg(m):
    return _hessenberg_poset(check_hessenberg(m))


@functools.lru_cache(maxsize=None)
def _hessenberg_poset(m):
    n = len(m)
    rels = [(i, j) for j in range(1, n + 1) for i in range(1, m[j - 1] + 1)]
    return Poset(n, rels)


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
    if natural_unit_m(p) is None:
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


def path_hessenberg(n):
    """The order whose incomparability graph is the n-vertex path."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return (0,) * n
    return (0, 0) + tuple(range(1, n - 1))


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
