"""Finite posets on {1..n}, specialized to natural unit interval orders.

A reverse Hessenberg vector m (1-indexed, weakly increasing, m(i) < i) encodes
the order i < j in P exactly when i <= m(j).  General posets built from
explicit relations are supported as input; the heavy enumeration machinery
only ever sees the unit-interval family.  Brute-force invariants used to
cross-check the family (pattern classification, incomparability
components, longest chains, the unit-interval construction) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


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

    The full strict relation is stored as per-element bitmasks (bit j-1 of
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

    def same_or_incomparable(self, a, b):
        """The reflexive incomparability relation used by inversion counting."""
        return not self.less(a, b) and not self.less(b, a)

    def above(self, a):
        """Bitmask of elements strictly above a."""
        return self._up[a]

    def below(self, a):
        return self._down[a]

    def incomparables(self, a):
        """Bitmask of elements incomparable to a."""
        return self._inc[a]

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
    m = check_hessenberg(m)
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


def _chain_partition_feasible(p, sizes):
    """Can the elements be split into disjoint chains with these sizes?

    Backtracking on the smallest unused element: enumerate every chain of the
    requested size through it.  Memoized on (used-mask, remaining sizes).
    """
    n = p.n

    @lru_cache(maxsize=None)
    def chains_through(e, size, avail_mask):
        """All chains (as masks) of `size` elements containing e, within avail."""
        if size == 1:
            return (1 << e,)
        out = []
        comparables = (p.above(e) | p.below(e)) & avail_mask
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

    @lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def greedy_partition(p):
    """The dominance-maximum partition of n into disjoint chain sizes.

    Candidate shapes are scanned from the dominant end (reverse-lex refines
    dominance), so the first feasible chain-size partition is the maximum.
    Cached per poset, since every member of the greedy displacement family
    starts from it.
    """
    from .qcore import partitions

    if p.n == 0:
        return ()
    for nu in partitions(p.n):
        if _chain_partition_feasible(p, nu):
            return nu
    raise AssertionError("singleton chains always work")  # pragma: no cover


def natural_unit_m(p):
    """Recover the reverse Hessenberg vector if p is a natural unit interval
    order labeled compatibly; None otherwise."""
    m = []
    for j in p.elements():
        below = list(_bits(p.below(j)))
        m.append(max(below) if below else 0)
    try:
        q = poset_from_hessenberg(m)
    except ValueError:
        return None
    return tuple(m) if q == p else None


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
