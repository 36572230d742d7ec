"""Chromatic symmetric function of an incomparability graph, with exact
q-coefficients, computed by independent routes:

* a proper-coloring oracle giving monomial coefficients,
* summing q^inv over standard tableaux for Schur coefficients,
* closed q-integer formulas for paths and chains of complete graphs,

plus exact change of basis into elementary symmetric functions.  All
expansions live in exactly n variables, which determines a degree-n
symmetric function completely.
"""

from __future__ import annotations

import functools
import itertools
import warnings

from .posets import natural_unit_m
from .qcore import (
    QPoly,
    check_partition,
    compositions,
    conjugate,
    partitions,
    q_factorial,
    q_int,
    sort_desc,
)
# inv_p is not called here; bench/spans.py looks up csf.inv_p by name.
from .tableaux import enumerate_standard, inv_p, inv_sum

BASES = ("m", "e", "s")

#: Largest poset the coloring walk accepts.  The walk visits every proper
#: coloring, up to n! of them, so n = 10 already takes seconds; the harness
#: takes its extended sweep cap from here.
SIZE_CAP = 10


class SymFunc:
    """A homogeneous symmetric function of degree n in a named basis."""

    __slots__ = ("basis", "n", "coeffs")

    def __init__(self, basis, n, coeffs):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for part, poly in coeffs.items():
            part = check_partition(part)
            if sum(part) != n:
                raise ValueError(f"partition {part} does not have size {n}")
            if not isinstance(poly, QPoly):
                poly = QPoly.const(poly)
            if poly:
                clean[part] = poly
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        inner = ", ".join(
            f"{part}: {poly.text()}" for part, poly in sorted(self.coeffs.items())
        )
        return f"SymFunc({self.basis!r}, n={self.n}, {{{inner}}})"

    def coeff(self, part):
        return self.coeffs.get(check_partition(part), QPoly.zero())

    def eval_at(self, x):
        """Specialize q; returns {partition: Fraction}."""
        return {part: poly.eval_at(x) for part, poly in sorted(self.coeffs.items())}

    def to_json_dict(self):
        return {
            "basis": self.basis,
            "n": self.n,
            "coeffs": [
                {"partition": list(part), "poly": poly.json_coeffs()}
                for part, poly in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        # Fraction() parses both ints and "p/q" strings, matching json_coeffs.
        coeffs = {
            tuple(item["partition"]): QPoly(item["poly"])
            for item in data["coeffs"]
        }
        return cls(data["basis"], data["n"], coeffs)


# ---------------------------------------------------------------------------
# coloring oracle
# ---------------------------------------------------------------------------

def coloring_weights(p, content):
    """q-weight generating polynomial of the proper colorings of inc(P)
    where color i is used exactly content[i] times."""
    n = p.n
    if sum(content) != n:
        raise ValueError(f"content {content} does not use {n} cells")
    before = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        before[v] = [u for u in range(1, v) if p.incomparable(u, v)]
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
    if not counts:
        return QPoly.zero()
    top = max(counts)
    return QPoly(tuple(counts.get(i, 0) for i in range(top + 1)))


def csf_coloring_oracle(p):
    """Monomial expansion from proper colorings of the incomparability graph."""
    if p.n > SIZE_CAP:
        raise ValueError(f"n={p.n} exceeds the size cap {SIZE_CAP}")
    if p.n and natural_unit_m(p) is None:
        warnings.warn(
            "q-weights of a poset that is not a natural unit interval order "
            "need not assemble into a symmetric function; only the q=1 "
            "specialization is reliable",
            stacklevel=2,
        )
    coeffs = {}
    for lam in partitions(p.n):
        poly = coloring_weights(p, lam)
        if poly:
            coeffs[lam] = poly
    return SymFunc("m", p.n, coeffs)


# ---------------------------------------------------------------------------
# Schur route
# ---------------------------------------------------------------------------

def csf_schur(p):
    """Schur expansion: the coefficient of s_lam sums q^inv over standard
    tableaux of the conjugate shape."""
    if p.n and natural_unit_m(p) is None:
        warnings.warn(
            "q-refined Schur coefficients are only established for natural "
            "unit interval orders; use q=1 otherwise",
            stacklevel=2,
        )
    coeffs = {}
    for lam in partitions(p.n):
        total = inv_sum(p, enumerate_standard(p, conjugate(lam)))
        if total:
            coeffs[lam] = total
    return SymFunc("s", p.n, coeffs)


# ---------------------------------------------------------------------------
# basis change
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _mult_table_e(d, k, n):
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


@functools.lru_cache(maxsize=None)
def e_to_m(mu, n):
    """Monomial expansion of the elementary function e_mu in n variables,
    as {partition: integer}."""
    mu = check_partition(mu)
    if mu and mu[0] > n:
        return {}
    table = {(): 1}
    d = 0
    for k in mu:
        table_next = {}
        for nu, sources in _mult_table_e(d, k, n).items():
            total = 0
            for src in sources:
                total += table.get(src, 0)
            if total:
                table_next[nu] = total
        table = table_next
        d += k
    return table


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


def _as_monomial(f):
    if f.basis == "m":
        return f
    coeffs = {}
    for part, poly in f.coeffs.items():
        expansion = e_to_m(part, f.n) if f.basis == "e" else s_to_m(part, f.n)
        for mu, c in expansion.items():
            coeffs[mu] = coeffs.get(mu, QPoly.zero()) + poly * c
    return SymFunc("m", f.n, coeffs)


def to_elementary(f):
    """Exact change of basis into elementary symmetric functions.

    Peels leading monomial coefficients in an order extending dominance;
    a nonzero residue at the end means the input was not in the span and
    aborts loudly rather than returning a truncation.
    """
    if f.basis == "e":
        return f
    mono = _as_monomial(f)
    residual = dict(mono.coeffs)
    out = {}
    for lam in partitions(f.n):
        c = residual.pop(lam, QPoly.zero())
        if not c:
            continue
        out[conjugate(lam)] = c
        for mu, t in e_to_m(conjugate(lam), f.n).items():
            if mu == lam:
                continue
            now = residual.get(mu, QPoly.zero()) - c * t
            if now:
                residual[mu] = now
            else:
                residual.pop(mu, None)
    if residual:
        raise ArithmeticError(
            f"input is not a nonneg-span symmetric function; residue at {sorted(residual)}"
        )
    return SymFunc("e", f.n, out)


def e_coeff(p, lam):
    """The elementary-basis coefficient of the poset's chromatic function."""
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"partition {lam} does not have size {p.n}")
    return chromatic_e_expansion(p).coeff(lam)


@functools.lru_cache(maxsize=None)
def _e_expansion_cached(m):
    from .posets import poset_from_hessenberg

    return to_elementary(csf_coloring_oracle(poset_from_hessenberg(m)))


def chromatic_e_expansion(p):
    """Full e-expansion of X for a natural unit interval order."""
    m = natural_unit_m(p)
    if p.n and m is None:
        raise ValueError(
            "symbolic e-expansion requires a natural unit interval order; "
            "specialize the oracle at q=1 for other posets"
        )
    if p.n == 0:
        return SymFunc("e", 0, {(): QPoly.one()})
    return _e_expansion_cached(m)


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def path_formula(n):
    """e-expansion of the chromatic function of the n-vertex path."""
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs = {}
    for alpha in compositions(n):
        term = QPoly.monomial(len(alpha) - 1) * q_int(alpha[-1])
        for part in alpha[:-1]:
            term = term * q_int(part - 1)
        if not term:
            continue
        key = sort_desc(alpha)
        coeffs[key] = coeffs.get(key, QPoly.zero()) + term
    return SymFunc("e", n, coeffs)


def _kchain_alphas(gamma, n):
    l = len(gamma)
    suffix_gamma = [sum(gamma[i:]) for i in range(l)] + [0]

    def admissible(i, a_i, suffix_alpha):
        bound = suffix_gamma[i - 1] - (l - i)
        if a_i < gamma[i - 2] - 1 and suffix_alpha < bound:
            return True
        if a_i >= gamma[i - 2] and suffix_alpha >= bound:
            return True
        return False

    def rec(i, left, tail):
        # build alpha back to front so suffix sums are at hand
        if i == 1:
            if left >= 1:
                yield (left,) + tail
            return
        for a_i in range(left + 1):
            if admissible(i, a_i, a_i + sum(tail)):
                yield from rec(i - 1, left - a_i, (a_i,) + tail)

    return list(rec(l, n, ()))


def kchain_formula(gamma):
    """Closed-form e-expansion for a chain of complete graphs of sizes gamma."""
    gamma = tuple(gamma)
    if not gamma or any(g < 2 for g in gamma):
        raise ValueError(f"clique sizes must all be at least 2: {gamma}")
    l = len(gamma)
    n = sum(gamma) - (l - 1)
    prefactor = QPoly.one()
    for g in gamma[:-1]:
        prefactor = prefactor * q_factorial(g - 2)
    prefactor = prefactor * q_factorial(gamma[-1] - 1)
    coeffs = {}
    for alpha in _kchain_alphas(gamma, n):
        term = q_int(alpha[0])
        for i in range(2, l + 1):
            a_i, cap = alpha[i - 1], gamma[i - 2] - 1
            term = term * QPoly.monomial(min(a_i, cap)) * q_int(abs(a_i - cap))
        if not term:
            continue
        key = sort_desc(tuple(a for a in alpha if a))
        coeffs[key] = coeffs.get(key, QPoly.zero()) + term
    return SymFunc("e", n, {part: prefactor * poly for part, poly in coeffs.items()})
