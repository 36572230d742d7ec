"""Chromatic symmetric function of an incomparability graph, with exact
q-coefficients, every basis read off one e-expansion:

* Hikita's identity c_lam = prod_i [lam_i]_q! * sum_T q^inv(T) h(T) over
  the insertion-reachable tableaux for elementary coefficients, summed
  over one common product of q-integers and divided by it exactly on
  integer coefficient lists,
* the e-expansion times the integer table e_mu = sum_nu K_{nu' mu} s_nu
  (dual Pieri rule) for Schur coefficients,
* the e-expansion times [m_lam] e_mu = sum_nu K_{nu' mu} K_{nu lam}, both
  Kostka numbers read off that same table, for monomial coefficients,
* the closed q-integer formula for chains of complete graphs, which
  gives the path as the chain of 2-cliques,

plus exact change of basis from monomial into elementary symmetric
functions.  The independent routes live in the tests: the proper-coloring
count that defines X, peeled into the e basis, is the second e-route and
m-route, and summing q^inv over the P-tableaux of each shape is the Schur
route's.  All expansions live in exactly n variables, which determines a
degree-n symmetric function completely.

An expansion is a ``SymFunc``, the named tuple (basis, n, coeffs), which
the routes here build from canonical tuples with ``SymFunc._make``.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .hikita import e_coefficients_by_shape
from .qcore import check_partition, coeff_tuple, conjugate, int_poly_add
from .qcore import int_poly_mul, partitions, poly_eval, poly_json, poly_text
from .qcore import q_factorial_factors, q_int_product, sort_desc
# Not called here: bench/spans.py wraps csf.enumerate_standard and csf.inv_p.
from .tableaux import enumerate_standard, inv_p

BASES = ("m", "e", "s")

#: Largest poset the e-expansion, and so every basis read off it, accepts,
#: and the harness's extended sweep cap.  The e-expansion takes well under a
#: second at n = 10; the cap bounds the size of a sweep over every vector
#: and tableau.
SIZE_CAP = 10


class SymFunc(collections.namedtuple("SymFunc", "basis n coeffs")):
    """A homogeneous symmetric function of degree n in a named basis: each
    partition of n -> its nonzero coefficient tuple (``qcore.coeff_tuple``).
    Input from outside is checked here once and made canonical; the
    package's own routes build canonical tuples with ``SymFunc._make``."""

    __slots__ = ()

    def __new__(cls, basis, n, coeffs):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for part, poly in coeffs.items():
            part = check_partition(part)
            if sum(part) != n:
                raise ValueError(f"partition {part} does not have size {n}")
            if poly := coeff_tuple(poly):
                clean[part] = poly
        return tuple.__new__(cls, (basis, n, clean))

    def __repr__(self):
        inner = ", ".join(
            f"{part}: {poly_text(poly)}" for part, poly in sorted(self.coeffs.items())
        )
        return f"SymFunc({self.basis!r}, n={self.n}, {{{inner}}})"

    def coeff(self, part):
        """The coefficient tuple of a partition of n, () when it has none; a
        shape the function holds is not checked again."""
        try:
            return self.coeffs[part]
        except (KeyError, TypeError):
            part = check_partition(part)
        if sum(part) != self.n:
            raise ValueError(f"partition {part} does not have size {self.n}")
        return self.coeffs.get(part, ())

    def eval_at(self, x):
        """Specialize q; returns {partition: Fraction}."""
        return {part: poly_eval(poly, x) for part, poly in sorted(self.coeffs.items())}

    def to_json_dict(self):
        return {
            "basis": self.basis,
            "n": self.n,
            "coeffs": [
                {"partition": list(part), "poly": poly_json(poly)}
                for part, poly in sorted(self.coeffs.items())
            ],
        }


# ---------------------------------------------------------------------------
# Schur and monomial routes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _e_in_s(mu):
    """Schur expansion of e_mu as {nu: K_{nu' mu}}, by the dual Pieri rule:
    each part k of mu adds a vertical strip of k cells, at most one per
    row, to every shape so far."""
    if not mu:
        return {(): 1}
    k, out = mu[-1], {}
    for nu, c in _e_in_s(mu[:-1]).items():
        rows = nu + (0,) * k
        for hit in itertools.combinations(range(len(rows)), k):
            grown = list(rows)
            for i in hit:
                grown[i] += 1
            if all(a >= b for a, b in zip(grown, grown[1:])):
                key = tuple(x for x in grown if x)
                out[key] = out.get(key, 0) + c
    return out


def _read_off_e(p, basis, table):
    """[b_nu] = sum_mu c_mu(q) table(mu)[nu] over the cached e-expansion of
    p, summed on integer coefficient lists."""
    sums = {}
    for mu, c in chromatic_e_expansion(p).coeffs.items():
        for nu, k in table(mu).items():
            int_poly_add(sums.setdefault(nu, []), c, k)
    return SymFunc._make((basis, p.n, {nu: tuple(acc) for nu, acc in sums.items()}))


def csf_schur(p):
    """Schur expansion of X for a natural unit interval order with at most
    ``SIZE_CAP`` elements: [s_nu] = sum_mu c_mu(q) K_{nu' mu}.  Every c_mu
    and K is nonnegative, so no sum cancels.  Raises ValueError on any
    other poset, as ``chromatic_e_expansion`` does."""
    return _read_off_e(p, "s", _e_in_s)


def csf_coloring_oracle(p):
    """Monomial expansion of X for a natural unit interval order with at
    most ``SIZE_CAP`` elements: [m_lam] = sum_mu c_mu(q) [m_lam] e_mu
    (``e_to_m``).  Raises ValueError on any other poset, as
    ``chromatic_e_expansion`` does."""
    return _read_off_e(p, "m", lambda mu: e_to_m(mu, p.n))


# ---------------------------------------------------------------------------
# basis change
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def e_to_m(mu, n):
    """Monomial expansion of the elementary function e_mu in n variables,
    as {partition: integer}: [m_lam] e_mu = sum_nu K_{nu' mu} K_{nu lam}
    (Stanley, EC2 7.4), where ``_e_in_s(mu)`` holds K_{nu' mu} and
    ``_e_in_s(lam)`` holds K_{nu lam} at nu'.  Only shapes with at most n
    rows survive in n variables."""
    mu = check_partition(mu)
    out = {}
    for lam in partitions(sum(mu)):
        if len(lam) <= n:
            k_lam = _e_in_s(lam)
            total = sum(k * k_lam.get(conjugate(nu), 0) for nu, k in _e_in_s(mu).items())
            if total:
                out[lam] = total
    return out


def to_elementary(f):
    """Exact change of basis from the m (or e) basis into elementary
    symmetric functions.

    Peels leading monomial coefficients in an order extending dominance,
    on coefficient lists: a chromatic function's are ints, so it peels
    without Fraction arithmetic.  A nonzero residue at the end means the
    input was not in the span and aborts loudly rather than returning a
    truncation.
    """
    if f.basis == "e":
        return f
    if f.basis != "m":
        raise ValueError(f"to_elementary takes the m or e basis, not {f.basis!r}")
    residual = {lam: list(poly) for lam, poly in f.coeffs.items()}
    out = {}
    for lam in partitions(f.n):
        c = residual.pop(lam, None)
        if c is None or not any(c):
            continue
        e = conjugate(lam)
        out[e] = coeff_tuple(c)
        for mu, t in e_to_m(e, f.n).items():
            if mu != lam:
                int_poly_add(residual.setdefault(mu, []), c, -t)
    residue = sorted(mu for mu, rest in residual.items() if any(rest))
    if residue:
        raise ArithmeticError(
            f"input is not a nonneg-span symmetric function; residue at {residue}"
        )
    return SymFunc._make(("e", f.n, out))


def e_coeff(p, lam):
    """The elementary-basis coefficient of the poset's chromatic function,
    as an integer coefficient tuple (see ``SymFunc.coeff``)."""
    return chromatic_e_expansion(p).coeff(lam)


@functools.lru_cache(maxsize=1)
def chromatic_e_expansion(p):
    """Full e-expansion of X for a natural unit interval order, cached for
    the latest poset, so ``e_coeff`` and ``csf_schur`` on one poset share it.

    Read off Hikita's identity c_lam = prod_i [lam_i]_q! * sum_T q^inv(T)
    h(T) over the tableaux T of shape lam reachable under the order's
    Hessenberg vector m (``hikita.e_coefficients_by_shape``): the terms
    are brought over one product of q-integers, summed as integer lists,
    and divided exactly by that monic product.  The tests compare it against
    a second route: the proper-coloring count, peeled by ``to_elementary``.
    """
    if p.n > SIZE_CAP:
        raise ValueError(f"n={p.n} exceeds the size cap {SIZE_CAP}")
    m = p.m
    if m is None:
        raise ValueError("symbolic e-expansion requires a natural unit interval order")
    if p.n == 0:
        return SymFunc._make(("e", 0, {(): (1,)}))
    return SymFunc._make(("e", p.n, e_coefficients_by_shape(m)))


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def path_formula(n):
    """e-expansion of the chromatic function of the n-vertex path: for
    n >= 2 the chain of n - 1 complete graphs of size 2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return SymFunc._make(("e", 1, {(1,): (1,)}))
    return kchain_formula((2,) * (n - 1))


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
    factorials = [g - 2 for g in gamma[:-1]] + [gamma[-1] - 1]
    prefactor = q_int_product(q_factorial_factors(factorials))
    coeffs = {}
    for alpha in _kchain_alphas(gamma, n):
        term = [1] * alpha[0]
        for i in range(2, l + 1):
            a_i, cap = alpha[i - 1], gamma[i - 2] - 1
            term = int_poly_mul(term, [0] * min(a_i, cap) + [1] * abs(a_i - cap))
        if any(term):  # else some factor is [0]_q
            int_poly_add(coeffs.setdefault(sort_desc(tuple(a for a in alpha if a)), []), term)
    found = {part: tuple(int_poly_mul(prefactor, c)) for part, c in coeffs.items()}
    return SymFunc._make(("e", n, found))
