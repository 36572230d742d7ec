"""Exact q-arithmetic and partition/composition utilities.

A polynomial in q is a coefficient tuple everywhere: index i holds q^i,
with no trailing zeros.  A computed chromatic quantity has integer
coefficients, and the integer helpers (``int_poly_mul``, ``int_poly_add``,
``q_int_product``) need no Fraction and no gcd; ``coeff_tuple`` makes input
canonical, keeping a rational "p/q" coefficient as a `fractions.Fraction`
in the same tuple.  The one rational function is `QRat`, a reduced pair of
coefficient tuples (``poly_divmod`` and ``poly_gcd`` reduce it), which
serves the rational boundary: prob, h and the reduced h margins of the
witnesses.  There is no floating-point mode.

Partitions and compositions are ordinary tuples of ints.  A partition is
weakly decreasing with positive parts; a composition is any tuple of positive
parts.  Helper functions rather than wrapper classes keep call sites close to
the underlying combinatorics.
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction


# ---------------------------------------------------------------------------
# polynomials in q
# ---------------------------------------------------------------------------

def poly_text(coeffs):
    """Canonical ascending-coefficient form, e.g. "[1,2,2,1]"."""
    return "[" + ",".join(map(str, coeffs)) + "]"


def poly_json(coeffs):
    """Coefficient list for JSON: ints where exact, else "p/q" strings."""
    return [int(c) if c.denominator == 1 else str(c) for c in coeffs]


def poly_eval(coeffs, x):
    """Exact evaluation of a coefficient sequence at a rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def coeff_tuple(coeffs):
    """The canonical tuple of a sequence of ints, Fractions or "p/q"
    strings: ints where integral, no trailing zeros."""
    out = list(coeffs)
    for i, c in enumerate(out):
        if type(c) is not int:
            c = Fraction(c)
            out[i] = int(c) if c.denominator == 1 else c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_divmod(a, d):
    """Euclidean division of coefficient sequences over the rationals:
    (quotient, remainder) as coefficient tuples, a = quotient*d + remainder
    with deg remainder < deg d."""
    d = coeff_tuple(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(coeff_tuple(a))
    quo = [0] * max(len(rem) - len(d) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        f = quo[k] = Fraction(rem[k + len(d) - 1], d[-1])
        for i, c in enumerate(d, k):
            rem[i] -= f * c
    return coeff_tuple(quo), coeff_tuple(rem)


def poly_gcd(a, b):
    """Monic gcd of two coefficient tuples by the Euclidean algorithm over
    the rationals; the gcd of two zero polynomials is ()."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return coeff_tuple([Fraction(c, a[-1]) for c in a])


class QRat(collections.namedtuple("QRat", "num den")):
    """A rational function in q as a reduced pair of coefficient tuples:
    gcd(num, den) = 1 and den monic, so equality and hashing are those of
    the tuple.  QRat(()) is ((), (1,))."""

    __slots__ = ()

    def __new__(cls, num, den=(1,)):
        num, den = coeff_tuple(num), coeff_tuple(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return super().__new__(cls, (), (1,))
        g = [c * den[-1] for c in poly_gcd(num, den)]  # so den / g is monic
        return super().__new__(cls, poly_divmod(num, g)[0], poly_divmod(den, g)[0])

    def text(self):
        return f"{poly_text(self.num)} / {poly_text(self.den)}"


def int_poly_mul(a, b):
    """Product of two coefficient lists (index i holds q^i): ints in the
    hot loops, which must not pay for Fraction or a gcd, or the Fractions
    of a QRat at the rational boundary."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def int_poly_add(acc, poly, k=1, shift=0):
    """acc += k * q^shift * poly in place on coefficient lists (ints, or
    Fractions from rational input); returns acc, trailing zeros kept."""
    acc.extend([0] * (shift + len(poly) - len(acc)))
    for i, c in enumerate(poly, shift):
        acc[i] += k * c
    return acc


def int_poly_divexact(a, d):
    """Quotient of the integer coefficient list a by the monic integer list
    d (top coefficient 1), as a list; a nonzero remainder raises
    ArithmeticError, so an inexact division aborts loudly rather than
    returning a truncation."""
    if not d or d[-1] != 1:
        raise ValueError(f"divisor {list(d)} is not monic")
    rest = list(a)
    k = len(d) - 1
    low = d[:-1]
    quot = [0] * max(len(rest) - k, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rest[i + k]
        if c:
            quot[i] = c
            for t, y in enumerate(low, i):
                rest[t] -= c * y
    if any(rest[:k]):  # the remainder; rest[k:] holds spent top terms
        raise ArithmeticError(f"{list(d)} does not divide {list(a)}")
    return quot


@functools.lru_cache(maxsize=None)
def q_int_product(factors):
    """The product of [j]_q^x over the sorted (j, x) pairs, x > 0, as an
    integer coefficient tuple.  Cached, so each factorization is multiplied
    out once; the tuple keeps callers from changing a cached value."""
    out = [1]
    for j, x in factors:
        for _ in range(x):
            out = int_poly_mul(out, [1] * j)
    return tuple(out)


def q_factorial_factors(lam):
    """prod_i [lam_i]_q! as the sorted (j, x) pairs that ``q_int_product``
    takes: [j]_q appears once for each part of size at least j >= 2."""
    counts = {}
    for part in lam:
        for j in range(2, part + 1):
            counts[j] = counts.get(j, 0) + 1
    return tuple(sorted(counts.items()))


def q_int(n):
    """The q-analogue of n, 1 + q + ... + q^(n-1), as a coefficient tuple;
    q_int(0) = ()."""
    if n < 0:
        raise ValueError(f"q_int of negative {n}")
    return (1,) * n


def q_factorial(n):
    """[n]_q! = [2]_q ... [n]_q as a coefficient tuple; (1,) for n <= 1."""
    if n < 0:
        raise ValueError(f"q_factorial of negative {n}")
    out = (1,)
    for k in range(2, n + 1):
        out = tuple(int_poly_mul(out, q_int(k)))
    return out


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def is_partition(parts):
    return all(type(p) is int and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts):
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {parts!r}")
    return lam


def conjugate(lam):
    """Transpose of the diagram: entry j counts parts of size >= j+1."""
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def partitions(n, max_part=None):
    """All partitions of n, largest-part-first ("(n) down to (1,..,1)").

    The output order is reverse lexicographic, which linearly extends the
    dominance order — the triangular basis conversions downstream rely on
    consuming partitions from the dominant end.
    """
    if n < 0:
        return
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def sort_desc(alpha):
    """The partition obtained by sorting a composition's parts."""
    return tuple(sorted(alpha, reverse=True))


def compositions_with_sort(lam):
    """All distinct rearrangements of lam's parts, in descending lex order:
    each distinct part in turn leads, followed by the rearrangements of the
    rest."""
    lam = check_partition(lam)
    if not lam:
        return [()]
    return [
        (v,) + rest
        for v in sorted(set(lam), reverse=True)
        for rest in compositions_with_sort(lam[: lam.index(v)] + lam[lam.index(v) + 1 :])
    ]


def parse_int_tuple(text):
    """Parse "0,0,1,1,3" (or "()" / "" for the empty tuple)."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    return tuple(int(tok) for tok in text.split(","))
