"""Exact q-arithmetic and partition/composition utilities.

A computed chromatic quantity is an integer polynomial in q, held as a
coefficient tuple: index i holds q^i, with no trailing zeros.  The integer
helpers (``int_poly_mul``, ``int_poly_add``, ``q_int_product``) need no
Fraction and no gcd; ``coeff_tuple`` makes input canonical, keeping a
rational "p/q" coefficient as a `fractions.Fraction` in the same tuple.
`QPoly` (Fraction coefficients) and `QRat` (a canonical reduced ratio, so
equality is structural) serve the rational boundary: h, prob, zeta and
the reduced h margins of the witnesses.  There is no floating-point mode.

Partitions and compositions are ordinary tuples of ints.  A partition is
weakly decreasing with positive parts; a composition is any tuple of positive
parts.  Helper functions rather than wrapper classes keep call sites close to
the underlying combinatorics.
"""

from __future__ import annotations

import functools
from fractions import Fraction


# ---------------------------------------------------------------------------
# polynomials in q
# ---------------------------------------------------------------------------

def _strip(coeffs):
    """The tuple of a fresh coefficient list, its trailing zeros popped."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class QPoly:
    """Dense univariate polynomial over Fraction; index i holds the q^i coefficient.

    Immutable and hashable.  The zero polynomial is the empty coefficient
    tuple; otherwise the trailing coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @classmethod
    def monomial(cls, k, c=1):
        """c * q^k."""
        return cls((0,) * k + (Fraction(c),))

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self or not other:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        """Euclidean division: self = Q*other + R with deg R < deg other."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        dd = other.degree
        while len(rem) - 1 >= dd and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlead
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return QPoly(quo), QPoly(rem)

    def text(self):
        return poly_text(self.coeffs)

    def __repr__(self):
        return f"QPoly({self.text()})"


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
    return _strip(out)


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while b:
        _, r = a.divmod(b)
        a, b = b, r
    if a:
        a = a * (Fraction(1) / a.coeffs[-1])
    return a


class QRat:
    """Reduced rational function in q.

    Canonical form: gcd(numerator, denominator) = 1 and the denominator is
    monic, so equality and hashing are structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, QPoly):
            num = QPoly.const(num)
        if den is None:
            den = QPoly.one()
        elif not isinstance(den, QPoly):
            den = QPoly.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        else:
            den = QPoly.one()
        lead = den.coeffs[-1]
        if lead != 1:
            inv = Fraction(1) / lead
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @classmethod
    def zero(cls):
        return cls(QPoly.zero())

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("QRat", self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return QRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QRat(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def text(self):
        return f"{self.num.text()} / {self.den.text()}"

    def __repr__(self):
        return f"QRat({self.text()})"


def _coerce_rat(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, QPoly):
        return QRat(x)
    if isinstance(x, (int, Fraction)):
        return QRat(QPoly.const(x))
    return NotImplemented


def int_poly_mul(a, b):
    """Product of two integer coefficient lists (index i holds q^i), for
    the hot loops that must not pay for Fraction or a gcd."""
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
    """The q-analogue of n: 1 + q + ... + q^(n-1), with q_int(0) = 0."""
    if n < 0:
        raise ValueError(f"q_int of negative {n}")
    return QPoly((1,) * n)


def q_factorial(n):
    """Product of q_int(1..n); empty product for n = 0."""
    if n < 0:
        raise ValueError(f"q_factorial of negative {n}")
    out = QPoly.one()
    for k in range(2, n + 1):
        out = out * q_int(k)
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


def compositions(n):
    """All compositions of n (ordered tuples of positive parts)."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in compositions(n - first):
            yield (first,) + rest


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
