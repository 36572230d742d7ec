"""Exact q-arithmetic and partition/composition utilities.

Everything downstream computes with polynomials in a single variable q over
exact rationals, occasionally with ratios of such polynomials.  Coefficients
are `fractions.Fraction`; there is no floating-point mode.  Polynomials are
dense (degrees in this project stay tiny), rational functions are kept in a
canonical reduced form so that equality is a plain structural comparison.

Partitions and compositions are ordinary tuples of ints.  A partition is
weakly decreasing with positive parts; a composition is any tuple of positive
parts.  Helper functions rather than wrapper classes keep call sites close to
the underlying combinatorics.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# polynomials in q
# ---------------------------------------------------------------------------

def _strip(coeffs):
    last = -1
    for i, c in enumerate(coeffs):
        if c:
            last = i
    return tuple(coeffs[: last + 1])


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

    def eval_at(self, x):
        """Exact evaluation at a rational point."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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

    def is_nonneg(self):
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    def text(self):
        """Canonical ascending-coefficient form, e.g. "[1,2,2,1]"."""
        return "[" + ",".join(_frac_text(c) for c in self.coeffs) + "]"

    @classmethod
    def from_text(cls, s):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"bad polynomial literal: {s!r}")
        inner = s[1:-1].strip()
        if not inner:
            return cls.zero()
        return cls([Fraction(tok) for tok in inner.split(",")])

    def json_coeffs(self):
        """Coefficient list for JSON: ints where exact, else "p/q" strings."""
        return [int(c) if c.denominator == 1 else str(c) for c in self.coeffs]

    def __repr__(self):
        return f"QPoly({self.text()})"


def _frac_text(c):
    return str(int(c)) if c.denominator == 1 else str(c)


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
    def one(cls):
        return cls(QPoly.one())

    @classmethod
    def zero(cls):
        return cls(QPoly.zero())

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den == QPoly.one()

    def to_poly(self):
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self.text()}")
        return self.num

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

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def eval_at(self, x):
        x = Fraction(x)
        d = self.den.eval_at(x)
        if not d:
            raise ZeroDivisionError(f"evaluation at a denominator root: q={x}")
        return self.num.eval_at(x) / d

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
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
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
