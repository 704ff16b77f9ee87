"""Exact scalar, polynomial and truncated-series arithmetic, and rational functions.

Every value here is exact; no floating point is used anywhere.  Rational
functions and truncated series are integer values: every generating function
checked here is a ratio of integer polynomials whose denominator is a product
of (1 - q^d) up to sign, so a part or coefficient that is not an ``int`` is a
``TypeError``.  Here a polynomial holds a ``fractions.Fraction`` coefficient
only as the quotient of a ``divmod`` that does not divide evenly: ``_as_scalar``
keeps each coefficient an ``int`` wherever it is integral, and every division
of coefficients is an exact ``Fraction(a, b)`` normalised by it, so callers
take ints as they come.  The gcd runs by primitive pseudo-remainders, whose
divisions all come out as ints, and returns the primitive gcd with a positive
lead.  Polynomials are dense in a single formal
variable (``q`` for counting series, ``x`` for edge labels), rational
functions are values kept in a canonical form, a coprime integer pair whose
denominator has positive lead, with no arithmetic of their own, and truncated
power series carry their truncation degree explicitly and divide only by a
unit of Z[[q]], a series with constant term 1 or -1; that division sums
over the quotient's nonzero terms while they are fewer than the divisor's,
then over the divisor's.  Each value has one
builder: ``Polynomial("x")`` is zero, ``Polynomial("q", (1,))`` one,
``Polynomial("x", (0, 1))`` the variable, and a ``RationalFunction`` takes
both parts.  ``p * c`` is the one scalar product, and ``p.coeffs`` the one
read of a coefficient.  A polynomial's truth value is its one zero test, as
a ``symalg`` element's is: it is false exactly when the value is zero.
``_signed_sum`` is the one printer of a signed sum of terms, used by
polynomials here and by ``symalg``'s elements.

``shared`` marks a function whose value no caller changes.  Inside a
``sharing()`` block it is memoised, keyed on its arguments; outside every
block it calls straight through.  The outermost block drops the memo.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

ScalarLike = Union[int, Fraction]

#: (function, arguments) -> value, while a ``sharing()`` block runs; else None
_memo: Optional[Dict[tuple, object]] = None


def shared(fn: Callable) -> Callable:
    """fn, memoised on its positional arguments inside ``sharing()`` and called
    straight through outside it.  Only for a value that no caller changes."""
    @functools.wraps(fn)
    def memoised(*args):
        if _memo is None:
            return fn(*args)
        key = (fn, args)
        if key not in _memo:
            _memo[key] = fn(*args)
        return _memo[key]
    return memoised


class sharing:
    """``with sharing():`` shares every ``shared`` function's values until the
    block ends; a nested block reuses the outer memo.  (A class, so that the
    package loads no ``contextlib``.)"""

    __slots__ = ("outer",)

    def __enter__(self) -> None:
        global _memo
        self.outer = _memo
        if _memo is None:
            _memo = {}

    def __exit__(self, *exc_info) -> None:
        global _memo
        _memo = self.outer


class PoleAtOriginError(ZeroDivisionError):
    """Raised when expanding at q=0 something whose denominator vanishes there."""


def _as_scalar(c: ScalarLike) -> ScalarLike:
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _signed_sum(terms: Iterable[Tuple[ScalarLike, str]]) -> str:
    """The sum of (nonzero coefficient, monomial text) pairs as printed: a bare
    "-" before a negative first term, "+ " or "- " before each later one, no
    magnitude 1 before a monomial, a bare coefficient for an empty monomial
    (a constant), and "0" for no terms.
    """
    text = " ".join(
        ("- " if c < 0 else "+ ")
        + (f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c)))
        for c, mono in terms
    )
    return ("-" if text[0] == "-" else "") + text[2:] if text else "0"


class Polynomial:
    """Dense univariate polynomial with exact coefficients.

    Each coefficient is an ``int`` when it is integral and a ``Fraction``
    otherwise, as in ``TruncatedSeries``.  The coefficient list never has
    trailing zeros; the zero polynomial has an empty coefficient tuple and
    degree ``-1`` (sentinel).  ``divmod`` is the one division.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[ScalarLike] = ()):
        cs = [c if type(c) is int else _as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, point: ScalarLike) -> ScalarLike:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc if type(acc) is int else _as_scalar(acc)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.var, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Polynomial(self.var, [a + b for a, b in pairs])

    def __neg__(self):
        return Polynomial(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(self.var, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d, lead, low = other.degree, other.coeffs[-1], other.coeffs[:-1]
        quot = [0] * max(len(rem) - d, 0)
        # top down: step `shift` cancels rem[shift + d], which is never read again
        for shift in range(len(quot) - 1, -1, -1):
            top = rem[shift + d]
            if top:
                factor = quot[shift] = _as_scalar(Fraction(top, lead))
                for i, c in enumerate(low):
                    rem[shift + i] -= factor * c
        return Polynomial(self.var, quot), Polynomial(self.var, rem[:d])

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Division known a priori to be remainder-free; checked."""
        q, r = divmod(self, other)
        if r:
            raise ArithmeticError("division was not exact")
        return q

    def shift(self, k: int) -> "Polynomial":
        """Multiply by var**k."""
        return Polynomial(self.var, (0,) * k + self.coeffs)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # -- display ---------------------------------------------------------------

    def __str__(self):
        powers = ["", self.var] + [f"{self.var}^{i}" for i in range(2, len(self.coeffs))]
        return _signed_sum((c, power) for c, power in zip(self.coeffs, powers) if c)

    def __repr__(self):
        return f"Polynomial({self.var!r}, {self.coeffs!r})"


def _primitive(*parts: Polynomial) -> Tuple[Polynomial, ...]:
    """The integer parts divided by the gcd of all their coefficients, and
    signed so that the last part, when nonzero, has a positive lead; parts
    that are all zero come back as they are."""
    content = math.gcd(*(c for p in parts for c in p.coeffs))
    if parts[-1] and parts[-1].coeffs[-1] < 0:
        content = -content
    if content in (0, 1):
        return parts
    return tuple(Polynomial(p.var, [c // content for c in p.coeffs]) for p in parts)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive gcd of two integer polynomials, with a positive lead.

    It runs by primitive pseudo-remainders: scaling a by
    lead(b)^(deg a - deg b + 1), when that factor is not 1, makes every
    quotient step of a divided by b an integer, and dividing each remainder by
    its content keeps the coefficients small.  gcd(0, 0) is 0.
    """
    if a.var != b.var:
        raise ValueError("variable mismatch in gcd")
    while b:
        scale = b.coeffs[-1] ** max(a.degree - b.degree + 1, 0)
        r = divmod(a * scale if scale != 1 else a, b)[1]
        a, b = b, _primitive(r)[0]
    return _primitive(a)[0]


class RationalFunction:
    """Quotient of two integer polynomials in canonical form.

    Canonical form: the parts are coprime, their coefficients have no common
    integer factor, and the denominator has a positive lead, so structural
    equality decides equality of rational functions and the printed form is
    unique.  Each closed form here has a denominator with lead 1 in that form.
    It is a value, not a field element: a check that combines closed forms
    works on their numerators and denominators and compares a/b with c/d by
    cross-multiplying, a*d == c*b.  Both parts are always given; a zero
    numerator gets the denominator 1, and a part with a ``Fraction``
    coefficient is a ``TypeError``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.var != den.var:
            raise ValueError("variable mismatch")
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = polynomial_gcd(num, den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        self.num, self.den = _primitive(num, den)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __str__(self):
        if self.den.coeffs == (1,):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


class TruncatedSeries:
    """Power series with integer coefficients, known exactly up to a truncation degree.

    A coefficient that is not an ``int`` is a ``TypeError``.  Binary
    operations truncate to the smaller of the two truncation degrees.
    Division is by a unit of Z[[q]], a divisor whose constant term is 1 or -1;
    a constant term of 0 raises ``PoleAtOriginError`` and any other raises
    ``ArithmeticError``, each naming it.  Quotient coefficient i is
    c0 (a_i - sum_j d_j q_(i-j)), summed over the quotient's nonzero q_s
    while they are fewer than the divisor's nonzero d_j (j >= 1), and over
    those d_j from the first step where they are as many; the quotient's
    nonzero terms only grow, so it switches once.  A sparse quotient of a
    dense divisor (a freeness quotient) and a dense quotient of a sparse one
    (a closed form) each cost their sparse side.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self.coeffs = tuple(coeffs)
        if {*map(type, self.coeffs)} != {int}:
            raise TypeError("a truncated series has integer coefficients")

    @classmethod
    def from_polynomial(cls, p: Polynomial, truncation: int) -> "TruncatedSeries":
        head = p.coeffs[: truncation + 1]
        return cls(head + (0,) * (truncation + 1 - len(head)))

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        terms = [(j, b) for j, b in enumerate(other.coeffs[: n + 1]) if b != 0]
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j, b in terms:
                if i + j > n:
                    break
                out[i + j] += a * b
        return TruncatedSeries(out)

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        c0 = other.coeffs[0]
        if c0 == 0:
            raise PoleAtOriginError("division by a series with zero constant term")
        if c0 != 1 and c0 != -1:
            raise ArithmeticError(f"division by a series with constant term {c0}, not 1 or -1")
        n = min(self.truncation, other.truncation)
        den, top = other.coeffs, self.coeffs
        terms = [(j, c) for j, c in enumerate(den[1 : n + 1], 1) if c != 0]
        # support: the quotient's nonzero (s, q_s), summed over while they are
        # fewer than the divisor's terms; dividing by +-1 is multiplying by it
        out, support, i = [], [], 0
        while i <= n and len(support) < len(terms):
            acc = top[i]
            for s, b in support:
                c = den[i - s]
                if c:
                    acc -= c * b
            acc *= c0
            out.append(acc)
            if acc:
                support.append((i, acc))
            i += 1
        for i in range(i, n + 1):
            acc = top[i]
            for j, c in terms:
                if j > i:
                    break
                acc -= c * out[i - j]
            out.append(acc * c0)
        return TruncatedSeries(out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def first_negative(self) -> Optional[int]:
        """Smallest degree with a negative coefficient, if any."""
        for i, c in enumerate(self.coeffs):
            if c < 0:
                return i
        return None

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs!r})"


def series_expand(rf: RationalFunction, truncation: int) -> TruncatedSeries:
    """Maclaurin expansion of a rational function, exact to the given degree.

    The degree must be non-negative, and the denominator's constant term 1 or
    -1, as the series division requires.
    """
    if truncation < 0:
        raise ValueError("degree must be non-negative")
    num = TruncatedSeries.from_polynomial(rf.num, truncation)
    den = TruncatedSeries.from_polynomial(rf.den, truncation)
    return num / den
