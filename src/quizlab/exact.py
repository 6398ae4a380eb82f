"""Exact scalar backends: rationals and truncated Laurent series.

Rationals are ``fractions.Fraction`` (always reduced, denominator > 0);
this module only adds the ``num/den`` string codec.  Laurent series in one
indeterminate ``e`` (for epsilon) are finite coefficient windows with an
explicit knowledge bound: a series is either exact (a Laurent polynomial)
or known only below some order, and every operation propagates that bound.

A shared ring-adapter protocol (``RationalRing``, ``LaurentRing``) lets
circuit evaluation and polynomial arithmetic run over either backend with
one code path.  The prime-field helpers choose the modulus and the root of
unity of the modular rank certificate; they work on plain int residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection

from .errors import (
    NoSuchRootError,
    NotHolomorphicAtOriginError,
    PrecisionUnderflowError,
    QuizlabError,
)

DEFAULT_LAURENT_PRECISION = 8
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------

def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as ``num/den`` (den always present and positive)."""
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``num/den`` or a bare integer string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise QuizlabError(f"invalid rational {text!r}") from None


def cleared_row(row: Collection[Fraction]) -> tuple[int, list[int]]:
    """The lcm s of the row's denominators, and the integer row s * row in
    order; an int has denominator 1, so integer rows pass through unchanged."""
    scale = math.lcm(*{x.denominator for x in row})
    return scale, [x.numerator * (scale // x.denominator) for x in row]


# ---------------------------------------------------------------------------
# Prime fields
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Trial-division primality test; moduli in scope are tiny."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_prime_modulus(d: int) -> int:
    """Smallest prime p = 1 (mod d) with p > 2d.

    This is the deterministic modulus-selection rule used for every modular
    root-of-unity witness, so reports are reproducible.
    """
    if d < 1:
        raise ValueError(f"order must be positive, got {d}")
    p = 2 * d + 1
    while not ((p - 1) % d == 0 and is_prime(p)):
        p += 1
    return p


def multiplicative_order(a: int, p: int) -> int:
    """Order of the residue a in the multiplicative group mod p (a must be nonzero)."""
    a %= p
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    k, acc = 1, a
    while acc != 1:
        acc = acc * a % p
        k += 1
    return k


def modular_root_of_unity(p: int, d: int) -> int:
    """Residue of multiplicative order exactly d in the field with p elements.

    Deterministic: tries bases a = 2, 3, ... and returns the first
    a^((p-1)/d) whose order is exactly d.  Requires d | p - 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (p - 1) % d != 0:
        raise NoSuchRootError(f"no element of order {d} mod {p}: {d} does not divide {p - 1}")
    if d == 1:
        return 1
    exponent = (p - 1) // d
    for a in range(2, p):
        candidate = pow(a, exponent, p)
        if candidate != 1 and multiplicative_order(candidate, p) == d:
            return candidate
    raise NoSuchRootError(f"no element of order {d} mod {p}")  # unreachable for prime p


# ---------------------------------------------------------------------------
# Truncated Laurent series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentSeries:
    """Laurent series in one indeterminate e, truncated at ``bound``.

    ``coeffs[i]`` is the coefficient of e^(low + i); the first and last
    stored coefficients are nonzero.  ``bound`` is the absolute exponent at
    which knowledge stops: coefficients at exponents >= bound are unknown.
    ``bound is None`` means the value is an exact Laurent polynomial.  The
    identically-zero exact series is ``coeffs == ()`` with ``bound None``;
    an all-cancelled truncated result keeps its bound (zero below e^bound).
    """

    low: int = 0
    coeffs: tuple[Fraction, ...] = ()
    bound: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries(0, (), None)

    @staticmethod
    def from_rational(q: Fraction | int) -> "LaurentSeries":
        q = Fraction(q)
        if q == 0:
            return LaurentSeries.zero()
        return LaurentSeries(0, (q,), None)

    @staticmethod
    def monomial(coeff: Fraction | int, exponent: int) -> "LaurentSeries":
        coeff = Fraction(coeff)
        if coeff == 0:
            return LaurentSeries.zero()
        return LaurentSeries(exponent, (coeff,), None)

    @staticmethod
    def epsilon(exponent: int = 1) -> "LaurentSeries":
        return LaurentSeries.monomial(1, exponent)

    @staticmethod
    def from_pairs(pairs) -> "LaurentSeries":
        """Build from (exponent, rational) pairs, the serialization format."""
        terms = []
        for exp, q in pairs:
            q = Fraction(q)
            if q != 0:
                terms.append((int(exp), q))
        if not terms:
            return LaurentSeries.zero()
        low = min(exp for exp, _ in terms)
        acc = [_ZERO] * (max(exp for exp, _ in terms) - low + 1)
        for exp, q in terms:
            acc[exp - low] += q
        return _window(low, acc, None)

    # -- inspection -----------------------------------------------------------

    def is_exact(self) -> bool:
        return self.bound is None

    def is_zero(self) -> bool:
        """True only for the identically-zero exact series."""
        return not self.coeffs and self.bound is None

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of e^exponent; raises if it lies beyond the bound."""
        if self.bound is not None and exponent >= self.bound:
            raise PrecisionUnderflowError(
                f"coefficient of e^{exponent} unknown: series truncated at O(e^{self.bound})"
            )
        i = exponent - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def to_pairs(self) -> list[tuple[int, Fraction]]:
        return [(self.low + i, c) for i, c in enumerate(self.coeffs) if c != 0]

    def __bool__(self) -> bool:
        # A truncated all-zero window is only "zero so far", so it stays truthy.
        return bool(self.coeffs) or self.bound is not None

    def __str__(self) -> str:
        parts = []
        for exp, c in self.to_pairs():
            if exp == 0:
                parts.append(f"{c}")
            elif exp == 1:
                parts.append(f"{c}*e")
            else:
                parts.append(f"{c}*e^{exp}")
        if not parts:
            parts.append("0")
        body = " + ".join(parts)
        if self.bound is not None:
            body += f" + O(e^{self.bound})"
        return body

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        other = _coerce(other)
        bound = _min_bound(self.bound, other.bound)
        if not other.coeffs:
            return _window(self.low, self.coeffs, bound)
        if not self.coeffs:
            return _window(other.low, other.coeffs, bound)
        low = min(self.low, other.low)
        high = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        acc = [_ZERO] * (high - low)
        start = self.low - low
        acc[start : start + len(self.coeffs)] = self.coeffs
        for k, c in enumerate(other.coeffs, other.low - low):
            acc[k] += c
        return _window(low, acc, bound)

    def __radd__(self, other) -> "LaurentSeries":
        return self.__add__(other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        other = _coerce(other)
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.low, tuple([-c for c in self.coeffs]), self.bound)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            # A rational scalar keeps the window and the bound.
            if not other:
                return LaurentSeries.zero()
            return LaurentSeries(self.low, tuple([c * other for c in self.coeffs]), self.bound)
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero()
        bound = None
        if self.bound is not None:
            bound = self.bound + _effective_low(other)
        if other.bound is not None:
            b2 = other.bound + _effective_low(self)
            bound = b2 if bound is None else min(bound, b2)
        low = self.low + other.low
        size = len(self.coeffs) + len(other.coeffs) - 1
        if bound is not None:
            size = min(size, bound - low)
        acc = [_ZERO] * size
        for i, a in enumerate(self.coeffs[:size]):
            if a:
                for k, b in enumerate(other.coeffs[: size - i], i):
                    if b:
                        acc[k] += a * b
        return _window(low, acc, bound)

    def __rmul__(self, other) -> "LaurentSeries":
        return self.__mul__(other)

    def truncate(self, precision: int) -> "LaurentSeries":
        """Keep at most ``precision`` leading terms, marking the rest unknown."""
        if precision < 1:
            raise ValueError("precision must be positive")
        if not self.coeffs:
            return self
        span = len(self.coeffs)
        if span <= precision:
            return self
        cap = self.low + precision
        bound = cap if self.bound is None else min(self.bound, cap)
        return _window(self.low, self.coeffs, bound)

    def substitute(self, value: Fraction) -> Fraction:
        """Evaluate an exact Laurent polynomial at a nonzero rational point."""
        if not self.is_exact():
            raise PrecisionUnderflowError("cannot substitute into a truncated series")
        value = Fraction(value)
        if value == 0:
            if self.low < 0 and self.coeffs:
                raise ZeroDivisionError("substitution at the pole e = 0")
            return self.coefficient(0) if self.coeffs else Fraction(0)
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            total += c * value ** (self.low + i)
        return total


def _coerce(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentSeries.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentSeries")


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _effective_low(s: LaurentSeries) -> int:
    # For an all-cancelled window the lowest possibly-nonzero order is the bound.
    if s.coeffs:
        return s.low
    return s.bound if s.bound is not None else 0


def _window(low: int, acc, bound: int | None) -> LaurentSeries:
    """The series with coefficient ``acc[i]`` at e^(low + i), known below ``bound``.

    Exponents at or past the bound are dropped and zeros are trimmed at both
    ends; an all-zero window is the exact zero, or (bound, (), bound) when
    truncated.
    """
    hi = len(acc) if bound is None else max(0, min(len(acc), bound - low))
    while hi and not acc[hi - 1]:
        hi -= 1
    if not hi:
        return LaurentSeries(bound if bound is not None else 0, (), bound)
    lo = 0
    while not acc[lo]:
        lo += 1
    return LaurentSeries(low + lo, tuple(acc[lo:hi]), bound)


def laurent_limit(a: LaurentSeries) -> Fraction:
    """Value at e = 0 of a series holomorphic at the origin.

    Returns the coefficient of e^0.  Raises NotHolomorphicAtOriginError if a
    negative-exponent coefficient is nonzero, and PrecisionUnderflowError if
    truncation hides the constant coefficient.
    """
    for exp, c in a.to_pairs():
        if exp < 0 and c != 0:
            raise NotHolomorphicAtOriginError(
                f"pole at origin: nonzero coefficient {c} at e^{exp}"
            )
    if a.bound is not None and a.bound <= 0:
        raise PrecisionUnderflowError(
            f"constant coefficient unknown: series truncated at O(e^{a.bound})"
        )
    return a.coefficient(0) if (a.coeffs or a.bound is not None) else Fraction(0)


# ---------------------------------------------------------------------------
# Ring adapters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalRing:
    """Adapter for exact rational arithmetic."""

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_rational(self, q: Fraction) -> Fraction:
        return Fraction(q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return rational_to_str(a)


@dataclass(frozen=True)
class LaurentRing:
    """Adapter for truncated Laurent arithmetic at a fixed precision."""

    precision: int = DEFAULT_LAURENT_PRECISION

    @property
    def zero(self) -> LaurentSeries:
        return LaurentSeries.zero()

    @property
    def one(self) -> LaurentSeries:
        return LaurentSeries.from_rational(1)

    def from_rational(self, q: Fraction) -> LaurentSeries:
        return LaurentSeries.from_rational(Fraction(q))

    def add(self, a, b):
        return (a + b).truncate(self.precision)

    def sub(self, a, b):
        return (a - b).truncate(self.precision)

    def mul(self, a, b):
        return (a * b).truncate(self.precision)

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def to_str(self, a) -> str:
        return str(a)


RATIONALS = RationalRing()
