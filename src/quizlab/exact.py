"""Exact scalar backends: rationals and truncated Laurent series.

Rationals are ``fractions.Fraction`` (always reduced, denominator > 0);
this module only adds the ``num/den`` string codec.  Laurent series in one
indeterminate ``e`` (for epsilon) are finite coefficient windows with an
explicit knowledge bound: a series is either exact (a Laurent polynomial)
or known only below some order, and every operation propagates that bound.

The Laurent rules (trim, add, multiply, truncate) are functions on the
stored (low, coeffs, bound) triples, for Fraction and int coefficients
alike, so the circuit's integer kernel uses the same rules as
``LaurentSeries``.

A ring adapter (``zero``, ``one``, ``from_rational``, ``add``, ``sub``,
``mul``, ``neg``, ``is_zero``, ``to_str``) gives ``Polynomial``, the
circuit node loop, the product of roots and the protocol's value
formatting one code path over every coefficient ring.  ``RationalRing``
is Python's operators, ``Fraction`` and ``rational_to_str``, so
``RATIONALS`` keeps plain ints ints; ``LaurentRing`` binds the same
members to ``LaurentSeries``, with methods only for the truncating sum,
difference and product.

The prime-field helpers choose the modulus and the root of unity of the
modular rank certificate; they work on plain int residues.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection

from .errors import (
    CapExceededError,
    NoSuchRootError,
    NotHolomorphicAtOriginError,
    PrecisionUnderflowError,
    QuizlabError,
)

DEFAULT_LAURENT_PRECISION = 8
_ZERO = Fraction(0)

# Python's default ``sys.get_int_max_str_digits()``; a report refuses a longer
# number whatever that setting is.
PRINT_DIGITS_CAP = 4300
_PRINT_BOUND = 10 ** PRINT_DIGITS_CAP


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------

def _print_cap_error(q: int | Fraction) -> CapExceededError:
    part = max(abs(q.numerator), q.denominator)
    near = int(math.log10(part))  # the float log may miss the digit count by one
    digits = near + (part >= 10 ** near) + (part >= 10 ** (near + 1))
    return CapExceededError(f"print cap: digits={digits} exceeds {PRINT_DIGITS_CAP}; no override")


def printable(q: int | Fraction) -> int | Fraction:
    """q itself, when its numerator and denominator have at most
    PRINT_DIGITS_CAP digits each, else CapExceededError.  Reports print
    rationals, Laurent coefficients and other unbounded numbers through it."""
    if abs(q.numerator) < _PRINT_BOUND and q.denominator < _PRINT_BOUND:
        return q
    raise _print_cap_error(q)


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as ``num/den`` (den always present and positive),
    with ``printable``'s check inline: every game round prints dozens."""
    n, d = q.numerator, q.denominator
    if abs(n) < _PRINT_BOUND and d < _PRINT_BOUND:
        return f"{n}/{d}"
    raise _print_cap_error(q)


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
            c = printable(c)
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

    @property
    def window(self) -> tuple:
        """The triple (low, coeffs, bound) that the window rules work on."""
        return self.low, self.coeffs, self.bound

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries(*window_add(self.window, other.window))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries(*window_add(self.window, other.window, sb=-1))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.low, tuple([-c for c in self.coeffs]), self.bound)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries(*window_mul(self.window, other.window))

    def truncate(self, precision: int) -> "LaurentSeries":
        """Keep at most ``precision`` leading terms, marking the rest unknown."""
        window = self.window
        cut = window_truncate(window, precision)
        return self if cut is window else LaurentSeries(*cut)


def cleared_series(series: LaurentSeries) -> tuple[int, int, list[int]]:
    """An exact series as (low, c, ks): its coefficients over their lcm c,
    ks[i] = c * coeffs[i] for e^(low + i).  A truncated series has no value
    at any point, so it raises PrecisionUnderflowError."""
    if not series.is_exact():
        raise PrecisionUnderflowError("cannot substitute into a truncated series")
    c, ks = cleared_row(series.coeffs)
    return series.low, c, ks


def substitute_cleared(cleared: tuple[int, int, list[int]], p: int, q: int) -> Fraction:
    """The cleared series (low, c, ks) at e = p / q, p nonzero and q > 0.

    With n = len(ks) - 1 the value is S p^low / (c q^(low + n)), where
    S = sum of ks[i] p^i q^(n - i) is one integer sum by Horner's rule;
    a negative power moves to the other side.  One Fraction is made, and
    it reduces.
    """
    low, c, ks = cleared
    total, q_power = 0, 1
    for k in reversed(ks):
        total = total * p + k * q_power
        q_power *= q
    num, den = total, c
    if low >= 0:
        num *= p ** low
    else:
        den *= p ** -low
    high = low + len(ks) - 1
    if high >= 0:
        den *= q ** high
    else:
        num *= q ** -high
    return Fraction(num, den)


def _window(low: int, acc, bound: int | None) -> LaurentSeries:
    """The series of ``window_trim(low, acc, bound)``."""
    return LaurentSeries(*window_trim(low, acc, bound))


# ---------------------------------------------------------------------------
# Coefficient windows
# ---------------------------------------------------------------------------
#
# The rules of Laurent arithmetic, on the triples (low, coeffs, bound) that
# LaurentSeries stores.  They only ask whether a coefficient is zero, so they
# serve Fraction coefficients (LaurentSeries) and the integer numerators of
# ``Circuit.evaluate_points`` alike: ``zero`` is the zero of the
# coefficients' type, which fills the gaps of a sum or product.

def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _effective_low(low: int, coeffs, bound: int | None) -> int:
    # For an all-cancelled window the lowest possibly-nonzero order is the bound.
    if coeffs:
        return low
    return bound if bound is not None else 0


def window_trim(low: int, acc, bound: int | None) -> tuple:
    """The window with coefficient ``acc[i]`` at e^(low + i), known below ``bound``.

    Exponents at or past the bound are dropped and zeros are trimmed at both
    ends; an all-zero window is the exact zero (0, (), None), or
    (bound, (), bound) when truncated.
    """
    hi = len(acc) if bound is None else max(0, min(len(acc), bound - low))
    while hi and not acc[hi - 1]:
        hi -= 1
    if not hi:
        return (bound if bound is not None else 0), (), bound
    lo = 0
    while not acc[lo]:
        lo += 1
    return low + lo, tuple(acc[lo:hi]), bound


def window_add(a: tuple, b: tuple, zero=_ZERO, sa: int = 1, sb: int = 1) -> tuple:
    """The window of sa*a + sb*b, known below the smaller bound.

    ``sa`` and ``sb`` are nonzero integer scales, so they move no zero;
    ``sb = -1`` subtracts.
    """
    alow, ac, abound = a
    blow, bc, bbound = b
    if abound is None and bbound is None and alow == blow and len(ac) == 1 == len(bc):
        # Two exact monomials of one order.
        c = (ac[0] if sa == 1 else sa * ac[0]) + (bc[0] if sb == 1 else sb * bc[0])
        return (alow, (c,), None) if c else (0, (), None)
    bound = _min_bound(abound, bbound)
    if sa != 1:
        ac = [sa * c for c in ac]
    if not bc:
        return window_trim(alow, ac, bound)
    if sb == -1:
        bc = [-c for c in bc]
    elif sb != 1:
        bc = [sb * c for c in bc]
    if not ac:
        return window_trim(blow, bc, bound)
    low = min(alow, blow)
    acc = [zero] * (max(alow + len(ac), blow + len(bc)) - low)
    start = alow - low
    acc[start : start + len(ac)] = ac
    for k, c in enumerate(bc, blow - low):
        acc[k] += c
    return window_trim(low, acc, bound)


def window_mul(a: tuple, b: tuple, zero=_ZERO) -> tuple:
    """The window of a*b.  A truncated factor bounds the product at its own
    bound plus the other factor's lowest possibly-nonzero order, and no
    coefficient at or past that bound is computed."""
    alow, ac, abound = a
    blow, bc, bbound = b
    if abound is None and bbound is None and len(ac) == 1 == len(bc):
        # Two exact monomials, the product of a constant germ and a question.
        c = ac[0] * bc[0]
        return (alow + blow, (c,), None) if c else (0, (), None)
    if (not ac and abound is None) or (not bc and bbound is None):
        return 0, (), None
    bound = None
    if abound is not None:
        bound = abound + _effective_low(blow, bc, bbound)
    if bbound is not None:
        b2 = bbound + _effective_low(alow, ac, abound)
        bound = b2 if bound is None else min(bound, b2)
    low = alow + blow
    size = len(ac) + len(bc) - 1
    if bound is not None:
        size = min(size, bound - low)
    acc = [zero] * size
    for i, x in enumerate(ac[:size]):
        if x:
            for k, y in enumerate(bc[: size - i], i):
                if y:
                    acc[k] += x * y
    return window_trim(low, acc, bound)


def window_truncate(window: tuple, precision: int) -> tuple:
    """Keep at most ``precision`` leading terms, marking the rest unknown;
    a window already that short comes back as the same object."""
    if precision < 1:
        raise ValueError("precision must be positive")
    low, coeffs, bound = window
    if len(coeffs) <= precision:
        return window
    cap = low + precision
    return window_trim(low, coeffs, cap if bound is None else min(bound, cap))


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
    """Adapter for exact rational arithmetic: Python's own operators, so
    plain ints stay ints (the integer product of roots relies on it)."""

    zero, one = Fraction(0), Fraction(1)
    from_rational = Fraction
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    is_zero = staticmethod(operator.not_)
    to_str = staticmethod(rational_to_str)


@dataclass(frozen=True)
class LaurentRing:
    """Adapter for truncated Laurent arithmetic at a fixed precision; only
    the sum, difference and product truncate."""

    precision: int = DEFAULT_LAURENT_PRECISION

    zero, one = LaurentSeries.zero(), LaurentSeries.from_rational(1)
    from_rational = staticmethod(LaurentSeries.from_rational)
    neg = staticmethod(operator.neg)
    is_zero = staticmethod(LaurentSeries.is_zero)
    to_str = str

    def add(self, a, b):
        return (a + b).truncate(self.precision)

    def sub(self, a, b):
        return (a - b).truncate(self.precision)

    def mul(self, a, b):
        return (a * b).truncate(self.precision)


RATIONALS = RationalRing()
