"""Sparse multivariate polynomials over a pluggable exact coefficient ring.

A polynomial is a dict from exponent tuples (one entry per variable) to
nonzero ring coefficients, plus the variable count and a ring adapter.
Monomials are dense exponent tuples; variable counts in scope stay small,
so clarity beats packed encodings.  The canonical monomial order used for
every coefficient vector and witness matrix is graded lexicographic:
ascending total degree, then descending lexicographic on the exponent
tuple, so for two variables the degree-2 block reads X1^2, X1*X2, X2^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatchError,
    ExpansionCapExceededError,
    QuizlabError,
    TermOutsideSupportError,
)
from .exact import RATIONALS, RationalRing, cleared_row

Monomial = tuple[int, ...]


def graded_lex_key(m: Monomial):
    """Sort key for the canonical graded-lexicographic order."""
    return (sum(m), tuple(-e for e in m))


def sort_support(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    return tuple(sorted(monomials, key=graded_lex_key))


def monomials_of_degree(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree exactly ``degree``, graded-lex order."""

    def gen(rest: int, total: int) -> Iterator[tuple[int, ...]]:
        if rest == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for tail in gen(rest - 1, total - first):
                yield (first,) + tail

    if nvars < 1:
        raise ValueError("need at least one variable")
    return sort_support(gen(nvars, degree))


def monomials_below_degree(nvars: int, degree_bound: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree < degree_bound, graded-lex order."""
    out: list[Monomial] = []
    for d in range(degree_bound):
        out.extend(monomials_of_degree(nvars, d))
    return tuple(out)


def multilinear_monomials(nvars: int) -> tuple[Monomial, ...]:
    """All 2^nvars exponent tuples with entries in {0, 1}, graded-lex order."""
    out = []
    for mask in range(2 ** nvars):
        out.append(tuple((mask >> i) & 1 for i in range(nvars)))
    return sort_support(out)


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial; ``terms`` holds no zero coefficients."""

    nvars: int
    terms: dict
    ring: object = field(default=RATIONALS)

    @staticmethod
    def make(nvars: int, terms: dict, ring=RATIONALS) -> "Polynomial":
        clean = {m: c for m, c in terms.items() if not ring.is_zero(c)}
        for m in clean:
            if len(m) != nvars:
                raise ArityMismatchError(f"monomial {m} has arity {len(m)}, expected {nvars}")
        return Polynomial(nvars, clean, ring)

    @staticmethod
    def zero(nvars: int, ring=RATIONALS) -> "Polynomial":
        return Polynomial(nvars, {}, ring)

    @staticmethod
    def constant(nvars: int, value, ring=RATIONALS) -> "Polynomial":
        if isinstance(value, (int, Fraction)) and isinstance(ring, RationalRing):
            value = Fraction(value)
        return Polynomial.make(nvars, {(0,) * nvars: value}, ring)

    @staticmethod
    def variable(nvars: int, index: int, ring=RATIONALS) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ArityMismatchError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return Polynomial.make(nvars, {tuple(exps): ring.one}, ring)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[Monomial, ...]:
        return sort_support(self.terms.keys())

    def term_count(self) -> int:
        return len(self.terms)

    def coefficient(self, m: Monomial):
        return self.terms.get(tuple(m), self.ring.zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in self.support():
            c = self.terms[m]
            factors = [self.ring.to_str(c)]
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(f"X{i + 1}")
                elif e > 1:
                    factors.append(f"X{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatchError(
                f"mixed variable counts {self.nvars} and {other.nvars}"
            )
        if self.ring != other.ring:
            raise QuizlabError(f"mixed coefficient rings {self.ring} and {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        ring = self.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = ring.add(out[m], c) if m in out else c
        return Polynomial.make(self.nvars, out, ring)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        ring = self.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = ring.sub(out[m], c) if m in out else ring.neg(c)
        return Polynomial.make(self.nvars, out, ring)

    def __neg__(self) -> "Polynomial":
        ring = self.ring
        return Polynomial(self.nvars, {m: ring.neg(c) for m, c in self.terms.items()}, ring)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        ring = self.ring
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                prod = ring.mul(ca, cb)
                out[m] = ring.add(out[m], prod) if m in out else prod
        return Polynomial.make(self.nvars, out, ring)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, self.ring.one, self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- the module's operations ----------------------------------------------

    def evaluate(self, point: Sequence, ring=None):
        """Exact value at a point of ring scalars (length must match arity).

        With ``ring`` given, a rational polynomial is evaluated over that
        ring instead (parameter leaves): each coefficient is lifted through
        ``ring.from_rational`` before it meets the point values.
        """
        if len(point) != self.nvars:
            raise ArityMismatchError(
                f"point has arity {len(point)}, polynomial has {self.nvars}"
            )
        if ring is None:
            ring, terms = self.ring, self.terms.items()
        else:
            terms = ((m, ring.from_rational(c)) for m, c in self.terms.items())
        total = ring.zero
        for m, term in terms:
            for e, v in zip(m, point):
                for _ in range(e):
                    term = ring.mul(term, v)
            total = ring.add(total, term)
        return total

    def derivative(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise ArityMismatchError(f"variable index {var} out of range")
        ring = self.ring
        out: dict = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            lowered = tuple(x - 1 if i == var else x for i, x in enumerate(m))
            coeff = ring.mul(ring.from_rational(Fraction(e)), c)
            out[lowered] = ring.add(out[lowered], coeff) if lowered in out else coeff
        return Polynomial.make(self.nvars, out, ring)

    def integral(self, var: int) -> "Polynomial":
        """Antiderivative in ``var`` with zero constant term in that variable."""
        if not 0 <= var < self.nvars:
            raise ArityMismatchError(f"variable index {var} out of range")
        ring = self.ring
        out: dict = {}
        for m, c in self.terms.items():
            e = m[var]
            raised = tuple(x + 1 if i == var else x for i, x in enumerate(m))
            out[raised] = ring.mul(ring.from_rational(Fraction(1, e + 1)), c)
        return Polynomial.make(self.nvars, out, ring)

    def coeff_vector(self, support: Sequence[Monomial]) -> tuple:
        """Coefficients in support order; every term must lie in the support."""
        support = [tuple(m) for m in support]
        index = set(support)
        for m in self.terms:
            if m not in index:
                raise TermOutsideSupportError(
                    f"term {m} lies outside the declared support", m
                )
        zero = self.ring.zero
        # from a list, as in every game round (see protocol._format_values)
        return tuple([self.terms.get(m, zero) for m in support])

    # -- serialization ----------------------------------------------------------

    def to_pairs(self) -> list[tuple[Monomial, str]]:
        """Term array [(exponent tuple, coefficient string)], support order."""
        return [(m, self.ring.to_str(self.terms[m])) for m in self.support()]


def from_coeff_vector(
    support: Sequence[Monomial], coeffs: Sequence, nvars: int, ring=RATIONALS
) -> Polynomial:
    """Inverse of ``coeff_vector`` over the same support."""
    if len(support) != len(coeffs):
        raise ArityMismatchError("support and coefficient vector differ in length")
    terms: dict = {}
    for m, c in zip(support, coeffs):
        if not ring.is_zero(c):
            m = tuple(m)
            terms[m] = ring.add(terms[m], c) if m in terms else c
    return Polynomial.make(nvars, terms, ring)


def product_of_linear_roots(roots: Iterable, ring=RATIONALS) -> Polynomial:
    """prod (Y - root) as a univariate polynomial in Y over ``ring``.

    ``coeffs[k]`` is the coefficient of Y^k; multiplying by Y - root maps it
    to ``coeffs[k - 1] - root * coeffs[k]``.  Over the rationals the roots
    are cleared over the lcm of their denominators (``cleared_row``) and
    multiplied out on integers by ``cleared_root_product``.
    """
    roots = list(roots)
    if isinstance(ring, RationalRing):
        return cleared_root_product(*cleared_row(roots))
    coeffs = root_product_coefficients(roots, ring.one, ring)
    # Highest degree first, the term order the product of sparse factors had.
    return Polynomial.make(1, {(k,): coeffs[k] for k in reversed(range(len(coeffs)))}, ring)


def cleared_root_product(c: int, roots: Sequence[int]) -> Polynomial:
    """prod (Y - root / c) over the rationals, for m integer roots over one
    denominator c.

    The recurrence runs on the integer roots, which gives prod (Z - root)
    with Z = c Y, and the coefficient of Y^k is that of Z^k divided by
    c^(m - k); each makes one Fraction, highest degree first.
    """
    coeffs = root_product_coefficients(roots)
    terms, scale = {}, 1
    for k in reversed(range(len(coeffs))):
        terms[(k,)] = Fraction(coeffs[k], scale)
        scale *= c
    return Polynomial.make(1, terms)


def root_product_coefficients(roots: Iterable, one=1, ring=RATIONALS) -> list:
    """Coefficients of prod (Y - root), lowest degree first; integer roots
    with the defaults give integer coefficients."""
    add, mul = ring.add, ring.mul
    coeffs = [one]
    for root in roots:
        neg = ring.neg(root)
        coeffs = (
            [mul(coeffs[0], neg)]
            + [add(coeffs[k - 1], mul(coeffs[k], neg)) for k in range(1, len(coeffs))]
            + [coeffs[-1]]
        )
    return coeffs


@dataclass(frozen=True)
class PolynomialRing:
    """Ring adapter whose elements are polynomials over a coefficient ring.

    Feeding this adapter to circuit evaluation yields symbolic expansion.
    ``max_terms`` caps intermediate term counts; exceeding it raises
    ExpansionCapExceededError.
    """

    nvars: int
    coeff_ring: object = RATIONALS
    max_terms: int | None = None

    @property
    def zero(self) -> Polynomial:
        return Polynomial.zero(self.nvars, self.coeff_ring)

    def variable(self, index: int) -> Polynomial:
        return Polynomial.variable(self.nvars, index, self.coeff_ring)

    def from_rational(self, q: Fraction) -> Polynomial:
        return Polynomial.constant(self.nvars, self.coeff_ring.from_rational(q), self.coeff_ring)

    def _capped(self, p: Polynomial) -> Polynomial:
        if self.max_terms is not None and p.term_count() > self.max_terms:
            raise ExpansionCapExceededError(
                f"expansion produced {p.term_count()} terms, cap is {self.max_terms}; "
                "--expansion-cap overrides it for circuit expand"
            )
        return p

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self._capped(a + b)

    def sub(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self._capped(a - b)

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self._capped(a * b)
