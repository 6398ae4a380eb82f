"""Approximative parameter instances: Laurent germs and what they encode.

A germ is a vector of truncated Laurent series in e, one per parameter.
Evaluating a family circuit at a germ produces a polynomial in the inputs
whose coefficients are Laurent series; when every coefficient is
holomorphic at the origin the germ encodes H = (value at e = 0) with
remainder slope H' = (coefficient of e^1).  Substituting a concrete
sequence e_k -> 0 into the germ bridges to the sequence picture: the
family values at u(e_k) converge to H coefficientwise.

All in-scope parameter domains are full affine spaces, so the vanishing
ideal of the domain is zero and germ validation is structural; domains
with nontrivial ideals are rejected outright.  The localization polynomial
of the construction is the constant 1 for the same reason.

The border family t*((u*X1 + v*X2)^n - (u*X1)^n) lives here as a worked
demo: its limit point X1*X2 (for n = 2) lies in the closure of the image
but not in the image, certified by the unsatisfiable coefficient system
t*v^2 = 0 and 2*t*u*v = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, CircuitBuilder
from .errors import (
    ArityMismatchError,
    PrecisionUnderflowError,
    QuizlabError,
    UnsupportedDomainError,
)
from .exact import (
    DEFAULT_LAURENT_PRECISION,
    LaurentRing,
    LaurentSeries,
)
from .families import FamilyDescriptor, build_circuit
from .poly import Monomial, Polynomial, PolynomialRing


@dataclass(frozen=True)
class GermInstance:
    """Vector of truncated Laurent series, one component per parameter."""

    components: tuple[LaurentSeries, ...]
    precision: int = DEFAULT_LAURENT_PRECISION

    @staticmethod
    def make(components: Sequence, precision: int = DEFAULT_LAURENT_PRECISION) -> "GermInstance":
        out = []
        for comp in components:
            if isinstance(comp, LaurentSeries):
                out.append(comp)
            else:
                out.append(LaurentSeries.from_rational(Fraction(comp)))
        return GermInstance(tuple(out), precision)

    @staticmethod
    def constant(point: Sequence, precision: int = DEFAULT_LAURENT_PRECISION) -> "GermInstance":
        return GermInstance.make([Fraction(x) for x in point], precision)

    @property
    def arity(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return "(" + "; ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class EncodingResult:
    """Outcome of evaluating a family at a germ.

    ``holomorphic`` is True when every output coefficient extends to the
    origin; then ``h`` is the encoded polynomial and ``h_prime_leading``
    the coefficient of e^1 of the remainder.  Otherwise the offending
    input monomial is named.
    """

    holomorphic: bool
    h: Polynomial | None
    h_prime_leading: Polynomial | None
    precision_used: int
    offending_monomial: Monomial | None = None


def _circuit_for(desc_or_circuit: FamilyDescriptor | Circuit) -> Circuit:
    if isinstance(desc_or_circuit, Circuit):
        return desc_or_circuit
    return build_circuit(desc_or_circuit.base())


def validate_instance(
    germ: GermInstance,
    desc_or_circuit: FamilyDescriptor | Circuit,
    domain_ideal: Sequence[Polynomial] = (),
) -> bool:
    """Structural validity of a germ for a family.

    In-scope parameter domains are full affine spaces (zero vanishing
    ideal), so the check is arity plus per-component usability: a component
    that carries no known term is a zero-precision sentinel and invalidates
    the germ.  A nonzero ``domain_ideal`` is out of scope and rejected.
    """
    if domain_ideal and any(not g.is_zero() for g in domain_ideal):
        raise UnsupportedDomainError(
            "parameter domains with nontrivial vanishing ideals are not supported"
        )
    arity = (
        desc_or_circuit.n_params
        if isinstance(desc_or_circuit, Circuit)
        else desc_or_circuit.param_arity
    )
    if germ.arity != arity:
        raise ArityMismatchError(
            f"germ has arity {germ.arity}, family expects {arity}"
        )
    for comp in germ.components:
        if not comp.coeffs and comp.bound is not None:
            return False
    return True


def encode(
    germ: GermInstance,
    desc_or_circuit: FamilyDescriptor | Circuit,
    precision: int | None = None,
) -> EncodingResult:
    """Evaluate the family at the germ and split off the value at e = 0.

    The circuit is evaluated symbolically in the inputs with Laurent
    coefficients.  If any output coefficient has a pole the result is
    non-holomorphic and names the offending monomial; if truncation hides
    the needed low-order terms, PrecisionUnderflowError asks the caller to
    retry with a higher precision.
    """
    validate_instance(germ, desc_or_circuit)
    circ = _circuit_for(desc_or_circuit)
    if precision is None:
        precision = germ.precision or DEFAULT_LAURENT_PRECISION
    if precision < 1:
        raise QuizlabError(f"encoding precision must be at least 1, got {precision}")
    laurent = LaurentRing(precision)
    ring = PolynomialRing(circ.n_inputs, laurent)
    params = [
        Polynomial.constant(circ.n_inputs, comp, laurent) for comp in germ.components
    ]
    inputs = [ring.variable(i) for i in range(circ.n_inputs)]
    result = circ.evaluate(params, inputs, ring)
    h_terms: dict = {}
    h_prime_terms: dict = {}
    for mono, series in result.terms.items():
        if any(exp < 0 and c != 0 for exp, c in series.to_pairs()):
            return EncodingResult(
                holomorphic=False,
                h=None,
                h_prime_leading=None,
                precision_used=precision,
                offending_monomial=mono,
            )
        try:
            c0 = series.coefficient(0)
            c1 = series.coefficient(1)
        except PrecisionUnderflowError as exc:
            raise PrecisionUnderflowError(
                f"{exc}; raise the encoding precision above {precision} and retry"
            ) from exc
        if c0 != 0:
            h_terms[mono] = c0
        if c1 != 0:
            h_prime_terms[mono] = c1
    return EncodingResult(
        holomorphic=True,
        h=Polynomial.make(circ.n_inputs, h_terms),
        h_prime_leading=Polynomial.make(circ.n_inputs, h_prime_terms),
        precision_used=precision,
    )


def sequence_from_germ(
    germ: GermInstance, eps_values: Sequence
) -> list[tuple[Fraction, ...]]:
    """Substitute concrete epsilon values into every component, exactly."""
    points = []
    for eps in eps_values:
        eps = Fraction(eps)
        if eps == 0:
            raise QuizlabError("epsilon = 0 is the excluded origin (pole)")
        points.append(tuple(comp.substitute(eps) for comp in germ.components))
    return points


# ---------------------------------------------------------------------------
# Border family demo
# ---------------------------------------------------------------------------

def border_family_circuit(n: int = 2) -> Circuit:
    """Circuit for t * ((u*X1 + v*X2)^n - (u*X1)^n), parameters (t, u, v)."""
    if n < 2:
        raise QuizlabError("the border demo needs n >= 2")
    b = CircuitBuilder(n_inputs=2, n_params=3)
    a = b.mul(b.param(1), b.input(0))
    c = b.mul(b.param(2), b.input(1))
    s = b.add(a, c)
    diff = b.sub(b.power(s, n), b.power(a, n))
    return b.finish(b.mul(b.param(0), diff))


def border_demo_germ(precision: int = DEFAULT_LAURENT_PRECISION) -> GermInstance:
    """The germ (1/(2e), 1, e); encodes X1*X2 for the n = 2 border family."""
    return GermInstance.make(
        [
            LaurentSeries.monomial(Fraction(1, 2), -1),
            LaurentSeries.from_rational(1),
            LaurentSeries.epsilon(),
        ],
        precision,
    )


def _substitute_zero(f: Polynomial, var: int) -> Polynomial:
    terms = {m: c for m, c in f.terms.items() if m[var] == 0}
    return Polynomial.make(f.nvars, terms, f.ring)


def _nonzero_constant(f: Polynomial) -> bool:
    if f.term_count() != 1:
        return False
    (mono, coeff), = f.terms.items()
    return all(e == 0 for e in mono) and coeff != 0


def image_nonmembership_certificate(
    circ: Circuit, target: Polynomial
) -> bool | None:
    """Try to certify that the target lies outside the exact image.

    The target is in the image iff the coefficient system
    {coeff_mono(params) = target coefficient} is satisfiable.  The
    certificate handles the monomial case: if some constraint says a pure
    parameter monomial vanishes, its zero set is a union of coordinate
    hyperplanes, and if another constraint restricts to a nonzero constant
    on every one of those hyperplanes the system is unsatisfiable.
    Returns True (certified non-membership) or None (no certificate found);
    it never certifies membership.
    """
    sym = circ.expand_symbolic()
    r = circ.n_params
    coeff_polys: dict[Monomial, Polynomial] = {}
    for mono, coeff in sym.terms.items():
        input_part = mono[r:]
        poly = coeff_polys.get(input_part, Polynomial.zero(r))
        coeff_polys[input_part] = poly + Polynomial.make(r, {mono[:r]: coeff})
    monos = set(coeff_polys) | set(target.terms)
    constraints = []
    for mono in monos:
        lhs = coeff_polys.get(mono, Polynomial.zero(r))
        rhs = target.coefficient(tuple(mono))
        constraints.append(lhs - Polynomial.constant(r, rhs))
    for vanishing in constraints:
        if vanishing.term_count() != 1:
            continue
        (mono, _), = vanishing.terms.items()
        if all(e == 0 for e in mono):
            return True  # constant nonzero constraint: no solutions at all
        hyperplanes = [i for i, e in enumerate(mono) if e > 0]
        for other in constraints:
            if other is vanishing:
                continue
            if all(
                _nonzero_constant(_substitute_zero(other, var)) for var in hyperplanes
            ):
                return True
    return None


@dataclass(frozen=True)
class ClosureDemoReport:
    """Witnesses for the three faces of an approximative encoding."""

    germ_text: str
    encoded: Polynomial
    eps_values: tuple[Fraction, ...]
    distances: tuple[Fraction, ...]
    distances_decreasing: bool
    nonmembership_certified: bool | None

    def to_text(self) -> str:
        lines = [
            "closure-demo v1",
            f"germ: {self.germ_text}",
            f"encodes: {self.encoded}",
        ]
        for eps, dist in zip(self.eps_values, self.distances):
            lines.append(f"eps={eps} coefficient_distance={dist}")
        lines.append(f"distances_decreasing: {self.distances_decreasing}")
        if self.nonmembership_certified:
            status = "certified (target outside the exact image)"
        else:
            status = "no certificate found"
        lines.append(f"nonmembership: {status}")
        return "\n".join(lines) + "\n"


def coefficient_distance(f: Polynomial, g: Polynomial) -> Fraction:
    """Max-abs distance between coefficient vectors over the union support."""
    monos = set(f.terms) | set(g.terms)
    dist = Fraction(0)
    for m in monos:
        delta = abs(Fraction(f.coefficient(m)) - Fraction(g.coefficient(m)))
        dist = max(dist, delta)
    return dist


def closure_membership_demo(
    desc_or_circuit: FamilyDescriptor | Circuit,
    target: Polynomial,
    germ: GermInstance,
    depth: int = 10,
) -> ClosureDemoReport:
    """Exhibit one polynomial in the closure through all three viewpoints.

    The germ itself witnesses the encoding; substituting eps_k = 2^-k and
    expanding the family at the resulting parameter points witnesses the
    convergent sequence (exact coefficient distances to the target must be
    nonincreasing); where the monomial certificate applies, non-membership
    of the target in the exact image is recorded as well.
    """
    if depth < 1:
        raise QuizlabError(f"demo depth must be at least 1, got {depth}")
    enc = encode(germ, desc_or_circuit)
    if not enc.holomorphic or enc.h != target:
        raise QuizlabError("the germ does not encode the requested target")
    circ = _circuit_for(desc_or_circuit)
    eps_values = tuple(Fraction(1, 2 ** k) for k in range(1, depth + 1))
    distances = []
    for point in sequence_from_germ(germ, eps_values):
        value = circ.expand(point)
        distances.append(coefficient_distance(value, target))
    decreasing = all(a >= b for a, b in zip(distances, distances[1:]))
    certificate = image_nonmembership_certificate(circ, target)
    return ClosureDemoReport(
        germ_text=str(germ),
        encoded=enc.h,
        eps_values=eps_values,
        distances=tuple(distances),
        distances_decreasing=decreasing,
        nonmembership_certified=certificate,
    )
