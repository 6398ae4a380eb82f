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
    CapExceededError,
    PrecisionUnderflowError,
    QuizlabError,
    check_cap,
)
from .exact import (
    DEFAULT_LAURENT_PRECISION,
    LaurentRing,
    LaurentSeries,
    cleared_series,
    printable,
    substitute_cleared,
)
from .families import FamilyDescriptor, build_circuit
from .poly import Monomial, Polynomial, PolynomialRing


# Widest exponent gap of a germ component: every Laurent series stores a
# dense window from its lowest to its highest exponent.
GERM_GAP_CAP = 64


def check_germ_gap(index: int, low: int, high: int) -> None:
    """Refuse component ``index`` (from 1) when its exponents span e^low..e^high
    with a gap over ``GERM_GAP_CAP``."""
    if high - low > GERM_GAP_CAP:
        raise CapExceededError(
            f"germ exponent gap cap: component {index} spans e^{low}..e^{high}, "
            f"gap {high - low} exceeds {GERM_GAP_CAP}; no override"
        )


# Lengths of a halving schedule eps_k = 2^-k.  The k-th sample's parameters
# carry k-bit denominators, so a schedule costs more than linearly in its
# length (numeric mode with a positive tolerance also compares every pair of
# tail vectors).  At the cap, game approx --numeric --samples=100 takes
# about 4.5 s at univariate-d(64) past the strategy's compile, and approx
# demo --depth=100 about 3 s at neural-power(6).
SAMPLES_CAP = 100
DEMO_DEPTH_CAP = 100


def halving_schedule(count: int, what: str, cap: int) -> tuple[Fraction, ...]:
    """The schedule eps_k = 2^-k for k = 1..count.  ``what`` names the count
    in the messages; a count below 1 or over ``cap`` is refused before any
    sample is built."""
    if count < 1:
        raise QuizlabError(f"{what} must be at least 1, got {count}")
    check_cap("halving schedule", what, count, cap)
    return tuple([Fraction(1, 2 ** k) for k in range(1, count + 1)])


@dataclass(frozen=True)
class GermInstance:
    """Vector of truncated Laurent series, one component per parameter.

    Each component's coefficient window spans at most ``GERM_GAP_CAP``
    exponents, however the germ is built.
    """

    components: tuple[LaurentSeries, ...]

    def __post_init__(self):
        for index, comp in enumerate(self.components, 1):
            check_germ_gap(index, comp.low, comp.low + max(len(comp.coeffs) - 1, 0))

    @staticmethod
    def make(components: Sequence) -> "GermInstance":
        out = []
        for comp in components:
            if isinstance(comp, LaurentSeries):
                out.append(comp)
            else:
                out.append(LaurentSeries.from_rational(Fraction(comp)))
        return GermInstance(tuple(out))

    @staticmethod
    def constant(point: Sequence) -> "GermInstance":
        return GermInstance.make([Fraction(x) for x in point])

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
    offending_monomial: Monomial | None = None


def _circuit_for(desc_or_circuit: FamilyDescriptor | Circuit) -> Circuit:
    if isinstance(desc_or_circuit, Circuit):
        return desc_or_circuit
    return build_circuit(desc_or_circuit.base())


def validate_instance(germ: GermInstance, desc_or_circuit: FamilyDescriptor | Circuit) -> bool:
    """Structural validity of a germ for a family.

    In-scope parameter domains are full affine spaces (zero vanishing
    ideal), so the check is arity plus per-component usability: a component
    that carries no known term is a zero-precision sentinel and invalidates
    the germ.
    """
    arity = (
        desc_or_circuit.n_params
        if isinstance(desc_or_circuit, Circuit)
        else desc_or_circuit.param_arity
    )
    if germ.arity != arity:
        raise ArityMismatchError(
            f"germ has arity {germ.arity}, family expects {arity}"
        )
    return _unknown_component(germ) is None


def _unknown_component(germ: GermInstance) -> int | None:
    """The 1-based index of the first component that carries no known term."""
    for index, comp in enumerate(germ.components, 1):
        if not comp.coeffs and comp.bound is not None:
            return index
    return None


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
    retry with a higher precision.  A germ that ``validate_instance`` refuses
    raises QuizlabError naming its unknown component.
    """
    if not validate_instance(germ, desc_or_circuit):
        raise QuizlabError(
            f"germ component {_unknown_component(germ)} is a truncated zero with no "
            "known term; no precision can encode it"
        )
    circ = _circuit_for(desc_or_circuit)
    if precision is None:
        precision = DEFAULT_LAURENT_PRECISION
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
    )


def sequence_from_germ(
    germ: GermInstance, eps_values: Sequence
) -> list[tuple[Fraction, ...]]:
    """Substitute concrete epsilon values into every component, exactly.

    The first sample clears every component once (``cleared_series``), and
    each sample e = p / q takes each component as one integer sum and one
    Fraction (``substitute_cleared``).  e = 0 is refused as the pole, and a
    truncated component raises PrecisionUnderflowError.
    """
    cleared = None
    points = []
    for eps in eps_values:
        eps = Fraction(eps)
        if eps == 0:
            raise QuizlabError("epsilon = 0 is the excluded origin (pole)")
        if cleared is None:
            cleared = [cleared_series(comp) for comp in germ.components]
        p, q = eps.numerator, eps.denominator
        points.append(tuple([substitute_cleared(comp, p, q) for comp in cleared]))
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


def border_demo_germ() -> GermInstance:
    """The germ (1/(2e), 1, e); encodes X1*X2 for the n = 2 border family."""
    return GermInstance.make(
        [
            LaurentSeries.monomial(Fraction(1, 2), -1),
            LaurentSeries.from_rational(1),
            LaurentSeries.epsilon(),
        ]
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
            lines.append(f"eps={printable(eps)} coefficient_distance={printable(dist)}")
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
    germ: GermInstance,
    depth: int = 10,
) -> ClosureDemoReport:
    """Exhibit the polynomial the germ encodes through all three viewpoints.

    The target is the germ's value at e = 0; after the depth check, a germ
    with a pole is refused.  The germ itself witnesses the encoding;
    substituting eps_k = 2^-k and expanding the family at the resulting
    parameter points witnesses the convergent sequence (exact coefficient
    distances to the target must be nonincreasing); where the monomial
    certificate applies, non-membership of the target in the exact image is
    recorded as well.
    """
    eps_values = halving_schedule(depth, "demo depth", DEMO_DEPTH_CAP)
    enc = encode(germ, desc_or_circuit)
    if not enc.holomorphic:
        raise QuizlabError("germ does not encode a polynomial")
    target = enc.h
    circ = _circuit_for(desc_or_circuit)
    distances = []
    for point in sequence_from_germ(germ, eps_values):
        value = circ.expand(point)
        distances.append(coefficient_distance(value, target))
    decreasing = all(a >= b for a, b in zip(distances, distances[1:]))
    certificate = image_nonmembership_certificate(circ, target)
    return ClosureDemoReport(
        germ_text=str(germ),
        encoded=target,
        eps_values=eps_values,
        distances=tuple(distances),
        distances_decreasing=decreasing,
        nonmembership_certified=certificate,
    )
