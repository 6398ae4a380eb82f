"""Identification sequences: size bounds, sampling, and verification.

A point sequence identifies a pair of polynomial carriers when agreement at
every point forces equality.  Full identification for nonlinear carriers is
not decided here; the module offers the sufficient linear certificate (the
evaluation matrix on a spanning support has full column rank, which forces
f - g = 0 for all f, g in the span).  Points are drawn from
{0, ..., set_size - 1} so that a declared finite ground set is sampled
uniformly.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import QuizlabError, check_cap
from .poly import Monomial
from .witness import spans

# The bound L * bits(a) on the bits of a^L in ``required_set_size``.  Its
# Newton root takes O(log bits(a)) steps on numbers of that size; the
# slowest call under the cap takes about 2 ms.
POWER_BITS_CAP = 2 ** 14
# Coordinates one sample draws (n*m).  At the cap, n = 1 with m = 10^6
# takes about 2 s, most of it printing one point per line.
SAMPLE_COORDINATES_CAP = 10 ** 6
# Points times support monomials in a span check.  At the cap a rejected
# span (Bareiss on every row) of 64 points against 1, X, ..., X^63 took
# 0.7 s, and 1.7 s at MONOMIAL_BITS_CAP; 80 points took 2.5 s.
SPAN_ENTRIES_CAP = 4096
# Sum e_i * bits(x_i), x_i the largest i-th coordinate: a bound on the
# bits of every monomial value.  X^(10^7) at two points took 2.6 s.
MONOMIAL_BITS_CAP = 2 ** 14


def required_set_size(delta: int, L: int, K: int) -> int:
    """ceil(delta^3 * (1+L)^(1/L) * (1+K*delta)), computed exactly.

    The irrational factor (1+L)^(1/L) is handled with outward-rounded
    integer bounds: the result is the least integer c with
    c^L >= a^L * (1+L), a = delta^3 * (1+K*delta), all in integers.
    The bits of a^L are held to ``POWER_BITS_CAP`` before the root.
    """
    if delta < 2 or L < 1 or K < 1:
        raise QuizlabError("need delta >= 2, L >= 1, K >= 1")
    a = delta ** 3 * (1 + K * delta)
    bits = L * a.bit_length()
    check_cap("required set size", "L*bits(delta^3*(1+K*delta))", bits, POWER_BITS_CAP)
    return _ceil_root(a ** L * (1 + L), L)


def _ceil_root(target: int, L: int) -> int:
    """The least c with c^L >= target, for target >= 1, by Newton's method
    on integers.

    The start is 2^(log2(target) / L), taken from the top 53 bits of
    target (a float of target itself overflows above 2^1024) and raised by
    a relative 2^-30, far more than the float's error, so it lies just above
    the root and each step about doubles the correct bits.  Correctness
    does not rest on the start: one step from any x > 0 lands at or above
    the floor root r (AM-GM, and a floor of a floor), and from there every
    step strictly decreases until it reaches r.
    """
    shift = max(0, target.bit_length() - 53)
    log_root = (math.log2(target >> shift) + shift) / L
    whole = int(log_root)
    x = ((int(2 ** (log_root - whole + 52)) + (1 << 22)) << whole >> 52) + 1
    x = ((L - 1) * x + target // x ** (L - 1)) // L
    while True:
        y = ((L - 1) * x + target // x ** (L - 1)) // L
        if y >= x:
            break
        x = y
    return x if x ** L == target else x + 1


def minimum_length(L: int) -> int:
    """Shortest guaranteed identification-sequence length, 4L + 2."""
    return 4 * L + 2


@dataclass(frozen=True)
class IdentificationSequence:
    """m integer points in Z^n, with their provenance recorded."""

    points: tuple[tuple[int, ...], ...]
    source_set_size: int
    seed: int | None = None

    def __post_init__(self):
        if not self.points:
            return
        widths = {len(p) for p in self.points}
        if len(widths) > 1:
            raise QuizlabError("points of mixed arity")

    @property
    def length(self) -> int:
        return len(self.points)

    @property
    def nvars(self) -> int:
        return len(self.points[0]) if self.points else 0

    def to_text(self) -> str:
        header = (
            f"idseq v1 n={self.nvars} m={self.length} "
            f"set_size={self.source_set_size} seed={self.seed}"
        )
        lines = [header]
        for p in self.points:
            lines.append(",".join(str(x) for x in p))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_points(
        points: Sequence[Sequence[int]], source_set_size: int = 0, seed: int | None = None
    ) -> "IdentificationSequence":
        return IdentificationSequence(
            tuple(tuple(int(x) for x in p) for p in points), source_set_size, seed
        )


def sample_sequence(
    n: int, m: int, set_size: int, seed: int
) -> IdentificationSequence:
    """m points drawn uniformly from {0..set_size-1}^n, reproducible per seed;
    n*m over ``SAMPLE_COORDINATES_CAP`` is refused before any draw."""
    if n < 1:
        raise QuizlabError(f"point arity n must be at least 1, got {n}")
    if m < 1 or set_size < 1:
        raise QuizlabError("need m >= 1 and set_size >= 1")
    check_cap("identification sequence", "n*m", n * m, SAMPLE_COORDINATES_CAP)
    rng = random.Random(seed)
    points = tuple(
        tuple(rng.randrange(set_size) for _ in range(n)) for _ in range(m)
    )
    return IdentificationSequence(points, set_size, seed)


def verify_linear_span(
    points: IdentificationSequence | Sequence[Sequence[int]],
    support: Sequence[Monomial],
) -> bool:
    """Sufficient linear certificate: full column rank on the support.

    When the m x |support| evaluation matrix has rank |support|, any two
    polynomials in the span of the support that agree on the points are
    equal, so the points identify every carrier inside that span.  Both
    size caps are checked before any row is built.
    """
    pts = points.points if isinstance(points, IdentificationSequence) else points
    check_cap("linear span", "points*support", len(pts) * len(support), SPAN_ENTRIES_CAP)
    widths = [_height_bits(column) for column in zip(*pts)]
    bits = max((sum(map(operator.mul, mono, widths)) for mono in support), default=0)
    check_cap("linear span", "monomial bits", bits, MONOMIAL_BITS_CAP)
    return spans(pts, support)


def _height_bits(values: Sequence) -> int:
    """Bits of the largest |numerator| or denominator among the values."""
    numerators = map(abs, map(operator.attrgetter("numerator"), values))
    return max(max(numerators), max(map(operator.attrgetter("denominator"), values))).bit_length()
