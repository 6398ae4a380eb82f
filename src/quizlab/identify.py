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

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import QuizlabError, check_cap
from .poly import Monomial
from .witness import spans

# The bound L * bits(a) on the bits of a^L in ``required_set_size``.  Its
# binary search takes bits(a) steps on numbers of that size; the slowest
# call under the cap takes about 0.5 s.
POWER_BITS_CAP = 2 ** 14


def required_set_size(delta: int, L: int, K: int) -> int:
    """ceil(delta^3 * (1+L)^(1/L) * (1+K*delta)), computed exactly.

    The irrational factor (1+L)^(1/L) is handled with outward-rounded
    integer bounds: the result is the least integer c with
    c^L >= a^L * (1+L), a = delta^3 * (1+K*delta), found by binary search
    in [a, 2a] (for L >= 1, the factor lies in (1, 2]), all in integers.
    The bits of a^L are held to ``POWER_BITS_CAP`` before the search.
    """
    if delta < 2 or L < 1 or K < 1:
        raise QuizlabError("need delta >= 2, L >= 1, K >= 1")
    a = delta ** 3 * (1 + K * delta)
    bits = L * a.bit_length()
    check_cap("required set size", "L*bits(delta^3*(1+K*delta))", bits, POWER_BITS_CAP)
    target = a ** L * (1 + L)
    lo, hi = a, 2 * a
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** L >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    """m points drawn uniformly from {0..set_size-1}^n, reproducible per seed."""
    if n < 1:
        raise QuizlabError(f"point arity n must be at least 1, got {n}")
    if m < 1 or set_size < 1:
        raise QuizlabError("need m >= 1 and set_size >= 1")
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
    equal, so the points identify every carrier inside that span.
    """
    pts = points.points if isinstance(points, IdentificationSequence) else points
    return spans(pts, support)

