"""Exact-rank witness matrices for the representation-size lower bounds.

Every lower-bound argument in scope reduces to the nonsingularity of one
finite matrix: the t-slope matrix of a power form at sampled parameter
directions, a scaled root-of-unity Vandermonde matrix, or the hypercube
coefficient matrix.  This module assembles those matrices and computes
their rank exactly.

All elimination runs on integer rows, with one kernel per field.  Both
power forms are t * g(u; X), so the slope along t -> (t, u) is the form at
t = 1: each slope row is ``power_form_row`` at (1, u), and at integer
directions no Fraction is made.  Over the rationals each row
is cleared of its denominators, and one fraction-free
loop (Bareiss 1968) serves both callers: run forward only, it gives the
rank; run as Gauss-Jordan on [A' | diag(s)], it compiles a linear system
once (``compile_system``) for any number of right-hand sides.  A compiled
solve is integer work too, over the rationals and over Laurent series
alike: the compiled rows act on b one power of e at a time, each power a
rational column cleared to integers once, and each unknown takes one
exact division per column.  A matrix
over F_p carries its prime as ``modulus`` and holds integer residues.
One kernel ranks every matrix over F_p, row by row, and stops once the
rank reaches the width.  It packs each row into one int, a field of
W = 2 bits(p) + bits(width) bits per column (Kronecker substitution over a
small field, after Dumas, Fousse and Salvy 2011), so that clearing a
column against a pivot row is one big-integer multiply-add.  Pivot rows
are kept reduced, every field below p, and a new row's fields start below
p.  Each of the fewer than width pivots adds at most (p - 1)^2 to a field,
so a field stays below width * p^2 < 2^W and never carries into the next
one.  A reduced row is unpacked once, to reduce its fields mod p.  A
rational rank is certified mod RANK_PRIME first: every minor mod p is the
residue of the integer minor, so the rank mod p never exceeds the rank
over Q, and full rank mod p is exact.  Bareiss runs only on a shortfall.
perfbench checks span certificates mod 2^61 - 1, so this prime differs to
keep that check independent.
Root-of-unity matrices are verified modulo a prime p = 1 (mod D+1): the
entries live in Z[zeta] and reduce to F_p through a ring morphism, so a
nonzero determinant mod p certifies a nonzero determinant over the
complex numbers.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import (
    ArityMismatchError,
    InconsistentSystemError,
    QuizlabError,
    UnderdeterminedSystemError,
    check_cap,
)
from .exact import (
    _ZERO,
    LaurentSeries,
    _window,
    cleared_row,
    modular_root_of_unity,
    smallest_prime_modulus,
)
from .families import (
    DESK_CAPS,
    EASY_POWER_SUM,
    HYPERCUBE_SHIFT,
    KRONECKER_DIAG,
    NEURAL_POWER,
    UNIVARIATE_D,
    FamilyDescriptor,
    power_form_row,
    univariate_d,
    vertex_monomials,
)
from .poly import Monomial, root_product_coefficients

VARIANT_BASE = "base"
VARIANT_DERIVATIVE = "derivative"
VARIANT_INTEGRAL = "integral"

RANK_PRIME = 2 ** 31 - 1  # certifies rational ranks; see the module docstring
# Trials per lower-bound report, and trials * K^2 for the work of a family
# that is sampled (univariate-d is ranked once).  A trial takes 2.4 to 5.2
# us per K^2 at the larger desk-cap families, mostly the rank mod p: 0.34 s
# at easy-power-sum(l=8, n=1), K = 256.  At the work cap the slowest report
# took about 6 s as a CLI child: 16 trials at easy-power-sum(8, 1), or 1000
# at hypercube-shift(5).
REPORT_TRIALS_CAP = 1000
REPORT_WORK_CAP = 2 ** 20


@dataclass(frozen=True)
class ExactMatrix:
    """Rectangular matrix over the rationals, or over F_p when ``modulus``
    is the prime p (the entries are then integer residues)."""

    entries: tuple[tuple, ...]
    modulus: int | None = None

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise QuizlabError("ragged matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], modulus: int | None = None) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(row) for row in rows), modulus)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _bareiss(grid: list[list[int]], width: int, above: bool) -> tuple[list[int], int]:
    """Fraction-free elimination (Bareiss 1968) of integer rows, in place.

    Pivots are taken in the first ``width`` columns; every column of a row
    is updated.  Each intermediate entry is a minor of the input, so every
    division is exact.  With ``above`` the rows above each pivot are
    cleared too (Gauss-Jordan), and every pivot row ends with the same
    pivot.  Returns the pivot columns and the last pivot (1 if none).
    """
    m = len(grid)
    pivot_cols: list[int] = []
    prev = 1
    for col in range(width):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, m) if grid[i][col]), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        top = grid[r]
        p = top[col]
        for i in range(0 if above else r + 1, m):
            if i != r:
                f = grid[i][col]
                grid[i] = [(p * x - f * t) // prev for x, t in zip(grid[i], top)]
        prev = p
        pivot_cols.append(col)
    return pivot_cols, prev


def _rank_prime_field(rows: Iterable[Sequence[int]], p: int = RANK_PRIME) -> int:
    """Rank over F_p of integer rows, taken one at a time.  Each row is
    packed into one int, one field of w bits per column (the module
    docstring gives the bound behind w).  Each pivot, in column order, adds
    (p - f) times its packed row, where f is the row's field at the pivot
    column mod p.  The row is then unpacked once: its first nonzero field is
    its pivot, and the scaled row is packed again as a pivot.  The loop stops
    once the rank reaches the width, so later rows are never even built."""
    pivots: list[tuple[int, int]] = []  # (pivot column * w, packed row), by column
    shifts = None
    for row in rows:
        if shifts is None:
            w = 2 * p.bit_length() + len(row).bit_length()
            mask = (1 << w) - 1
            shifts = range(0, len(row) * w, w)
        acc = 0
        for x in reversed(row):
            acc = acc << w | x % p
        for shift, top in pivots:
            f = (acc >> shift & mask) % p
            if f:
                acc += (p - f) * top
        fields = [(acc >> s & mask) % p for s in shifts]
        col = next((j for j, x in enumerate(fields) if x), None)
        if col is not None:
            inv = pow(fields[col], -1, p)
            top = 0
            for x in reversed(fields):
                top = top << w | x * inv % p
            bisect.insort(pivots, (col * w, top))
            if len(pivots) == len(fields):
                break
    return len(pivots)


def _rational_rank(rows: Iterable[list[int]], width: int) -> int:
    """Rank over Q of integer rows, certified mod RANK_PRIME first.  Full
    rank there is exact and may stop before the last row; only a shortfall
    runs Bareiss, on the rows the mod-p pass has already taken."""
    ahead, kept = itertools.tee(rows)
    rank = _rank_prime_field(ahead)
    if rank < width:
        grid = list(kept)
        if rank < len(grid):
            rank = len(_bareiss(grid, width, above=False)[0])
    return rank


def exact_rank(matrix: ExactMatrix) -> int:
    """Rank over the matrix's field: Q, or F_p when it has a modulus."""
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    if matrix.modulus is not None:
        return _rank_prime_field(matrix.entries, matrix.modulus)
    # Clearing denominators row by row does not change the rank.
    return _rational_rank((cleared_row(row)[1] for row in matrix.entries), matrix.cols)


@dataclass(frozen=True)
class CompiledSystem:
    """A rational system A x = b with A fixed, eliminated once for every b.

    ``rows[:rank]`` divided by ``denominators`` form a left inverse of A on
    ``pivot_cols``; ``rows[rank:]`` span the left null space of A, so b lies
    in the column space of A exactly when each of them vanishes on b.  All
    entries are integers, and they act on b one rational column at a time:
    a rational b is one column, and a vector of Laurent series is one column
    per power of e that carries a nonzero coefficient.  Each column is
    cleared to integers once, so each row is one integer dot product per
    column and each unknown one Fraction per column.
    """

    unknowns: int
    pivot_cols: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def solve(self, rhs: Sequence) -> list:
        """The unique x with A x = rhs; rhs entries are ints, Fractions or
        Laurent series.

        A rational rhs gives a Fraction per unknown.  If any entry is a
        Laurent series, every entry is read as one (a rational as an exact
        constant) and each unknown is a Laurent series.  A row's result is
        known below the least bound among the entries it combines with a
        nonzero coefficient, so a null row that meets a truncated entry
        never vanishes.  Raises InconsistentSystemError when no solution
        exists (checked first), UnderdeterminedSystemError when it is not
        unique, and QuizlabError for any other entry type.
        """
        b = list(rhs)
        if len(b) != len(self.rows):
            raise QuizlabError("matrix and right-hand side differ in length")
        if all(isinstance(x, (int, Fraction)) for x in b):
            scale, column = cleared_row(b)

            def apply(row: Sequence[int], d: int):
                return Fraction(sum(map(operator.mul, row, column)), d * scale)
        else:
            apply = _laurent_columns(b)
        for row in self.rows[self.rank :]:
            if apply(row, 1):
                raise InconsistentSystemError(
                    "values are not explainable within the declared support"
                )
        if self.rank < self.unknowns:
            raise UnderdeterminedSystemError(
                f"system rank {self.rank} < {self.unknowns} unknowns"
            )
        # Full column rank: the pivot columns are 0..n-1, in order.
        return [apply(row, d) for row, d in zip(self.rows, self.denominators)]


def _laurent_columns(b: Sequence) -> Callable[[Sequence[int], int], LaurentSeries]:
    """The map taking a compiled row and its denominator d to the row's
    combination of the Laurent entries of b, divided by d.

    Each power of e with a nonzero coefficient in b is one column, cleared
    to integers once.  A column at or past the row's bound is not applied.
    """
    series = []
    for x in b:
        if isinstance(x, LaurentSeries):
            series.append(x)
        elif isinstance(x, (int, Fraction)):
            series.append(LaurentSeries.from_rational(x))
        else:
            raise QuizlabError(f"cannot solve for a right-hand side of {type(x).__name__}")
    powers: dict[int, list] = {}
    for i, s in enumerate(series):
        for k, c in enumerate(s.coeffs, s.low):
            if c:
                powers.setdefault(k, [0] * len(series))[i] = c
    columns = [(k, *cleared_row(powers[k])) for k in sorted(powers)]
    low = columns[0][0] if columns else 0
    width = columns[-1][0] - low + 1 if columns else 0
    truncated = [(i, s.bound) for i, s in enumerate(series) if s.bound is not None]

    def apply(row: Sequence[int], d: int) -> LaurentSeries:
        bound = min((t for i, t in truncated if row[i]), default=None)
        acc = [_ZERO] * width
        for k, scale, column in columns:
            if bound is not None and k >= bound:
                break
            dot = sum(map(operator.mul, row, column))
            if dot:
                acc[k - low] = Fraction(dot, d * scale)
        return _window(low, acc, bound)

    return apply


def compile_system(matrix_rows: Sequence[Sequence[Fraction]]) -> CompiledSystem:
    """Eliminate the rational matrix A once, for solving A x = b for many b.

    Each row of A is scaled to integers by the lcm of its denominators s_i,
    and fraction-free Gauss-Jordan elimination (Bareiss's exact divisions,
    applied to the rows above the pivot too) runs on [A' | diag(s)].  Every
    intermediate entry is a minor of that integer matrix, so each division
    is exact, and every pivot row ends with the same pivot d.  The right
    block then holds integer rows E with E A = (d-scaled) rref(A) on the
    pivot rows and E A = 0 on the rest.
    """
    m = len(matrix_rows)
    n = len(matrix_rows[0]) if matrix_rows else 0
    grid: list[list[int]] = []
    for i, row in enumerate(matrix_rows):
        scale, cleared = cleared_row(row)
        grid.append(cleared + [scale if j == i else 0 for j in range(m)])
    pivot_cols, prev = _bareiss(grid, n, above=True)
    rank = len(pivot_cols)
    rows: list[tuple[int, ...]] = []
    denominators: list[int] = []
    for i, row in enumerate(grid):
        e = row[n:]
        # Pivot rows carry the common pivot as their denominator; null rows
        # only need their direction.  Dividing out the content keeps them small.
        d = prev if i < rank else 0
        g = math.gcd(d, *e)
        if d < 0:
            g = -g
        rows.append(tuple([x // g for x in e]))
        if i < rank:
            denominators.append(d // g)
    return CompiledSystem(n, tuple(pivot_cols), tuple(rows), tuple(denominators))


def solve_exact(system: CompiledSystem, rhs: Sequence) -> list:
    """The unique x with A x = b, for A compiled once (``compile_system``)
    and b of ints, Fractions or Laurent series: a game strategy carries its
    questions' system, so a round only applies the compiled map.  Errors as
    ``CompiledSystem.solve``."""
    return system.solve(rhs)


# ---------------------------------------------------------------------------
# Witness matrices
# ---------------------------------------------------------------------------

def monomial_values(point: Sequence[int], support: Sequence[Monomial]) -> list:
    """The value of each support monomial at the point: integers at an
    integer point, Fractions at a rational one."""
    return [math.prod(x ** e for e, x in zip(mono, point)) for mono in support]


def evaluation_matrix(
    points: Sequence[Sequence[int]], support: Sequence[Monomial]
) -> ExactMatrix:
    """Rows: one per point; columns: monomial values at that point.

    Points have integer (or rational) coordinates, so each value is an
    exact product: an int at an integer point, a Fraction at a rational
    one.  Every point and monomial must have the same arity.
    """
    _check_arity(points, support)
    return ExactMatrix.from_rows(monomial_values(point, support) for point in points)


def spans(points: Sequence[Sequence[int]], support: Sequence[Monomial]) -> bool:
    """Whether the evaluation rows of the points have rank |support|.  Every
    arity is checked first; rows are then built only as the rank needs them."""
    _check_arity(points, support)
    rows = (cleared_row(monomial_values(point, support))[1] for point in points)
    return _rational_rank(rows, len(support)) == len(support)


def _check_arity(points: Sequence[Sequence[int]], support: Sequence[Monomial]) -> None:
    arities = {len(mono) for mono in support} | {len(point) for point in points}
    if len(arities) > 1:
        raise ArityMismatchError(
            f"points and support monomials mix arities {sorted(arities)}"
        )


def derivative_matrix(
    desc: FamilyDescriptor, directions: Sequence[Sequence]
) -> ExactMatrix:
    """Coefficient vectors of the t-slope of the family at each direction u.

    Both power forms are t * g(u; X), so along t -> (t, u) the slope is the
    form at t = 1: one ``power_form_row`` at (1, u) over its denominator s,
    which refuses every other family.  At integer directions s = 1 and the
    entries are ints.
    """
    base = desc.base()
    rows = []
    for u in directions:
        s, row = power_form_row(base, (1, *u))
        rows.append(row if s == 1 else [Fraction(x, s) for x in row])
    return ExactMatrix.from_rows(rows)


def roots_of_unity_matrix(d_degree: int, variant: str) -> tuple[ExactMatrix, int]:
    """The root-of-unity slope matrix for the univariate family, mod p.

    Rows are indexed by the (D+1)-th roots of unity zeta (realized as the
    powers of an element of exact order D+1 in F_p); row entries are the
    coefficients of (D+1) * zeta^D * sum_k c_k zeta^k X^{e_k} with
    (c_k, e_k) depending on the task variant:

    * base:       c_k = 1,       e_k = k,     k = 0..D  (width D+1)
    * derivative: c_k = k,       e_k = k - 1, k = 1..D  (width D)
    * integral:   c_k = 1/(k+1), e_k = k + 1, k = 0..D  (width D+1)

    Each row is the slope at s = 0 along the root-shift curve t = zeta + s,
    in closed form: t^(D+1) - 1 vanishes there with slope (D+1) zeta^D.
    Returns the matrix of residues in [0, p), carrying p, together with p.
    D is held to the univariate-d desk cap: the cost grows as D^3.
    """
    if variant not in (VARIANT_BASE, VARIANT_DERIVATIVE, VARIANT_INTEGRAL):
        raise QuizlabError(f"unknown roots-of-unity variant {variant!r}")
    if d_degree < 0:
        raise QuizlabError(f"need degree D >= 0, got {d_degree}")
    if d_degree:
        univariate_d(d_degree)  # the descriptor holds D to its desk cap
    d = d_degree + 1
    p = smallest_prime_modulus(d)
    zeta = modular_root_of_unity(p, d)
    if variant == VARIANT_BASE:
        ks = range(0, d)
        scales = [1] * d
    elif variant == VARIANT_DERIVATIVE:
        ks = range(1, d)
        scales = [k % p for k in ks]
    else:
        ks = range(0, d)
        scales = [pow(k + 1, -1, p) for k in ks]
    rows = []
    for j in range(d):
        root = pow(zeta, j, p)
        prefix = d * pow(root, d_degree, p)
        rows.append([prefix * scale * pow(root, k, p) % p for scale, k in zip(scales, ks)])
    return ExactMatrix.from_rows(rows, p), p


def roots_of_unity_rank(d_degree: int, variant: str) -> int:
    """Exact rank of the root-of-unity slope matrix, certified mod p.

    The matrix has full rank in the variant's carrier: D+1 for base and
    integral, D for derivative (its rows lie among polynomials of degree
    < D, so it is (D+1) x D).
    """
    matrix, _ = roots_of_unity_matrix(d_degree, variant)
    return exact_rank(matrix)


def hypercube_size(n: int) -> int:
    """2^n, the number of vertex monomials and of points, for n from 0 to
    the hypercube-shift desk cap."""
    if n < 0:
        raise QuizlabError(f"need n >= 0, got {n}")
    check_cap("hypercube coefficient", "n", n, DESK_CAPS[HYPERCUBE_SHIFT][1])
    return 2 ** n


def hypercube_lk_matrix(n: int, points: Sequence[Sequence[int]]) -> ExactMatrix:
    """The matrix (L_k(u_l))_{k,l} at the given 2^n integer (or rational) points.

    An entry is sum_j c_j m_j(u) over L_k's integer coefficients c_j and the
    point's ``vertex_monomials`` m_j(u): an int at integer points, a
    Fraction at rational ones.
    """
    size = hypercube_size(n)
    if len(points) != size:
        raise QuizlabError(f"need exactly {size} points, got {len(points)}")
    # f0 = prod_{j<size} (Y - j) as integer coefficients, degree ascending.
    f0 = root_product_coefficients(range(size))
    rows = [[0] * size for _ in range(size)]
    for j in range(size):
        # synthetic division f0 / (Y - j): the quotient's Y^(deg-1) coefficient
        # is carry, and the T-linear part of B_k is -sum_j m_j * quotient_j[size-k]
        carry = 0
        for deg in range(size, 0, -1):
            carry = f0[deg] + j * carry
            rows[size - deg][j] = -carry
    columns = []
    for u in points:
        if len(u) != n:
            raise ArityMismatchError(f"point has arity {len(u)}, polynomial has {n}")
        columns.append(vertex_monomials(n, u))
    return ExactMatrix.from_rows(
        [sum(c * x for c, x in zip(row, values) if c) for values in columns] for row in rows
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    family: str
    expected_rank: int
    trials: int
    success_count: int
    achieved_ranks: tuple[int, ...]
    seeds: tuple[int, ...]
    elapsed_seconds: float

    def to_csv(self) -> str:
        lines = ["seed,achieved_rank,expected_rank,success"]
        for seed, rank in zip(self.seeds, self.achieved_ranks):
            lines.append(f"{seed},{rank},{self.expected_rank},{int(rank == self.expected_rank)}")
        return "\n".join(lines) + "\n"

    def to_text(self, include_timing: bool = False) -> str:
        lines = [
            f"family: {self.family}",
            f"expected_rank: {self.expected_rank}",
            f"trials: {self.trials}",
            f"success_count: {self.success_count}",
            f"achieved_ranks: {','.join(str(r) for r in self.achieved_ranks)}",
            f"seeds: {','.join(str(s) for s in self.seeds)}",
        ]
        if include_timing:
            lines.append(f"elapsed_seconds: {self.elapsed_seconds:.3f}")
        return "\n".join(lines) + "\n"


def expected_rank(desc: FamilyDescriptor) -> int:
    """The lower-bound constant K for each family."""
    if desc.variant == EASY_POWER_SUM:
        return comb(2 ** desc.l - 1 + desc.n, desc.n)
    if desc.variant == NEURAL_POWER:
        return comb(2 * desc.n - 1, desc.n - 1)
    if desc.variant in (HYPERCUBE_SHIFT, KRONECKER_DIAG):
        return 2 ** desc.input_arity
    return desc.d + 1


def _sample_distinct(rng: random.Random, count: int, box: int) -> list[int]:
    return rng.sample(range(1, box + 1), count)


def sample_hypercube_points(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """2^n distinct points of the box [1, 2^(n+2)]^n, sorted.

    A repeated point repeats a column of the L_k matrix, so the draw
    rejects it the way the power-sum sampler rejects repeated base points.
    """
    size = hypercube_size(n)
    points: set[tuple[int, ...]] = set()
    while len(points) < size:
        points.add(tuple(rng.randint(1, 4 * size) for _ in range(n)))
    return sorted(points)


def _ray_of(direction: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in direction:
        g = math.gcd(g, x)
    return tuple([x // g for x in direction])


def _sample_directions(
    rng: random.Random, count: int, box: int, arity: int
) -> list[tuple[int, ...]]:
    """Directions with pairwise distinct rays.

    Two proportional directions give proportional rows of the degree-n
    coefficient matrix, so they can never be part of a rank witness; the
    sampler rejects them the way the power-sum sampler rejects repeated
    base points.
    """
    rays: dict[tuple[int, ...], tuple[int, ...]] = {}
    while len(rays) < count:
        direction = tuple(rng.randint(1, box) for _ in range(arity))
        rays.setdefault(_ray_of(direction), direction)
    return sorted(rays.values())


def lower_bound_report(
    desc: FamilyDescriptor, trials: int, seed: int
) -> WitnessReport:
    """Randomized rank experiment for one family's lower-bound matrix.

    A power form's rows are ``derivative_matrix``'s, the form at t = 1 at
    each sampled direction u: the towers (rho^(2^(i l)))_(i < n) for
    easy-power-sum, ray-distinct directions for neural-power.  Directions
    and hypercube points live in a nonempty Zariski-open set, so a random
    draw from the integer box [1, 4K] achieves rank K generically.
    The univariate family is deterministic (modular root-of-unity matrix),
    so its one rank stands for every trial.  Trials, and then trials * K^2
    for the sampled families, are held to their caps before any draw.
    """
    if trials < 1:
        raise QuizlabError(f"need at least one trial, got {trials}")
    check_cap("witness report", "trials", trials, REPORT_TRIALS_CAP)
    k_expected = expected_rank(desc)
    seeds = [seed * 1_000_003 + trial for trial in range(trials)]
    started = time.monotonic()
    if desc.variant == UNIVARIATE_D:
        ranks = [roots_of_unity_rank(desc.d, VARIANT_BASE)] * trials
    else:
        check_cap("witness report", "trials*K^2", trials * k_expected ** 2, REPORT_WORK_CAP)
        ranks = []
        box = 4 * k_expected
        for trial_seed in seeds:
            rng = random.Random(trial_seed)
            if desc.variant == EASY_POWER_SUM:
                rhos = _sample_distinct(rng, k_expected, box)
                towers = [[rho ** (2 ** (i * desc.l)) for i in range(desc.n)] for rho in rhos]
                matrix = derivative_matrix(desc, towers)
            elif desc.variant == NEURAL_POWER:
                matrix = derivative_matrix(desc, _sample_directions(rng, k_expected, box, desc.n))
            else:  # hypercube-shift and kronecker-diag
                n = desc.input_arity
                matrix = hypercube_lk_matrix(n, sample_hypercube_points(rng, n))
            ranks.append(exact_rank(matrix))
    success = sum(1 for r in ranks if r == k_expected)
    return WitnessReport(
        family=desc.label(),
        expected_rank=k_expected,
        trials=trials,
        success_count=success,
        achieved_ranks=tuple(ranks),
        seeds=tuple(seeds),
        elapsed_seconds=time.monotonic() - started,
    )
