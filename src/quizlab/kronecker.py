"""Kronecker sums/products of diagonal matrices, on their diagonals, and
exact characteristic polynomials.

Both Kronecker folds of the composed matrix are diagonal by construction,
so they run on lists of 2^k values.  What is verified is that each fold
equals its closed form, and that char_poly of the composed matrix, as a
general dense grid, equals the product over its diagonal.
Characteristic polynomials use the Faddeev-LeVerrier recurrence on the
integer matrix c * A, where c clears every denominator of A, and scale
back through p_A(y) = c^-n * p_{cA}(c * y): the recurrence runs in
integer arithmetic with exact divisions, and each coefficient becomes a
Fraction once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError, QuizlabError, check_cap
from .families import theta_diagonal_values, vertex_monomials
from .poly import Polynomial, product_of_linear_roots

THETA_CAP = 8
LEMMA_CAP = 5
# Random points per lemma check; 1000 trials at k = LEMMA_CAP take about 7 s.
LEMMA_TRIALS_CAP = 1000


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable square matrix over the rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise QuizlabError("matrix is not square")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SquareMatrix":
        return SquareMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @staticmethod
    def diagonal(values: Sequence) -> "SquareMatrix":
        vals = [Fraction(v) for v in values]
        n = len(vals)
        return SquareMatrix.from_rows(
            [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.dimension != other.dimension:
            raise QuizlabError("dimension mismatch in matrix product")
        n = self.dimension
        rows = []
        for row in self.entries:
            acc = [Fraction(0)] * n
            for a, other_row in zip(row, other.entries):
                if a:  # skipping zeros keeps sparse instances near-linear
                    acc = [x + a * y for x, y in zip(acc, other_row)]
            rows.append(tuple(acc))
        return SquareMatrix(tuple(rows))


def kron_product(a: Sequence, b: Sequence) -> list:
    """Diagonal of diag(a) (x) diag(b), in row-major block order."""
    return [x * y for x in a for y in b]


def kron_sum(a: Sequence, b: Sequence) -> list:
    """Diagonal of diag(a) (+) diag(b) = diag(a) (x) Id + Id (x) diag(b)."""
    return [x + y for x in a for y in b]


def char_poly(a: SquareMatrix) -> Polynomial:
    """Monic characteristic polynomial det(Y * Id - A), exactly.

    Let c be the lcm of the entry denominators and B = c * A, an integer
    matrix.  Then p_A(y) = c^-n * p_B(c * y), so the coefficient of
    Y^(n-k) in p_A is c_k(B) / c^k.  The c_k(B) come from the
    Faddeev-LeVerrier recurrence over the integers: M_1 = Id,
    c_k = -tr(B M_k) / k and M_{k+1} = B M_k + c_k Id.  Every M_k is an
    integer matrix and every division by k is exact.
    """
    n = a.dimension
    scale = math.lcm(*(x.denominator for row in a.entries for x in row))
    b = [
        [(j, x.numerator * (scale // x.denominator)) for j, x in enumerate(row) if x]
        for row in a.entries
    ]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    terms = {(n,): Fraction(1)}
    for k in range(1, n + 1):
        bm = []
        for row in b:
            acc = [0] * n
            for j, x in row:  # skipping zeros keeps sparse instances near-linear
                acc = [v + x * y for v, y in zip(acc, m[j])]
            bm.append(acc)
        c, remainder = divmod(-sum(bm[i][i] for i in range(n)), k)
        if remainder:
            raise InternalCheckError(f"Faddeev-LeVerrier trace not divisible by {k}")
        terms[(n - k,)] = Fraction(c, scale ** k)
        for i in range(n):
            bm[i][i] += c
        m = bm
    return Polynomial.make(1, terms)


def _theta_folds(k: int, s: Fraction, u: Sequence) -> tuple[list, list, list, SquareMatrix]:
    """The coordinates, the diagonals of the Kronecker-sum fold of the
    diag(0, 2^(k-i)) blocks and of the Kronecker-product fold
    diag(1, u_k) (x) ... (x) diag(1, u_1), and the composed matrix
    diag(shift) + s * diag(product)."""
    if k < 1:
        raise QuizlabError(f"need at least one Kronecker block, got k={k}")
    coords = [Fraction(x) for x in u]
    if len(coords) != k:
        raise QuizlabError(f"expected {k} direction parameters, got {len(coords)}")
    shift = [0, 2 ** (k - 1)]
    for i in range(2, k + 1):
        shift = kron_sum(shift, [0, 2 ** (k - i)])
    product = [1, coords[k - 1]]
    for i in range(k - 1, 0, -1):
        product = kron_product(product, [1, coords[i - 1]])
    theta = SquareMatrix.diagonal([a + s * b for a, b in zip(shift, product)])
    return coords, shift, product, theta


def build_theta_matrix(k: int, s, u: Sequence) -> tuple[SquareMatrix, int]:
    """The 2^k-dimensional composed diagonal matrix and its operation count.

    Built with exactly k-1 Kronecker sums, k-1 Kronecker products, one
    scalar multiple and one matrix addition (2k operations):
    (sum_i diag(0, 2^(k-i))) + s * diag(1, u_k) (x) ... (x) diag(1, u_1).
    """
    check_cap("theta-matrix", "k", k, THETA_CAP)
    return _theta_folds(k, Fraction(s), u)[3], 2 * k


def verify_lemma_identities(k: int, s, u: Sequence) -> tuple[bool, bool, bool]:
    """Exact checks of the three composed-diagonal identities.

    (1) the Kronecker-sum fold of the diag(0, 2^(k-i)) blocks equals
        diag(0, 1, ..., 2^k - 1);
    (2) the Kronecker-product fold of the diag(1, u_i) blocks equals
        Diag(prod_i u_i^[j]_i : 0 <= j < 2^k);
    (3) char_poly of the composed matrix equals the product
        prod_j (Y - (j + s * prod_i u_i^[j]_i)).
    """
    check_cap("lemma-identity", "k", k, LEMMA_CAP)
    s = Fraction(s)
    coords, shift, product, theta = _theta_folds(k, s, u)
    first = shift == list(range(2 ** k))
    second = product == vertex_monomials(k, coords)
    third = char_poly(theta) == product_of_linear_roots(theta_diagonal_values(k, s, coords))
    return (first, second, third)


def verify_lemma_trials(k: int, trials: int, seed: int) -> list[tuple[bool, bool, bool]]:
    """``verify_lemma_identities`` at ``trials`` random points, one result
    per point.  One rng seeded with ``seed`` draws each point's s, then
    u_1..u_k, every coordinate a/b with -9 <= a <= 9 and 1 <= b <= 9.  The
    count and k are held to their caps before anything is drawn.
    """
    if trials < 1:
        raise QuizlabError(f"need at least one trial, got {trials}")
    check_cap("lemma-identity", "trials", trials, LEMMA_TRIALS_CAP)
    check_cap("lemma-identity", "k", k, LEMMA_CAP)
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
        results.append(verify_lemma_identities(k, s, u))
    return results
