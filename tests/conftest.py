"""Shared independent oracles for the test suite.

These deliberately re-derive results by the dumbest correct method
available (plain Gaussian elimination, cofactor determinants, Lagrange's
interpolation formula, Kronecker products entry by entry) so that the
library's cleverer paths are checked against something with no shared code.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest


def random_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def naive_rank(rows) -> int:
    """Textbook rational Gaussian elimination, no fraction-free tricks."""
    grid = [[Fraction(x) for x in row] for row in rows]
    if not grid:
        return 0
    m, n = len(grid), len(grid[0])
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if grid[r][col] != 0), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for r in range(rank + 1, m):
            factor = grid[r][col] / grid[rank][col]
            grid[r] = [a - factor * b for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def lagrange_interpolate(xs, ys):
    """Coefficients (ascending) of the unique degree < len(xs) interpolant."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # basis polynomial prod_{j != i} (X - x_j) / (x_i - x_j)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            basis = [
                c - xs[j] * nxt
                for c, nxt in zip(basis, basis[1:] + [Fraction(0)])
            ]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    return coeffs


def cofactor_determinant(rows) -> Fraction:
    """Recursive cofactor expansion along the first row; exponential, tiny n."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]  # zero of whatever ring the entries use
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = rows[0][j] * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def dense_kron_product(a, b):
    """Block matrix (a_ij * B) of two square grids, entry by entry."""
    n, m = len(a), len(b)
    return [
        [a[i][j] * b[k][ell] for j in range(n) for ell in range(m)]
        for i in range(n)
        for k in range(m)
    ]


def dense_kron_sum(a, b):
    """A (+) B = A (x) Id_m + Id_n (x) B, with dense identity grids."""
    ident_a = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    ident_b = [[int(i == j) for j in range(len(b))] for i in range(len(b))]
    left, right = dense_kron_product(a, ident_b), dense_kron_product(ident_a, b)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(left, right)]


@pytest.fixture
def rng():
    return random.Random(20_25)
