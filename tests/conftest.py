"""Shared independent oracles for the test suite.

These deliberately re-derive results by the dumbest correct method
available (plain Gaussian elimination, cofactor determinants, Lagrange's
interpolation formula, Kronecker products entry by entry) so that the
library's cleverer paths are checked against something with no shared code.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from quizlab.errors import QuizlabError
from quizlab.exact import RationalRing
from quizlab.families import expand_family
from quizlab.identify import IdentificationSequence
from quizlab.poly import Polynomial


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


def naive_rank_mod_p(rows, p: int) -> int:
    """Textbook Gaussian elimination over F_p on lists of residues."""
    grid = [[x % p for x in row] for row in rows]
    if not grid:
        return 0
    m, n = len(grid), len(grid[0])
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inverse = pow(grid[rank][col], -1, p)
        for r in range(rank + 1, m):
            factor = grid[r][col] * inverse % p
            grid[r] = [(a - factor * b) % p for a, b in zip(grid[r], grid[rank])]
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


# Truncated Laurent series, as plain (terms, bound) pairs: ``terms`` maps an
# exponent of e to a nonzero Fraction, and ``bound`` is the order from which
# coefficients are unknown (None when the series is exact).


def naive_laurent(series):
    """The (terms, bound) pair of a LaurentSeries."""
    terms = {series.low + i: c for i, c in enumerate(series.coeffs) if c}
    return terms, series.bound


def naive_laurent_scalar(q):
    q = Fraction(q)
    return ({0: q} if q else {}), None


def naive_laurent_window(terms, bound):
    """(low, coeffs, bound) as a LaurentSeries stores it: the first and last
    coefficients nonzero, nothing at or past the bound; zero is (0, (), None)
    when exact and (bound, (), bound) when truncated."""
    exps = sorted(e for e, c in terms.items() if c and (bound is None or e < bound))
    if not exps:
        return (0 if bound is None else bound), (), bound
    coeffs = tuple(Fraction(terms.get(e, 0)) for e in range(exps[0], exps[-1] + 1))
    return exps[0], coeffs, bound


def _known(bound, terms):
    return {e: c for e, c in terms.items() if bound is None or e < bound}


def naive_laurent_add(a, b):
    (ta, ba), (tb, bb) = a, b
    bounds = [x for x in (ba, bb) if x is not None]
    bound = min(bounds) if bounds else None
    out = {}
    for terms in (ta, tb):
        for e, c in _known(bound, terms).items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}, bound


def naive_laurent_neg(a):
    return {e: -c for e, c in a[0].items()}, a[1]


def naive_laurent_mul(a, b):
    """Exact zero absorbs everything; otherwise A + O(e^p) times B + O(e^q)
    is known below min(p + ord B, q + ord A), where the order of a series is
    its lowest possibly nonzero exponent (the bound when nothing is known
    to be nonzero)."""
    (ta, ba), (tb, bb) = a, b
    if (not ta and ba is None) or (not tb and bb is None):
        return {}, None
    bounds = []
    if ba is not None:
        bounds.append(ba + (min(tb) if tb else bb))
    if bb is not None:
        bounds.append(bb + (min(ta) if ta else ba))
    bound = min(bounds) if bounds else None
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in _known(bound, out).items() if c}, bound


def naive_laurent_truncate(a, precision):
    """At most ``precision`` coefficients from the lowest stored one on."""
    terms, bound = a
    if not terms or max(terms) - min(terms) < precision:
        return a
    cap = min(terms) + precision
    bound = cap if bound is None else min(bound, cap)
    return _known(bound, terms), bound


def subset_root_product(roots, one, add, mul, neg):
    """Ascending coefficients of prod (Y - r): the coefficient of Y^k is
    (-1)^(n-k) times the sum, over the (n-k)-subsets of the roots, of their
    product."""
    n = len(roots)
    coeffs = []
    for k in range(n + 1):
        total = None
        for subset in itertools.combinations(roots, n - k):
            term = one
            for r in subset:
                term = mul(term, r)
            total = term if total is None else add(total, term)
        coeffs.append(total if (n - k) % 2 == 0 else neg(total))
    return coeffs


def sparse_root_product(roots, ring):
    """prod (Y - r) as a product of sparse degree-1 polynomials, one per root."""
    y = Polynomial.variable(1, 0, ring)
    out = Polynomial.constant(1, ring.one, ring)
    for root in roots:
        out = out * (y - Polynomial.constant(1, root, ring))
    return out


class GenericRationals:
    """RationalRing's methods on a class that is no RationalRing, so that
    library code which runs rationals on integers takes its generic ring
    path instead: the reference for those integer paths."""

    zero, one = RationalRing.zero, RationalRing.one
    from_rational, add, sub, mul, neg = (
        RationalRing.from_rational,
        RationalRing.add,
        RationalRing.sub,
        RationalRing.mul,
        RationalRing.neg,
    )
    is_zero, to_str = RationalRing.is_zero, RationalRing.to_str


def hypercube_lk_coefficients(n):
    """The direction polynomials L_1..L_{2^n} in U_1..U_n, from their
    definition: the T-linear part of prod_{j < 2^n} (Y - (j + T m_j(U))),
    where m_j is the product of the U_i over the set bits i of j, is
    -sum_j m_j(U) prod_{i != j} (Y - i), and L_k is its Y^(2^n - k)
    coefficient.  Each product over i != j is multiplied out on its own."""
    size = 2 ** n
    others = []
    for j in range(size):
        coeffs = [1]  # ascending in Y
        for i in range(size):
            if i != j:
                coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
        others.append(coeffs)
    monos = [tuple((j >> i) & 1 for i in range(n)) for j in range(size)]
    return [
        Polynomial.make(
            n, {mono: Fraction(-others[j][size - k]) for j, mono in enumerate(monos)}
        )
        for k in range(1, size + 1)
    ]


def falsify_random(points, desc_a, desc_b, trials, seed):
    """Randomized search for a pair breaking the identification property.

    Samples parameter points with small integer coordinates and returns
    (u_a, u_b) with distinct expansions that agree on every point, or None
    if no counterexample shows up within the trial budget.  Pairs with
    equal expansions never count.
    """
    if desc_a.input_arity != desc_b.input_arity:
        raise QuizlabError("families must share a variable count")
    pts = points.points if isinstance(points, IdentificationSequence) else points
    pts = [tuple(p) for p in pts]
    rng = random.Random(seed)
    for _ in range(trials):
        u_a = tuple(rng.randint(-5, 5) for _ in range(desc_a.param_arity))
        u_b = tuple(rng.randint(-5, 5) for _ in range(desc_b.param_arity))
        f_a = expand_family(desc_a, u_a)
        f_b = expand_family(desc_b, u_b)
        if f_a == f_b:
            continue
        if all(f_a.evaluate(p) == f_b.evaluate(p) for p in pts):
            return (u_a, u_b)
    return None


def naive_vertex_elimination(f, n):
    """prod (Y - f(v)) over the vertices v of {0,1}^n, vertex j having bit i
    of j as coordinate i: f evaluated at each vertex, then the sparse product."""
    ring = f.ring
    roots = [
        f.evaluate([ring.from_rational(Fraction((j >> i) & 1)) for i in range(n)])
        for j in range(2 ** n)
    ]
    return sparse_root_product(roots, ring)


# Malformed circuit documents, by file name, for the CLI's exit-2 cases.
MALFORMED_CIRCUIT_FILES = {
    "not-json.txt": "n = 1\n",
    "array.json": "[1, 2]\n",
    "no-output.json": '{"n": 1, "r": 1, "nodes": []}\n',
    "empty-node.json": '{"n": 1, "r": 1, "nodes": [{}], "output": 0}\n',
    "string-n.json": '{"n": "1", "r": 1, "nodes": [{"kind": "input", "args": [0]}], "output": 0}\n',
    "float-output.json": '{"n": 1, "r": 1, "nodes": [{"kind": "input", "args": [0]}], "output": 0.5}\n',
    "nodes-object.json": '{"n": 1, "r": 1, "nodes": {"kind": "input"}, "output": 0}\n',
    "few-args.json": '{"n": 1, "r": 1, "nodes": [{"kind": "input", "args": [0]}, '
    '{"kind": "add", "args": [0]}], "output": 1}\n',
    "unknown-kind.json": '{"n": 1, "r": 1, "nodes": [{"kind": "div", "args": [0, 0]}], "output": 0}\n',
    "int-constant.json": '{"n": 1, "r": 1, "nodes": [{"kind": "const", "args": [3]}], "output": 0}\n',
    "bad-term.json": '{"n": 1, "r": 1, "nodes": [{"kind": "poly_param", "args": [[1]]}], "output": 0}\n',
}


@pytest.fixture
def rng():
    return random.Random(20_25)
