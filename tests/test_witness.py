"""Exact rank computations and the lower-bound witness matrices."""

import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizlab.errors import (
    CapExceededError,
    InconsistentSystemError,
    QuizlabError,
    UnderdeterminedSystemError,
)
from quizlab.exact import LaurentSeries, cleared_row, modular_root_of_unity
from quizlab.families import (
    build_circuit,
    easy_power_sum,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    univariate_d,
)
from quizlab import witness
from quizlab.poly import Polynomial
from quizlab.witness import (
    RANK_PRIME,
    VARIANT_BASE,
    VARIANT_DERIVATIVE,
    VARIANT_INTEGRAL,
    CompiledSystem,
    ExactMatrix,
    compile_system,
    derivative_matrix,
    evaluation_matrix,
    exact_rank,
    expected_rank,
    hypercube_lk_matrix,
    _rank_prime_field,
    lower_bound_report,
    roots_of_unity_matrix,
    roots_of_unity_rank,
    sample_hypercube_points,
)
from conftest import (
    hypercube_lk_coefficients,
    naive_rank,
    naive_rank_mod_p,
    scalar_compiled_solve,
)


def test_exact_rank_examples():
    assert exact_rank(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert exact_rank(ExactMatrix.from_rows([[1, 1], [1, 2]])) == 2
    assert exact_rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_exact_rank_against_naive_gaussian():
    rng = random.Random(11)
    for _ in range(100):
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)]
        assert exact_rank(ExactMatrix.from_rows(rows)) == naive_rank(rows)


def test_exact_rank_prime_field():
    assert exact_rank(ExactMatrix(((1, 2), (3, 6)), modulus=7)) == 1


def _brute_force_rank_mod_p(rows, p: int) -> int:
    """The largest k such that some k rows are independent over F_p: rows
    are independent when no nontrivial combination of them vanishes."""
    best = 0
    for mask in range(1, 2 ** len(rows)):
        chosen = [row for i, row in enumerate(rows) if mask >> i & 1]
        if len(chosen) <= best:
            continue
        dependent = any(
            all(sum(c * row[j] for c, row in zip(coeffs, chosen)) % p == 0
                for j in range(len(rows[0])))
            for coeffs in itertools.product(range(p), repeat=len(chosen))
            if any(coeffs)
        )
        if not dependent:
            best = len(chosen)
    return best


def test_exact_rank_modulus_selects_the_field():
    # det = 13 - 6 = 7: singular mod 7, nonsingular over Q.
    rows = ((1, 2), (3, 13))
    assert exact_rank(ExactMatrix(rows, modulus=7)) == 1 == _brute_force_rank_mod_p(rows, 7)
    assert exact_rank(ExactMatrix(rows)) == 2 == naive_rank(rows)


@st.composite
def residue_matrices(draw):
    """A small prime p and a small integer matrix, not yet reduced mod p."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    return p, draw(st.lists(row, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(residue_matrices())
def test_exact_rank_mod_p_against_brute_force(case):
    p, rows = case
    matrix = ExactMatrix(tuple(map(tuple, rows)), modulus=p)
    assert exact_rank(matrix) == _brute_force_rank_mod_p(rows, p)


@st.composite
def rank_matrices(draw):
    """Tall, wide or square matrices of int and Fraction entries, often
    sparse, some rows zero, and of low rank when they are a product through
    a narrow middle.  Zeros in a pivot column test that every row is
    rescaled at every step, which keeps later divisions exact."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.one_of(
        st.just(0),
        st.integers(-20, 20),
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
    )
    if draw(st.booleans()):
        rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    else:
        k = draw(st.integers(0, min(m, n)))
        left = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
        right = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
        rows = [[sum((x * r[j] for x, r in zip(row, right)), Fraction(0)) for j in range(n)]
                for row in left]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        rows[i] = [0] * n
    return rows


@settings(max_examples=300, deadline=None)
@given(rank_matrices())
def test_exact_rank_against_naive_rank_any_shape(rows):
    assert exact_rank(ExactMatrix.from_rows(rows)) == naive_rank(rows)


def test_rank_prime_is_not_the_benchmark_prime():
    # perfbench checks span certificates mod 2^61 - 1; a different prime
    # keeps that check independent of the one that certified the rank.
    assert RANK_PRIME != 2 ** 61 - 1
    assert all(RANK_PRIME % d for d in range(2, math.isqrt(RANK_PRIME) + 1))


@contextlib.contextmanager
def counted_bareiss():
    """Record each fraction-free elimination run inside the block."""
    calls = []
    original = witness._bareiss

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness, "_bareiss", spy)
        yield calls


def test_exact_rank_runs_bareiss_only_on_a_shortfall_mod_p():
    p = RANK_PRIME
    with counted_bareiss() as calls:
        assert exact_rank(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == 3
        assert exact_rank(ExactMatrix.from_rows([[Fraction(1, 3), 1], [5, Fraction(-2, 7)]])) == 2
        assert exact_rank(ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])) == 2
        assert calls == []
        # det = p: singular mod p, nonsingular over Q.
        assert exact_rank(ExactMatrix.from_rows([[p, 0], [0, 1]])) == 2
        assert len(calls) == 1
        # A truly rank-deficient matrix is short mod p too; Bareiss settles it.
        assert exact_rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert len(calls) == 2


@st.composite
def short_mod_p_matrices(draw):
    """Rational matrices whose cleared rows often have a lower rank mod
    RANK_PRIME than over Q: some rows scaled by p (they vanish mod p), or a
    low-rank product plus p times a random matrix (congruent to the product)."""
    p = RANK_PRIME
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
        for i in draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m)):
            rows[i] = [p * x for x in rows[i]]
    else:
        k = draw(st.integers(0, min(m, n) - 1))
        left = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
        right = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
        noise = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
        rows = [
            [sum(x * r[j] for x, r in zip(row, right)) + p * z[j] for j in range(n)]
            for row, z in zip(left, noise)
        ]
    # Denominators prime to p keep the cleared rows' residues mod p short.
    return [
        [Fraction(x, d) for x in row]
        for row, d in zip(rows, draw(st.lists(st.integers(1, 6), min_size=m, max_size=m)))
    ]


@settings(max_examples=200, deadline=None)
@given(short_mod_p_matrices())
@example([[RANK_PRIME, 0], [0, 1]])
@example([[RANK_PRIME, 2 * RANK_PRIME], [1, 3]])
def test_exact_rank_falls_back_when_short_mod_p(rows):
    with counted_bareiss() as calls:
        rank = exact_rank(ExactMatrix.from_rows(rows))
    assert rank == naive_rank(rows)
    short = _rank_prime_field([cleared_row(row)[1] for row in rows]) < min(len(rows), len(rows[0]))
    assert len(calls) == int(short)


class _CountingRows:
    """An iterator over rows that records how many were taken."""

    def __init__(self, rows):
        self.rows, self.taken = rows, 0

    def __iter__(self):
        for row in self.rows:
            self.taken += 1
            yield row


def test_rank_prime_field_stops_at_the_row_that_completes_the_rank():
    rows = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [5, 5, 5], [0, 0, 1], [9, 9, 9]]
    # Rank 1 after row 2, 2 after row 4, 3 (the width) after row 5.
    counted = _CountingRows(rows)
    assert _rank_prime_field(counted, 7) == 3 and counted.taken == 5
    counted = _CountingRows(rows[:4])
    assert _rank_prime_field(counted, 7) == 2 and counted.taken == 4
    assert _rank_prime_field(iter([]), 7) == 0


# Tiny primes make zero fields and repeated pivots common; 2^31 - 1, just
# below a power of two, leaves a packed field the least room above width * p^2.
PACKED_PRIMES = (2, 3, 5, 7, RANK_PRIME)


def _residue(rng, p):
    """An integer standing for a residue: often negative or at least p."""
    return rng.choice((0, 0, 1, -1, p - 1, p, p + 1, -p, rng.randint(-3 * p, 3 * p)))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_rank_every_width_against_naive_rank(p):
    rng = random.Random(p)
    assert _rank_prime_field([[]] * 3, p) == 0
    for width in range(1, 41):
        dense = [[_residue(rng, p) for _ in range(width)] for _ in range(width + 2)]
        # A product through a narrow middle has a rank below its width.
        middle = rng.randint(1, width)
        left = [[_residue(rng, p) for _ in range(middle)] for _ in range(width)]
        right = [[_residue(rng, p) for _ in range(width)] for _ in range(middle)]
        low = [[sum(a * r[j] for a, r in zip(row, right)) for j in range(width)] for row in left]
        for rows in (dense, low):
            assert exact_rank(ExactMatrix.from_rows(rows, p)) == naive_rank_mod_p(rows, p)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_rank_drives_one_field_to_its_bound(p):
    # Pivot i is e_i + (p - 1) e_t for the next-to-last column t, and the
    # last row is their sum.  Its ones take every multiplier to p - 1, so
    # each of the t reductions adds (p - 1)^2 to field t, which ends near
    # width * p^2; a carry out of it would leave a nonzero field t + 1.
    for width in range(3, 41):
        t = width - 2
        pivots = [[int(j == i) + (p - 1) * (j == t) for j in range(width)] for i in range(t)]
        rows = pivots + [[sum(column) for column in zip(*pivots)]]
        assert exact_rank(ExactMatrix.from_rows(rows, p)) == t == naive_rank_mod_p(rows, p)


def test_solve_exact():
    rows = [[1, 0], [1, 1], [1, 2]]
    values = [Fraction(1), Fraction(2), Fraction(3)]
    assert witness.solve_exact(compile_system(rows), values) == [Fraction(1), Fraction(1)]
    with pytest.raises(InconsistentSystemError):
        compile_system([[1], [1]]).solve([Fraction(0), Fraction(1)])
    with pytest.raises(UnderdeterminedSystemError):
        compile_system([[1, 1]]).solve([Fraction(0)])


def test_solve_exact_interpolates_on_evaluation_matrices():
    def interpolate(values, points, support):
        return compile_system(evaluation_matrix(points, support).entries).solve(values)

    symmetric, quadratic = [(0,), (1,), (-1,)], ((0,), (1,), (2,))
    coeffs = interpolate([Fraction(7), Fraction(49), Fraction(21)], symmetric, quadratic)
    assert coeffs == [Fraction(7), Fraction(14), Fraction(28)]
    assert interpolate([Fraction(0)] * 3, symmetric, quadratic) == [Fraction(0)] * 3
    with pytest.raises(InconsistentSystemError):
        interpolate([Fraction(0), Fraction(1)], [(0,), (0,)], ((0,),))
    with pytest.raises(UnderdeterminedSystemError):
        interpolate([Fraction(0), Fraction(0)], [(5,), (5,)], ((0,), (1,)))


def _matrix(draw, m: int, n: int, entries) -> list[list[int]]:
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]


@st.composite
def linear_systems(draw):
    """(A, b): A is a small integer matrix, square, tall or wide, and of low
    rank when it is a product through a narrow middle; b is built from a
    solution (consistent) or drawn freely, as Fractions, as exact Laurent
    polynomials, or as truncated series mixed with exact ones and Fractions.
    A truncated draw often keeps no term: the all-cancelled window
    (bound, (), bound)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # Sparse entries give compiled rows with zeros, so rows meet different entries.
    entries = draw(st.sampled_from([st.integers(-3, 3), st.sampled_from([0, 0, 0, 1, -1, 2])]))
    if draw(st.booleans()):
        a = _matrix(draw, m, n, entries)
    else:
        k = draw(st.integers(0, min(m, n) - 1))
        left, right = _matrix(draw, m, k, entries), _matrix(draw, k, n, entries)
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * n
             for row in left]
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    exact = st.lists(st.tuples(st.integers(-2, 2), coeffs), max_size=3).map(
        LaurentSeries.from_pairs
    )
    truncated = st.builds(lambda s, t: s + LaurentSeries(t, (), t), exact, st.integers(-3, 3))
    scalar = draw(st.sampled_from([coeffs, exact, st.one_of(truncated, exact, coeffs)]))
    if draw(st.booleans()):
        x = draw(st.lists(scalar, min_size=n, max_size=n))
        b = [_dot(row, x) for row in a]
    else:
        b = draw(st.lists(scalar, min_size=m, max_size=m))
    return a, b


def _dot(row, values):
    """sum c * v: over the rationals, or over Laurent series when any value
    is one (a rational then lifted to an exact constant)."""
    if any(isinstance(v, LaurentSeries) for v in values):
        return sum(
            (_lift(c) * _lift(v) for c, v in zip(row, values)), LaurentSeries.zero()
        )
    return sum((c * v for c, v in zip(row, values)), Fraction(0))


def _lift(v) -> LaurentSeries:
    return v if isinstance(v, LaurentSeries) else LaurentSeries.from_rational(v)


def _coefficient_columns(series) -> list[list[Fraction]]:
    """One rational column per power of e with a known nonzero coefficient
    in the series; an unknown coefficient reads as 0."""
    known = [dict(s.to_pairs()) for s in series]
    powers = sorted({e for terms in known for e in terms})
    return [[terms.get(e, Fraction(0)) for terms in known] for e in powers]


def _agree(s: LaurentSeries, t: LaurentSeries) -> bool:
    """The two series have the same coefficients below both bounds."""
    top = min((x.bound for x in (s, t) if x.bound is not None), default=None)
    return [(e, c) for e, c in s.to_pairs() if top is None or e < top] == [
        (e, c) for e, c in t.to_pairs() if top is None or e < top
    ]


@settings(max_examples=300, deadline=None)
@given(linear_systems())
@example(([[1], [1]], [LaurentSeries(0, (), 0), LaurentSeries(0, (), 0)]))
def test_solve_exact_against_naive_rank(system):
    a, b = system
    m, n = len(a), len(a[0])
    rank = naive_rank(a)
    series = [_lift(v) for v in b]

    def extends_rank(columns):
        return naive_rank([list(row) + list(extra) for row, extra in zip(a, zip(*columns))]) > rank

    # A null row meets entry i exactly when e_i lies outside the column
    # space of A, and a null row that meets a truncated entry never vanishes.
    columns = _coefficient_columns(series)
    consistent = not (columns and extends_rank(columns)) and not any(
        s.bound is not None and extends_rank([[int(j == i) for j in range(m)]])
        for i, s in enumerate(series)
    )

    compiled = compile_system(a)
    assert compiled.rank == rank
    assert len(compiled.rows) == m
    # E A is the reduced row echelon form: the other rows vanish, and the
    # pivot rows are unit vectors on the pivot columns.
    for e in compiled.rows[rank:]:
        assert [_dot(col, e) for col in zip(*a)] == [0] * n
    for i, (e, d) in enumerate(zip(compiled.rows, compiled.denominators)):
        reduced = [Fraction(_dot(col, e), d) for col in zip(*a)]
        assert [reduced[c] for c in compiled.pivot_cols] == [int(i == j) for j in range(rank)]

    if not consistent:
        with pytest.raises(InconsistentSystemError):
            compiled.solve(b)
    elif rank < n:
        with pytest.raises(UnderdeterminedSystemError):
            compiled.solve(b)
    else:
        x = compiled.solve(b)
        image = [_dot(row, x) for row in a]
        if all(s.bound is None for s in series):
            assert [_lift(v) for v in image] == series
        else:
            assert all(_agree(_lift(v), s) for v, s in zip(image, series))


def _outcome(solve, compiled, rhs):
    """The solution with every Laurent unknown as (low, coeffs, bound), or
    the exception type."""
    try:
        x = solve(compiled, rhs)
    except (InconsistentSystemError, UnderdeterminedSystemError) as exc:
        return type(exc)
    return [(v.low, v.coeffs, v.bound) if isinstance(v, LaurentSeries) else v for v in x]


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([[1, 0], [1, 1]], [LaurentSeries.from_pairs([(0, 1)]), LaurentSeries(1, (1,), 2)]))
@example(([[1], [1]], [LaurentSeries(0, (), 0), LaurentSeries(0, (), 0)]))
def test_compiled_solve_matches_scalar_oracle(system):
    a, b = system
    compiled = compile_system(a)
    fast = _outcome(CompiledSystem.solve, compiled, b)
    assert fast == _outcome(scalar_compiled_solve, compiled, b)
    if isinstance(fast, list) and any(isinstance(v, LaurentSeries) for v in b):
        assert all(type(v) is tuple for v in fast)


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_integer_cleared_solve_matches_scalar_oracle(system):
    # Rational right-hand sides take the single integer column; the same
    # values as constant Laurent series take one column per power of e.
    a, b = system
    rational = [dict(v.to_pairs()).get(0, Fraction(0)) if isinstance(v, LaurentSeries) else v
                for v in b]
    mixed = [int(v) if v.denominator == 1 else v for v in rational]
    lifted = [LaurentSeries.from_rational(v) for v in rational]
    compiled = compile_system(a)

    fast = _outcome(CompiledSystem.solve, compiled, rational)
    assert _outcome(CompiledSystem.solve, compiled, mixed) == fast
    assert _outcome(scalar_compiled_solve, compiled, rational) == fast
    columns = _outcome(CompiledSystem.solve, compiled, lifted)
    if isinstance(fast, list):
        assert all(type(x) is Fraction for x in fast)
        assert [LaurentSeries(*x).coefficient(0) for x in columns] == fast
    else:
        assert fast is columns


def test_solve_refuses_a_right_hand_side_outside_q_and_laurent():
    compiled = compile_system([[1, 0], [0, 1]])
    for rhs in ([1.5, 1], [LaurentSeries.epsilon(), 0.5], ["1", 1]):
        with pytest.raises(QuizlabError, match="cannot solve for a right-hand side"):
            compiled.solve(rhs)


def test_laurent_solve_bounds_each_row_by_its_own_entries():
    # x0 = b0 and x1 = b1 - b0: x0 sees only the exact entry, x1 the
    # truncated one too; a rational entry is an exact constant.
    compiled = compile_system([[1, 0], [1, 1]])
    b0 = LaurentSeries.from_pairs([(-1, 2), (3, 1)])
    b1 = LaurentSeries(0, (Fraction(5), Fraction(0), Fraction(7)), 3)
    x0, x1 = compiled.solve([b0, b1])
    assert x0 == b0
    assert (x1.low, x1.coeffs, x1.bound) == (-1, (-2, 5, 0, 7), 3)
    assert compiled.solve([Fraction(1, 2), b1])[0] == LaurentSeries.from_rational(Fraction(1, 2))
    # A null row that meets a truncated entry never vanishes, even on a
    # window whose known terms all cancel.
    with pytest.raises(InconsistentSystemError):
        compile_system([[1], [1]]).solve([LaurentSeries(0, (), 0), LaurentSeries(0, (), 0)])


def test_derivative_matrix_power_sum():
    desc = easy_power_sum(1, 1)
    matrix = derivative_matrix(desc, [(1,), (2,)])
    assert matrix.entries == ((1, 1), (1, 2))
    assert exact_rank(matrix) == 2 == expected_rank(desc)


def test_derivative_matrix_neural():
    desc = neural_power(2)
    matrix = derivative_matrix(desc, [(1, 0), (0, 1), (1, 1)])
    assert matrix.entries == ((1, 0, 0), (0, 0, 1), (1, 2, 1))
    assert exact_rank(matrix) == 3


def test_derivative_matrix_single_direction():
    desc = easy_power_sum(2, 2)
    matrix = derivative_matrix(desc, [(3, 3 ** 4)])
    assert exact_rank(matrix) == 1


@st.composite
def power_form_directions(draw):
    """A small power form and a rational direction u of its arity."""
    desc = draw(
        st.one_of(
            st.builds(easy_power_sum, st.integers(1, 2), st.integers(1, 2)),
            st.builds(neural_power, st.integers(1, 3)),
        )
    )
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return desc, draw(st.lists(entry, min_size=desc.n, max_size=desc.n))


@settings(max_examples=60, deadline=None)
@given(power_form_directions())
@example((easy_power_sum(1, 2), [Fraction(3, 2), Fraction(9, 4)]))
@example((easy_power_sum(1, 2), [Fraction(-2, 5), Fraction(4, 25)]))
@example((neural_power(2), [Fraction(1, 3), 2]))
@example((neural_power(2), [Fraction(-5, 4), Fraction(1, 6)]))
def test_derivative_rows_match_the_circuit_slope(case):
    # The circuit route shares no code with power_form_row: the slope along
    # t -> (t, u) is the expansion at t = 1 less the expansion at t = 0.
    # Rational directions give rational rows, divided by their denominator.
    desc, u = case
    circ = build_circuit(desc)
    slope = circ.expand((1, *u)) - circ.expand((0, *u))
    (row,) = derivative_matrix(desc, [u]).entries
    assert row == slope.coeff_vector(desc.base_support())


@pytest.mark.parametrize(
    "desc", [univariate_d(3), hypercube_shift(2), kronecker_diag(2)], ids=lambda d: d.variant
)
def test_derivative_matrix_refuses_families_without_a_power_form(desc):
    with pytest.raises(QuizlabError, match=f"^{desc.variant} has no power form$"):
        derivative_matrix(desc, [(1,) * (desc.param_arity - 1)])


def test_power_sum_row_values_match_multinomial_formula():
    # spot check the (l, n) = (1, 2) row at the tower (rho, rho^(2^l))
    desc = easy_power_sum(1, 2)
    rho = 3
    matrix = derivative_matrix(desc, [(rho, rho ** 2)])
    support = desc.base_support()  # degree < 2 monomials of (X1, X2)
    row = dict(zip(support, matrix.entries[0]))
    # alpha = (0,0): 1; (1,0): rho^(2^0); (0,1): rho^(2^l) with l = 1
    assert row[(0, 0)] == 1
    assert row[(1, 0)] == rho
    assert row[(0, 1)] == rho ** 2


def test_roots_of_unity_ranks_are_the_carrier_dimensions():
    """Base and integral matrices are square and nonsingular (rank D + 1).

    The derivative matrix has D + 1 rows but lives in the D-dimensional
    coefficient space of degree < D polynomials, so its rank is exactly D:
    no choice of rows can do better in that carrier.
    """
    for d in (1, 2, 3, 5, 8, 13):
        assert roots_of_unity_rank(d, VARIANT_BASE) == d + 1
        assert roots_of_unity_rank(d, VARIANT_INTEGRAL) == d + 1
        matrix, _ = roots_of_unity_matrix(d, VARIANT_DERIVATIVE)
        assert matrix.rows == d + 1 and matrix.cols == d
        assert roots_of_unity_rank(d, VARIANT_DERIVATIVE) == d


def determinant_mod_p(rows, p):
    """Gaussian elimination over F_p with row swaps; the empty matrix has det 1."""
    grid = [[x % p for x in row] for row in rows]
    det = 1
    for col in range(len(grid)):
        pivot = next((r for r in range(col, len(grid)) if grid[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            grid[col], grid[pivot] = grid[pivot], grid[col]
            det = -det
        det = det * grid[col][col] % p
        inverse = pow(grid[col][col], -1, p)
        for r in range(col + 1, len(grid)):
            factor = grid[r][col] * inverse % p
            grid[r] = [(a - factor * b) % p for a, b in zip(grid[r], grid[col])]
    return det % p


@pytest.mark.parametrize("variant", [VARIANT_BASE, VARIANT_DERIVATIVE, VARIANT_INTEGRAL])
def test_roots_of_unity_determinant_closed_form(variant):
    """A second route for criterion 3: the scaled Vandermonde determinant.

    Row j has scale (D+1) * zeta_j^D and entries c_k * zeta_j^k.  For base
    and integral the determinant is the product of the row scales, the
    column scales c_k and prod_{i<j} (zeta_j - zeta_i).  The derivative
    matrix has columns k = 1..D; its minor without row 0 is that product
    over the kept rows, each times one more zeta_j.
    """
    for d_degree in range(32):
        matrix, p = roots_of_unity_matrix(d_degree, variant)
        d = d_degree + 1
        zeta = modular_root_of_unity(p, d)
        roots = [pow(zeta, j, p) for j in range(d)]
        assert pow(zeta, d, p) == 1 and len(set(roots)) == d
        if variant == VARIANT_BASE:
            column_scales, rows, kept = [1] * d, matrix.entries, roots
        elif variant == VARIANT_INTEGRAL:
            column_scales = [pow(k + 1, -1, p) for k in range(d)]
            rows, kept = matrix.entries, roots
        else:
            column_scales, rows, kept = list(range(1, d)), matrix.entries[1:], roots[1:]
        row_power = d_degree + (variant == VARIANT_DERIVATIVE)
        expected = 1
        for root in kept:
            expected *= d * pow(root, row_power, p)
        for scale in column_scales:
            expected *= scale
        for i, j in itertools.combinations(range(len(kept)), 2):
            expected *= kept[j] - kept[i]
        expected %= p
        assert expected != 0
        assert determinant_mod_p(rows, p) == expected, (variant, d_degree)


def test_roots_of_unity_d1_matrix():
    matrix, p = roots_of_unity_matrix(1, VARIANT_BASE)
    assert p == 5
    # rows 2 * zeta * (1, zeta) for zeta in {1, -1}, reduced mod 5
    assert matrix.entries == ((2, 2), (3, 2))  # 3 = -2 mod 5
    assert matrix.modulus == 5
    assert exact_rank(matrix) == 2


def test_hypercube_lk_n1():
    lks = hypercube_lk_coefficients(1)
    u = Polynomial.variable(1, 0)
    assert lks[0] == -(u + Polynomial.constant(1, 1))
    assert lks[1] == Polynomial.constant(1, 1)
    matrix = hypercube_lk_matrix(1, [(1,), (2,)])
    assert matrix.entries == ((-2, -3), (1, 1))
    assert exact_rank(matrix) == 2


def test_hypercube_lk_duplicated_points():
    matrix = hypercube_lk_matrix(2, [(1, 1), (1, 1), (2, 3), (4, 5)])
    assert exact_rank(matrix) < 4


def test_hypercube_lk_random_rank(rng):
    hits = 0
    for trial in range(20):
        local = random.Random(trial)
        points = [tuple(local.randint(1, 16) for _ in range(2)) for _ in range(4)]
        if exact_rank(hypercube_lk_matrix(2, points)) == 4:
            hits += 1
    assert hits >= 19


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sample_hypercube_points_are_distinct_sorted_and_in_the_box(n):
    # For n = 1 the first two draws repeat at seeds 0, 11 and 13.
    for seed in range(20):
        points = sample_hypercube_points(random.Random(seed), n)
        assert len(points) == len(set(points)) == 2 ** n
        assert points == sorted(points)
        assert all(len(u) == n and all(1 <= x <= 2 ** (n + 2) for x in u) for u in points)


def test_hypercube_lk_matches_symbolic_elimination():
    # L_k must be the t-linear coefficient of the k-th elimination coefficient;
    # recover each B_k(t) exactly by interpolation at t = 0..4 and compare.
    from quizlab.families import elimination_poly
    from conftest import lagrange_interpolate

    lks = hypercube_lk_coefficients(2)
    u = (Fraction(3), Fraction(5))
    size = 4
    ts = [Fraction(t) for t in range(size + 1)]
    expansions = [elimination_poly(2, t, u) for t in ts]
    for k in range(1, size + 1):
        mono = (size - k,)
        values = [f.coefficient(mono) for f in expansions]
        b_k = lagrange_interpolate(ts, values)  # ascending coefficients in t
        assert lks[k - 1].evaluate(u) == b_k[1]


def test_hypercube_lk_matrix_matches_polynomial_evaluation():
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        lks = hypercube_lk_coefficients(n)
        integer_points = [tuple(rng.randint(-9, 40) for _ in range(n)) for _ in range(2 ** n)]
        rational_points = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
            for _ in range(2 ** n)
        ]
        rational_points[0] = (Fraction(0),) * n
        for points in (integer_points, rational_points):
            matrix = hypercube_lk_matrix(n, points)
            expected = tuple(
                tuple(lk.evaluate([Fraction(x) for x in u]) for u in points) for lk in lks
            )
            assert matrix.entries == expected
        # Integer points make no Fraction.
        entries = hypercube_lk_matrix(n, integer_points).entries
        assert all(type(x) is int for row in entries for x in row)


def test_expected_ranks():
    assert expected_rank(easy_power_sum(2, 2)) == 10
    assert expected_rank(neural_power(3)) == 10
    assert expected_rank(hypercube_shift(3)) == 8
    assert expected_rank(kronecker_diag(3)) == 8
    assert expected_rank(univariate_d(7)) == 8


def test_lower_bound_report_runs():
    rep = lower_bound_report(easy_power_sum(2, 2), trials=10, seed=1)
    assert rep.expected_rank == 10
    assert rep.success_count == 10
    rep = lower_bound_report(univariate_d(9), trials=3, seed=1)
    assert rep.achieved_ranks == (10, 10, 10)
    with pytest.raises(CapExceededError):
        lower_bound_report(easy_power_sum(4, 3), trials=1, seed=1)


def test_witness_sizes_are_checked():
    for trials in (0, -1):
        with pytest.raises(QuizlabError, match="need at least one trial"):
            lower_bound_report(neural_power(2), trials=trials, seed=1)
    with pytest.raises(QuizlabError, match="D >= 0"):
        roots_of_unity_matrix(-1, VARIANT_BASE)
    with pytest.raises(QuizlabError, match="n >= 0"):
        hypercube_lk_matrix(-1, [])
    with pytest.raises(CapExceededError):
        hypercube_lk_matrix(6, [])
    # the smallest sizes are valid
    assert roots_of_unity_rank(0, VARIANT_BASE) == 1
    assert exact_rank(hypercube_lk_matrix(0, [()])) == 1


def test_report_serialization():
    rep = lower_bound_report(neural_power(2), trials=4, seed=2)
    text = rep.to_text()
    assert "expected_rank: 3" in text and "elapsed" not in text
    assert rep.to_csv().startswith("seed,achieved_rank,expected_rank,success")
