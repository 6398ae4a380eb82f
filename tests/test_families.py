"""Family constructors, their dual-path oracles, curves and the formula emitter."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizlab.errors import (
    ArityMismatchError,
    CapExceededError,
    QuizlabError,
    UnsupportedTaskError,
)
from quizlab.families import (
    CURVE_FIXED_DIRECTION,
    CURVE_POWER_TOWER,
    CURVE_ROOT_SHIFT,
    TASK_DERIVATIVE,
    TASK_ELIMINATION,
    FamilyDescriptor,
    beta_curve,
    build_circuit,
    circuit_gate_bound,
    easy_power_sum,
    elimination_poly,
    emit_formula,
    expand_family,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    power_form_row,
    univariate_d,
    vertex_elimination,
)
from quizlab.exact import LaurentRing, LaurentSeries
from quizlab.poly import Polynomial, multilinear_monomials
from conftest import (
    GenericRationals,
    naive_vertex_elimination,
    random_fraction,
    sparse_root_product,
)

ALL_DESK_DESCRIPTORS = (
    easy_power_sum(2, 2),
    univariate_d(6),
    neural_power(3),
    hypercube_shift(3),
    kronecker_diag(3),
)


def test_descriptor_validation():
    with pytest.raises(UnsupportedTaskError):
        FamilyDescriptor("easy-power-sum", task="derivative", l=1, n=1)
    with pytest.raises(QuizlabError):
        FamilyDescriptor("univariate-d")
    assert easy_power_sum(2, 3).param_arity == 4
    assert univariate_d(5).param_arity == 1
    assert kronecker_diag(4).param_arity == 5


def test_expand_family_examples():
    f = expand_family(easy_power_sum(1, 1), [1, 2])
    assert f == Polynomial.make(1, {(0,): Fraction(1), (1,): Fraction(2)})
    g = expand_family(univariate_d(2, TASK_DERIVATIVE), [2])
    assert g == Polynomial.make(1, {(0,): Fraction(14), (1,): Fraction(56)})
    # any (D+1)-th root of unity in Q, i.e. t = 1, kills the family
    assert expand_family(univariate_d(5), [1]).is_zero()


def test_neural_power_eval_example():
    circ = build_circuit(neural_power(2))
    value = circ.evaluate([Fraction(1)] * 3, [Fraction(1), Fraction(1)])
    assert value == 4  # 1 * (1 + 1)^2


def test_dual_path_equivalence(rng):
    for desc in ALL_DESK_DESCRIPTORS:
        circ = build_circuit(desc.base())
        for _ in range(25):
            point = [random_fraction(rng) for _ in range(desc.param_arity)]
            assert circ.expand(point) == expand_family(desc.base(), point), desc.label()


def naive_power_form(desc, point) -> Polynomial:
    """t * multinomial(m) * prod u_i^m_i over every monomial of the support."""
    t, u = point[0], point[1:]
    terms = {}
    for mono in desc.base_support():
        coeff = t * math.factorial(sum(mono))
        for x, e in zip(u, mono):
            coeff = coeff / math.factorial(e) * x ** e
        if coeff:
            terms[mono] = coeff
    return Polynomial.make(desc.n, terms)


@st.composite
def power_form_cases(draw):
    """easy-power-sum (l * n <= 8) and neural-power (n <= 6) up to the desk
    caps, at rational points with t = 0, zero coordinates and negative
    rationals."""
    if draw(st.booleans()):
        l = draw(st.integers(1, 8))
        desc = easy_power_sum(l, draw(st.integers(1, 8 // l)))
    else:
        desc = neural_power(draw(st.integers(1, 6)))
    coordinate = st.one_of(
        st.just(Fraction(0)),
        st.integers(-4, 4).map(Fraction),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
    )
    point = draw(st.lists(coordinate, min_size=desc.param_arity, max_size=desc.param_arity))
    return desc, point


@settings(max_examples=150, deadline=None)
@given(power_form_cases())
@example((neural_power(3), [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 3)]))
@example((easy_power_sum(2, 2), [Fraction(-1, 2), Fraction(0), Fraction(0)]))
@example((neural_power(2), [Fraction(-2, 3), Fraction(0), Fraction(3, 5)]))
@example((easy_power_sum(4, 2), [Fraction(3), Fraction(-5, 2), Fraction(0)]))
@example((easy_power_sum(1, 8), [Fraction(-7, 3)] + [Fraction(-1) ** i for i in range(8)]))
@example((neural_power(6), [Fraction(2, 9), Fraction(0)] + [Fraction(-i, 5) for i in range(1, 6)]))
def test_power_form_expansion_against_naive_and_circuit(case):
    desc, point = case
    expected = naive_power_form(desc, point)
    assert expand_family(desc, point) == expected
    circuit_expansion = build_circuit(desc).expand(point)
    assert circuit_expansion == expected
    # The integer core against the closed-form and the circuit routes.
    support = desc.base_support()
    den, row = power_form_row(desc, point)
    core = tuple([Fraction(c, den) for c in row])
    assert core == expand_family(desc, point).coeff_vector(support)
    assert core == circuit_expansion.coeff_vector(support)


def test_power_form_row_is_integer_and_rejects_other_families():
    den, row = power_form_row(neural_power(2), (3, 1, 2))
    assert (den, row) == (1, [3, 12, 12])
    assert all(type(c) is int for c in row)
    with pytest.raises(QuizlabError):
        power_form_row(hypercube_shift(2), (1, 2, 3))


def test_gate_bounds_across_desk_scale():
    for l in range(1, 9):
        for n in range(1, 9):
            if l * n > 8:
                continue
            desc = easy_power_sum(l, n)
            assert build_circuit(desc).size().gates <= 2 * n + 3 * l - 1
    for n in range(1, 6):
        desc = hypercube_shift(n)
        assert build_circuit(desc).size().gates <= 5 * n
        assert circuit_gate_bound(desc) == 5 * n
    for n in range(1, 7):
        desc = neural_power(n)
        bound = 2 * n + 2 * math.ceil(math.log2(n)) if n > 1 else 2
        assert build_circuit(desc).size().gates <= bound


def test_power_sum_essential_multiplications():
    # the family is computable with 2l - 2 essential multiplications
    for l, n in ((1, 1), (2, 2), (3, 2), (2, 3)):
        circ = build_circuit(easy_power_sum(l, n))
        assert circ.size().essential_muls == max(2 * l - 2, 0)


def test_hypercube_essential_multiplications():
    for n in range(1, 6):
        circ = build_circuit(hypercube_shift(n))
        assert circ.size().essential_muls == n - 1


def test_univariate_circuit_reported_count():
    # no fixed budget for this family: the construction's count is reported
    for d in (2, 3, 7, 16):
        size = build_circuit(univariate_d(d)).size()
        assert size.gates <= 6 * math.ceil(math.log2(d + 1)) + 4


def test_power_sum_term_count():
    rng = random.Random(5)
    desc = easy_power_sum(2, 2)
    for _ in range(5):
        point = [Fraction(rng.randint(1, 9)) for _ in range(3)]
        f = expand_family(desc, point)
        assert f.term_count() == math.comb(2 ** 2 - 1 + 2, 2) == 10


def test_degeneration_at_t_zero(rng):
    for desc in (easy_power_sum(2, 2), neural_power(3)):
        u = [Fraction(0)] + [random_fraction(rng) for _ in range(desc.param_arity - 1)]
        assert expand_family(desc, u).is_zero()
    base = None
    for _ in range(5):
        u = [Fraction(0)] + [random_fraction(rng) for _ in range(3)]
        f = expand_family(hypercube_shift(3), u)
        base = f if base is None else base
        assert f == base
    # the t = 0 hypercube polynomial is the binary weight form
    assert base == Polynomial.make(
        3, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2), (0, 0, 1): Fraction(4)}
    )


def test_elimination_poly_examples():
    f = elimination_poly(2, 0, [7, 9])
    assert f == Polynomial.make(
        1,
        {(4,): Fraction(1), (3,): Fraction(-6), (2,): Fraction(11), (1,): Fraction(-6)},
    )
    g = elimination_poly(2, 1, [1, 1])
    assert g == Polynomial.make(
        1,
        {
            (4,): Fraction(1),
            (3,): Fraction(-10),
            (2,): Fraction(35),
            (1,): Fraction(-50),
            (0,): Fraction(24),
        },
    )
    with pytest.raises(CapExceededError):
        elimination_poly(11, 1, [1] * 11)


def test_elimination_both_paths_agree(rng):
    # the op self-checks its two product routes; exercise it on random data
    for _ in range(50):
        t = random_fraction(rng)
        u = [random_fraction(rng) for _ in range(3)]
        f = elimination_poly(3, t, u)
        assert f.coefficient((8,)) == 1  # monic of degree 2^3


def test_vertex_elimination_over_laurent_coefficients(rng):
    """A multilinear f with truncated Laurent coefficients, as the symbolic
    approximative rounds eliminate it: the product of (Y - f(v)) over the
    vertices is the sparse product of the same factors, term by term."""
    for precision in (2, 3, 8):
        ring = LaurentRing(precision)
        for _ in range(10):
            terms = {
                m: LaurentSeries.from_pairs(
                    [(e, random_fraction(rng, 3)) for e in range(-1, 3)]
                ).truncate(3)
                for m in multilinear_monomials(2)
                if rng.random() < 0.8
            }
            f = Polynomial.make(2, terms, ring)
            roots = [
                f.evaluate([ring.from_rational(Fraction(b)) for b in (j & 1, j >> 1)])
                for j in range(4)
            ]
            got = vertex_elimination(f, 2)
            ref = sparse_root_product(roots, ring)
            assert got == ref and list(got.terms) == list(ref.terms)


small_rationals = st.sampled_from([0, 1, -1]).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@st.composite
def polynomials_in(draw, n: int):
    """A rational f in n variables with exponents up to 2, not only multilinear."""
    monos = st.tuples(*[st.integers(0, 2)] * n)
    return Polynomial.make(n, draw(st.dictionaries(monos, small_rationals, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), polynomials_in(n))))
def test_vertex_elimination_matches_vertex_by_vertex_product(case):
    n, f = case
    got, ref = vertex_elimination(f, n), naive_vertex_elimination(f, n)
    assert got == ref and list(got.terms) == list(ref.terms)
    generic = vertex_elimination(Polynomial.make(n, f.terms, GenericRationals()), n)
    assert got == generic and list(got.terms) == list(generic.terms)
    assert all(type(c) is Fraction for c in got.terms.values())
    with pytest.raises(ArityMismatchError):
        vertex_elimination(f, n + 1)


def test_elimination_matches_task_expansion(rng):
    desc = hypercube_shift(3, TASK_ELIMINATION)
    for _ in range(10):
        point = [random_fraction(rng) for _ in range(4)]
        assert expand_family(desc, point) == elimination_poly(3, point[0], point[1:])


def test_beta_curves():
    curve = beta_curve(easy_power_sum(1, 2), CURVE_POWER_TOWER, 2)
    assert curve(Fraction(5)) == (5, 2, 4)
    curve = beta_curve(neural_power(2), CURVE_FIXED_DIRECTION, (1, 0))
    assert curve(Fraction(3)) == (3, 1, 0)
    curve = beta_curve(univariate_d(4), CURVE_ROOT_SHIFT, 1)
    assert curve(Fraction(1, 2)) == (Fraction(3, 2),)
    with pytest.raises(QuizlabError):
        beta_curve(univariate_d(4), CURVE_POWER_TOWER, 2)


def test_emit_formula_structure():
    rep = emit_formula(1)
    assert rep.equation_count == 18
    tokens = rep.text.split()
    assert tokens.count("EX") == 3  # X1, T, U1
    v_equations = sum(1 for tok in tokens if tok.startswith("V"))
    assert v_equations == 18
    for n in range(1, 4):
        rep = emit_formula(n)
        assert rep.equation_count == 16 * n * n + 2
        assert emit_formula(n).text == rep.text  # canonical output


def test_emit_formula_cubic_growth():
    counts = {n: emit_formula(n).symbol_count for n in range(1, 7)}
    ratios = {n: counts[n] / n ** 3 for n in counts}
    fitted = max(ratios.values())
    assert all(counts[n] <= fitted * n ** 3 for n in counts)
    # the dominant term is the K = 16 n^2 + 2 equations of O(n) tokens each
    assert fitted < 400
