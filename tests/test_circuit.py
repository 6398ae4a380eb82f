"""Circuit evaluation, expansion, size accounting and the generic computation."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizlab.circuit import (
    DEGREE_CAP,
    Circuit,
    CircuitBuilder,
    generic_computation,
)
from quizlab.errors import ArityMismatchError, CapExceededError, ExpansionCapExceededError
from quizlab.exact import RATIONALS, LaurentRing, LaurentSeries
from quizlab.families import (
    TASK_CHARPOLY,
    TASK_ELIMINATION,
    build_circuit,
    easy_power_sum,
    expand_family,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    univariate_d,
)
from quizlab.poly import Polynomial, PolynomialRing
from conftest import naive_laurent_value, naive_laurent_window, random_fraction


def test_power_sum_eval_example():
    circ = build_circuit(easy_power_sum(1, 2))
    value = circ.evaluate([Fraction(1)] * 3, [Fraction(1), Fraction(1)])
    assert value == 3  # 1 + (X1 + X2) at (1, 1)


def test_power_sum_t_zero():
    circ = build_circuit(easy_power_sum(2, 2))
    rng = random.Random(3)
    for _ in range(10):
        params = [Fraction(0)] + [random_fraction(rng) for _ in range(2)]
        inputs = [random_fraction(rng) for _ in range(2)]
        assert circ.evaluate(params, inputs) == 0


def test_expand_examples():
    assert build_circuit(easy_power_sum(1, 1)).expand([2, 3]) == Polynomial.make(
        1, {(0,): Fraction(2), (1,): Fraction(6)}
    )
    assert build_circuit(univariate_d(2)).expand([2]) == Polynomial.make(
        1, {(0,): Fraction(7), (1,): Fraction(14), (2,): Fraction(28)}
    )
    assert build_circuit(easy_power_sum(2, 2)).expand([0, 3, 4]).is_zero()


def test_expand_symbolic():
    # circuit computing t * (u * X), one parameter pair, one input
    b = CircuitBuilder(n_inputs=1, n_params=2)
    out = b.mul(b.param(0), b.mul(b.param(1), b.input(0)))
    circ = b.finish(out)
    sym = circ.expand_symbolic()
    assert sym == Polynomial.make(3, {(1, 1, 1): Fraction(1)})

    sym2 = build_circuit(easy_power_sum(1, 1)).expand_symbolic()
    # T + T*U*X in variables (T, U, X)
    assert sym2 == Polynomial.make(3, {(1, 0, 0): Fraction(1), (1, 1, 1): Fraction(1)})

    b = CircuitBuilder(n_inputs=1, n_params=0)
    circ = b.finish(b.const(5))
    assert circ.expand_symbolic() == Polynomial.make(1, {(0,): Fraction(5)})


def test_symbolic_substitution_consistency(rng):
    circ = build_circuit(easy_power_sum(2, 2))
    sym = circ.expand_symbolic()
    for _ in range(10):
        params = [random_fraction(rng) for _ in range(3)]
        inputs = [random_fraction(rng) for _ in range(2)]
        assert sym.evaluate(params + inputs) == circ.evaluate(params, inputs)


def test_eval_matches_expand_all_families(rng):
    # 200 random (params, inputs) pairs per family
    from quizlab.families import hypercube_shift, kronecker_diag, neural_power

    for desc in (
        easy_power_sum(2, 2),
        univariate_d(5),
        neural_power(3),
        hypercube_shift(3),
        kronecker_diag(3),
    ):
        circ = build_circuit(desc)
        for _ in range(200):
            params = [random_fraction(rng, span=5) for _ in range(circ.n_params)]
            inputs = [random_fraction(rng, span=5) for _ in range(circ.n_inputs)]
            expanded = circ.expand(params)
            assert expanded.evaluate(inputs) == circ.evaluate(params, inputs)


def test_laurent_substitution_homomorphism():
    # evaluating over Laurent parameters then substituting e = 1/16 agrees
    # with evaluating over rationals at the substituted parameters
    circ = build_circuit(easy_power_sum(1, 2))
    ring = LaurentRing(64)
    germ = [
        LaurentSeries.monomial(Fraction(1, 2), -1),
        LaurentSeries.from_pairs([(0, 1), (1, 1)]),
        LaurentSeries.epsilon(),
    ]
    inputs = [ring.from_rational(Fraction(2)), ring.from_rational(Fraction(-3))]
    laurent_value = circ.evaluate(germ, inputs, ring)
    at_sixteenth = naive_laurent_value(laurent_value, Fraction(1, 16))
    rational_params = [naive_laurent_value(g, Fraction(1, 16)) for g in germ]
    assert at_sixteenth == circ.evaluate(rational_params, [Fraction(2), Fraction(-3)])


def test_generic_computation_shape():
    g = generic_computation(1, 1)
    assert g.n_params == 9
    assert sum(g.essential_mul_flags()) == 1
    for L in range(1, 5):
        for n in range(1, 5):
            c = generic_computation(L, n)
            assert c.n_params == (L + n + 1) ** 2
            assert sum(c.essential_mul_flags()) == L
            # non-padding slots: two affine forms per step, then the output form
            used = sum(2 * (1 + n + i) for i in range(L)) + (1 + n + L)
            assert used <= c.n_params


def test_generic_affine_case():
    # L = 0 realizes exactly the affine forms c0 + sum c_j X_j
    circ = generic_computation(0, 2)
    assert circ.n_params == 9  # (0 + 2 + 1)^2, padded past the 3 used slots
    params = [Fraction(x) for x in (5, 2, -3)] + [Fraction(0)] * 6
    f = circ.expand(params)
    assert f == Polynomial.make(
        2, {(0, 0): Fraction(5), (1, 0): Fraction(2), (0, 1): Fraction(-3)}
    )


def test_generic_realizes_square():
    # brute force: parameters selecting p1 = X * X, output = p1
    circ = generic_computation(1, 1)
    params = [Fraction(0)] * 9
    params[1] = Fraction(1)  # left factor: X
    params[3] = Fraction(1)  # right factor: X
    params[6] = Fraction(1)  # output: p1
    assert circ.expand(params) == Polynomial.make(1, {(2,): Fraction(1)})
    assert circ.evaluate(params, [Fraction(3)]) == 9


def test_size_counts():
    b = CircuitBuilder(n_inputs=0, n_params=0)
    out = b.add(b.const(1), b.const(1))
    circ = b.finish(out)
    size = circ.size()
    assert size.gates == 1 and size.essential_muls == 0
    # shared const leaf: builder interning keeps a single node
    assert size.leaves == 1


def test_essential_flags():
    b = CircuitBuilder(n_inputs=1, n_params=1)
    x, t = b.input(0), b.param(0)
    scalar_mul = b.mul(t, x)       # param * input: not essential
    square = b.mul(x, x)           # input * input: essential
    chained = b.mul(square, t)     # essential-mul * param: not essential
    out = b.mul(square, scalar_mul)  # both sides involve inputs: essential
    circ = b.finish(out)
    flags = circ.essential_mul_flags()
    assert flags[scalar_mul] is False
    assert flags[square] is True
    assert flags[chained] is False
    assert flags[out] is True


def test_arity_checks():
    circ = build_circuit(easy_power_sum(1, 1))
    with pytest.raises(ArityMismatchError):
        circ.evaluate([Fraction(1)], [Fraction(1)])
    with pytest.raises(ArityMismatchError):
        circ.evaluate([Fraction(1), Fraction(1)], [])


def test_expansion_cap_reports_node():
    circ = build_circuit(easy_power_sum(3, 2))
    with pytest.raises(ExpansionCapExceededError) as info:
        circ.expand([1, 2, 3], cap=5)
    assert info.value.node is not None


def test_serialization_roundtrip():
    for desc in (easy_power_sum(2, 3), univariate_d(4)):
        circ = build_circuit(desc)
        text = circ.to_text()
        clone = Circuit.from_text(text)
        assert clone.to_text() == text
        params = [Fraction(i + 1) for i in range(circ.n_params)]
        assert clone.expand(params) == circ.expand(params)
    g = generic_computation(2, 2)
    assert Circuit.from_text(g.to_text()).to_text() == g.to_text()


def _squaring_chain(k: int) -> Circuit:
    b = CircuitBuilder(n_inputs=1, n_params=0)
    node = b.input(0)
    for _ in range(k):
        node = b.mul(node, node)
    return b.finish(node)


@pytest.mark.parametrize(
    "desc",
    [
        easy_power_sum(8, 1),
        easy_power_sum(2, 4),
        univariate_d(64),
        neural_power(6),
        hypercube_shift(5),
        kronecker_diag(5),
    ],
    ids=lambda desc: desc.label(),
)
def test_family_circuits_at_their_desk_caps_load_from_text(desc):
    text = build_circuit(desc).to_text()
    assert Circuit.from_text(text).to_text() == text


def test_circuit_text_is_held_to_the_formal_degree_cap():
    # X^1024 loads, X^2048 does not; a parameter polynomial counts its total
    # degree, and an unused node counts as well as the output.
    assert DEGREE_CAP == 2 ** 10
    Circuit.from_text(_squaring_chain(10).to_text())
    with pytest.raises(CapExceededError, match="^formal degree cap: node 11=2048 exceeds 1024;"):
        Circuit.from_text(_squaring_chain(11).to_text())
    b = CircuitBuilder(n_inputs=1, n_params=2)
    b.poly_param(Polynomial.make(2, {(600, 425): Fraction(1)}))
    circ = b.finish(b.input(0))
    with pytest.raises(CapExceededError, match="^formal degree cap: node 0=1025 exceeds 1024;"):
        Circuit.from_text(circ.to_text())


FAMILY_CIRCUITS = [
    easy_power_sum(2, 2),
    univariate_d(5),
    neural_power(2),
    hypercube_shift(2, TASK_ELIMINATION),
    kronecker_diag(2, TASK_CHARPOLY),
]
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


small_ints = st.integers(-6, 6)
# Drawn at the largest arity among FAMILY_CIRCUITS and cut to each circuit's.
param_lists = st.lists(small_fractions, min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILY_CIRCUITS),
    param_lists,
    st.lists(st.lists(small_fractions, min_size=2, max_size=2), max_size=5),
    st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=5),
    param_lists,
)
@example(FAMILY_CIRCUITS[0], [0, -2, Fraction(-1, 3)], [], [[0, 0], [-3, 2]], [1, 0, -1])
@example(FAMILY_CIRCUITS[1], [0, 0, 0], [], [[0, 0], [-1, 0], [5, 0]], [Fraction(1, 2), 0, 0])
@example(FAMILY_CIRCUITS[1], [-1, 0, 0], [], [[2, 0], [-2, 0]], [0, 0, 0])
@example(FAMILY_CIRCUITS[2], [Fraction(-5, 2), 0, -1], [], [[1, -1], [0, 3]], [0, 1, 0])
@example(FAMILY_CIRCUITS[3], [Fraction(-3, 4), 0, Fraction(-1, 2)], [], [[1, 1], [-4, 0]], [0, 0, 2])
@example(FAMILY_CIRCUITS[4], [0, -1, Fraction(2, 3)], [], [[0, 1], [6, -6]], [1, 1, 1])
def test_evaluate_points_matches_per_point_evaluate(desc, params, points, int_points, slopes):
    circ = build_circuit(desc.base())
    r, n = circ.n_params, circ.n_inputs
    assert r <= 3 and n <= 2
    params, slopes = [Fraction(x) for x in params[:r]], [Fraction(x) for x in slopes[:r]]
    points = [p[:n] for p in points]
    int_points = [p[:n] for p in int_points]
    values = circ.evaluate_points(params, points)
    assert values == [circ.evaluate(params, p) for p in points]
    oracle = expand_family(desc.base(), params)
    assert values == [oracle.evaluate(p) for p in points]

    # Integer points take the integer path; the node loop at the same points
    # as Fractions and the closed-form oracle are its references.
    ints = circ.evaluate_points(params, int_points)
    assert all(type(v) is Fraction for v in ints)
    assert ints == circ.evaluate_points(params, [[Fraction(x) for x in p] for p in int_points])
    assert ints == [oracle.evaluate(p) for p in int_points]

    # Over Laurent scalars, with a precision that keeps every value exact,
    # so substituting e = 1/7 must commute with the evaluation.
    germ = [LaurentSeries.from_pairs([(0, c), (1, a)]) for c, a in zip(params, slopes)]
    ring = LaurentRing(64)
    at = Fraction(1, 7)
    substituted = [naive_laurent_value(g, at) for g in germ]
    for rational_points in (points, int_points):
        lifted = [[ring.from_rational(x) for x in p] for p in rational_points]
        laurent = circ.evaluate_points(germ, lifted, ring)
        assert laurent == [circ.evaluate(germ, p, ring) for p in lifted]
        expected = circ.evaluate_points(substituted, rational_points)
        assert [naive_laurent_value(v, at) for v in laurent] == expected
    # Unlifted integer points take the integer windows.
    windows = circ.evaluate_points(germ, int_points, ring)
    assert windows == laurent
    assert all(type(c) is Fraction for v in windows for c in v.coeffs)


@st.composite
def laurent_germ_components(draw):
    """Exact and truncated germ components; a bound at or below every term
    gives an all-cancelled window (bound, (), bound)."""
    terms = draw(st.dictionaries(st.integers(-2, 3), small_fractions, max_size=3))
    bound = draw(st.none() | st.integers(-2, 5))
    return LaurentSeries(*naive_laurent_window(terms, bound))


# Parameters as the integer pass reads them: ints (zero often) and
# Fractions, with denominators up to 10^6.
rational_params = (
    st.just(0)
    | st.integers(-9, 9)
    | small_fractions
    | st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6)
)


@st.composite
def circuits_with_points(draw):
    """A random circuit of add, sub and mul gates over inputs, parameters,
    rational constants and parameter polynomials (exponents up to 4), its
    output often the last gate and sometimes any node, parameter-only ones
    included, with rational parameters, a Laurent germ, a Laurent precision
    and integer points (zero coordinates often) for it."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    b = CircuitBuilder(n_inputs=n, n_params=r)
    nodes = [b.input(i) for i in range(n)] + [b.param(j) for j in range(r)]
    nodes.append(b.const(draw(small_fractions)))
    if r:
        monos = st.tuples(*[st.integers(0, 4)] * r)
        for _ in range(draw(st.integers(1, 2))):
            payload = draw(st.dictionaries(monos, rational_params, max_size=4))
            nodes.append(b.poly_param(Polynomial.make(r, payload)))
    for _ in range(draw(st.integers(1, 12))):
        gate = getattr(b, draw(st.sampled_from(["add", "sub", "mul"])))
        nodes.append(gate(draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))))
    circ = b.finish(draw(st.just(nodes[-1]) | st.sampled_from(nodes)))
    params = draw(st.lists(rational_params, min_size=r, max_size=r))
    germ = draw(st.lists(laurent_germ_components(), min_size=r, max_size=r))
    precision = draw(st.integers(1, 8))
    coordinates = st.just(0) | small_ints
    points = draw(st.lists(st.lists(coordinates, min_size=n, max_size=n), max_size=4))
    return circ, params, germ, precision, points


def _parameter_sums() -> Circuit:
    """p0 / 3 + 5 / 2 - p1 * (p0 - p0^4 / 7), in one input it never reads:
    a parameter-only output whose sums meet unequal denominators."""
    b = CircuitBuilder(n_inputs=1, n_params=2)
    left = b.add(b.mul(b.param(0), b.const(Fraction(1, 3))), b.const(Fraction(5, 2)))
    quartic = b.poly_param(Polynomial.make(2, {(1, 0): Fraction(1), (4, 0): Fraction(-1, 7)}))
    return b.finish(b.sub(left, b.mul(b.param(1), quartic)))


@settings(max_examples=200, deadline=None)
@given(circuits_with_points())
@example((_parameter_sums(), [Fraction(2, 999_983), 7], None, 1, [[0], [-3]]))
@example((_parameter_sums(), [0, Fraction(-5, 6)], None, 1, [[4]]))
def test_integer_points_match_the_node_loop(case):
    circ, params, _, _, points = case
    got = circ.evaluate_points(params, points)
    assert all(type(v) is Fraction for v in got)
    assert got == circ.evaluate_points(params, [[Fraction(x) for x in p] for p in points])


@pytest.mark.parametrize("desc", FAMILY_CIRCUITS, ids=lambda desc: desc.variant)
def test_rational_rounds_at_integer_points_skip_the_node_loop(desc, monkeypatch):
    circ = build_circuit(desc.base())
    params = [Fraction(-3, 7), Fraction(5, 2), 4][: circ.n_params]
    points = [p[: circ.n_inputs] for p in ([1, -2], [0, 3], [-4, 0])]
    expected = circ.evaluate_points(params, [[Fraction(x) for x in p] for p in points])

    def node_loop(*args):
        raise AssertionError("the node loop ran")

    monkeypatch.setattr(Circuit, "_run", node_loop)
    assert circ.evaluate_points(params, points) == expected


def _laurent_outcome(circ, germ, points, ring):
    """Each value's stored window and text, or the type of the error raised."""
    try:
        values = circ.evaluate_points(germ, points, ring)
    except Exception as exc:  # the two paths must fail alike
        return type(exc)
    assert all(type(c) is Fraction for v in values for c in v.coeffs)
    return [((v.low, v.coeffs, v.bound), str(v)) for v in values]


def _family_case(desc, germ, precision, points):
    circ = build_circuit(desc.base())
    return circ, None, germ[: circ.n_params], precision, [p[: circ.n_inputs] for p in points]


ALL_CANCELLED = LaurentSeries(1, (), 1)
TRUNCATED = LaurentSeries(0, (Fraction(1, 2), Fraction(-1, 3)), 2)


def _cancelling_case():
    """(1 + e) X - X at precision 1: the product is cut to 1 + O(e) before
    the difference cancels it, so the value is O(e), not e."""
    b = CircuitBuilder(n_inputs=1, n_params=1)
    x = b.input(0)
    circ = b.finish(b.sub(b.mul(b.param(0), x), x))
    return circ, None, [LaurentSeries(0, (Fraction(1), Fraction(1)), None)], 1, [[1], [0]]


@settings(max_examples=200, deadline=None)
@given(
    circuits_with_points()
    | st.builds(
        _family_case,
        st.sampled_from(FAMILY_CIRCUITS),
        st.lists(laurent_germ_components(), min_size=3, max_size=3),
        st.integers(1, 8),
        st.lists(st.lists(st.just(0) | small_ints, min_size=2, max_size=2), max_size=4),
    )
)
# A zero question coordinate times a truncated germ is the exact zero, and a
# product with an all-cancelled germ is known only below that germ's bound
# plus the other factor's order.
@example(
    _family_case(FAMILY_CIRCUITS[0], [TRUNCATED, ALL_CANCELLED, TRUNCATED], 2, [[0, 0], [1, 2]])
)
@example(_family_case(FAMILY_CIRCUITS[1], [TRUNCATED] * 3, 1, [[0, 0], [3, 0]]))
@example(
    _family_case(FAMILY_CIRCUITS[2], [ALL_CANCELLED, TRUNCATED, TRUNCATED], 3, [[2, 1], [0, 1]])
)
@example(_cancelling_case())  # every gate is truncated, not only the output
def test_integer_windows_match_the_node_loop_at_lifted_points(case):
    circ, _, germ, precision, points = case
    ring = LaurentRing(precision)
    lifted = [[ring.from_rational(x) for x in p] for p in points]
    assert _laurent_outcome(circ, germ, points, ring) == _laurent_outcome(
        circ, germ, lifted, ring
    )


def _first_failure(circ, params, points, ring):
    """Per-point evaluation until the first cap hit: (values, error or None)."""
    values = []
    for p in points:
        try:
            values.append(circ.evaluate(params, p, ring))
        except ExpansionCapExceededError as exc:
            return values, exc
    return values, None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILY_CIRCUITS), st.integers(1, 40), st.booleans())
@example(FAMILY_CIRCUITS[3], 1, True)  # a parameter-only node, first point
@example(FAMILY_CIRCUITS[3], 2, True)  # an input-dependent node, second point
@example(FAMILY_CIRCUITS[0], 1, False)  # an input-dependent node, third point
def test_evaluate_points_cap_hit_keeps_node_index(desc, cap, symbolic_params):
    # Constant inputs first, then the input variables: a cap hit can come
    # from a parameter-only node on the first point or from an
    # input-dependent node on a later one.
    circ = build_circuit(desc.base())
    r, n = circ.n_params, circ.n_inputs
    ring = PolynomialRing(r + n, RATIONALS, cap)
    if symbolic_params:
        params = [ring.variable(j) for j in range(r)]
    else:
        params = [ring.from_rational(Fraction(j + 2)) for j in range(r)]
    points = [
        [ring.from_rational(Fraction(k))] * n for k in (1, -2)
    ] + [[ring.variable(r + i) for i in range(n)]]
    values, error = _first_failure(circ, params, points, ring)
    if error is None:
        assert circ.evaluate_points(params, points, ring) == values
        return
    with pytest.raises(ExpansionCapExceededError) as info:
        circ.evaluate_points(params, points, ring)
    assert info.value.node == error.node
    assert str(info.value) == str(error)
    assert str(error).endswith(f"(at node {error.node})")
