"""The five concrete parameterized families and their closed-form oracles.

Each family has two independent computation paths: a circuit built from
explicit gate constructions (``build_circuit``) and a direct closed-form
expansion (``expand_family``) that never touches the circuit, so a bug in
one path cannot validate itself.  The module also provides the power
forms' integer rows (``power_form_row``), which at t = 1 and a sampled
direction u are the rank witnesses' slope rows, the hypercube elimination
polynomial (computed by two routes and cross-checked), and the emitter for
the existential formula tied to the hypercube family.

Families (base polynomials, parameters first):

* easy-power-sum(l, n):   t * sum_{k < 2^l} (u.X)^k
* univariate-d(D):        (t^(D+1) - 1) * sum_{k <= D} t^k X^k
* neural-power(n):        t * (u.X)^n
* hypercube-shift(n):     sum_i 2^(i-1) X_i + t * prod_i (1 + (u_i - 1) X_i)
* kronecker-diag(k):      the hypercube polynomial in k variables with s in
                          the t slot; its charpoly task is the diagonal
                          product det(Y*Id - theta(s, u)).

Log in all size formulas is base 2 with ceilings applied verbatim.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, CircuitBuilder
from .errors import (
    ArityMismatchError,
    CapExceededError,
    InternalCheckError,
    QuizlabError,
    UnsupportedTaskError,
    check_cap,
)
from .exact import RationalRing, cleared_row
from .poly import (
    Monomial,
    Polynomial,
    cleared_root_product,
    monomials_below_degree,
    monomials_of_degree,
    multilinear_monomials,
    product_of_linear_roots,
)

EASY_POWER_SUM = "easy-power-sum"
UNIVARIATE_D = "univariate-d"
NEURAL_POWER = "neural-power"
HYPERCUBE_SHIFT = "hypercube-shift"
KRONECKER_DIAG = "kronecker-diag"

TASK_IDENTITY = "identity"
TASK_DERIVATIVE = "derivative"
TASK_INTEGRAL = "integral"
TASK_ELIMINATION = "elimination"
TASK_CHARPOLY = "charpoly"

VARIANTS = (EASY_POWER_SUM, UNIVARIATE_D, NEURAL_POWER, HYPERCUBE_SHIFT, KRONECKER_DIAG)
TASKS = (TASK_IDENTITY, TASK_DERIVATIVE, TASK_INTEGRAL, TASK_ELIMINATION, TASK_CHARPOLY)

# Each family's size parameters, all required and positive.
SIZE_PARAMS = {
    EASY_POWER_SUM: ("l", "n"),
    UNIVARIATE_D: ("d",),
    NEURAL_POWER: ("n",),
    HYPERCUBE_SHIFT: ("n",),
    KRONECKER_DIAG: ("k",),
}

# Each family's capped size and its desk cap.  FamilyDescriptor refuses a
# larger size, so no entry point that takes a descriptor can start on one.
DESK_CAPS = {
    EASY_POWER_SUM: ("n*l", 8),
    NEURAL_POWER: ("n", 6),
    HYPERCUBE_SHIFT: ("n", 5),
    KRONECKER_DIAG: ("k", 5),
    UNIVARIATE_D: ("d", 64),
}

ELIMINATION_CAP = 10


@dataclass(frozen=True)
class FamilyDescriptor:
    """One family variant plus its task.

    Discrete parameters: ``l``/``n`` for easy-power-sum, ``d`` for
    univariate-d, ``n`` for neural-power and hypercube-shift, ``k`` for
    kronecker-diag.  Tasks other than identity are only defined where the
    carrier supports them: derivative/integral for univariate-d,
    elimination for hypercube-shift, charpoly for kronecker-diag.  The
    capped size is checked last, against ``DESK_CAPS``, so a usage error is
    raised before a cap.
    """

    variant: str
    task: str = TASK_IDENTITY
    l: int | None = None
    n: int | None = None
    d: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise QuizlabError(f"unknown family variant {self.variant!r}")
        if self.task not in TASKS:
            raise QuizlabError(f"unknown task {self.task!r}")
        for name in SIZE_PARAMS[self.variant]:
            value = getattr(self, name)
            if value is None or value < 1:
                raise QuizlabError(f"{self.variant} needs positive {name}")
        allowed = {
            EASY_POWER_SUM: (TASK_IDENTITY,),
            UNIVARIATE_D: (TASK_IDENTITY, TASK_DERIVATIVE, TASK_INTEGRAL),
            NEURAL_POWER: (TASK_IDENTITY,),
            HYPERCUBE_SHIFT: (TASK_IDENTITY, TASK_ELIMINATION),
            KRONECKER_DIAG: (TASK_IDENTITY, TASK_CHARPOLY),
        }[self.variant]
        if self.task not in allowed:
            raise UnsupportedTaskError(
                f"task {self.task!r} is not defined for {self.variant}"
            )
        name, cap = DESK_CAPS[self.variant]
        value = self.n * self.l if self.variant == EASY_POWER_SUM else getattr(self, name)
        if value > cap:
            raise CapExceededError(
                f"desk cap {name} <= {cap} exceeded: {name} = {value}; no override"
            )

    # -- derived shape ---------------------------------------------------------

    @property
    def param_arity(self) -> int:
        return 1 if self.variant == UNIVARIATE_D else self.input_arity + 1

    @property
    def input_arity(self) -> int:
        """Number of X variables of the base polynomial."""
        if self.variant == UNIVARIATE_D:
            return 1
        if self.variant == KRONECKER_DIAG:
            return self.k
        return self.n

    def base(self) -> "FamilyDescriptor":
        """Same family with the identity task."""
        return FamilyDescriptor(self.variant, TASK_IDENTITY, self.l, self.n, self.d, self.k)

    def base_support(self) -> tuple[Monomial, ...]:
        """Generic monomial support of the base family, graded-lex order."""
        if self.variant == EASY_POWER_SUM:
            return monomials_below_degree(self.n, 2 ** self.l)
        if self.variant == UNIVARIATE_D:
            return tuple([(j,) for j in range(self.d + 1)])
        if self.variant == NEURAL_POWER:
            return monomials_of_degree(self.n, self.n)
        return multilinear_monomials(self.input_arity)

    def task_support(self) -> tuple[Monomial, ...]:
        """Monomial support of the task image (univariate in Y for repacks)."""
        return task_carrier(self.task, self.base_support(), self.input_arity)

    def label(self) -> str:
        parts = [self.variant]
        for name in ("l", "n", "d", "k"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        parts.append(f"task={self.task}")
        return " ".join(parts)


def task_carrier(task: str, support: Sequence[Monomial], n_inputs: int) -> tuple[Monomial, ...]:
    """The support of the task's image of a polynomial on ``support`` in
    ``n_inputs`` variables, for the player and the reference alike.  Every
    round asks for it, so its tuples are built from lists (see
    ``protocol._format_values``)."""
    if task == TASK_IDENTITY:
        return tuple([tuple(m) for m in support])
    if task == TASK_DERIVATIVE:
        return tuple([(j,) for j in range(max(len(support) - 1, 1))])
    if task == TASK_INTEGRAL:
        return tuple([(j,) for j in range(1, len(support) + 1)])
    return tuple([(j,) for j in range(2 ** n_inputs + 1)])  # the repacks, in Y


def easy_power_sum(l: int, n: int, task: str = TASK_IDENTITY) -> FamilyDescriptor:
    return FamilyDescriptor(EASY_POWER_SUM, task, l=l, n=n)


def univariate_d(d: int, task: str = TASK_IDENTITY) -> FamilyDescriptor:
    return FamilyDescriptor(UNIVARIATE_D, task, d=d)


def neural_power(n: int, task: str = TASK_IDENTITY) -> FamilyDescriptor:
    return FamilyDescriptor(NEURAL_POWER, task, n=n)


def hypercube_shift(n: int, task: str = TASK_IDENTITY) -> FamilyDescriptor:
    return FamilyDescriptor(HYPERCUBE_SHIFT, task, n=n)


def kronecker_diag(k: int, task: str = TASK_IDENTITY) -> FamilyDescriptor:
    return FamilyDescriptor(KRONECKER_DIAG, task, k=k)


def _check_point(desc: FamilyDescriptor, u: Sequence) -> list[Fraction]:
    point = [x if isinstance(x, Fraction) else Fraction(x) for x in u]
    if len(point) != desc.param_arity:
        raise ArityMismatchError(
            f"{desc.variant} expects {desc.param_arity} parameters, got {len(point)}"
        )
    return point


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

def _inner_product(b: CircuitBuilder, n: int) -> int:
    """u.X with params laid out as (t, u_1..u_n)."""
    terms = [b.mul(b.param(i + 1), b.input(i)) for i in range(n)]
    return b.sum_of(terms)


def _geometric_sum(b: CircuitBuilder, y: int, m: int) -> int:
    """Gates for 1 + y + ... + y^(m-1), sharing powers via the binary method."""

    def rec(count: int) -> tuple[int, int]:
        # returns (sum node for count terms, node for y^count)
        if count == 1:
            return b.const(1), y
        if count % 2 == 0:
            s, p = rec(count // 2)
            s2 = b.mul(s, b.add(b.const(1), p))
            return s2, b.mul(p, p)
        s, p = rec(count - 1)
        return b.add(s, p), b.mul(p, y)

    total, _ = rec(m)
    return total


def _hypercube_circuit(n: int) -> Circuit:
    """5n - 1 gates, using u_i - 1 parameter leaves."""
    b = CircuitBuilder(n_inputs=n, n_params=n + 1)
    one = b.const(1)
    factors = []
    for i in range(n):
        shifted = Polynomial.variable(n + 1, i + 1) - Polynomial.constant(n + 1, 1)
        factors.append(b.add(one, b.mul(b.poly_param(shifted), b.input(i))))
    product = b.mul(b.param(0), b.product_of(factors))
    linear = b.input(0)
    for i in range(1, n):
        linear = b.add(linear, b.mul(b.const(2 ** i), b.input(i)))
    return b.finish(b.add(linear, product))


def build_circuit(desc: FamilyDescriptor) -> Circuit:
    """Gate-level construction of the base family (identity task only)."""
    if desc.task != TASK_IDENTITY:
        raise UnsupportedTaskError(
            "circuits are built for the base family; tasks apply downstream"
        )
    if desc.variant == EASY_POWER_SUM:
        l, n = desc.l, desc.n
        b = CircuitBuilder(n_inputs=n, n_params=n + 1)
        s = _inner_product(b, n)
        one = b.const(1)
        powers = [s]
        for _ in range(l - 1):
            powers.append(b.mul(powers[-1], powers[-1]))
        factors = [b.add(one, p) for p in powers]
        out = b.mul(b.param(0), b.product_of(factors))
        return b.finish(out)
    if desc.variant == UNIVARIATE_D:
        d = desc.d
        b = CircuitBuilder(n_inputs=1, n_params=1)
        y = b.mul(b.param(0), b.input(0))
        total = _geometric_sum(b, y, d + 1)
        t_poly = Polynomial.variable(1, 0) ** (d + 1) - Polynomial.constant(1, 1)
        return b.finish(b.mul(b.poly_param(t_poly), total))
    if desc.variant == NEURAL_POWER:
        n = desc.n
        b = CircuitBuilder(n_inputs=n, n_params=n + 1)
        s = _inner_product(b, n)
        return b.finish(b.mul(b.param(0), b.power(s, n)))
    # hypercube-shift and kronecker-diag share the multilinear construction
    return _hypercube_circuit(desc.input_arity)


build_circuit_cached = functools.lru_cache(maxsize=128)(build_circuit)


def circuit_gate_bound(desc: FamilyDescriptor) -> int | None:
    """Documented gate budget, where one exists for the family."""
    if desc.variant == EASY_POWER_SUM:
        return 2 * desc.n + 3 * desc.l - 1
    if desc.variant == NEURAL_POWER:
        return 2 * desc.n + 2 * math.ceil(math.log2(desc.n)) if desc.n > 1 else 2
    if desc.variant in (HYPERCUBE_SHIFT, KRONECKER_DIAG):
        return 5 * desc.input_arity
    return None  # univariate-d: count is reported, not bounded


# ---------------------------------------------------------------------------
# Closed-form expansions (circuit-independent oracle)
# ---------------------------------------------------------------------------

def _expand_multilinear_base(n: int, t: Fraction, u: Sequence[Fraction]) -> Polynomial:
    terms: dict = {}
    for mono in multilinear_monomials(n):
        coeff = t
        for i, e in enumerate(mono):
            if e:
                coeff *= u[i] - 1
        weight = sum(2 ** i for i, e in enumerate(mono) if e)
        if sum(mono) == 1:
            coeff += weight
        if coeff != 0:
            terms[mono] = coeff
    return Polynomial.make(n, terms)


def vertex_monomials(k: int, u: Sequence[Fraction]) -> list[Fraction]:
    """The 2^k values prod_i u_i^[j]_i for j = 0..2^k - 1, where [j]_i is bit
    i - 1 of j: each u_i doubles the list of values so far (ints at an
    integer point)."""
    values = [1]
    for x in u[:k]:
        values += [v * x for v in values]
    return values


def theta_diagonal_values(k: int, s: Fraction, u: Sequence[Fraction]) -> list[Fraction]:
    """The 2^k values j + s * prod u_i^[j]_i for j = 0..2^k - 1."""
    return [j + s * m for j, m in enumerate(vertex_monomials(k, u))]


def vertex_elimination(f: Polynomial, n: int) -> Polynomial:
    """prod over the vertices v of {0,1}^n of (Y - f(v)), over f's ring.

    Vertex j has coordinate i equal to bit i of j.  At a vertex a monomial
    is 1 if its variables lie in the vertex and 0 otherwise, so f(v) is the
    sum of f's coefficients on the subsets of v.  Yates's subset-sum (zeta)
    transform fills all 2^n of those sums in n 2^(n-1) additions: of the
    integers c f(v) over the rationals, f cleared over the lcm c of its
    denominators once, and with ``ring.add`` over any other ring.  Over the
    rationals the integer sums and c go straight to ``cleared_root_product``.
    """
    ring = f.ring
    if f.nvars != n:
        raise ArityMismatchError(f"point has arity {n}, polynomial has {f.nvars}")
    rational = isinstance(ring, RationalRing)
    if rational:
        c, coeffs = cleared_row(f.terms.values())
        add, sums = operator.add, [0] * 2 ** n
    else:
        coeffs, add, sums = f.terms.values(), ring.add, [ring.zero] * 2 ** n
    for mono, q in zip(f.terms, coeffs):
        subset = sum(1 << i for i, e in enumerate(mono) if e)
        sums[subset] = add(sums[subset], q)
    for i in range(n):
        bit = 1 << i
        for j in range(2 ** n):
            if j & bit:
                sums[j] = add(sums[j], sums[j ^ bit])
    if rational:
        return cleared_root_product(c, sums)
    return product_of_linear_roots(sums, ring)


@functools.lru_cache(maxsize=32)
def _multinomial_support(n: int, low: int, high: int) -> tuple[tuple[Monomial, int], ...]:
    """(monomial m, multinomial |m|! / prod m_i!) for every degree low..high, graded-lex."""
    return tuple(
        (mono, math.factorial(degree) // math.prod(map(math.factorial, mono)))
        for degree in range(low, high + 1)
        for mono in monomials_of_degree(n, degree)
    )


def _power_degrees(desc: FamilyDescriptor) -> tuple[int, int]:
    """low, high with the power form t * sum of (u.X)^d over low <= d <= high."""
    return (0, 2 ** desc.l - 1) if desc.variant == EASY_POWER_SUM else (desc.n, desc.n)


def power_form_row(desc: FamilyDescriptor, u: Sequence) -> tuple[int, list[int]]:
    """easy-power-sum or neural-power at u as a denominator s and the integer
    coefficient row over ``_multinomial_support``, in base-support order.

    With t = a / b and u_i = p_i / q_i, s = b * prod q_i^high makes the
    coefficient of X^m the integer a * multinomial(m) * prod p_i^m_i
    q_i^(high - m_i).  The desk caps bound the row: at most 256 terms for
    easy-power-sum (n*l <= 8) and 462 for neural-power (n <= 6).
    """
    if desc.variant not in (EASY_POWER_SUM, NEURAL_POWER):
        raise QuizlabError(f"{desc.variant} has no power form")
    t, *rest = _check_point(desc, u)
    n, (low, high) = desc.n, _power_degrees(desc)
    support = _multinomial_support(n, low, high)
    pairs = [(x.numerator, x.denominator) for x in rest]
    den = t.denominator * math.prod([q for _, q in pairs]) ** high
    if not t:
        return den, [0] * len(support)
    tables = [[p ** e * q ** (high - e) for e in range(high + 1)] for p, q in pairs]
    return den, [
        math.prod(map(list.__getitem__, tables, mono), start=t.numerator * weight)
        for mono, weight in support
    ]


def expand_family(desc: FamilyDescriptor, u: Sequence) -> Polynomial:
    """Closed-form expansion at parameter point u, computed without circuits.

    easy-power-sum and neural-power make ``power_form_row``'s integer row a
    Polynomial, with one Fraction per nonzero coefficient.  univariate-d
    makes each lead * t^k once, as a running product, for its three tasks.
    """
    if desc.variant in (EASY_POWER_SUM, NEURAL_POWER):
        den, row = power_form_row(desc, u)
        support = _multinomial_support(desc.n, *_power_degrees(desc))
        return Polynomial.make(
            desc.n, {mono: Fraction(c, den) for (mono, _), c in zip(support, row) if c}
        )
    point = _check_point(desc, u)
    t, rest = point[0], point[1:]
    if desc.variant == UNIVARIATE_D:
        d = desc.d
        scaled = [t ** (d + 1) - 1]  # scaled[k] = (t^(d+1) - 1) * t^k
        for _ in range(d):
            scaled.append(scaled[-1] * t)
        if desc.task == TASK_DERIVATIVE:
            terms = {(k - 1,): k * scaled[k] for k in range(1, d + 1)}
        elif desc.task == TASK_INTEGRAL:
            terms = {(k + 1,): scaled[k] / (k + 1) for k in range(d + 1)}
        else:
            terms = {(k,): c for k, c in enumerate(scaled)}
        return Polynomial.make(1, terms)
    if desc.variant == HYPERCUBE_SHIFT:
        if desc.task == TASK_ELIMINATION:
            return elimination_poly(desc.n, t, rest)
        return _expand_multilinear_base(desc.n, t, rest)
    # kronecker-diag
    if desc.task == TASK_CHARPOLY:
        return product_of_linear_roots(theta_diagonal_values(desc.k, t, rest))
    return _expand_multilinear_base(desc.k, t, rest)


def elimination_poly(n: int, t, u: Sequence) -> Polynomial:
    """prod over the hypercube vertices of (Y - theta(t, u)(vertex)).

    Computed twice: from the closed per-vertex values j + t * prod u^[j],
    and by evaluating the multilinear base polynomial at every vertex.  The
    two products must agree exactly; a mismatch is an internal error.  The
    dimension is held to ELIMINATION_CAP for direct calls; the family and
    Kronecker caps are smaller.
    """
    check_cap("elimination", "n", n, ELIMINATION_CAP)
    t = Fraction(t)
    point = [Fraction(x) for x in u]
    if len(point) != n:
        raise ArityMismatchError(f"expected {n} direction parameters, got {len(point)}")
    direct = product_of_linear_roots(theta_diagonal_values(n, t, point))
    cross = vertex_elimination(_expand_multilinear_base(n, t, point), n)
    if direct != cross:
        raise InternalCheckError("elimination product paths disagree")
    return direct


# ---------------------------------------------------------------------------
# Formula emitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaReport:
    n: int
    equation_count: int
    point_count: int
    symbol_count: int
    text: str


def emit_formula(n: int) -> FormulaReport:
    """Existential formula tying the hypercube family to its value vector.

    Shape: EX X_1..X_n EX T EX U_1..U_n over the conjunction of the n
    hypercube equations X_i^2 - X_i = 0, the K = 16 n^2 + 2 evaluation
    equations V_k = Theta(T, U, xi_k) at fixed integer points xi_k of bit
    length at most 4n, and the closing equation Y = Theta(T, U, X).

    Grammar: prefix quantifiers, infix equations over +, -, *, =, with
    parentheses and explicit integer literals.  The symbol count is the
    number of grammar tokens; every identifier, literal, operator,
    parenthesis and quantifier keyword counts as one symbol.  n is held to
    ELIMINATION_CAP, the hypercube's direct-call dimension cap: the text
    grows about as n^4 (690 kB at the cap).
    """
    if n < 1:
        raise QuizlabError("n must be positive")
    check_cap("formula", "n", n, ELIMINATION_CAP)
    K = 16 * n * n + 2
    rng = random.Random(1_000 + n)  # fixed seed: the emitted formula is canonical
    points = [
        tuple(rng.randrange(0, 2 ** (4 * n)) for _ in range(n)) for _ in range(K)
    ]
    tokens: list[str] = []
    for i in range(1, n + 1):
        tokens += ["EX", f"X{i}"]
    tokens += ["EX", "T"]
    for i in range(1, n + 1):
        tokens += ["EX", f"U{i}"]
    tokens.append("(")
    conjuncts: list[list[str]] = []
    for i in range(1, n + 1):
        conjuncts.append([f"X{i}", "*", f"X{i}", "-", f"X{i}", "=", "0"])
    for k, xi in enumerate(points, start=1):
        constant = sum(2 ** (i - 1) * xi[i - 1] for i in range(1, n + 1))
        eq = [f"V{k}", "=", str(constant), "+", "T"]
        for i in range(1, n + 1):
            eq += ["*", "(", str(1 - xi[i - 1]), "+", str(xi[i - 1]), "*", f"U{i}", ")"]
        conjuncts.append(eq)
    closing = ["Y", "="]
    for i in range(1, n + 1):
        if i > 1:
            closing.append("+")
        closing += [str(2 ** (i - 1)), "*", f"X{i}"]
    closing += ["+", "T"]
    for i in range(1, n + 1):
        closing += ["*", "(", "1", "+", "(", f"U{i}", "-", "1", ")", "*", f"X{i}", ")"]
    conjuncts.append(closing)
    for idx, conjunct in enumerate(conjuncts):
        if idx:
            tokens.append("&")
        tokens.extend(conjunct)
    tokens.append(")")
    text = " ".join(tokens)
    return FormulaReport(
        n=n,
        equation_count=K,
        point_count=K,
        symbol_count=len(tokens),
        text=text,
    )
