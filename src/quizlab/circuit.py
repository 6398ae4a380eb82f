"""Robust arithmetic circuits: labeled DAGs with parameter and input leaves.

A circuit is a topologically ordered node list with one output.  Leaves are
inputs X_i, raw parameter coordinates, rational constants, or parameter
leaves given by a polynomial in the parameter coordinates (the division-free
case of a robust parameter function; the concrete families need ``u_i - 1``
style leaves to meet their documented gate budgets).  Internal nodes are
binary add/sub/mul gates.  Gate counts and leaf counts are reported
separately; family size bounds are checked against gates only.

Evaluation is ring-generic.  Expansion (symbolic or at fixed parameters) is
evaluation over a polynomial ring with a term-count cap.  At integer input
points over the rationals, every node runs on integers: the parameter-only
nodes as unreduced (numerator, denominator) pairs, parameter polynomials
cleared once per circuit, and the input-dependent nodes as numerators over
one denominator each; one Fraction is made at the output.  Over truncated
Laurent scalars the input-dependent nodes run as integer coefficient
windows (``Circuit.evaluate_points``).  A circuit read from text is held to
a formal degree of ``DEGREE_CAP``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityMismatchError,
    ExpansionCapExceededError,
    QuizlabError,
    check_cap,
)
from .exact import (
    RATIONALS,
    LaurentRing,
    LaurentSeries,
    RationalRing,
    cleared_row,
    rational_from_str,
    rational_to_str,
    window_add,
    window_mul,
    window_truncate,
)
from .poly import Polynomial, PolynomialRing

DEFAULT_EXPANSION_CAP = 200_000
# The parameter count (L+n+1)^2 of ``generic_computation``, so L + n <= 127;
# the largest circuit allowed builds and prints in about 0.5 s.
GENERIC_PARAMS_CAP = 2 ** 14
# The formal degree of any node of a circuit read from text; the family
# circuits reach at most 511 at their desk caps.
DEGREE_CAP = 1024

INPUT = "input"
PARAM = "param"
CONST = "const"
POLY_PARAM = "poly_param"
ADD = "add"
SUB = "sub"
MUL = "mul"

_LEAF_KINDS = (INPUT, PARAM, CONST, POLY_PARAM)
_GATE_KINDS = (ADD, SUB, MUL)


@dataclass(frozen=True)
class Node:
    """One circuit node.

    ``a``/``b`` are child indices for gates; ``a`` is the input or parameter
    index for input/param leaves.  ``value`` carries the constant of a const
    leaf; ``payload`` carries the parameter polynomial of a poly_param leaf
    (a Polynomial in the circuit's r parameter coordinates).
    """

    kind: str
    a: int = -1
    b: int = -1
    value: Fraction | None = None
    payload: Polynomial | None = None


@dataclass(frozen=True)
class CircuitSize:
    gates: int
    leaves: int
    essential_muls: int


@dataclass(frozen=True)
class Circuit:
    """Immutable circuit; node children always point to earlier indices."""

    nodes: tuple[Node, ...]
    output: int
    n_inputs: int
    n_params: int

    def __post_init__(self):
        for i, node in enumerate(self.nodes):
            if node.kind in _GATE_KINDS:
                if not (0 <= node.a < i and 0 <= node.b < i):
                    raise QuizlabError(f"node {i} has forward or invalid children")
            elif node.kind == INPUT:
                if not 0 <= node.a < self.n_inputs:
                    raise QuizlabError(f"node {i} reads input {node.a}, arity {self.n_inputs}")
            elif node.kind == PARAM:
                if not 0 <= node.a < self.n_params:
                    raise QuizlabError(f"node {i} reads param {node.a}, arity {self.n_params}")
            elif node.kind == POLY_PARAM:
                if node.payload is None or node.payload.nvars != self.n_params:
                    raise QuizlabError(f"node {i} parameter polynomial has wrong arity")
            elif node.kind == CONST:
                if node.value is None:
                    raise QuizlabError(f"node {i} constant missing value")
            else:
                raise QuizlabError(f"node {i} has unknown kind {node.kind!r}")
        if not 0 <= self.output < len(self.nodes):
            raise QuizlabError("output index out of range")

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, params, inputs, ring=RATIONALS):
        """Value of the final result at (params, inputs), over any ring."""
        return self.evaluate_points(params, [inputs], ring)[0]

    def evaluate_points(self, params, points, ring=RATIONALS) -> list:
        """Values of the final result at (params, p) for each input point p.

        The first point runs every node in order; later points reuse the
        parameter-only nodes (``input_dependence``) and run only the
        input-dependent ones, so each parameter-only node is evaluated once.
        At integer points the nodes run on integers instead: over the
        rationals every node, from the parameter leaves to the output
        (``_integer_points``); over Laurent scalars the input-dependent ones,
        as integer coefficient windows (``_integer_windows``).  Polynomial
        rings, non-integer points and points already lifted to the ring keep
        the node loop.
        """
        if len(params) != self.n_params:
            raise ArityMismatchError(
                f"expected {self.n_params} parameters, got {len(params)}"
            )
        if all(type(x) is int for p in points for x in p):
            if isinstance(ring, RationalRing):
                return self._integer_points(params, points)
            if isinstance(ring, LaurentRing):
                return self._integer_windows(params, points, ring)
        values: list = [None] * len(self.nodes)
        results = []
        order = range(len(self.nodes))
        for inputs in points:
            self._check_inputs(inputs)
            self._run(order, values, params, inputs, ring)
            results.append(values[self.output])
            order = self._input_dependent_nodes
        return results

    def _check_inputs(self, inputs) -> None:
        if len(inputs) != self.n_inputs:
            raise ArityMismatchError(f"expected {self.n_inputs} inputs, got {len(inputs)}")

    def _run(self, order, values: list, params, inputs, ring) -> None:
        """Evaluate the nodes in ``order`` into ``values``: the node loop."""
        nodes = self.nodes
        for i in order:
            node = nodes[i]
            try:
                if node.kind == INPUT:
                    v = inputs[node.a]
                elif node.kind == PARAM:
                    v = params[node.a]
                elif node.kind == CONST:
                    v = ring.from_rational(node.value)
                elif node.kind == POLY_PARAM:
                    v = node.payload.evaluate(params, ring)
                elif node.kind == ADD:
                    v = ring.add(values[node.a], values[node.b])
                elif node.kind == SUB:
                    v = ring.sub(values[node.a], values[node.b])
                else:
                    v = ring.mul(values[node.a], values[node.b])
            except ExpansionCapExceededError as exc:
                raise ExpansionCapExceededError(f"{exc} (at node {i})", node=i) from exc
            values[i] = v

    def _integer_steps(self, dens: list[int]) -> list[tuple]:
        """The input-dependent nodes as steps on integers, shared by both
        integer kernels.

        ``dens`` holds the denominator of every parameter-only node and 1
        elsewhere; this fills in D_i for every input-dependent node: 1 for
        an input, D_a D_b for a product, and lcm(D_a, D_b) for a sum or
        difference.  A sum's step carries the integer scales D_i / D_a and
        D_i / D_b of its operands; a difference's second scale is negated,
        so both are steps of kind ADD.
        """
        nodes = self.nodes
        steps = []
        for i in self._input_dependent_nodes:
            node = nodes[i]
            a, b = node.a, node.b
            if node.kind == INPUT:
                steps.append((INPUT, i, a, 0, 0, 0))
            elif node.kind == MUL:
                dens[i] = dens[a] * dens[b]
                steps.append((MUL, i, a, b, 0, 0))
            else:
                dens[i] = math.lcm(dens[a], dens[b])
                sb = dens[i] // dens[b]
                steps.append((ADD, i, a, b, dens[i] // dens[a], sb if node.kind == ADD else -sb))
        return steps

    def _integer_points(self, params, points) -> list[Fraction]:
        """``evaluate_points`` over the rationals at integer points.

        ``_parameter_pairs`` gives each parameter-only node as an integer
        numerator over a denominator, and ``_integer_steps`` gives every
        input-dependent node its denominator D_i.  Each point then computes
        every input-dependent numerator N_i in integers.  Nothing is reduced
        on the way: the one Fraction(N, D) made at the output reduces.
        """
        nums, dens = self._parameter_pairs(params)
        steps = self._integer_steps(dens)
        out, den = self.output, dens[self.output]
        results = []
        for inputs in points:
            self._check_inputs(inputs)
            for kind, i, a, b, sa, sb in steps:
                if kind == MUL:
                    nums[i] = nums[a] * nums[b]
                elif kind == ADD:
                    nums[i] = sa * nums[a] + sb * nums[b]
                else:
                    nums[i] = inputs[a]
            results.append(Fraction(nums[out], den))
        return results

    def _parameter_pairs(self, params) -> tuple[list[int], list[int]]:
        """Every parameter-only node at rational parameters as an integer
        numerator and denominator, unreduced; 0 over 1 elsewhere.

        A param or const leaf is its value's numerator over its
        denominator, and a parameter polynomial is ``_payload_pair`` of its
        cleared payload.  A product multiplies numerators and denominators;
        a sum or difference takes the lcm of the denominators and scales
        each numerator to it, as ``_integer_steps`` does.
        """
        nodes = self.nodes
        nums, dens = [0] * len(nodes), [1] * len(nodes)
        payloads = self._cleared_payloads
        for i in self._parameter_only_nodes:
            node = nodes[i]
            kind, a, b = node.kind, node.a, node.b
            if kind == PARAM:
                p = params[a]
                nums[i], dens[i] = p.numerator, p.denominator
            elif kind == CONST:
                nums[i], dens[i] = node.value.numerator, node.value.denominator
            elif kind == POLY_PARAM:
                nums[i], dens[i] = _payload_pair(payloads[i], params)
            elif kind == MUL:
                nums[i], dens[i] = nums[a] * nums[b], dens[a] * dens[b]
            else:
                da, db = dens[a], dens[b]
                d = da if da == db else math.lcm(da, db)
                nb = nums[b] * (d // db)
                nums[i] = nums[a] * (d // da) + (nb if kind == ADD else -nb)
                dens[i] = d
        return nums, dens

    @functools.cached_property
    def _cleared_payloads(self) -> dict[int, tuple]:
        """Each parameter polynomial cleared once per circuit, by node index:
        (c, h, terms), with the coefficients over their lcm c, h_i the
        highest exponent of parameter i, and terms the pairs (k_m, m) of
        each monomial m and its integer coefficient k_m = c * coefficient."""
        cleared = {}
        for i, node in enumerate(self.nodes):
            if node.kind == POLY_PARAM:
                terms = node.payload.terms
                c, ks = cleared_row(terms.values())
                h = tuple([max([m[j] for m in terms], default=0) for j in range(self.n_params)])
                cleared[i] = (c, h, tuple(zip(ks, terms)))
        return cleared

    def _integer_windows(self, params, points, ring: LaurentRing) -> list[LaurentSeries]:
        """``evaluate_points`` over truncated Laurent scalars at integer points.

        The germ fixes the parameter-only nodes once, through the node loop;
        each is cleared to a common denominator D_i, the lcm of its
        coefficients' denominators, and kept as the integer window
        (low, numerators, bound).  ``_integer_steps`` gives every
        input-dependent node its denominator.  Each point then computes every
        input-dependent node as an integer window with the rules of
        ``LaurentSeries`` (``window_add``, ``window_mul``, truncated to the
        ring's precision after every gate).  A numerator is zero exactly
        when the Fraction coefficient is, so every low, bound and truncation
        is the node loop's, and the output makes one Fraction(N_k, D) per
        coefficient.
        """
        nodes = self.nodes
        values: list = [None] * len(nodes)
        self._run(self._parameter_only_nodes, values, params, None, ring)
        windows: list = [None] * len(nodes)
        dens = [1] * len(nodes)
        for i in self._parameter_only_nodes:
            v = values[i]
            dens[i], nums = cleared_row(v.coeffs)
            windows[i] = (v.low, tuple(nums), v.bound)
        steps = self._integer_steps(dens)
        precision = ring.precision
        out, den = self.output, dens[self.output]
        results = []
        for inputs in points:
            self._check_inputs(inputs)
            for kind, i, a, b, sa, sb in steps:
                if kind == MUL:
                    w = window_mul(windows[a], windows[b], 0)
                elif kind == ADD:
                    w = window_add(windows[a], windows[b], 0, sa, sb)
                else:
                    x = inputs[a]
                    windows[i] = (0, (x,), None) if x else (0, (), None)
                    continue
                windows[i] = window_truncate(w, precision)
            low, coeffs, bound = windows[out]
            results.append(LaurentSeries(low, tuple([Fraction(c, den) for c in coeffs]), bound))
        return results

    @functools.cached_property
    def _input_dependent_nodes(self) -> list[int]:
        """Indices of the nodes that depend on an input, found once per circuit."""
        return [i for i, dep in enumerate(self.input_dependence()) if dep]

    @functools.cached_property
    def _parameter_only_nodes(self) -> list[int]:
        return [i for i, dep in enumerate(self.input_dependence()) if not dep]

    def expand(self, params, cap: int | None = DEFAULT_EXPANSION_CAP) -> Polynomial:
        """Exact polynomial in the inputs at fixed rational parameters."""
        params = [Fraction(p) for p in params]
        ring = PolynomialRing(self.n_inputs, RATIONALS, cap)
        point = [ring.variable(i) for i in range(self.n_inputs)]
        lifted = [ring.from_rational(p) for p in params]
        return self.evaluate(lifted, point, ring)

    def expand_symbolic(self) -> Polynomial:
        """Full symbolic final result in r + n variables (params then inputs)."""
        r, n = self.n_params, self.n_inputs
        ring = PolynomialRing(r + n, RATIONALS, DEFAULT_EXPANSION_CAP)
        params = [ring.variable(j) for j in range(r)]
        inputs = [ring.variable(r + i) for i in range(n)]
        return self.evaluate(params, inputs, ring)

    # -- size accounting ----------------------------------------------------------

    def input_dependence(self) -> tuple[bool, ...]:
        """Per node: does its value depend (transitively) on an input."""
        dep: list[bool] = []
        for node in self.nodes:
            if node.kind == INPUT:
                dep.append(True)
            elif node.kind in _GATE_KINDS:
                dep.append(dep[node.a] or dep[node.b])
            else:
                dep.append(False)
        return tuple(dep)

    def essential_mul_flags(self) -> tuple[bool, ...]:
        """Mul gates whose operands both involve inputs; scalar muls are free."""
        dep = self.input_dependence()
        return tuple(
            node.kind == MUL and dep[node.a] and dep[node.b] for node in self.nodes
        )

    def size(self) -> CircuitSize:
        gates = sum(1 for n in self.nodes if n.kind in _GATE_KINDS)
        leaves = sum(1 for n in self.nodes if n.kind in _LEAF_KINDS)
        essential = sum(self.essential_mul_flags())
        return CircuitSize(gates=gates, leaves=leaves, essential_muls=essential)

    # -- serialization -------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical JSON document; round-trips bit-exactly."""
        nodes = []
        for i, node in enumerate(self.nodes):
            rec: dict = {"id": i, "kind": node.kind}
            if node.kind in (INPUT, PARAM):
                rec["args"] = [node.a]
            elif node.kind == CONST:
                rec["args"] = [rational_to_str(node.value)]
            elif node.kind == POLY_PARAM:
                rec["args"] = [[list(m), c] for m, c in node.payload.to_pairs()]
            else:
                rec["args"] = [node.a, node.b]
            nodes.append(rec)
        doc = {"n": self.n_inputs, "r": self.n_params, "nodes": nodes, "output": self.output}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_text(text: str) -> "Circuit":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QuizlabError(f"circuit text is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise QuizlabError("circuit text is not a JSON object")
        missing = [key for key in ("n", "r", "nodes", "output") if key not in doc]
        if missing:
            raise QuizlabError(f"circuit text lacks {', '.join(missing)}")
        n = _json_count(doc["n"], "n")
        r = _json_count(doc["r"], "r")
        if not isinstance(doc["nodes"], list):
            raise QuizlabError("circuit text: nodes is not a list")
        nodes = [_node_from_record(i, rec, r) for i, rec in enumerate(doc["nodes"])]
        circ = Circuit(tuple(nodes), _json_count(doc["output"], "output"), n, r)
        _check_formal_degree(circ)
        return circ


def _check_formal_degree(circ: Circuit) -> None:
    """Refuse the first node whose formal degree exceeds ``DEGREE_CAP``.

    Input and param leaves have degree 1 and a const 0; a parameter
    polynomial has its total degree.  A sum or difference takes the larger
    of its operands' degrees and a product their sum, so no degree past
    twice the cap is formed before the refusal.
    """
    degrees: list[int] = []
    for i, node in enumerate(circ.nodes):
        if node.kind in (INPUT, PARAM):
            degree = 1
        elif node.kind == CONST:
            degree = 0
        elif node.kind == POLY_PARAM:
            degree = max([sum(m) for m in node.payload.terms], default=0)
        elif node.kind == MUL:
            degree = degrees[node.a] + degrees[node.b]
        else:
            degree = max(degrees[node.a], degrees[node.b])
        check_cap("formal degree", f"node {i}", degree, DEGREE_CAP)
        degrees.append(degree)


def _payload_pair(cleared: tuple, params) -> tuple[int, int]:
    """A cleared parameter polynomial (c, h, terms) at the parameters
    a_i / b_i, as N over D: N = sum of k_m prod a_i^m_i b_i^(h_i - m_i) and
    D = c prod b_i^h_i."""
    c, h, terms = cleared
    nums = [p.numerator for p in params]
    dens = [p.denominator for p in params]
    total = 0
    for k, mono in terms:
        for a, b, e, top in zip(nums, dens, mono, h):
            if e:
                k *= a ** e
            if top != e:
                k *= b ** (top - e)
        total += k
    for b, top in zip(dens, h):
        if top:
            c *= b ** top
    return total, c


_ARG_COUNTS = {INPUT: 1, PARAM: 1, CONST: 1, ADD: 2, SUB: 2, MUL: 2}


def _json_count(value, what: str) -> int:
    # bool is an int subclass, but JSON true/false is no index
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise QuizlabError(f"circuit text: {what} must be a nonnegative integer, got {value!r}")
    return value


def _json_rational(value, what: str) -> Fraction:
    if not isinstance(value, str):
        raise QuizlabError(f"circuit text: {what} must be a rational string, got {value!r}")
    return rational_from_str(value)


def _node_from_record(i: int, rec, r: int) -> Node:
    """One node of a circuit document; malformed records raise QuizlabError."""
    if not isinstance(rec, dict) or "kind" not in rec or "args" not in rec:
        raise QuizlabError(f"circuit text: node {i} is not an object with kind and args")
    kind, args = rec["kind"], rec["args"]
    if not isinstance(args, list):
        raise QuizlabError(f"circuit text: node {i} args is not a list")
    if kind == POLY_PARAM:
        terms = {}
        for pair in args:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list)):
                raise QuizlabError(f"circuit text: node {i} term is not [exponents, coefficient]")
            mono = tuple(_json_count(e, f"node {i} exponent") for e in pair[0])
            terms[mono] = _json_rational(pair[1], f"node {i} coefficient")
        return Node(kind, payload=Polynomial.make(r, terms))
    count = _ARG_COUNTS.get(kind) if isinstance(kind, str) else None
    if count is None:
        raise QuizlabError(f"node {i} has unknown kind {kind!r}")
    if len(args) != count:
        raise QuizlabError(f"circuit text: node {i} ({kind}) needs {count} args, got {len(args)}")
    if kind == CONST:
        return Node(kind, value=_json_rational(args[0], f"node {i} constant"))
    indices = [_json_count(x, f"node {i} argument") for x in args]
    if kind in _GATE_KINDS:
        return Node(kind, a=indices[0], b=indices[1])
    return Node(kind, a=indices[0])


class CircuitBuilder:
    """Incremental builder with construction-time sharing of identical nodes."""

    def __init__(self, n_inputs: int, n_params: int):
        self.n_inputs = n_inputs
        self.n_params = n_params
        self._nodes: list[Node] = []
        self._cache: dict = {}

    def _intern(self, key, node: Node) -> int:
        if key in self._cache:
            return self._cache[key]
        self._nodes.append(node)
        idx = len(self._nodes) - 1
        self._cache[key] = idx
        return idx

    def input(self, i: int) -> int:
        return self._intern((INPUT, i), Node(INPUT, a=i))

    def param(self, j: int) -> int:
        return self._intern((PARAM, j), Node(PARAM, a=j))

    def const(self, q) -> int:
        q = Fraction(q)
        return self._intern((CONST, q), Node(CONST, value=q))

    def poly_param(self, payload: Polynomial) -> int:
        key = (POLY_PARAM, frozenset(payload.terms.items()))
        return self._intern(key, Node(POLY_PARAM, payload=payload))

    def add(self, a: int, b: int) -> int:
        return self._intern((ADD, a, b), Node(ADD, a=a, b=b))

    def sub(self, a: int, b: int) -> int:
        return self._intern((SUB, a, b), Node(SUB, a=a, b=b))

    def mul(self, a: int, b: int) -> int:
        return self._intern((MUL, a, b), Node(MUL, a=a, b=b))

    def sum_of(self, indices: list[int]) -> int:
        if not indices:
            return self.const(0)
        acc = indices[0]
        for idx in indices[1:]:
            acc = self.add(acc, idx)
        return acc

    def product_of(self, indices: list[int]) -> int:
        if not indices:
            return self.const(1)
        acc = indices[0]
        for idx in indices[1:]:
            acc = self.mul(acc, idx)
        return acc

    def power(self, base: int, k: int) -> int:
        """base^k by binary powering (k >= 1)."""
        if k < 1:
            raise ValueError("power requires k >= 1")
        if k == 1:
            return base
        half = self.power(base, k // 2)
        sq = self.mul(half, half)
        return self.mul(sq, base) if k % 2 else sq

    def finish(self, output: int) -> Circuit:
        return Circuit(tuple(self._nodes), output, self.n_inputs, self.n_params)


def generic_computation(L: int, n: int) -> Circuit:
    """Generic computation of all n-variate polynomials needing <= L essential muls.

    Parameter layout (row-major blocks, padded to (L+n+1)^2 total):
    for each step i = 1..L, first the left-factor coefficients over the
    basis (1, X_1..X_n, p_1..p_{i-1}), then the right-factor coefficients
    over the same basis; after all steps, the output coefficients over
    (1, X_1..X_n, p_1..p_L); remaining slots are unused padding.  The
    parameter count is held to ``GENERIC_PARAMS_CAP``.
    """
    if L < 0 or n < 1:
        raise QuizlabError("need L >= 0 and n >= 1")
    r = (L + n + 1) ** 2
    check_cap("generic computation", "(L+n+1)^2", r, GENERIC_PARAMS_CAP)
    b = CircuitBuilder(n_inputs=n, n_params=r)
    xs = [b.input(i) for i in range(n)]
    next_param = 0

    def affine(products: list[int]) -> int:
        nonlocal next_param
        basis = xs + products
        terms = [b.param(next_param)]  # coefficient of 1
        next_param += 1
        for elem in basis:
            terms.append(b.mul(b.param(next_param), elem))
            next_param += 1
        return b.sum_of(terms)

    products: list[int] = []
    for _ in range(L):
        left = affine(products)
        right = affine(products)
        products.append(b.mul(left, right))
    out = affine(products)
    if next_param > r:
        raise QuizlabError("parameter layout exceeded the declared arity")
    return b.finish(out)
