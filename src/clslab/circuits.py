"""Arithmetic circuits over [0,1]^dim and the fixpoint/local-opt problem family.

A circuit is a topologically ordered gate list over {CONST, ADD, SUB, MUL,
MAX, MIN, ABS}; evaluation is exact over rationals.  It runs on
(numerator, denominator) int pairs with delayed reduction (Knuth, TAOCP
vol. 2, 4.5.1): a value is reduced by its gcd only once its denominator
passes ``REDUCE_BITS`` bits, comparisons cross-multiply, and each output is
built once as a canonical Fraction.  The norms are the sum norm (r = 1) and
the max norm (r = inf), both of which stay rational.

The solution checks run on integers too: each point is read as integer
numerators over one common denominator, norms and scalars are unreduced
(numerator, denominator) pairs, and every comparison is the sign of a cross
product.  A check returns its truth and its operands; only the verifiers
format a ``Verdict``'s text from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from functools import partial
from operator import ge, gt, le, lt, sub
from typing import Optional, Sequence, Union, get_args

from .errors import (
    BudgetExceededError,
    DimensionError,
    DomainEscapeError,
    ParseError,
    PreconditionError,
)
from .qlinalg import Q, QVector, data_lines, format_rational, integer, rational

INF = float("inf")
NormOrder = Union[int, float]

# Each gate op -> its operand count.  A CONST's operand is its Fraction; every
# other operand is the index of an earlier value.
GATE_OPERANDS = {"CONST": 1, "ABS": 1, "ADD": 2, "SUB": 2, "MUL": 2, "MAX": 2, "MIN": 2}

Gate = tuple  # ("CONST", Fraction) | (op, i, j) | ("ABS", i)


@dataclass(frozen=True)
class ArithCircuit:
    """Gate list; value index k is input k for k < arity, else gate k - arity."""

    arity: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise DimensionError("arity must be nonnegative")
        if not self.outputs:
            raise DimensionError("at least one output required")
        for pos, gate in enumerate(self.gates):
            op = gate[0]
            count = GATE_OPERANDS.get(op)
            if count is None:
                raise DimensionError(f"unknown gate op {op!r}")
            limit = self.arity + pos
            # gate[1] and gate[count] are the first and the last operand
            if len(gate) != count + 1 or not (
                isinstance(gate[1], Fraction)
                if op == "CONST"
                else 0 <= gate[1] < limit and 0 <= gate[count] < limit
            ):
                raise DimensionError(f"bad {op} gate at {pos}")
        top = self.arity + len(self.gates)
        if any(not (0 <= o < top) for o in self.outputs):
            raise DimensionError("output index out of range")

    @property
    def out_arity(self) -> int:
        return len(self.outputs)


# A value whose denominator passes this many bits is reduced by its gcd.
# Below it, values stay unreduced: equal rationals may differ in form, so
# every comparison cross-multiplies and every output goes through Fraction.
# On the benchmark's circuits a bound of 128 bits spent more in gcds than it
# saved in products; 1024 ran about as fast as never reducing.
REDUCE_BITS = 1024


def _eval_ints(circ: ArithCircuit, nums: list[int], dens: list[int]) -> tuple[Fraction, ...]:
    """Run the gates on (numerator, denominator) int pairs, denominators positive.

    ``nums`` and ``dens`` hold the inputs and get every gate's value appended.
    A gate's value is the same rational as over Fractions; only its form may
    differ, and each output is built once into its canonical Fraction.
    """
    push_n, push_d = nums.append, dens.append
    for gate in circ.gates:
        op = gate[0]
        if op == "CONST":
            push_n(gate[1].numerator)
            push_d(gate[1].denominator)
            continue
        i = gate[1]
        n, d = nums[i], dens[i]
        if op == "ABS":
            push_n(-n if n < 0 else n)
            push_d(d)
            continue
        j = gate[2]
        bn, bd = nums[j], dens[j]
        if op == "ADD" or op == "SUB":
            if op == "SUB":
                bn = -bn
            if d == bd:
                n += bn
            else:
                n, d = n * bd + bn * d, d * bd
        elif op == "MUL":
            n, d = n * bn, d * bd
        elif op == "MAX":
            if n * bd < bn * d:
                n, d = bn, bd
        elif n * bd > bn * d:  # MIN
            n, d = bn, bd
        if d.bit_length() > REDUCE_BITS:
            g = math.gcd(n, d)
            n, d = n // g, d // g
        push_n(n)
        push_d(d)
    return tuple(Fraction(nums[o], dens[o]) for o in circ.outputs)


def circuit_eval(circ: ArithCircuit, x: QVector) -> QVector:
    """Evaluate all gates in order; exact rationals."""
    if len(x) != circ.arity:
        raise DimensionError(f"input length {len(x)}, circuit arity {circ.arity}")
    return QVector(_eval_ints(circ, [a.numerator for a in x], [a.denominator for a in x]))


class CircuitBuilder:
    """Incremental gate-list construction; methods return value indices."""

    def __init__(self, arity: int):
        self.arity = arity
        self.gates: list[Gate] = []

    def _push(self, gate: Gate) -> int:
        self.gates.append(gate)
        return self.arity + len(self.gates) - 1

    def const(self, value) -> int:
        return self._push(("CONST", rational(value)))

    def add(self, i: int, j: int) -> int:
        return self._push(("ADD", i, j))

    def sub(self, i: int, j: int) -> int:
        return self._push(("SUB", i, j))

    def mul(self, i: int, j: int) -> int:
        return self._push(("MUL", i, j))

    def max(self, i: int, j: int) -> int:
        return self._push(("MAX", i, j))

    def min(self, i: int, j: int) -> int:
        return self._push(("MIN", i, j))

    def abs(self, i: int) -> int:
        return self._push(("ABS", i))

    def inline(self, circ: ArithCircuit, inputs: Sequence[int]) -> list[int]:
        """Splice another circuit's gates in, rewiring its inputs; returns its outputs."""
        if len(inputs) != circ.arity:
            raise DimensionError("inline input count mismatch")
        mapping = list(inputs)
        for gate in circ.gates:
            if gate[0] != "CONST":
                gate = (gate[0], *[mapping[i] for i in gate[1:]])
            mapping.append(self._push(gate))
        return [mapping[o] for o in circ.outputs]

    def sum(self, indices: Sequence[int]) -> int:
        if not indices:
            return self.const(0)
        acc = indices[0]
        for i in indices[1:]:
            acc = self.add(acc, i)
        return acc

    def max_chain(self, indices: Sequence[int]) -> int:
        acc = indices[0]
        for i in indices[1:]:
            acc = self.max(acc, i)
        return acc

    def build(self, outputs: Sequence[int]) -> ArithCircuit:
        return ArithCircuit(self.arity, tuple(self.gates), tuple(outputs))


def identity_circuit(dim: int) -> ArithCircuit:
    return ArithCircuit(dim, (), tuple(range(dim)))


def norm_distance_circuit(dim: int, r: NormOrder) -> ArithCircuit:
    """d(x, y) = ||x - y|| as a circuit on 2*dim inputs, for r in {1, inf}."""
    b = CircuitBuilder(2 * dim)
    parts = [b.abs(b.sub(i, dim + i)) for i in range(dim)]
    if r == 1:
        return b.build([b.sum(parts)])
    if r == INF:
        return b.build([b.max_chain(parts)])
    raise PreconditionError("distance circuits support only r in {1, inf}")


def in_unit_box(x: QVector) -> bool:
    return all(0 <= a <= 1 for a in x)


# ----------------------------------------------------------------------------
# problem instances


class _Problem:
    """The construction check of the three problem classes, read from ``PROBLEMS``."""

    def __post_init__(self):
        _, blocks, values = PROBLEMS[type(self)]
        sizes = {"dim": self.dim, "2*dim": 2 * self.dim, "1": 1}
        for name in blocks:
            ins, outs = _SHAPES[name]
            circ = getattr(self, name)
            if (circ.arity, circ.out_arity) != (sizes[ins], sizes[outs]):
                raise DimensionError(f"{name} must map {ins} -> {outs}")
        if self.r not in (1, INF):
            raise PreconditionError("instance norm must be 1 or inf")
        for _, field, high in values:
            value = getattr(self, field)
            if value <= 0:
                raise PreconditionError(f"{field} must exceed 0")
            if high is not None and value >= high:
                raise PreconditionError(f"{field} must be below {high}")


@dataclass(frozen=True, eq=False)
class CloInstance(_Problem):
    """Local-opt search data: map f, potential p, slack eps, Lipschitz bound lam."""

    f: ArithCircuit
    p: ArithCircuit
    eps: Fraction
    lam: Fraction
    r: NormOrder = 1
    dim: int = 3


@dataclass(frozen=True, eq=False)
class ContractionInstance(_Problem):
    """Purportedly c-contracting map with fixpoint slack delta."""

    f: ArithCircuit
    r: NormOrder
    eps: Fraction
    c: Fraction
    delta: Fraction
    dim: int = 3


@dataclass(frozen=True, eq=False)
class MmcInstance(_Problem):
    """Contraction w.r.t. a supplied distance-like circuit d on pairs.

    ``delta_d`` bounds the continuity of d, ``lam`` the continuity of f.
    """

    f: ArithCircuit
    d: ArithCircuit
    r: NormOrder
    eps: Fraction
    c: Fraction
    delta_d: Fraction
    lam: Fraction
    dim: int = 3


# Each circuit field's (inputs, outputs), counted in the instance's dim.
_SHAPES = {"f": ("dim", "dim"), "p": ("dim", "1"), "d": ("2*dim", "1")}

# Each problem class -> (file tag, its circuit fields in file order, the
# header's (key, field, bound) after dim and r).  Every header value must
# exceed 0, and lie below its bound when it has one.
PROBLEMS = {
    CloInstance: ("CLO", ("f", "p"), (("eps", "eps", None), ("lambda", "lam", None))),
    ContractionInstance: (
        "CONTRACTION",
        ("f",),
        (("eps", "eps", 1), ("c", "c", 1), ("delta", "delta", None)),
    ),
    MmcInstance: (
        "MMC",
        ("f", "d"),
        (("eps", "eps", 1), ("c", "c", 1), ("delta_d", "delta_d", None), ("lambda", "lam", None)),
    ),
}


CircuitProblem = Union[CloInstance, ContractionInstance, MmcInstance]


# solutions


@dataclass(frozen=True)
class C1:
    x: QVector


@dataclass(frozen=True)
class C2a:
    x: QVector
    y: QVector


@dataclass(frozen=True)
class C2b:
    x: QVector
    y: QVector


@dataclass(frozen=True)
class CM1:
    x: QVector


@dataclass(frozen=True)
class CM2:
    x: QVector
    y: QVector


@dataclass(frozen=True)
class M1:
    x: QVector


@dataclass(frozen=True)
class M2a:
    x: QVector
    y: QVector


@dataclass(frozen=True)
class M2b:
    x: QVector
    y: QVector
    x2: QVector
    y2: QVector


@dataclass(frozen=True)
class M2c:
    x: QVector
    y: QVector


@dataclass(frozen=True)
class MMviol:
    """Witness against one of the distance axioms: 1 nonnegativity,
    2 zero-implies-equal, 3 symmetry, 4 triangle inequality."""

    kind: int
    points: tuple[QVector, ...]


CloSolution = Union[C1, C2a, C2b]
ContractionSolution = Union[CM1, CM2]
MmcSolution = Union[M1, M2a, M2b, M2c, MMviol]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


_RELATIONS = {"<": lt, "<=": le, ">": gt, ">=": ge}

# An exact rational as an unreduced (numerator, denominator) int pair, the
# denominator positive.
Pair = tuple[int, int]


def _pair(a: Fraction) -> Pair:
    return a.numerator, a.denominator


def _sum(a: Pair, b: Pair) -> Pair:
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _scaled(k: Fraction, a: Pair) -> Pair:
    return k.numerator * a[0], k.denominator * a[1]


def _ineq(label: str, lhs: Pair, rel: str, rhs: Pair):
    """``lhs rel rhs`` by the sign of a cross product, as a check's outcome."""
    ok = _RELATIONS[rel](lhs[0] * rhs[1], rhs[0] * lhs[1])
    return ok, f"{label}: {{}} {rel} {{}} {'holds' if ok else 'fails'}", (lhs, rhs)


def _points(sol) -> tuple[QVector, ...]:
    if isinstance(sol, MMviol):
        return sol.points
    return tuple(getattr(sol, field.name) for field in dataclass_fields(sol))


def _check_domain(inst, *points: QVector):
    for pt in points:
        if len(pt) != inst.dim:
            raise DimensionError("point has wrong dimension")
        if not in_unit_box(pt):
            raise PreconditionError(f"point outside [0,1]^{inst.dim}: {pt}")


class _Evals:
    """An instance's circuits at given points, each value evaluated at most once.

    A verifier call holds one of these and an iterator one for its whole run,
    so checks may read f(x), p(x) and d(x, y) as often as they like.  Every
    evaluation goes through the module-level ``circuit_eval``.  Scalars come
    out as ``Pair``s, and each point a norm reads is kept as integer
    numerators over one common denominator, so norms and comparisons run on
    integers.  Both memos die with the object.
    """

    def __init__(self, inst: CircuitProblem):
        self.inst, self.seen, self.forms = inst, {}, {}

    def value(self, circ: str, *points: QVector) -> QVector:
        """The instance's circuit named ``circ`` at the points laid end to end.

        That is f(x), p(x) or d(x, y).  The memo keys on the points themselves,
        which keep their hashes, so a hit hashes no Fraction.
        """
        key = (circ, *points)
        out = self.seen.get(key)
        if out is None:
            x = points[0] if len(points) == 1 else QVector(sum((pt.entries for pt in points), ()))
            out = self.seen[key] = circuit_eval(getattr(self.inst, circ), x)
        return out

    def f(self, x: QVector) -> QVector:
        return self.value("f", x)

    def p(self, x: QVector) -> Pair:
        return _pair(self.value("p", x)[0])

    def d(self, x: QVector, y: QVector) -> Pair:
        return _pair(self.value("d", x, y)[0])

    def form(self, x: QVector) -> tuple[tuple[int, ...], int]:
        """x's entries as numerators over the lcm of their denominators."""
        out = self.forms.get(x)
        if out is None:
            den = math.lcm(*[a.denominator for a in x])
            out = self.forms[x] = tuple([a.numerator * (den // a.denominator) for a in x]), den
        return out

    def norm(self, x: QVector, y: QVector) -> Pair:
        """|x - y| in the instance norm: the sum (r = 1) or the max (r = inf)."""
        nx, dx = self.form(x)
        ny, dy = self.form(y)
        if dx == dy:
            sizes, den = map(abs, map(sub, nx, ny)), dx
        else:
            sizes, den = [abs(a * dy - b * dx) for a, b in zip(nx, ny)], dx * dy
        return (sum(sizes) if self.inst.r == 1 else max(sizes, default=0)), den


def _expands(label: str, circ: str, dist: str, bound: str, ev: _Evals, cand):
    """dist(g(x), g(y)) > bound * dist(x, y) for g = ``circ``, with ``dist`` "norm" or "d"."""
    measure = getattr(ev, dist)
    lhs = measure(ev.value(circ, cand.x), ev.value(circ, cand.y))
    return _ineq(label, lhs, ">", _scaled(getattr(ev.inst, bound), measure(cand.x, cand.y)))


def _near_fixpoint(label: str, dist: str, bound: str, ev: _Evals, cand):
    """dist(f(x), x) <= bound."""
    return _ineq(label, getattr(ev, dist)(ev.f(cand.x), cand.x), "<=", _pair(getattr(ev.inst, bound)))


def _stall(ev: _Evals, cand: C1):
    rhs = _sum(ev.p(cand.x), _pair(-ev.inst.eps))
    return _ineq("p(f(x)) >= p(x) - eps", ev.p(ev.f(cand.x)), ">=", rhs)


def _distance_jump(ev: _Evals, cand: M2b):
    a, b = ev.d(cand.x, cand.y), ev.d(cand.x2, cand.y2)
    gap = _sum(a, (-b[0], b[1]))
    # |(x,y)-(x',y')| from its halves: their sum in the 1-norm, their max in the inf-norm
    u, v = ev.norm(cand.x, cand.x2), ev.norm(cand.y, cand.y2)
    if ev.inst.r == 1:
        size = _sum(u, v)
    else:
        size = u if u[0] * v[1] >= v[0] * u[1] else v
    lhs = (abs(gap[0]), gap[1])
    return _ineq("|d(x,y)-d(x',y')| > delta_d*|(x,y)-(x',y')|", lhs, ">", _scaled(ev.inst.delta_d, size))


def _axiom_violation(ev: _Evals, cand: MMviol):
    if cand.kind == 1 and len(cand.points) == 2:
        return _ineq("nonnegativity violated: d(x,y) < 0", ev.d(*cand.points), "<", (0, 1))
    if cand.kind == 2 and len(cand.points) == 2:
        x, y = cand.points
        value = ev.d(x, y)
        return value[0] == 0 and x != y, "zero-implies-equal violated: d(x,y)={}, x!=y is {}", (value, x != y)
    if cand.kind == 3 and len(cand.points) == 2:
        x, y = cand.points
        a, b = ev.d(x, y), ev.d(y, x)
        return a[0] * b[1] != b[0] * a[1], "symmetry violated: d(x,y)={}, d(y,x)={}", (a, b)
    if cand.kind == 4 and len(cand.points) == 3:
        x, y, z = cand.points
        rhs = _sum(ev.d(x, y), ev.d(y, z))
        return _ineq("triangle violated: d(x,z) > d(x,y)+d(y,z)", ev.d(x, z), ">", rhs)
    return False, "malformed axiom witness: kind={}, {} points", (cand.kind, len(cand.points))


# The solution check of every circuit tag, for a candidate whose points lie in
# the unit box: check(evals, cand) -> (truth, template, operands).  The
# iterators read the truth alone; ``_verify`` fills the template's slots with
# the operands, a ``Pair`` as its canonical rational and anything else as is.
CHECKS = {
    C1: _stall,
    C2a: partial(_expands, "|f(x)-f(y)| > lam*|x-y|", "f", "norm", "lam"),
    C2b: partial(_expands, "|p(x)-p(y)| > lam*|x-y|", "p", "norm", "lam"),
    CM1: partial(_near_fixpoint, "|f(x)-x| <= delta", "norm", "delta"),
    CM2: partial(_expands, "|f(x)-f(y)| > c*|x-y|", "f", "norm", "c"),
    M1: partial(_near_fixpoint, "d(f(x),x) <= eps", "d", "eps"),
    M2a: partial(_expands, "d(f(x),f(y)) > c*d(x,y)", "f", "d", "c"),
    M2b: _distance_jump,
    M2c: partial(_expands, "|f(x)-f(y)| > lam*|x-y|", "f", "norm", "lam"),
    MMviol: _axiom_violation,
}


def _verify(inst: CircuitProblem, cand, kind, shape: str) -> Verdict:
    """Check that ``cand`` has a tag of the ``kind`` union and points in the box, then check it."""
    if type(cand) not in get_args(kind):
        return Verdict(False, f"not a {shape} solution shape: {cand!r}")
    _check_domain(inst, *_points(cand))
    ok, template, operands = CHECKS[type(cand)](_Evals(inst), cand)
    texts = [format_rational(Fraction(*op)) if type(op) is tuple else op for op in operands]
    return Verdict(ok, template.format(*texts))


def clo_verify(inst: CloInstance, cand: CloSolution) -> Verdict:
    """C1: f fails to improve p by eps; C2a/C2b: exact Lipschitz violations."""
    return _verify(inst, cand, CloSolution, "local-opt")


def contraction_verify(inst: ContractionInstance, cand: ContractionSolution) -> Verdict:
    return _verify(inst, cand, ContractionSolution, "contraction")


def mmc_verify(inst: MmcInstance, cand: MmcSolution) -> Verdict:
    return _verify(inst, cand, MmcSolution, "contraction-with-distance")


def check_metametric(d: ArithCircuit, points: Sequence[QVector]) -> Optional[MMviol]:
    """First axiom violation of d over the sample, or None.

    Nonnegativity, symmetry, and zero-implies-equal run over all ordered
    pairs.  The triangle inequality runs over representatives of the
    value-classes of the pair table (points with identical rows interchange
    freely once symmetry holds), which keeps structured distance circuits
    cheap on large samples.  It runs on integers: the representatives' rows
    are put over one common denominator, so ``d(x,z) > d(x,y) + d(y,z)``
    becomes an integer comparison; the check is still exact (no float) and
    exhaustive.
    """
    if d.arity % 2 or d.out_arity != 1:
        raise DimensionError("distance circuit must map 2*dim -> 1")
    pts = list(points)
    n = len(pts)
    if any(len(pt) != d.arity // 2 for pt in pts):
        raise DimensionError(f"every point needs {d.arity // 2} coordinates for this distance circuit")
    nums = [[a.numerator for a in p] for p in pts]
    dens = [[a.denominator for a in p] for p in pts]
    table = [
        [_eval_ints(d, nx + ny, dx + dy)[0] for ny, dy in zip(nums, dens)]
        for nx, dx in zip(nums, dens)
    ]
    for i in range(n):
        for j in range(n):
            if table[i][j] < 0:
                return MMviol(1, (pts[i], pts[j]))
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                return MMviol(3, (pts[i], pts[j]))
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0 and pts[i] != pts[j]:
                return MMviol(2, (pts[i], pts[j]))
    reps: dict[tuple, int] = {}
    for i in range(n):
        reps.setdefault(tuple(table[i]), i)
    rep_idx = list(reps.values())
    den = math.lcm(*[table[i][k].denominator for i in rep_idx for k in rep_idx])
    rows = [
        [table[i][k].numerator * (den // table[i][k].denominator) for k in rep_idx]
        for i in rep_idx
    ]
    # d(x_a, x_c) > d(x_a, x_b) + d(x_b, x_c)  <=>  row_a[c] - row_b[c] > row_a[b]
    for a, row_a in enumerate(rows):
        for b, row_b in enumerate(rows):
            if max(map(sub, row_a, row_b)) > row_a[b]:
                c = next(c for c, gap in enumerate(map(sub, row_a, row_b)) if gap > row_a[b])
                return MMviol(4, (pts[rep_idx[a]], pts[rep_idx[b]], pts[rep_idx[c]]))
    return None


def unit_grid(dim: int, points_per_axis: int) -> list[QVector]:
    """The uniform rational grid on [0,1]^dim with the given side count."""
    if points_per_axis < 2:
        raise PreconditionError("need at least two points per axis")
    axis = [Q(k, points_per_axis - 1) for k in range(points_per_axis)]
    return [QVector(c) for c in itertools.product(axis, repeat=dim)]


def probe_domain(f: ArithCircuit, dim: int) -> Optional[QVector]:
    """First point of the 4-per-axis grid that f maps outside the unit box, or None."""
    for x in unit_grid(dim, 4):
        if not in_unit_box(circuit_eval(f, x)):
            return x
    return None


# ----------------------------------------------------------------------------
# desk-scale solvers


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and budget < 0:
        raise PreconditionError(f"budget must be nonnegative, got {budget}")


def _step(ev: _Evals, x: QVector) -> QVector:
    fx = ev.f(x)
    nums, den = ev.form(fx)
    if not all(0 <= n <= den for n in nums):
        raise DomainEscapeError(f"f escapes the unit box at {x}", point=fx)
    return fx


def _first_holding(ev: _Evals, cands):
    return next((cand for cand in cands if CHECKS[type(cand)](ev, cand)[0]), None)


def clo_solve_iterate(
    inst: CloInstance, start: QVector, budget: Optional[int] = None
) -> tuple[CloSolution, tuple[QVector, ...]]:
    """Iterate f from start; stop at the first Lipschitz violation or eps-stall of p.

    Stops within ceil(p(start)/eps) + 1 iterations when no violation shows up;
    the default budget is that plus one, and at least 2.
    """
    _check_budget(budget)
    _check_domain(inst, start)
    ev = _Evals(inst)
    if budget is None:
        budget = max(math.ceil(Fraction(*ev.p(start)) / inst.eps) + 2, 2)
    x = start
    trace = [x]
    for _ in range(budget):
        fx = _step(ev, x)
        pairs = (C2a(x, fx), C2b(x, fx)) if x != fx else ()
        sol = _first_holding(ev, pairs + (C1(x),))
        if sol is not None:
            return sol, tuple(trace)
        x = fx
        trace.append(x)
    raise BudgetExceededError(f"no stall within {budget} iterations", trace=tuple(trace))


def fixpoint_iterate(
    inst: Union[ContractionInstance, MmcInstance], start: QVector, budget: int = 256
) -> tuple[Union[ContractionSolution, MmcSolution], tuple[QVector, ...]]:
    """Iterate f from start until the fixpoint condition verifies.

    Consecutive iterate pairs are tested for contraction/continuity
    violations on the way; hitting the budget raises with the trace.
    """
    _check_budget(budget)
    _check_domain(inst, start)
    metered = isinstance(inst, MmcInstance)
    fix, pair_tags = (M1, (M2a, M2c)) if metered else (CM1, (CM2,))
    ev = _Evals(inst)
    x, prev = start, None
    trace = [x]
    for _ in range(budget + 1):
        if _first_holding(ev, (fix(x),)):
            return fix(x), tuple(trace)
        fx = _step(ev, x)
        # pair checks run even at a fixed point: a positive self-distance can
        # already violate the claimed contraction factor
        pairs = [tag(x, fx) for tag in pair_tags]
        if metered and prev is not None:
            pairs.append(M2b(prev, x, x, fx))
        sol = _first_holding(ev, pairs)
        if sol is not None:
            return sol, tuple(trace)
        prev = x
        x = fx
        trace.append(x)
    raise BudgetExceededError(
        f"no fixpoint within {budget} iterations; promised contraction may be slow or false",
        trace=tuple(trace),
    )


# ----------------------------------------------------------------------------
# file formats


def format_norm(r: NormOrder) -> str:
    return "inf" if r == INF else str(r)


def parse_norm(text: str) -> NormOrder:
    if text == "inf":
        return INF
    value = integer(text)
    if value < 1:
        raise ParseError(f"bad norm order {text!r}")
    return value


def dump_circuit(circ: ArithCircuit) -> str:
    lines = [f"ARITH {circ.arity} {len(circ.gates)} {circ.out_arity}"]
    # str of a CONST's Fraction is its format_rational text
    lines += [" ".join(map(str, gate)) for gate in circ.gates]
    lines.append(" ".join(str(o) for o in circ.outputs))
    return "\n".join(lines) + "\n"


def _parse_circuit_lines(
    lines: list[tuple[int, str]], pos: int
) -> tuple[ArithCircuit, int]:
    if pos >= len(lines):
        raise ParseError("missing circuit block")
    head_num, head_text = lines[pos]
    head = head_text.split()
    if len(head) != 4 or head[0] != "ARITH":
        raise ParseError(f"line {head_num}: bad circuit header {head_text!r}")
    arity, n_gates, n_outputs = (integer(tok) for tok in head[1:])
    if n_gates < 0:
        raise ParseError(f"line {head_num}: negative gate count {n_gates}")
    if pos + 1 + n_gates >= len(lines):
        raise ParseError(f"line {head_num}: truncated circuit block")
    gates: list[Gate] = []
    for k in range(n_gates):
        num, gate_text = lines[pos + 1 + k]
        op, *operands = gate_text.split()
        if len(operands) != GATE_OPERANDS.get(op):
            raise ParseError(f"line {num}: bad gate {gate_text!r}")
        read = rational if op == "CONST" else integer
        gates.append((op, *map(read, operands)))
    out_num, out_text = lines[pos + 1 + n_gates]
    outs = [integer(tok) for tok in out_text.split()]
    if len(outs) != n_outputs:
        raise ParseError(f"line {out_num}: expected {n_outputs} outputs, got {len(outs)}")
    try:
        circ = ArithCircuit(arity, tuple(gates), tuple(outs))
    except DimensionError as exc:
        raise ParseError(f"circuit at line {head_num}: {exc}") from exc
    return circ, pos + n_gates + 2


def parse_circuit(text: str) -> ArithCircuit:
    lines = data_lines(text)
    circ, pos = _parse_circuit_lines(lines, 0)
    if pos != len(lines):
        raise ParseError("trailing data after circuit")
    return circ


def dump_problem(inst: CircuitProblem) -> str:
    tag, blocks, values = PROBLEMS[type(inst)]
    head = [tag, f"dim={inst.dim}", f"r={format_norm(inst.r)}"]
    head += [f"{key}={format_rational(getattr(inst, field))}" for key, field, _ in values]
    return " ".join(head) + "\n" + "".join(dump_circuit(getattr(inst, name)) for name in blocks)


def load_problem(text: str) -> CircuitProblem:
    """Parse a problem file, then probe a coarse grid for domain escapes.

    The header's values parse after the circuits: r first, then the kind's
    values in header order, then dim.
    """
    lines = data_lines(text)
    if not lines:
        raise ParseError("empty problem file")
    num, head = lines[0]
    tag, *parts = head.split()
    klass = {row[0]: k for k, row in PROBLEMS.items()}.get(tag)
    if klass is None:
        raise ParseError(f"unknown problem tag {tag!r}")
    _, blocks, values = PROBLEMS[klass]
    fields = dict(part.split("=", 1) for part in parts if "=" in part)
    missing = [k for k in ("dim", "r", *(key for key, _, _ in values)) if k not in fields]
    if missing:
        raise ParseError(f"line {num}: {tag} header missing {missing}")
    args, pos = {}, 1
    for name in blocks:
        args[name], pos = _parse_circuit_lines(lines, pos)
    args["r"] = parse_norm(fields["r"])
    for key, field, _ in values:
        args[field] = rational(fields[key])
    args["dim"] = integer(fields["dim"])
    try:
        inst = klass(**args)
    except DimensionError as exc:
        raise ParseError(f"line {num}: {exc}") from exc
    if pos != len(lines):
        raise ParseError(f"line {lines[pos][0]}: trailing data after the last circuit")
    escape = probe_domain(inst.f, inst.dim)
    if escape is not None:
        raise DomainEscapeError(f"f leaves the unit box near {escape}", point=escape)
    return inst


def format_circuit_solution(sol) -> str:
    coords = " ".join(format_rational(a) for pt in _points(sol) for a in pt)
    if isinstance(sol, MMviol):
        return f"MMVIOL {sol.kind} {coords}"
    return f"{type(sol).__name__} {coords}"


def parse_circuit_solution(line: str, dim: int):
    parts = line.split()
    if not parts:
        raise ParseError("empty solution line")
    tag = parts[0]
    if tag == "MMVIOL":
        if len(parts) < 2:
            raise ParseError("MMVIOL needs an axiom kind")
        kind = integer(parts[1])
        coords = [rational(tok) for tok in parts[2:]]
        if len(coords) % dim != 0:
            raise ParseError("coordinate count not a multiple of dim")
        pts = tuple(
            QVector(tuple(coords[i : i + dim])) for i in range(0, len(coords), dim)
        )
        return MMviol(kind, pts)
    klass = {cls.__name__: cls for cls in CHECKS if cls is not MMviol}.get(tag)
    if klass is None:
        raise ParseError(f"unknown solution tag {tag!r}")
    count = len(dataclass_fields(klass))
    coords = [rational(tok) for tok in parts[1:]]
    if len(coords) != count * dim:
        raise ParseError(f"{tag} needs {count * dim} coordinates, got {len(coords)}")
    pts = [QVector(tuple(coords[i : i + dim])) for i in range(0, len(coords), dim)]
    return klass(*pts)
