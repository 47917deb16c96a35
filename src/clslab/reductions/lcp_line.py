"""LCP solving as a potential-line problem over 2d-bit configurations.

A configuration's first d bits pick which of y_i = 0 / s_i = 0 is tight
(bit set means the slack side), and the second d bits carry at most one set
bit marking the duplicate label; all second-half-empty configs sit at z = 0.
Configs decode by pivoting the integer tableau from the slack basis onto
their basic columns, once per oracle call.  A config is valid when that basis
is nonsingular and every basic value is positive (a nondegenerate vertex);
the same tableau gives the potential, the edge orientations and the next
vertex.  The successor follows the pivot edge the orientation rule points
along, but only when the covering variable z strictly drops, so the
potential floor(Delta^2 (Delta - D z)) strictly climbs along the line.  Delta
and the potential are those of the integer data (D M, D q), with D the lcm of
the denominators in M and q; that scaling leaves the vertices and the line
as they are and multiplies z by D.

The oracles are memoised with keys that hold the context (and through it
the instance), so ``PlcpEoplContext`` and ``LcpInstance`` each compute their
hash on first use and keep it: a fresh hash runs ``Fraction.__hash__`` (a
modular inverse) over every entry of M and q, and every memo lookup asks
for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from ..errors import InvariantViolationError, PreconditionError
from ..lcp import (
    LcpInstance,
    LcpOutcome,
    Q1,
    _calibration,
    _dup_of_tight,
    _start_tableau,
    _Tableau,
    _tableau_of_tight,
    q2_witness_at,
    verify_lcp_solution,
)
from ..lines import BitConfig, EoplInstance, R2, eopl_verify
from ..qlinalg import Q, QVector, principal_minor


@dataclass(frozen=True)
class PlcpEoplContext:
    """Derived constants: config width n = 2d, potential scale Delta and width m.

    ``start`` is the start vertex (y, s, z) and ``calibration`` the raw edge
    sign that reads forward, both read off the start tableau, and ``scale``
    is D, the lcm of the denominators in M and q.  All three follow from
    ``inst`` and take no part in equality or hashing.
    """

    inst: LcpInstance
    n: int
    delta: int
    m: int
    start: tuple[QVector, QVector, Fraction] = field(compare=False)
    calibration: int = field(compare=False)
    scale: int = field(compare=False)

    def __hash__(self) -> int:
        # the generated hash over the compared fields, computed on first use
        # and kept, so a memo lookup does not re-hash delta and the instance
        try:
            return self._hash
        except AttributeError:
            h = hash((self.inst, self.n, self.delta, self.m))
            object.__setattr__(self, "_hash", h)
            return h


@lru_cache(maxsize=None)
def make_context(inst: LcpInstance) -> PlcpEoplContext:
    """Set up the reduction; rejects trivial (q >= 0) and degenerate starts."""
    d = inst.d
    if all(x >= 0 for x in inst.q):
        raise PreconditionError("q >= 0 is solved by y = 0; nothing to reduce")
    start = _start_tableau(inst, lexicographic=False)  # raises DegeneracyError on a tied minimum
    entries = [inst.m[i, j] for i in range(d) for j in range(d)] + list(inst.q)
    scale = math.lcm(*(x.denominator for x in entries))
    # the paper's bound on z holds for integer data, so Delta is read off D M and D q
    largest = max(abs(x.numerator) * (scale // x.denominator) for x in entries)
    delta = math.factorial(2 * d) * largest ** (2 * d + 1) + 1
    return PlcpEoplContext(
        inst=inst,
        n=2 * d,
        delta=delta,
        m=(2 * delta**3 - 1).bit_length(),  # the least m with 2^m >= 2 Delta^3
        start=start.point(),
        calibration=_calibration(start),
        scale=scale,
    )


def _config_tight(ctx: PlcpEoplContext, u: BitConfig) -> Optional[frozenset[int]]:
    """Tight-constraint ids encoded by u, or None for dummy configs.

    A config whose duplicate-label bit is set but whose first-half bit at
    that position does not read the slack side cannot be the image of any
    vertex, so it is treated as a dummy as well.
    """
    d = ctx.inst.d
    # the halves as integers; bit `label` of the second half lines up with
    # bit `label` of the first, so `first & second` reads the slack side there
    first, second = u.value >> d, u.value & ((1 << d) - 1)
    if second & (second - 1):  # more than one duplicate-label bit
        return None
    if second:
        if not first & second:
            return None
        label = d - second.bit_length()
        tight = {label, d + label}
    else:
        tight = {2 * d}
    for i in range(d):
        tight.add(d + i if first >> (d - 1 - i) & 1 else i)
    return frozenset(tight)


def _tableau_at(ctx: PlcpEoplContext, u: BitConfig) -> Optional[_Tableau]:
    """The tableau at a valid nonzero config's vertex, or None.

    The tableau keeps det > 0, so a basic value has its rhs's sign: one
    integer test per row rules out a negative value and a degenerate zero.
    """
    tight = _config_tight(ctx, u)
    tab = None if tight is None else _tableau_of_tight(ctx.inst, tight)
    if tab is None or any(row[-1] <= 0 for row in tab.rows):
        return None
    return tab


@lru_cache(maxsize=None)
def is_valid_config(ctx: PlcpEoplContext, u: BitConfig) -> bool:
    """The all-zeros config, or one that decodes to a vertex (positive potential)."""
    return potential(ctx, u) > 0 or u.is_zero()


def etoi(ctx: PlcpEoplContext, u: BitConfig) -> tuple[QVector, QVector, Fraction]:
    """Decode a config to polytope coordinates (y, s, z).

    The all-zeros config returns a point past the start of the path (never
    queried by the line procedures); invalid configs return all zeros.
    """
    d = ctx.inst.d
    if u.is_zero():
        z0 = ctx.start[2]
        bumped = QVector(tuple(q_i + z0 + 1 for q_i in ctx.inst.q))
        return QVector.zero(d), bumped, z0 + 1
    if not is_valid_config(ctx, u):
        return QVector.zero(d), QVector.zero(d), Q(0)
    return _tableau_at(ctx, u).point()


def itoe(ctx: PlcpEoplContext, y: QVector, s: QVector, z: Fraction) -> BitConfig:
    """Encode polytope coordinates as a config; dummy sentinel when not a vertex."""
    d = ctx.inst.d
    labels = [i for i in range(d) if y[i] == 0 and s[i] == 0]
    if len(labels) > 1 or any(y[i] * s[i] != 0 for i in range(d)):
        # a duplicate-label bit whose first-half bit does not read the slack
        # side: a dummy at every d
        return BitConfig(1, 2 * d)
    first = 0
    for i in range(d):
        first = first << 1 | (s[i] == 0)
    second = 1 << (d - 1 - labels[0]) if labels else 0
    return BitConfig(first << d | second, 2 * d)


def _step(ctx: PlcpEoplContext, u: BitConfig, ahead: bool) -> BitConfig:
    """Pivot along the edge oriented out of (ahead) or into a valid nonzero u.

    Stays at u unless z strictly drops going ahead, or strictly rises going
    back.
    """
    d = ctx.inst.d
    tab = _tableau_at(ctx, u)
    tight = tab.tight()
    if 2 * d in tight:  # z = 0: the only edge relaxes z
        entering = 2 * d
        if (tab.orientation(entering) == ctx.calibration) != ahead:
            return u
    else:
        label = _dup_of_tight(tight, d) - 1
        forward = tab.orientation(label) == ctx.calibration
        entering = label if forward == ahead else d + label
    r = tab.ratio_row(entering, lexicographic=False)
    if r is None or tab.z_trend(r, entering, lexicographic=False) != (-1 if ahead else 1):
        return u
    tab.pivot(r, entering)
    return itoe(ctx, *tab.point())


@lru_cache(maxsize=None)
def successor(ctx: PlcpEoplContext, u: BitConfig) -> BitConfig:
    """Step along the oriented pivot edge if z strictly drops; else stay put."""
    if not is_valid_config(ctx, u):
        return u
    if u.is_zero():
        return itoe(ctx, *ctx.start)
    return _step(ctx, u, ahead=True)


@lru_cache(maxsize=None)
def predecessor(ctx: PlcpEoplContext, u: BitConfig) -> BitConfig:
    """Step back along the edge oriented into this config if z strictly rises."""
    if not is_valid_config(ctx, u) or u.is_zero():
        return u
    if u == successor(ctx, BitConfig.zeros(ctx.n)):  # the start vertex
        return BitConfig.zeros(ctx.n)
    return _step(ctx, u, ahead=False)


@lru_cache(maxsize=None)
def potential(ctx: PlcpEoplContext, u: BitConfig) -> int:
    """floor(Delta^2 (Delta - D z)) > 0 on valid configs; 0 on dummies and 0^n."""
    if u.width != ctx.n:
        raise PreconditionError(f"config width {u.width}, expected {ctx.n}")
    tab = None if u.is_zero() else _tableau_at(ctx, u)
    if tab is None:
        return 0
    z = 2 * ctx.inst.d
    rhs_z = tab.rows[tab.basis.index(z)][-1] if z in tab.basis else 0
    # z = rhs_z / det, with det > 0
    value = ctx.delta**2 * (ctx.delta * tab.det - ctx.scale * rhs_z) // tab.det
    if value <= 0:
        raise InvariantViolationError(f"potential {value} <= 0 at the valid config {u}")
    return value


@lru_cache(maxsize=None)
def plcp_to_eopl(inst: LcpInstance) -> EoplInstance:
    """Build the potential-line instance whose line is the pivoting path."""
    ctx = make_context(inst)
    return EoplInstance(
        n=ctx.n,
        m=ctx.m,
        s=lambda u: successor(ctx, u),
        p=lambda u: predecessor(ctx, u),
        v=lambda u: potential(ctx, u),
    )


def eopl_sol_to_plcp(inst: LcpInstance, u: BitConfig) -> LcpOutcome:
    """Map a broken-line-end config back to a solution or minor witness."""
    ctx = make_context(inst)
    target = plcp_to_eopl(inst)
    classified = eopl_verify(target, u)
    if classified is None:
        raise PreconditionError(f"{u} does not solve the reduced instance")
    if isinstance(classified, R2):
        raise InvariantViolationError(
            "potential non-increase on a valid edge; the construction forbids this"
        )
    if u.is_zero():
        raise PreconditionError("the all-zeros config is excluded")
    y, s, z = etoi(ctx, u)
    if z == 0:
        if not verify_lcp_solution(inst, y):
            raise InvariantViolationError("z = 0 config decoded to an infeasible point")
        return Q1(y)
    witness = q2_witness_at(inst, y)
    if principal_minor(inst.m, witness.index_set) > 0:
        raise InvariantViolationError("extracted witness failed re-verification")
    return witness
