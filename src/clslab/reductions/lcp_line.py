"""LCP solving as a potential-line problem over 2d-bit configurations.

A configuration's first d bits pick which of y_i = 0 / s_i = 0 is tight
(bit set means the slack side), and the second d bits carry at most one set
bit marking the duplicate label; all second-half-empty configs sit at z = 0.
Configs decode by pivoting the integer tableau onto their basic columns, once
per config through the reduced instance's ``node``, which answers S, P and V
together.  A config is valid when that basis is nonsingular and every basic
value is positive (a nondegenerate vertex); the same tableau gives the
potential, one vertex read (``lcp._path_edges``) both edges, and the solver's
step (``_Tableau.step``) the next vertex along each, whose config is read
off which right-hand sides the pivot would zero, without pivoting.  The
successor follows the pivot edge the orientation rule points along, but only
when the covering variable z strictly drops, so the potential
floor(Delta^2 (Delta - D z)) strictly climbs along the line.  Delta and the
potential are those of the integer data (D M, D q), with D the lcm of the
denominators in M and q; that scaling leaves the vertices and the line as
they are and multiplies z by D.

Each context keeps a warm-start slot: its slack tableau, built once from the
scaled rows of [M | q], and the last tableau decoded.  A decode copies
whichever of the two has fewer ids to pivot in and pivots the copy, so a
follow makes one pivot per line step.  The slot is one attribute holding a
tuple, replaced whole, and a tableau in it is never pivoted again, so
threads that share a reduced line stay safe; it takes no part in the
context's equality, hash or repr, and pickles and copies leave it behind.  A
warm tableau has the cold one's basis, det and entries with its rows in
another order, and no output depends on that order: the potential,
``orientation`` and ``_pivoted_code`` read by variable, and a row that
``step`` picks is used only on the tableau it came from.

Every memo keeps only its last entry (``lru_cache(maxsize=1)``).  The only
hit of the context and reduced-instance memos is a back-map rebuilding its
caller's target; the separate S, P, V and validity oracles are not called
by the line readers, which read ``node`` (S and P take their side of it).
The keys hold the context (and through it the instance and its slot), so a
dropped reduction lives on only until each memo that saw it sees another.
Since every key holds a context, ``PlcpEoplContext`` and ``LcpInstance``
each compute their hash on first use and keep it: a fresh hash runs
``Fraction.__hash__`` (a modular inverse) over every entry of M and q, and
every memo lookup asks for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional

from ..errors import DimensionError, InvariantViolationError, PreconditionError
from ..lcp import (
    LcpInstance,
    LcpOutcome,
    Q1,
    _path_edges,
    _start_tableau,
    _Tableau,
    _pivot_onto,
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

    def __getstate__(self) -> dict:
        # pickles and copies start without the warm-start slot (see _slot)
        return {k: v for k, v in self.__dict__.items() if k != "_warm"}


@lru_cache(maxsize=1)
def make_context(inst: LcpInstance) -> PlcpEoplContext:
    """Set up the reduction; rejects trivial (q >= 0) and degenerate starts."""
    d = inst.d
    if all(x >= 0 for x in inst.q):
        raise PreconditionError("q >= 0 is solved by y = 0; nothing to reduce")
    slack = _Tableau(inst)
    start = _start_tableau(inst, False, slack.copy())  # DegeneracyError on a tied minimum
    entries = [inst.m[i, j] for i in range(d) for j in range(d)] + list(inst.q)
    scale = math.lcm(*(x.denominator for x in entries))
    # the paper's bound on z holds for integer data, so Delta is read off D M and D q
    largest = max(abs(x.numerator) * (scale // x.denominator) for x in entries)
    delta = math.factorial(2 * d) * largest ** (2 * d + 1) + 1
    ctx = PlcpEoplContext(
        inst=inst,
        n=2 * d,
        delta=delta,
        m=(2 * delta**3 - 1).bit_length(),  # the least m with 2^m >= 2 Delta^3
        start=start.point(),
        calibration=start.orientation(_path_edges(start, None)[0]),
        scale=scale,
    )
    object.__setattr__(ctx, "_warm", (slack, start))  # the line's first decode is the start
    return ctx


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


def _slot(ctx: PlcpEoplContext) -> tuple[_Tableau, _Tableau]:
    """The context's warm-start slot (see the module docstring): its slack
    tableau and the last one decoded.  ``make_context`` fills it; a context
    made otherwise (a copy, ``replace``) gets a slack tableau on first use."""
    try:
        return ctx._warm
    except AttributeError:
        slack = _Tableau(ctx.inst)
        object.__setattr__(ctx, "_warm", (slack, slack))
        return slack, slack


def _warm_tableau(ctx: PlcpEoplContext, tight: frozenset[int]) -> Optional[_Tableau]:
    """The tableau at the complement of ``tight``, or None when it is singular:
    a copy of whichever slot tableau has fewer ids to pivot in, pivoted there."""
    slack, last = _slot(ctx)
    base = last if len(last.tight() - tight) < len(slack.tight() - tight) else slack
    return _pivot_onto(base.copy(), tight)


def _tableau_at(ctx: PlcpEoplContext, u: BitConfig) -> Optional[_Tableau]:
    """The tableau at a valid nonzero config's vertex, or None.

    The tableau keeps det > 0, so a basic value has its rhs's sign: one
    integer test per row rules out a negative value and a degenerate zero.
    The result is a new tableau that the caller may pivot.
    """
    tight = _config_tight(ctx, u)
    tab = None if tight is None else _warm_tableau(ctx, tight)
    if tab is None or any(row[-1] <= 0 for row in tab.rows):
        return None
    return tab


def _decode(ctx: PlcpEoplContext, u: BitConfig) -> Optional[tuple[_Tableau, int]]:
    """The tableau and potential at a valid nonzero config; None at 0^n and dummies.

    The potential floor(Delta^2 (Delta - D z)) reads z = rhs_z / det off the
    tableau (det > 0) and must be positive there.
    """
    if u.width != ctx.n:
        raise PreconditionError(f"config width {u.width}, expected {ctx.n}")
    tab = None if u.is_zero() else _tableau_at(ctx, u)
    if tab is None:
        return None
    # the next decode starts from here; no caller of _decode pivots tab
    object.__setattr__(ctx, "_warm", (ctx._warm[0], tab))
    z = 2 * ctx.inst.d
    rhs_z = tab.rows[tab.basis.index(z)][-1] if z in tab.basis else 0
    value = ctx.delta**2 * (ctx.delta * tab.det - ctx.scale * rhs_z) // tab.det
    if value <= 0:
        raise InvariantViolationError(f"potential {value} <= 0 at the valid config {u}")
    return tab, value


@lru_cache(maxsize=1)
def is_valid_config(ctx: PlcpEoplContext, u: BitConfig) -> bool:
    """The all-zeros config, or one that decodes to a vertex (positive potential)."""
    return potential(ctx, u) > 0 or u.is_zero()


def etoi(ctx: PlcpEoplContext, u: BitConfig) -> tuple[QVector, QVector, Fraction]:
    """Decode a config to polytope coordinates (y, s, z).

    The all-zeros config returns a point past the start of the path (never
    queried by the line procedures); invalid configs return all zeros.
    """
    at = _decode(ctx, u)
    if at is not None:
        return at[0].point()
    d = ctx.inst.d
    if u.is_zero():
        z0 = ctx.start[2]
        bumped = QVector(tuple(q_i + z0 + 1 for q_i in ctx.inst.q))
        return QVector.zero(d), bumped, z0 + 1
    return QVector.zero(d), QVector.zero(d), Q(0)


def _code(d: int, zero: list[bool]) -> int:
    """The config value of a point from which of its y and s coordinates are zero.

    A non-complementary point, or one with two pairs both zero, gets the
    sentinel 0...01: its duplicate-label bit's first-half bit does not read
    the slack side, so it is a dummy at every d.
    """
    first = second = 0
    for i in range(d):
        y0, s0 = zero[i], zero[d + i]
        if y0 == s0:
            if second or not y0:
                return 1
            second = 1 << (d - 1 - i)
        first = first << 1 | s0
    return first << d | second


def itoe(ctx: PlcpEoplContext, y: QVector, s: QVector, z: Fraction) -> BitConfig:
    """Encode polytope coordinates as a config; dummy sentinel when not a vertex."""
    d = ctx.inst.d
    if len(y) != d or len(s) != d:
        raise DimensionError(f"y and s have lengths {len(y)} and {len(s)}, expected {d}")
    return BitConfig(_code(d, [x == 0 for x in y] + [x == 0 for x in s]), 2 * d)


def _pivoted_code(tab: _Tableau, r: int, e: int) -> int:
    """The config value of tab's point once e enters at row r, read without pivoting.

    With a e's column, the pivot keeps row r's rhs up to sign and turns row
    i's into (rhs_i a_r - a_i rhs_r) / det, so a basic value is zero exactly
    when that numerator is (the leaving variable's always is).
    """
    col, rhs_r = tab.column(e), tab.rows[r][-1]
    zero = [True] * (2 * tab.d + 1)
    for row, var, a in zip(tab.rows, tab.basis, col):
        zero[var] = row[-1] * col[r] == a * rhs_r
    zero[e] = rhs_r == 0
    return _code(tab.d, zero)


def _past(tab: _Tableau, e: Optional[int], trend: int, x: int) -> int:
    """The config value past the edge relaxing ``e`` if z moves with the sign
    ``trend`` along it; else (no edge, a ray, z moving otherwise) x."""
    if e is None:
        return x
    r, z_trend = tab.step(e, lexicographic=False)
    return x if r is None or z_trend != trend else _pivoted_code(tab, r, e)


def _ends(ctx: PlcpEoplContext, u: BitConfig) -> tuple[int, int, int]:
    """S, P and V of u as config values, from one decode and one vertex read.

    0^n steps ahead to the start, back from the start is 0^n, and dummies
    stay put.  A vertex steps along its forward edge (S) or backward one (P)
    only if z strictly drops going ahead, or strictly rises going back."""
    x = u.value
    at = _decode(ctx, u)
    if at is None:
        return itoe(ctx, *ctx.start).value if x == 0 else x, x, 0
    tab, value = at
    ahead, back = _path_edges(tab, ctx.calibration)
    d = ctx.inst.d
    # a valid config whose halves agree has every y tight and z basic: the start
    start = x >> d == x & ((1 << d) - 1)
    return _past(tab, ahead, -1, x), 0 if start else _past(tab, back, 1, x), value


def _node(ctx: PlcpEoplContext, x: int) -> tuple[int, int, int]:
    return _ends(ctx, BitConfig(x, ctx.n))


@lru_cache(maxsize=1)
def successor(ctx: PlcpEoplContext, u: BitConfig) -> BitConfig:
    """Step along the oriented pivot edge if z strictly drops; else stay put."""
    return BitConfig(_ends(ctx, u)[0], ctx.n)


@lru_cache(maxsize=1)
def predecessor(ctx: PlcpEoplContext, u: BitConfig) -> BitConfig:
    """Step back along the edge oriented into this config if z strictly rises."""
    return BitConfig(_ends(ctx, u)[1], ctx.n)


@lru_cache(maxsize=1)
def potential(ctx: PlcpEoplContext, u: BitConfig) -> int:
    """floor(Delta^2 (Delta - D z)) > 0 on valid configs; 0 on dummies and 0^n."""
    at = _decode(ctx, u)
    return 0 if at is None else at[1]


@lru_cache(maxsize=1)
def plcp_to_eopl(inst: LcpInstance) -> EoplInstance:
    """Build the potential-line instance whose line is the pivoting path;
    its raw node answers S, P and V of a config from one decode."""
    ctx = make_context(inst)
    return EoplInstance(
        n=ctx.n,
        m=ctx.m,
        s=lambda u: successor(ctx, u),
        p=lambda u: predecessor(ctx, u),
        v=lambda u: potential(ctx, u),
        raw_node=partial(_node, ctx),
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
