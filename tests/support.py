"""Seeded generators and hand-built fixtures shared across the test modules."""

from __future__ import annotations

import copy
import functools
import importlib.util
import math
import pickle
import random
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction as F
from pathlib import Path
from typing import Optional, Union
from unittest import mock

from clslab import (
    ArithCircuit,
    CircuitBuilder,
    CloInstance,
    ContractionInstance,
    DegeneracyError,
    DimensionError,
    INF,
    LcpInstance,
    MMviol,
    MmcInstance,
    QMatrix,
    QVector,
    circuit_eval,
    is_p_matrix,
    lemke_solve,
)
from clslab import circuits
from clslab.circuits import (
    C1,
    C2a,
    C2b,
    CM1,
    CM2,
    M1,
    M2a,
    M2b,
    M2c,
    CloSolution,
    ContractionSolution,
    MmcSolution,
    Verdict,
    identity_circuit,
    in_unit_box,
    norm_distance_circuit,
)
from clslab.errors import BudgetExceededError, DomainEscapeError, ParseError, PreconditionError
from clslab.qlinalg import Q, format_rational
from clslab import lcp
from clslab.lcp import (
    Q1,
    Q2,
    LcpSolutionReport,
    LemkeVertex,
    Ray,
    _dup_of_tight,
    _scaled_rows,
    _split,
    _var_name,
)
from clslab.errors import InvariantViolationError
from clslab.lines import (
    BitConfig,
    EomlInstance,
    EoplInstance,
    LineInstance,
    all_configs,
    eopl_verify,
    load_line_table,
    table_instance,
    verify_solution,
)
from clslab.qlinalg import data_lines, integer
from clslab.reductions import ImmediateSolution
from clslab.reductions.lines import _require_valid
from clslab.qlinalg import solve_columns
from clslab.reductions.lcp_line import (
    PlcpEoplContext,
    _config_tight,
    is_valid_config,
    make_context,
    potential,
    predecessor,
    successor,
)

bits = BitConfig.from_string


def det_cofactor(a: QMatrix) -> F:
    """Determinant by cofactor expansion; independent oracle for small matrices."""
    if not a.is_square:
        raise DimensionError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return F(1)
    if n == 1:
        return a.entries[0][0]
    total = F(0)
    rest = a.entries[1:]
    for j, head in enumerate(a.entries[0]):
        if head == 0:
            continue
        minor = QMatrix(tuple(tuple(r[k] for k in range(n) if k != j) for r in rest))
        term = head * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def make_lcp(rows, q) -> LcpInstance:
    return LcpInstance(QMatrix.of(rows), QVector.of(q))


def copies(obj) -> dict:
    """The object pickled, ``copy``-ed, ``deepcopy``-ed and ``replace``-d."""
    return {
        "pickle": pickle.loads(pickle.dumps(obj)),
        "copy": copy.copy(obj),
        "deepcopy": copy.deepcopy(obj),
        "replace": replace(obj),
    }


def dd_lcp(rng: random.Random, d: int) -> LcpInstance:
    """Diagonally dominant (diagonal 4d..5d, off-diagonal in {-1, 0, 1}) with
    every q_i negative and distinct, so the pivoting path has no ties."""
    rows = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        rows[i][i] = rng.randint(4 * d, 5 * d)
    q = [F(-rng.randint(5, 9) * 101 - i - 1, 101) for i in range(d)]
    return make_lcp(rows, q)


def ceil_log2_ref(value: F) -> int:
    """The least m with 2^m >= value, for a positive rational, by counting m up."""
    m = 0
    while (value.denominator << m) < value.numerator:
        m += 1
    return m


def verify_lcp_solution_ref(inst: LcpInstance, y: QVector) -> LcpSolutionReport:
    """``verify_lcp_solution`` over Fractions: s = q + M y entry by entry.

    Independent oracle for the integer verifier; it must agree on every field.
    """
    if len(y) != inst.d:
        raise DimensionError("candidate length must be d")
    s = inst.q + inst.m.apply(y)
    y_neg = tuple(i + 1 for i in range(inst.d) if y[i] < 0)
    s_neg = tuple(i + 1 for i in range(inst.d) if s[i] < 0)
    comp = tuple(i + 1 for i in range(inst.d) if y[i] * s[i] != 0)
    return LcpSolutionReport(
        ok=not (y_neg or s_neg or comp),
        y_negative=y_neg,
        s_negative=s_neg,
        not_complementary=comp,
        slack=s,
    )


def random_lcp(rng: random.Random, d: int, span: int = 3) -> LcpInstance:
    rows = [[rng.randint(-span, span) for _ in range(d)] for _ in range(d)]
    q = [rng.randint(-span, span) for _ in range(d)]
    return make_lcp(rows, q)


def random_triangular_lcp(rng: random.Random, d: int, span: int = 3) -> LcpInstance:
    """Triangular with positive diagonal: every principal minor is a diagonal product."""
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = rng.randint(1, span)
        for j in range(i + 1, d):
            rows[i][j] = rng.randint(-span, span)
    if rng.random() < 0.5:
        rows = [list(r) for r in zip(*rows)]
    q = [rng.randint(-span, span) for _ in range(d)]
    return make_lcp(rows, q)


def gen_p_lcp(rng: random.Random, d: int, require_negative_q: bool = True) -> LcpInstance:
    """A P-matrix instance that plain pivoting solves without ties."""
    while True:
        inst = (random_lcp if rng.random() < 0.5 else random_triangular_lcp)(rng, d)
        if require_negative_q and min(inst.q) >= 0:
            continue
        if not is_p_matrix(inst.m):
            continue
        try:
            result = lemke_solve(inst)
        except DegeneracyError:
            continue
        assert isinstance(result.outcome, Q1)
        return inst


def gen_nonp_lcp(rng: random.Random, d: int) -> LcpInstance:
    """A non-P instance where plain pivoting ends in a minor witness."""
    while True:
        inst = random_lcp(rng, d)
        if min(inst.q) >= 0 or is_p_matrix(inst.m):
            continue
        try:
            result = lemke_solve(inst)
        except DegeneracyError:
            continue
        if isinstance(result.outcome, Q2):
            return inst


def gen_reduction_safe_lcp(rng: random.Random, d: int) -> LcpInstance:
    """An instance whose whole config space decodes without degeneracy."""
    while True:
        inst = random_lcp(rng, d)
        if min(inst.q) >= 0:
            continue
        try:
            ctx = make_context(inst)
            for u in all_configs(2 * d):
                is_valid_config(ctx, u)
                successor(ctx, u)
                predecessor(ctx, u)
                potential(ctx, u)
        except DegeneracyError:
            continue
        return inst


def murty_lcp(d: int) -> LcpInstance:
    """Murty's (1978) family: 1 on the diagonal, 2 below it, and
    ``q_i = -1 + 4^-(i+1)``; Lemke's path makes 2^d - 1 pivots."""
    rows = [[1 if j == i else 2 if j < i else 0 for j in range(d)] for i in range(d)]
    return make_lcp(rows, [F(-1) + F(1, 4 ** (i + 1)) for i in range(d)])


# ----------------------------------------------------------------------------
# tight-system oracle for the pivoting tableau: variable ids 0..d-1 are y,
# d..2d-1 are s and 2d is z; a vertex is the solution of the (2d+1)-square
# system of the d equality rows plus one unit row per tight variable


def var_id(name: str, d: int) -> int:
    """Id of a constraint name from ``LemkeVertex.tight`` ("y3", "s1", "z")."""
    if name == "z":
        return 2 * d
    return (0 if name[0] == "y" else d) + int(name[1:]) - 1


def _tight_system(inst: LcpInstance, tight: frozenset[int]) -> QMatrix:
    """Rows of ``-M y + s - z 1 = q``, then tight unit rows sorted by id."""
    d = inst.d
    rows = [
        tuple([-inst.m[i, j] for j in range(d)] + [F(int(j == i)) for j in range(d)] + [F(-1)])
        for i in range(d)
    ]
    rows += [tuple(F(int(j == v)) for j in range(2 * d + 1)) for v in sorted(tight)]
    return QMatrix(tuple(rows))


def tight_point(inst: LcpInstance, tight: frozenset[int]) -> Optional[list[F]]:
    """Coordinates (y, s, z) of the vertex with this tight set; None when singular."""
    rhs = tuple(inst.q) + (F(0),) * len(tight)
    cols = solve_columns(_tight_system(inst, tight), [rhs])
    return None if cols is None else cols[0]


def tight_direction(inst: LcpInstance, tight: frozenset[int], entering: int) -> Optional[list[F]]:
    """Edge direction that relaxes ``entering`` at unit speed, keeping the rest tight."""
    rhs = (F(0),) * inst.d + tuple(F(int(v == entering)) for v in sorted(tight))
    cols = solve_columns(_tight_system(inst, tight), [rhs])
    return None if cols is None else cols[0]


def oracle_orientation(inst: LcpInstance, tight: frozenset[int], entering: int) -> str:
    """Todd's label from oracle directions: the sign of the first nonzero of
    (z, y, s), calibrated so the start vertex's pivot edge reads forward."""
    d = inst.d

    def raw_sign(sigma):
        first = next(sigma[v] for v in [2 * d] + list(range(2 * d)) if sigma[v] != 0)
        return 1 if first < 0 else -1

    low = min(range(d), key=lambda i: inst.q[i])
    start = frozenset(range(d)) | {d + low}
    calibration = raw_sign(tight_direction(inst, start, low))
    forward = raw_sign(tight_direction(inst, tight, entering)) == calibration
    return "forward" if forward else "backward"


# ----------------------------------------------------------------------------
# full-column reference for the condensed pivoting dictionary


class FullTableau:
    """Fraction-free tableau of ``-M y + s - z 1 = q`` over all 2d+2 columns.

    Columns are (y, s', z | rhs), with ``s'_i = L_i s_i`` for the row scale
    ``L_i``, and the rows hold ``det * B^-1 [A | q]``, basic columns included;
    one pivot updates every column with exact divisions by the old
    determinant.  A drop-in for ``clslab.lcp._Tableau`` that stores what the
    condensed dictionary leaves implicit.
    """

    def __init__(self, inst: LcpInstance):
        d = inst.d
        self.d = d
        self.mq, self.scale = _scaled_rows(inst)
        self.rows: list[list[int]] = []
        for i, (a, scale) in enumerate(zip(self.mq, self.scale)):
            row = [-x for x in a[:d]] + [0] * d + [-scale, a[d]]
            row[d + i] = 1
            self.rows.append(row)
        self.basis = list(range(d, 2 * d))
        self.det = 1

    def pivot(self, r: int, e: int) -> None:
        prow = self.rows[r]
        p = prow[e]
        div = self.det if p > 0 else -self.det
        for i, row in enumerate(self.rows):
            if i != r:
                f = row[e]
                self.rows[i] = [(x * p - f * y) // div for x, y in zip(row, prow)]
        if p < 0:
            self.rows[r] = [-x for x in prow]
        self.basis[r] = e
        self.det = abs(p)

    def column(self, var: int) -> list[int]:
        return [row[var] for row in self.rows]

    def tight(self) -> frozenset[int]:
        return frozenset(range(2 * self.d + 1)).difference(self.basis)

    def _unscale(self, var: int) -> int:
        return self.scale[var - self.d] if self.d <= var < 2 * self.d else 1

    def values(self) -> list[F]:
        vals = [F(0)] * (2 * self.d + 1)
        for row, var in zip(self.rows, self.basis):
            vals[var] = F(row[-1], self.det * self._unscale(var))
        return vals

    def point(self):
        return _split(self.values(), self.d)

    def vertex(self) -> LemkeVertex:
        y, s, z = self.point()
        tight = self.tight()
        return LemkeVertex(
            y=y,
            s=s,
            z=z,
            tight=frozenset(_var_name(v, self.d) for v in tight),
            dup_label=_dup_of_tight(tight, self.d),
        )

    def ray(self, e: int) -> Ray:
        sigma = [F(0)] * (2 * self.d + 1)
        sigma[e] = F(1)
        for row, var in zip(self.rows, self.basis):
            sigma[var] = F(-row[e] * self._unscale(e), self.det * self._unscale(var))
        return Ray(*_split(sigma, self.d))

    def ratio_row(self, e: int, lexicographic: bool) -> Optional[int]:
        rows = self.rows
        cand = [i for i, row in enumerate(rows) if row[e] > 0]
        if not cand:
            return None
        for c in self._ratio_cols(lexicographic):
            best = [cand[0]]
            for i in cand[1:]:
                lhs = rows[i][c] * rows[best[0]][e]
                rhs = rows[best[0]][c] * rows[i][e]
                if lhs < rhs:
                    best = [i]
                elif lhs == rhs:
                    best.append(i)
            cand = best
            if len(cand) == 1:
                return cand[0]
        names = tuple(_var_name(v, self.d) for v in sorted(self.basis[i] for i in cand))
        raise DegeneracyError(f"ratio-test tie between {', '.join(names)}", ties=names)

    def _ratio_cols(self, lexicographic: bool) -> list[int]:
        d = self.d
        return [2 * d + 1] + (list(range(d, 2 * d)) if lexicographic else [])

    def z_trend(self, r: int, e: int, lexicographic: bool) -> int:
        z = 2 * self.d
        if e == z:
            rate = 1
        elif z in self.basis:
            rate = -self.rows[self.basis.index(z)][e]
        else:
            return 0
        row = self.rows[r]
        step = next((row[c] for c in self._ratio_cols(lexicographic) if row[c] != 0), 0)
        return ((step > 0) - (step < 0)) * ((rate > 0) - (rate < 0))

    def step(self, e: int, lexicographic: bool) -> tuple[Optional[int], int]:
        """``lcp._Tableau.step`` from the reads it merges: ``ratio_row``, the
        far vertex's labels read off its tight set, then ``z_trend``."""
        r = self.ratio_row(e, lexicographic)
        if r is None:
            return None, 0
        b = self.basis[r]
        try:
            _dup_of_tight(self.tight() - {e} | {b}, self.d)
        except DegeneracyError as exc:
            text = off_path_text(_var_name(e, self.d), _var_name(b, self.d), exc.ties)
            raise DegeneracyError(text, ties=exc.ties) from None
        return r, self.z_trend(r, e, lexicographic)

    def orientation(self, e: int) -> int:
        d = self.d
        col = {var: row[e] for row, var in zip(self.rows, self.basis)}
        for var in [2 * d] + list(range(2 * d)):
            if var == e:
                return -1
            if col.get(var, 0) != 0:
                return 1 if col[var] > 0 else -1


def off_path_text(edge: str, blocker: str, labels: tuple[int, ...]) -> str:
    """The step's refusal of an edge whose far vertex has the duplicate ``labels``."""
    return (
        f"the edge relaxing {edge} leaves the complementary vertices: "
        f"{blocker} blocks it at duplicate labels {', '.join(map(str, labels))}"
    )


def full_tableau_of_tight(inst: LcpInstance, tight: frozenset[int]) -> Optional[FullTableau]:
    """``lcp._tableau_of_tight`` on the full tableau, reading its rows directly."""
    d = inst.d
    tab = FullTableau(inst)
    for e in range(2 * d + 1):
        if e in tight or e in tab.basis:
            continue
        rows = tab.rows
        r = next((i for i in range(d) if rows[i][e] != 0 and tab.basis[i] in tight), None)
        if r is None:
            return None
        tab.pivot(r, e)
    return tab


@contextmanager
def full_tableau():
    """Run ``clslab.lcp`` on :class:`FullTableau` inside the block."""
    with mock.patch.object(lcp, "_Tableau", FullTableau):
        yield


# ----------------------------------------------------------------------------
# bit configs as they were before ``clslab.lines.BitConfig`` held one integer:
# a validated tuple of bits, and the P-LCP config codec written over it


@dataclass(frozen=True)
class BitConfigRef:
    """Immutable fixed-width bit vector; bit 0 is the leftmost/printed first."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @staticmethod
    def zeros(width: int) -> "BitConfigRef":
        return BitConfigRef((0,) * width)

    @staticmethod
    def from_string(text: str) -> "BitConfigRef":
        if not text or any(c not in "01" for c in text):
            raise ParseError(f"not a bit string: {text!r}")
        return BitConfigRef(tuple(int(c) for c in text))

    @staticmethod
    def from_int(value: int, width: int) -> "BitConfigRef":
        if value < 0 or value >= 1 << width:
            raise ValueError(f"{value} does not fit in {width} bits")
        return BitConfigRef(tuple((value >> (width - 1 - k)) & 1 for k in range(width)))

    @property
    def width(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.bits)

    def concat(self, other: "BitConfigRef") -> "BitConfigRef":
        return BitConfigRef(self.bits + other.bits)

    def split(self, k: int) -> tuple["BitConfigRef", "BitConfigRef"]:
        return BitConfigRef(self.bits[:k]), BitConfigRef(self.bits[k:])

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def config_tight_ref(d: int, bits: tuple[int, ...]) -> Optional[frozenset[int]]:
    """``lcp_line._config_tight`` over a bit tuple."""
    second = bits[d:]
    tau = sum(second)
    if tau > 1:
        return None
    if tau == 1:
        label = second.index(1)
        if bits[label] != 1:
            return None
        tight = {label, d + label}
    else:
        tight = {2 * d}
    for i in range(d):
        tight.add(i if bits[i] == 0 else d + i)
    return frozenset(tight)


def config_point_ref(ctx: PlcpEoplContext, u: BitConfig) -> Optional[tuple[F, ...]]:
    """Coordinates (y, s, z) of the config's basis, or None for a dummy or a
    singular basis: the decode the P-LCP oracles once kept in a memo."""
    tight = _config_tight(ctx, u)
    if tight is None:
        return None
    tab = lcp._tableau_of_tight(ctx.inst, tight)
    return None if tab is None else tuple(tab.values())


def is_valid_config_ref(ctx: PlcpEoplContext, u: BitConfig) -> bool:
    """``lcp_line.is_valid_config`` over Fractions: the config decodes to a
    point with no negative coordinate and no zero off its tight set."""
    if u.is_zero():
        return True
    point = config_point_ref(ctx, u)
    if point is None:
        return False
    tight = _config_tight(ctx, u)
    return all(x > 0 or (x == 0 and j in tight) for j, x in enumerate(point))


def itoe_ref(d: int, y: QVector, s: QVector) -> tuple[int, ...]:
    """``lcp_line.itoe`` as a bit tuple; the sentinel is 0...01."""
    if any(y[i] * s[i] != 0 for i in range(d)):
        return (0,) * (2 * d - 1) + (1,)
    labels = [i for i in range(d) if y[i] == 0 and s[i] == 0]
    if len(labels) > 1:
        return (0,) * (2 * d - 1) + (1,)
    bits = [0] * (2 * d)
    if labels:
        bits[d + labels[0]] = 1
    for i in range(d):
        if s[i] == 0:
            bits[i] = 1
    return tuple(bits)


# ----------------------------------------------------------------------------
# line-instance generators


def gen_eoml_random(rng: random.Random, n: int):
    """Arbitrary oracle tables with the start conditions patched in."""
    cfgs = list(all_configs(n))
    s = {c: rng.choice(cfgs) for c in cfgs}
    p = {c: rng.choice(cfgs) for c in cfgs}
    v = {c: rng.randint(0, 1 << n) for c in cfgs}
    zero = BitConfig.zeros(n)
    s[zero] = rng.choice(cfgs[1:])
    p[zero] = zero
    v[zero] = 1
    return table_instance("EOML", n, s, p, v)


def gen_eoml_path(rng: random.Random, n: int, corrupt: bool = True):
    """A simple path from the start with a correct odometer, optionally corrupted."""
    cfgs = list(all_configs(n))
    zero = cfgs[0]
    rest = cfgs[1:]
    rng.shuffle(rest)
    length = rng.randint(1, min(len(rest), (1 << n) - 1))
    path = [zero] + rest[:length]
    s = {c: c for c in cfgs}
    p = {c: c for c in cfgs}
    v = {c: 0 for c in cfgs}
    for a, b in zip(path, path[1:]):
        s[a] = b
        p[b] = a
    for i, c in enumerate(path):
        v[c] = i + 1
    if corrupt and length >= 2 and rng.random() < 0.7:
        victim = rng.choice(path[1:])
        v[victim] = rng.randint(0, 1 << n)
    v[zero] = 1
    return table_instance("EOML", n, s, p, v)


def gen_eopl_monotone(rng: random.Random, n: int, m: int):
    """Disjoint paths with strictly increasing potentials; all else self-loops."""
    cfgs = list(all_configs(n))
    zero = cfgs[0]
    rest = cfgs[1:]
    rng.shuffle(rest)
    s = {c: c for c in cfgs}
    p = {c: c for c in cfgs}
    v = {c: rng.randint(0, (1 << m) - 1) for c in cfgs}

    def lay_path(path, start_value):
        value = start_value
        values = [value]
        for node in path[1:]:
            value += rng.randint(1, 3)
            values.append(value)
        if values[-1] >= 1 << m:
            return False
        for a, b in zip(path, path[1:]):
            s[a] = b
            p[b] = a
        for node, val in zip(path, values):
            v[node] = val
        return True

    main_len = rng.randint(1, min(4, len(rest)))
    used = main_len
    while not lay_path([zero] + rest[:main_len], 0):
        main_len = max(1, main_len - 1)
        used = main_len
    if len(rest) - used >= 2 and rng.random() < 0.6:
        extra_len = rng.randint(2, min(3, len(rest) - used))
        lay_path(rest[used : used + extra_len], rng.randint(1, 4))
    return table_instance("EOPL", n, s, p, v, m)


def gen_eopl_line(rng: random.Random, n: int, m: int):
    """One long line from 0^n with strictly climbing potentials, every other
    config a self loop with a random potential (the benchmark's EOPL shape)."""
    cfgs = list(all_configs(n))
    rest = cfgs[1:]
    rng.shuffle(rest)
    length = min(len(rest), (1 << m) - 1) - rng.randint(0, 3)
    path = [cfgs[0]] + rest[:length]
    s = {c: c for c in cfgs}
    p = dict(s)
    v = {c: rng.randrange(1 << m) for c in cfgs}
    for a, b in zip(path, path[1:]):
        s[a], p[b] = b, a
    for c, val in zip(path, [0] + sorted(rng.sample(range(1, 1 << m), length))):
        v[c] = val
    return table_instance("EOPL", n, s, p, v, m)


def gen_eopl_tangle(rng: random.Random, n: int, m: int, p_ss0: Optional[int] = None):
    """Random successors, predecessors and potentials: about half the edges
    are valid, and potentials jump up, down or stay flat along them.

    The start conditions are patched in.  With ``p_ss0`` the line's first two
    edges are laid valid and climbing to that potential, so the source is not
    trivial for the potential-to-metered reduction; without it, it may be.
    """
    cfgs = list(all_configs(n))
    s = {c: rng.choice(cfgs) for c in cfgs}
    p = {c: rng.choice(cfgs) for c in cfgs}
    v = {c: rng.randrange(1 << m) for c in cfgs}
    for c in cfgs:
        if rng.random() < 0.5:
            p[s[c]] = c
    zero = cfgs[0]
    s[zero], p[zero], v[zero] = rng.choice(cfgs[1:]), zero, 0
    if p_ss0 is not None:
        s0 = s[zero]
        ss0 = rng.choice([c for c in cfgs if c not in (zero, s0)])
        s[s0], p[s0], p[ss0] = ss0, zero, s0
        v[s0], v[ss0] = rng.randint(1, p_ss0 - 1), p_ss0
    return table_instance("EOPL", n, s, p, v, m)


def counted(inst):
    """The same instance with oracles that count their calls into a Counter."""
    calls = Counter()

    def counting(name, oracle):
        def call(x):
            calls[name] += 1
            return oracle(x)

        return call

    oracles = dict(s=counting("S", inst.s), p=counting("P", inst.p), v=counting("V", inst.v))
    if isinstance(inst, EoplInstance):
        return EoplInstance(n=inst.n, m=inst.m, **oracles), calls
    return EomlInstance(n=inst.n, **oracles), calls


def node_counted(inst):
    """The same instance with its raw node counting its calls into a Counter:
    a reader over it fetches one node per config it reads."""
    calls = Counter()

    def node(x):
        calls["node"] += 1
        return inst.raw_node(x)

    return replace(inst, raw_node=node), calls


@contextmanager
def bitconfigs_built():
    """Count the ``BitConfig``s constructed inside the block, as ``built["BitConfig"]``."""
    built = Counter()
    original, new = BitConfig.__dict__["__new__"], BitConfig.__new__

    def counting_new(cls, value, width):
        built["BitConfig"] += 1
        return new(cls, value, width)

    BitConfig.__new__ = staticmethod(counting_new)
    try:
        yield built
    finally:
        BitConfig.__new__ = original


# ----------------------------------------------------------------------------
# hand-built line tables

EOML_TABLE = "EOML 2\n00 01 00 1\n01 10 00 2\n10 10 01 3\n11 11 11 0\n"
EOPL_TABLE = "EOPL 2 2\n00 01 00 0\n01 10 00 1\n10 10 01 2\n11 11 11 0\n"
TRIVIAL_EOPL = "EOPL 1 2\n0 1 0 0\n1 1 0 1\n"


# Table rows that break the oracles' contract, and the line that names each.
# Before rows were checked at load time these failed late: a wide S token as
# exit 3 in follow/enumerate, an odometer out of range as exit 3 or not at
# all, a repeated config as exit 1 ("truth tables must cover all configs").
BAD_ROWS = {
    "successor width": (EOML_TABLE.replace("00 01 00 1", "00 011 00 1"), 2),
    "predecessor width": (EOML_TABLE.replace("01 10 00 2", "01 10 0 2"), 3),
    "odometer range": (EOML_TABLE.replace("11 11 11 0", "11 11 11 9"), 5),
    "negative odometer": (EOML_TABLE.replace("11 11 11 0", "11 11 11 -1"), 5),
    "repeated config": (EOML_TABLE.replace("10 10 01 3", "01 10 01 3"), 4),
    "potential range": (EOPL_TABLE.replace("10 10 01 2", "10 10 01 4"), 4),
}


def two_bit_path(kind, vals, m=None):
    """00 -> 01 -> 10, everything else a self loop."""
    cfgs = list(all_configs(2))
    s = {c: c for c in cfgs}
    p = {c: c for c in cfgs}
    path = [bits("00"), bits("01"), bits("10")]
    for a, b in zip(path, path[1:]):
        s[a] = b
        p[b] = a
    v = dict(zip(path, vals))
    v[bits("11")] = 0
    return table_instance(kind, 2, s, p, v, m)


def single_edge(v01: int):
    """One edge 00 -> 01 out of the start with V(01) = v01, everything else a self loop."""
    cfgs = list(all_configs(2))
    s = {c: c for c in cfgs}
    p = {c: c for c in cfgs}
    v = {c: 0 for c in cfgs}
    s[bits("00")] = bits("01")
    p[bits("01")] = bits("00")
    v[bits("01")] = v01
    return table_instance("EOPL", 2, s, p, v, 2)


def hand_built_line_tables() -> list:
    """Every hand-built line instance of the line and CLI tests."""
    cfgs = list(all_configs(2))
    loops = {c: c for c in cfgs}
    return [
        two_bit_path("EOPL", [0, 1, 2], m=2),
        two_bit_path("EOPL", [0, 1, 1], m=2),
        two_bit_path("EOPL", [0, 0, 2], m=2),
        two_bit_path("EOPL", [1, 2, 3], m=2),
        two_bit_path("EOML", [1, 2, 3]),
        two_bit_path("EOML", [1, 1, 3]),
        two_bit_path("EOML", [1, 2, 4]),
        single_edge(1),
        single_edge(0),
        table_instance("EOPL", 2, loops, loops, {c: 0 for c in cfgs}, 2),
        load_line_table(EOML_TABLE),
        load_line_table(EOPL_TABLE),
        load_line_table(TRIVIAL_EOPL),
    ]


def follow_line_ref(inst, max_steps: int):
    """``follow_line`` as it was before it read S(x) and V(x) from the step's
    memo: each step classifies afresh and then asks the oracles again."""
    if max_steps < 1:
        raise PreconditionError("max_steps must be at least 1")
    x = BitConfig.zeros(inst.n)
    trace = [(x, inst.V(x))]
    steps = 0
    while True:
        sol = verify_solution(inst, x)
        if sol is not None:
            return sol, tuple(trace)
        if steps == max_steps:
            raise BudgetExceededError(f"no solution within {max_steps} steps", trace=tuple(trace))
        x = inst.S(x)
        steps += 1
        trace.append((x, inst.V(x)))


# ----------------------------------------------------------------------------
# the BitConfig-keyed line tables and line reductions, as they were before
# tables became value-indexed integer rows: references for differential tests
# (helpers renamed, memos dropped)


def _join_bit_ref(b: int, u: BitConfig) -> BitConfig:
    return BitConfig(b << u.width | u.value, u.width + 1)


def _split_bit_ref(x: BitConfig) -> tuple[int, BitConfig]:
    """The leading bit of x and the config after it."""
    n = x.width - 1
    return x.value >> n, BitConfig(x.value & ((1 << n) - 1), n)


def eoml_to_eopl_ref(inst: EomlInstance) -> EoplInstance:
    """Potential-line instance on n+1 bits whose line mirrors the source's."""
    _require_valid(inst)
    n = inst.n
    zero_n = BitConfig.zeros(n)
    zero_k = BitConfig.zeros(n + 1)

    def s_prime(x: BitConfig) -> BitConfig:
        b, u = _split_bit_ref(x)
        if x == zero_k:
            return _join_bit_ref(1, zero_n)
        if b == 0 and u != zero_n:
            return x  # dummy self loop
        if b == 1 and inst.V(u) == 0:
            return x  # zero-odometer self loop
        if b == 1 and inst.V(u) > 0:
            return _join_bit_ref(1, inst.S(u))
        return x

    def p_prime(x: BitConfig) -> BitConfig:
        b, u = _split_bit_ref(x)
        if x == zero_k:
            return x
        if b == 0 and u != zero_n:
            return x
        if b == 1 and u == zero_n:
            return zero_k  # makes the 0^k -> (1,0^n) edge consistent
        if b == 1 and inst.V(u) == 0:
            return x
        if b == 1 and inst.V(u) > 0 and u != zero_n:
            return _join_bit_ref(1, inst.P(u))
        return x

    def v_prime(x: BitConfig) -> int:
        b, u = _split_bit_ref(x)
        return inst.V(u) if b else 0

    # odometer values stay below 2^n + 1, so n + 1 potential bits suffice
    return EoplInstance(n=n + 1, m=n + 1, s=s_prime, p=p_prime, v=v_prime)


def _split_ref(x: BitConfig, n: int) -> tuple[BitConfig, int]:
    m = x.width - n
    return BitConfig(x.value >> m, n), x.value & ((1 << m) - 1)


def _join_ref(u: BitConfig, pi: int, m: int) -> BitConfig:
    return u.concat(BitConfig.from_int(pi, m))


def eopl_to_eoml_ref(inst: EoplInstance) -> Union[EomlInstance, ImmediateSolution]:
    """Metered instance on n+m bits, or the source solution when it is trivial."""
    _require_valid(inst)
    n, m = inst.n, inst.m
    zero_n = BitConfig.zeros(n)
    for candidate in (zero_n, inst.S(zero_n)):
        found = eopl_verify(inst, candidate)
        if found is not None:
            return ImmediateSolution(found)

    s0 = inst.S(zero_n)
    ss0 = inst.S(s0)
    p_ss0 = inst.V(ss0)
    if p_ss0 < 2:
        raise InvariantViolationError("potential after two steps must be at least 2")
    zero_k = BitConfig.zeros(n + m)

    def s_prime(x: BitConfig) -> BitConfig:
        u, pi = _split_ref(x, n)
        if (u == zero_n and pi == 1) or u == s0:
            return x
        if x == zero_k:
            if p_ss0 == 2:
                return _join_ref(ss0, 2, m)
            return _join_ref(zero_n, 2, m)
        if u == zero_n:
            if 2 <= pi < p_ss0 - 1:
                return _join_ref(zero_n, pi + 1, m)
            if pi == p_ss0 - 1:
                return _join_ref(ss0, p_ss0, m)
            return x  # pi >= p_ss0
        nxt = inst.S(u)
        pn = inst.V(nxt)
        pu = inst.V(u)
        if inst.P(nxt) != u or nxt == u:
            return x  # invalid edge
        if pi == pu and (pn == pu or pn == pu + 1 or pn == pu - 1):
            return _join_ref(nxt, pn, m)
        if (pi < pu <= pn) or (pu <= pn <= pi) or (pi > pu >= pn) or (pu >= pn >= pi):
            return x  # irrelevant potential value
        if pu < pn:
            if pu <= pi < pn - 1:
                return _join_ref(u, pi + 1, m)
            if pi == pn - 1:
                return _join_ref(nxt, pn, m)
        if pu > pn:
            if pu >= pi > pn + 1:
                return _join_ref(u, pi - 1, m)
            if pi == pn + 1:
                return _join_ref(nxt, pn, m)
        return x

    def p_prime(x: BitConfig) -> BitConfig:
        u, pi = _split_ref(x, n)
        if (u == zero_n and pi == 1) or u == s0:
            return x
        if u == zero_n:
            if pi == 0:
                return x  # the start points to itself
            if pi < p_ss0 and pi not in (1, 2):
                return _join_ref(zero_n, pi - 1, m)
            if pi < p_ss0 and pi == 2:
                return zero_k
            # pi >= p_ss0 falls through to the general cases below
        if u == ss0 and pi == p_ss0:
            if pi == 2:
                return zero_k
            return _join_ref(zero_n, pi - 1, m)
        if pi == inst.V(u):
            prev = inst.P(u)
            pp = inst.V(prev)
            pu = inst.V(u)
            if inst.S(prev) != u or prev == u:
                return x
            if pu == pp:
                return _join_ref(prev, pp, m)
            if pp < pu:
                return _join_ref(prev, pu - 1, m)
            return _join_ref(prev, pu + 1, m)
        nxt = inst.S(u)
        pn = inst.V(nxt)
        pu = inst.V(u)
        if inst.P(nxt) != u or nxt == u:
            return x
        if pn == pu or (pi < pu < pn) or (pu < pn <= pi) or (pi > pu > pn) or (pu > pn >= pi):
            return x
        if pu < pn and pu < pi <= pn - 1:
            return _join_ref(u, pi - 1, m)
        if pu > pn and pu > pi >= pn + 1:
            return _join_ref(u, pi + 1, m)
        return x

    def v_prime(x: BitConfig) -> int:
        if x == zero_k:
            return 1
        if s_prime(x) == x and p_prime(x) == x:
            return 0
        return _split_ref(x, n)[1]

    return EomlInstance(n=n + m, s=s_prime, p=p_prime, v=v_prime)


def table_instance_ref(
    kind: str, n: int, s: dict, p: dict, v: dict, m: Optional[int] = None
) -> LineInstance:
    """Build an instance from explicit per-config maps."""
    if len(s) != 1 << n or len(p) != 1 << n or len(v) != 1 << n:
        raise DimensionError("truth tables must cover all configs")
    if kind == "EOPL":
        if m is None:
            raise DimensionError("potential bit width m required")
        return EoplInstance(n=n, m=m, s=s.__getitem__, p=p.__getitem__, v=v.__getitem__)
    if kind == "EOML":
        return EomlInstance(n=n, s=s.__getitem__, p=p.__getitem__, v=v.__getitem__)
    raise ParseError(f"unknown instance kind {kind!r}")


def load_line_table_ref(text: str) -> LineInstance:
    """Parse a truth-table file: header ``EOPL n m`` or ``EOML n``, then rows."""
    lines = data_lines(text)
    if not lines:
        raise ParseError("empty instance file")
    head = lines[0][1].split()
    if head[0] == "EOPL" and len(head) == 3:
        kind, n, m = "EOPL", integer(head[1]), integer(head[2])
    elif head[0] == "EOML" and len(head) == 2:
        kind, n, m = "EOML", integer(head[1]), None
    else:
        raise ParseError(f"line {lines[0][0]}: bad header {lines[0][1]!r}")
    if n < 1 or n > 20:
        raise ParseError(f"width {n} out of range")
    if m is not None and m < 0:
        raise ParseError(f"potential width {m} is negative")
    if len(lines) - 1 != 1 << n:
        raise ParseError(f"expected {1 << n} table rows, got {len(lines) - 1}")
    # the oracles' contract, checked once per row: n-bit S and P, V in [0, top)
    top = 1 << m if kind == "EOPL" else (1 << n) + 1
    s, p, v = {}, {}, {}
    for num, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ParseError(f"line {num}: bad table row {ln!r}")
        x, sx, px = map(BitConfig.from_string, parts[:3])
        if x.width != n:
            raise ParseError(f"line {num}: row width mismatch")
        if sx.width != n or px.width != n:
            raise ParseError(f"line {num}: successor or predecessor is not {n} bits wide")
        if x in s:
            raise ParseError(f"line {num}: config {x} is listed twice")
        vx = integer(parts[3])
        if not 0 <= vx < top:
            raise ParseError(f"line {num}: value {vx} outside [0, {top})")
        s[x], p[x], v[x] = sx, px, vx
    return table_instance_ref(kind, n, s, p, v, m)


def dump_line_table_ref(inst: LineInstance) -> str:
    """``dump_line_table`` as it was before ``node``: per row a ``BitConfig``
    and one call each to the checked S, P and V."""
    if inst.n > 16:
        raise PreconditionError("truth-table form is limited to 16-bit configs")
    if isinstance(inst, EoplInstance):
        lines = [f"EOPL {inst.n} {inst.m}"]
    else:
        lines = [f"EOML {inst.n}"]
    for x in all_configs(inst.n):
        lines.append(f"{x} {inst.S(x)} {inst.P(x)} {inst.V(x)}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def bench_gen():
    """The benchmark's instance generators, ``perfbench/gen.py``.

    The module imports nothing from clslab, so it is loaded from its file
    under a name of its own, whatever the import path.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------------
# circuit fixtures


def eval_raw_ref(circ: ArithCircuit, xs: tuple[F, ...]) -> tuple[F, ...]:
    """The gate loop over Fractions, one normalised Fraction per gate.

    Independent oracle for the int-pair kernel behind ``circuit_eval``.
    """
    vals = list(xs)
    append = vals.append
    for gate in circ.gates:
        op = gate[0]
        if op == "ADD":
            append(vals[gate[1]] + vals[gate[2]])
        elif op == "SUB":
            append(vals[gate[1]] - vals[gate[2]])
        elif op == "MUL":
            append(vals[gate[1]] * vals[gate[2]])
        elif op == "MAX":
            a, b = vals[gate[1]], vals[gate[2]]
            append(a if a >= b else b)
        elif op == "MIN":
            a, b = vals[gate[1]], vals[gate[2]]
            append(a if a <= b else b)
        elif op == "ABS":
            a = vals[gate[1]]
            append(a if a >= 0 else -a)
        else:  # CONST
            append(gate[1])
    return tuple(vals[o] for o in circ.outputs)


def triangle_violation_ref(d: ArithCircuit, points) -> Optional[MMviol]:
    """The triangle pass of ``check_metametric`` over Fractions.

    Rows of the pair table collapse to their first point; the first (i, j, k)
    over those representatives, in order, with d(i,k) > d(i,j) + d(j,k) is
    the witness.  Independent oracle for the integer triangle check.
    """
    pts = list(points)
    table = [[circuit_eval(d, QVector(tuple(a) + tuple(b)))[0] for b in pts] for a in pts]
    reps: dict[tuple, int] = {}
    for i, row in enumerate(table):
        reps.setdefault(tuple(row), i)
    rep_idx = list(reps.values())
    for i in rep_idx:
        for j in rep_idx:
            row_i, row_j = table[i], table[j]
            for k in rep_idx:
                if row_i[k] > row_i[j] + row_j[k]:
                    return MMviol(4, (pts[i], pts[j], pts[k]))
    return None


def scale_shift_map(dim: int, factor, shifts) -> "CircuitBuilder":
    """f(x)_i = factor * x_i + shifts_i as a circuit."""
    b = CircuitBuilder(dim)
    fac = b.const(factor)
    outs = []
    for i in range(dim):
        node = b.mul(i, fac)
        if F(shifts[i]) != 0:
            node = b.add(node, b.const(shifts[i]))
        outs.append(node)
    return b.build(outs)


def kinked_map(dim: int) -> "CircuitBuilder":
    """f(x)_i = clamp(2 x_i - 1/4, 0, 1): slope two inside, flat at the ends."""
    b = CircuitBuilder(dim)
    two = b.const(2)
    quarter = b.const("1/4")
    zero = b.const(0)
    one = b.const(1)
    outs = []
    for i in range(dim):
        outs.append(b.min(b.max(b.sub(b.mul(i, two), quarter), zero), one))
    return b.build(outs)


def coordinate_potential(dim: int) -> "CircuitBuilder":
    """p(x) = x_1."""
    return CircuitBuilder(dim).build([0])


def mean_potential(dim: int) -> "CircuitBuilder":
    b = CircuitBuilder(dim)
    return b.build([b.mul(b.sum(list(range(dim))), b.const(F(1, dim)))])


def contraction_catalog() -> list[ContractionInstance]:
    half1 = scale_shift_map(1, "1/2", [0])
    half1b = scale_shift_map(1, "1/2", ["1/4"])
    half3 = scale_shift_map(3, "1/2", ["1/8", "1/4", "3/8"])
    return [
        ContractionInstance(f=half1, r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 2), dim=1),
        ContractionInstance(f=half1b, r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 4), dim=1),
        ContractionInstance(f=half3, r=INF, eps=F(1, 4), c=F(1, 2), delta=F(1, 2), dim=3),
        ContractionInstance(f=identity_circuit(1), r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 8), dim=1),
        ContractionInstance(f=kinked_map(1), r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 8), dim=1),
    ]


def gc_catalog() -> list[tuple[MmcInstance, QVector]]:
    """Contraction-with-distance instances paired with iteration starts."""
    half1 = scale_shift_map(1, "1/2", [0])
    half3 = scale_shift_map(3, "1/2", ["1/8", "1/4", "3/8"])
    d1 = norm_distance_circuit(1, 1)
    d3 = norm_distance_circuit(3, 1)
    d3inf = norm_distance_circuit(3, INF)
    return [
        (
            MmcInstance(f=half1, d=d1, r=1, eps=F(1, 4), c=F(1, 2), delta_d=F(1), lam=F(1), dim=1),
            QVector.of([1]),
        ),
        (
            MmcInstance(f=half3, d=d3, r=1, eps=F(1, 4), c=F(1, 2), delta_d=F(1), lam=F(1), dim=3),
            QVector.of([1, 1, 1]),
        ),
        (
            # claimed factor 1/4 is false for the halving map: the stall
            # point sits farther than eps from its image
            MmcInstance(f=half1, d=d1, r=1, eps=F(1, 5), c=F(1, 4), delta_d=F(1), lam=F(1), dim=1),
            QVector.of(["3/5"]),
        ),
        (
            MmcInstance(f=identity_circuit(1), d=d1, r=1, eps=F(1, 4), c=F(1, 2), delta_d=F(1), lam=F(1), dim=1),
            QVector.of(["1/3"]),
        ),
        (
            # slope-two kink against a claimed 1-continuity of f
            MmcInstance(f=kinked_map(1), d=d1, r=1, eps=F(1, 8), c=F(1, 2), delta_d=F(1), lam=F(1), dim=1),
            QVector.of(["3/10"]),
        ),
        (
            MmcInstance(f=half3, d=d3inf, r=INF, eps=F(1, 4), c=F(1, 2), delta_d=F(1), lam=F(1), dim=3),
            QVector.of([1, "1/2", 1]),
        ),
    ]


def clo_catalog() -> list[tuple[CloInstance, QVector]]:
    half1 = scale_shift_map(1, "1/2", [0])
    half3 = scale_shift_map(3, "1/2", ["1/8", "1/4", "3/8"])
    return [
        (
            CloInstance(f=half1, p=coordinate_potential(1), eps=F(1, 2), lam=F(1), r=1, dim=1),
            QVector.of([1]),
        ),
        (
            CloInstance(f=half3, p=coordinate_potential(3), eps=F(1, 2), lam=F(1), r=1, dim=3),
            QVector.of([1, 1, 1]),
        ),
        (
            CloInstance(f=half3, p=mean_potential(3), eps=F(1, 2), lam=F(1), r=1, dim=3),
            QVector.of([1, "1/2", "3/4"]),
        ),
        (
            CloInstance(f=identity_circuit(1), p=coordinate_potential(1), eps=F(1, 2), lam=F(1), r=1, dim=1),
            QVector.of(["2/3"]),
        ),
        (
            CloInstance(f=half1, p=coordinate_potential(1), eps=F(1, 2), lam=F(1), r=INF, dim=1),
            QVector.of(["1/8"]),
        ),
    ]


# ----------------------------------------------------------------------------
# circuit verifiers and iterators as they were before the shared check table:
# one isinstance chain per verifier, and iterators that call the verifiers.
# Independent reference for ``clslab.circuits.CHECKS``; every evaluation goes
# through ``clslab.circuits.circuit_eval``.


def _dist_ref(inst: MmcInstance, x: QVector, y: QVector) -> F:
    return circuits.circuit_eval(inst.d, QVector(tuple(x) + tuple(y)))[0]


def norm_pow(v: QVector, r) -> F:
    """Sum norm for r = 1, max norm for r = inf, over Fractions."""
    entries = [a if a >= 0 else -a for a in v]
    if r == INF:
        return max(entries, default=Q(0))
    if r == 1:
        return sum(entries, Q(0))
    raise PreconditionError(f"unsupported norm order {r!r}")


def norm_gt(u: QVector, scale: F, v: QVector, r) -> bool:
    """||u|| > scale * ||v|| in the sum norm (r = 1) or the max norm (r = inf),
    read off the entries without ``norm_pow``."""

    def norm(w: QVector) -> F:
        sizes = [abs(a) for a in w]
        return sum(sizes, F(0)) if r == 1 else max(sizes, default=F(0))

    return norm(u) > scale * norm(v)


def _ineq_ref(label: str, lhs: F, rel: str, rhs: F, ok: bool) -> Verdict:
    state = "holds" if ok else "fails"
    return Verdict(ok, f"{label}: {format_rational(lhs)} {rel} {format_rational(rhs)} {state}")


def _check_domain_ref(inst, *points: QVector):
    for pt in points:
        if len(pt) != inst.dim:
            raise DimensionError("point has wrong dimension")
        if not in_unit_box(pt):
            raise PreconditionError(f"point outside [0,1]^{inst.dim}: {pt}")


def _lipschitz_verdict_ref(label: str, g: ArithCircuit, k: F, inst, cand) -> Verdict:
    """Whether |g(x) - g(y)| > k * |x - y| in the instance norm, for a pair (x, y)."""
    _check_domain_ref(inst, cand.x, cand.y)
    gx = circuits.circuit_eval(g, cand.x)
    gy = circuits.circuit_eval(g, cand.y)
    ok = norm_gt(gx - gy, k, cand.x - cand.y, inst.r)
    return _ineq_ref(label, norm_pow(gx - gy, inst.r), ">", k * norm_pow(cand.x - cand.y, inst.r), ok)


def clo_verify_ref(inst: CloInstance, cand: CloSolution) -> Verdict:
    """C1: f fails to improve p by eps; C2a/C2b: exact Lipschitz violations."""
    if isinstance(cand, C1):
        _check_domain_ref(inst, cand.x)
        px = circuits.circuit_eval(inst.p, cand.x)[0]
        pfx = circuits.circuit_eval(inst.p, circuits.circuit_eval(inst.f, cand.x))[0]
        return _ineq_ref("p(f(x)) >= p(x) - eps", pfx, ">=", px - inst.eps, pfx >= px - inst.eps)
    if isinstance(cand, C2a):
        return _lipschitz_verdict_ref("|f(x)-f(y)| > lam*|x-y|", inst.f, inst.lam, inst, cand)
    if isinstance(cand, C2b):
        return _lipschitz_verdict_ref("|p(x)-p(y)| > lam*|x-y|", inst.p, inst.lam, inst, cand)
    return Verdict(False, f"not a local-opt solution shape: {cand!r}")


def contraction_verify_ref(inst: ContractionInstance, cand: ContractionSolution) -> Verdict:
    if isinstance(cand, CM1):
        _check_domain_ref(inst, cand.x)
        gap = circuits.circuit_eval(inst.f, cand.x) - cand.x
        value = norm_pow(gap, inst.r)
        return _ineq_ref("|f(x)-x| <= delta", value, "<=", inst.delta, value <= inst.delta)
    if isinstance(cand, CM2):
        return _lipschitz_verdict_ref("|f(x)-f(y)| > c*|x-y|", inst.f, inst.c, inst, cand)
    return Verdict(False, f"not a contraction solution shape: {cand!r}")


def mmc_verify_ref(inst: MmcInstance, cand: MmcSolution) -> Verdict:
    if isinstance(cand, M1):
        _check_domain_ref(inst, cand.x)
        value = _dist_ref(inst, circuits.circuit_eval(inst.f, cand.x), cand.x)
        return _ineq_ref("d(f(x),x) <= eps", value, "<=", inst.eps, value <= inst.eps)
    if isinstance(cand, M2a):
        _check_domain_ref(inst, cand.x, cand.y)
        fx = circuits.circuit_eval(inst.f, cand.x)
        fy = circuits.circuit_eval(inst.f, cand.y)
        lhs = _dist_ref(inst, fx, fy)
        rhs = inst.c * _dist_ref(inst, cand.x, cand.y)
        return _ineq_ref("d(f(x),f(y)) > c*d(x,y)", lhs, ">", rhs, lhs > rhs)
    if isinstance(cand, M2b):
        _check_domain_ref(inst, cand.x, cand.y, cand.x2, cand.y2)
        gap = _dist_ref(inst, cand.x, cand.y) - _dist_ref(inst, cand.x2, cand.y2)
        lhs = gap if gap >= 0 else -gap
        pair_diff = QVector(tuple(cand.x - cand.x2) + tuple(cand.y - cand.y2))
        rhs = inst.delta_d * norm_pow(pair_diff, inst.r)
        return _ineq_ref("|d(x,y)-d(x',y')| > delta_d*|(x,y)-(x',y')|", lhs, ">", rhs, lhs > rhs)
    if isinstance(cand, M2c):
        return _lipschitz_verdict_ref("|f(x)-f(y)| > lam*|x-y|", inst.f, inst.lam, inst, cand)
    if isinstance(cand, MMviol):
        for pt in cand.points:
            _check_domain_ref(inst, pt)
        return _axiom_violation_verdict_ref(inst.d, cand)
    return Verdict(False, f"not a contraction-with-distance solution shape: {cand!r}")


def _axiom_violation_verdict_ref(d: ArithCircuit, cand: MMviol) -> Verdict:
    def dist(a: QVector, b: QVector) -> F:
        return circuits.circuit_eval(d, QVector(tuple(a) + tuple(b)))[0]

    if cand.kind == 1 and len(cand.points) == 2:
        x, y = cand.points
        value = dist(x, y)
        return _ineq_ref("nonnegativity violated: d(x,y) < 0", value, "<", Q(0), value < 0)
    if cand.kind == 2 and len(cand.points) == 2:
        x, y = cand.points
        value = dist(x, y)
        ok = value == 0 and x != y
        return Verdict(ok, f"zero-implies-equal violated: d(x,y)={format_rational(value)}, x!=y is {x != y}")
    if cand.kind == 3 and len(cand.points) == 2:
        x, y = cand.points
        a, b = dist(x, y), dist(y, x)
        return Verdict(a != b, f"symmetry violated: d(x,y)={format_rational(a)}, d(y,x)={format_rational(b)}")
    if cand.kind == 4 and len(cand.points) == 3:
        x, y, z = cand.points
        lhs = dist(x, z)
        rhs = dist(x, y) + dist(y, z)
        return _ineq_ref("triangle violated: d(x,z) > d(x,y)+d(y,z)", lhs, ">", rhs, lhs > rhs)
    return Verdict(False, f"malformed axiom witness: kind={cand.kind}, {len(cand.points)} points")


def _step_ref(inst, x: QVector) -> QVector:
    fx = circuits.circuit_eval(inst.f, x)
    if not in_unit_box(fx):
        raise DomainEscapeError(f"f escapes the unit box at {x}", point=fx)
    return fx


def clo_solve_iterate_ref(
    inst: CloInstance, start: QVector, budget: Optional[int] = None
) -> tuple[CloSolution, tuple[QVector, ...]]:
    """Iterate f from start; stop at the first eps-stall of p or Lipschitz violation.

    Stops within ceil(p(start)/eps) + 1 iterations when no violation shows up.
    """
    _check_domain_ref(inst, start)
    if budget is None:
        p0 = circuits.circuit_eval(inst.p, start)[0]
        budget = max(int(math.ceil(p0 / inst.eps)) + 2, 2)
    x = start
    trace = [x]
    for _ in range(budget):
        fx = _step_ref(inst, x)
        if x != fx:
            if clo_verify_ref(inst, C2a(x, fx)):
                return C2a(x, fx), tuple(trace)
            if clo_verify_ref(inst, C2b(x, fx)):
                return C2b(x, fx), tuple(trace)
        if circuits.circuit_eval(inst.p, fx)[0] >= circuits.circuit_eval(inst.p, x)[0] - inst.eps:
            return C1(x), tuple(trace)
        x = fx
        trace.append(x)
    raise BudgetExceededError(f"no stall within {budget} iterations", trace=tuple(trace))


def fixpoint_iterate_ref(
    inst: Union[ContractionInstance, MmcInstance], start: QVector, budget: int = 256
) -> tuple[Union[ContractionSolution, MmcSolution], tuple[QVector, ...]]:
    """Iterate f from start until the fixpoint condition verifies.

    Consecutive iterate pairs are tested for contraction/continuity
    violations on the way; hitting the budget raises with the trace.
    """
    _check_domain_ref(inst, start)
    metered = isinstance(inst, MmcInstance)
    x = start
    trace = [x]
    prev: Optional[QVector] = None
    for _ in range(budget + 1):
        if metered:
            if mmc_verify_ref(inst, M1(x)):
                return M1(x), tuple(trace)
        else:
            if contraction_verify_ref(inst, CM1(x)):
                return CM1(x), tuple(trace)
        fx = _step_ref(inst, x)
        # pair checks run even at a fixed point: a positive self-distance can
        # already violate the claimed contraction factor
        if metered:
            for cand in (M2a(x, fx), M2c(x, fx)):
                if mmc_verify_ref(inst, cand):
                    return cand, tuple(trace)
            if prev is not None and mmc_verify_ref(inst, M2b(prev, x, x, fx)):
                return M2b(prev, x, x, fx), tuple(trace)
        elif contraction_verify_ref(inst, CM2(x, fx)):
            return CM2(x, fx), tuple(trace)
        prev = x
        x = fx
        trace.append(x)
    raise BudgetExceededError(
        f"no fixpoint within {budget} iterations; promised contraction may be slow or false",
        trace=tuple(trace),
    )
