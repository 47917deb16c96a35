"""Linear complementarity instances and complementary pivoting.

The module works in the convention ``s := q + M y + z*1``: find ``y >= 0``
with slack ``s >= 0``, ``y_i s_i = 0``, where ``z`` is the covering variable
driven to zero by the pivoting path.  The positive-principal-minor property
of the stored ``M`` is what makes ``z`` strictly decrease along that path.

Every pivot runs on one fraction-free integer dictionary (``_Tableau``),
condensed as in lrs (Avis 2000, "lrs: A revised implementation of the
reverse search vertex enumeration algorithm"): the rows are scaled to
integers and hold only the d+1 nonbasic columns and the right-hand side, as
integers over the basis determinant.  A basic variable's column is
``det * e_k`` and stays implicit; after a pivot the leaving variable takes
the entering one's column.  So a pivot is O(d^2) exact integer updates over
d+2 columns.  One step, ``_Tableau.step``, answers an edge's ratio test and
z's trend for the solver, ``lemke_pivot`` and the P-LCP line alike.  Lemke's
path keeps one integer snapshot of the dictionary per pivot (basis, tight
set, a copy of the rhs, det and the row scales), and a
:class:`LemkeVertex` builds its exact rationals from it on first read, so a
solve turns into Fractions only the vertices its caller looks at.  The optional
lexicographic mode runs the same pivot rules as if the right-hand side were
``q_i + eps^i``: ratio-test ties are broken by comparing the tableau rows of
``[q | B^-1]`` lexicographically, reading ``det * e_k`` for a basic s'_j,
so exact ties cannot occur, and the answer is the vertex at ``eps = 0``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Union

from .errors import (
    BudgetExceededError,
    DegeneracyError,
    DimensionError,
    InvariantViolationError,
    ParseError,
    PreconditionError,
)
from .qlinalg import (
    Q,
    QMatrix,
    QVector,
    _scaled_int_rows,
    data_lines,
    format_rational,
    integer,
    principal_minor,
    rational,
    solve_columns,
)

FORWARD = "forward"
BACKWARD = "backward"


# ----------------------------------------------------------------------------
# instances and outcomes


@dataclass(frozen=True)
class LcpInstance:
    """Matrix-vector pair (M, q) with dimension d."""

    m: QMatrix
    q: QVector

    def __post_init__(self):
        if not self.m.is_square:
            raise DimensionError("M must be square")
        if len(self.q) != self.m.rows:
            raise DimensionError("q length must match M")
        if self.m.rows < 1:
            raise DimensionError("dimension must be at least 1")

    def __hash__(self) -> int:
        # the generated hash over (m, q), computed on first use and kept:
        # the line oracles' memos key on the instance, and each fresh hash
        # runs Fraction.__hash__ over all d^2 + d entries
        try:
            return self._hash
        except AttributeError:
            h = hash((self.m, self.q))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def d(self) -> int:
        return self.m.rows


@dataclass(frozen=True)
class Q1:
    """A solution vector for the instance."""

    y: QVector


@dataclass(frozen=True)
class Q2:
    """A non-positive principal minor witness: 1-based index set plus its minor."""

    index_set: frozenset[int]
    minor: Fraction


LcpOutcome = Union[Q1, Q2]


@dataclass(frozen=True)
class LemkeVertex:
    """A fully labeled vertex of the augmented polytope.

    ``tight`` holds constraint names ("y3", "s1", "z"); ``dup_label`` is the
    1-based index at which both y and s are tight, or None at a z=0 vertex.

    A vertex that pivoting reaches holds an integer snapshot of the tableau
    and ``dup_label``; it builds y, s, z and ``tight`` on the first read of
    any of them.  Equality, hash, repr, copies and pickles read the fields,
    so they see the same vertex either way.
    """

    y: QVector
    s: QVector
    z: Fraction
    tight: frozenset[str]
    dup_label: Optional[int]

    def __getattr__(self, name: str):
        # reached only for an attribute not in __dict__: on a snapshot vertex,
        # the first read of a lazy field
        state = self.__dict__
        snapshot = state.get("_snapshot")
        if snapshot is None or name not in _LAZY_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state.update(_vertex_fields(*snapshot))
        state.pop("_snapshot", None)
        return state[name]

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


_LAZY_FIELDS = frozenset({"y", "s", "z", "tight"})


@dataclass(frozen=True)
class Ray:
    """An unbounded edge direction; no constraint blocks the pivot."""

    dir_y: QVector
    dir_s: QVector
    dir_z: Fraction


@dataclass(frozen=True)
class LemkeResult:
    """A solve's outcome and the vertices of its path, start first.

    The trace holds integer snapshots (see :class:`LemkeVertex`): reading
    its length or one vertex's fields builds the rationals of no other.
    """

    outcome: LcpOutcome
    trace: tuple[LemkeVertex, ...]


# ----------------------------------------------------------------------------
# variable-id helpers: 0..d-1 = y, d..2d-1 = s, 2d = z


def _var_name(var: int, d: int) -> str:
    if var < d:
        return f"y{var + 1}"
    if var < 2 * d:
        return f"s{var - d + 1}"
    return "z"


def _parse_var(name: str, d: int) -> int:
    """The id of a name as :func:`_var_name` writes it; no other spelling."""
    if name == "z":
        return 2 * d
    kind, idx = name[:1], name[1:]
    if kind in ("y", "s") and idx.isascii() and idx.isdigit() and idx[0] != "0" and int(idx) <= d:
        return (0 if kind == "y" else d) + int(idx) - 1
    raise PreconditionError(f"unknown variable {name!r} for dimension {d}")


# ----------------------------------------------------------------------------
# the integer tableau


def _scaled_rows(inst: LcpInstance) -> tuple[list[list[int]], list[int]]:
    """Integer rows of ``[M | q]``, row i scaled by the lcm ``L_i`` of its
    denominators, and the scales ``L_i``."""
    return _scaled_int_rows([inst.m.row(i) + (inst.q[i],) for i in range(inst.d)])


class _Tableau:
    """Condensed fraction-free dictionary of ``-M y + s - z 1 = q`` over one basis.

    Row i is scaled by the lcm ``L_i`` of its denominators and written over
    the scaled slack ``s'_i = L_i s_i``, so the slack basis is integral with
    determinant 1.  ``basis[i]`` is the variable basic in row i and
    ``cobasis`` the d+1 nonbasic ones; row i holds the entries of
    ``det * B^-1 [A | q]`` in the cobasis columns, then the rhs, with
    ``det = |det B|``.  Every entry is an integer (a minor).  The column of a
    basic variable is ``det * e_k`` and is never stored (the dictionary of
    lrs, Avis 2000), so a pivot updates d+1 columns, not 2d+1, with exact
    divisions by the old determinant (Edmonds 1967, Bareiss 1968); the
    leaving variable then takes the entering one's column.  ``mq`` keeps the
    scaled rows of ``[M | q]`` for the final verify of a solve.
    """

    __slots__ = ("d", "mq", "scale", "rows", "basis", "cobasis", "det")

    def __init__(self, inst: LcpInstance):
        d = inst.d
        self.d = d
        self.mq, self.scale = _scaled_rows(inst)
        self.rows = [[-x for x in a[:d]] + [-scale, a[d]] for a, scale in zip(self.mq, self.scale)]
        self.basis = list(range(d, 2 * d))
        self.cobasis = list(range(d)) + [2 * d]
        self.det = 1

    def pivot(self, r: int, e: int) -> None:
        """Make nonbasic ``e`` basic in row ``r``; the pivot entry must be nonzero."""
        j = self.cobasis.index(e)
        prow = self.rows[r]
        p = prow[j]
        # negating the new rows along with a negative pivot keeps det > 0;
        # the leaving variable's column det * e_r becomes sign(p) * (det, -f_i)
        div, sign = (self.det, 1) if p > 0 else (-self.det, -1)
        for i, row in enumerate(self.rows):
            if i != r:
                f = row[j]
                row = self.rows[i] = [(x * p - f * y) // div for x, y in zip(row, prow)]
                row[j] = -sign * f
        if p < 0:
            prow = self.rows[r] = [-x for x in prow]
        prow[j] = sign * self.det
        self.cobasis[j] = self.basis[r]
        self.basis[r] = e
        self.det = abs(p)

    def copy(self) -> "_Tableau":
        """The tableau at the same basis, sharing ``mq`` and ``scale`` (which no
        pivot changes); its rows, basis and cobasis are its own."""
        tab = object.__new__(_Tableau)
        tab.d, tab.mq, tab.scale, tab.det = self.d, self.mq, self.scale, self.det
        tab.rows = [row[:] for row in self.rows]
        tab.basis, tab.cobasis = self.basis[:], self.cobasis[:]
        return tab

    def column(self, var: int) -> list[int]:
        """Entries of variable ``var`` (the rhs for ``2d+1``) over the rows."""
        if var in self.basis:
            k = self.basis.index(var)
            return [self.det if i == k else 0 for i in range(self.d)]
        j = self.cobasis.index(var) if var <= 2 * self.d else -1
        return [row[j] for row in self.rows]

    def tight(self) -> frozenset[int]:
        return frozenset(self.cobasis)

    def _unscale(self, var: int) -> int:
        """Factor from the tableau's units of ``var`` to the instance's."""
        return self.scale[var - self.d] if self.d <= var < 2 * self.d else 1

    def values(self) -> list[Fraction]:
        """Coordinates of (y, s, z) at this basis, in the instance's units."""
        return _values(self.basis, [row[-1] for row in self.rows], self.det, self.scale)

    def point(self) -> tuple[QVector, QVector, Fraction]:
        return _split(self.values(), self.d)

    def ray(self, e: int) -> Ray:
        """The edge relaxing nonbasic ``e``, normalized to unit speed in ``e``."""
        sigma = [Q(0)] * (2 * self.d + 1)
        sigma[e] = Q(1)
        for a, var in zip(self.column(e), self.basis):
            sigma[var] = Fraction(-a * self._unscale(e), self.det * self._unscale(var))
        return Ray(*_split(sigma, self.d))

    def step(self, e: int, lexicographic: bool) -> tuple[Optional[int], int]:
        """The edge relaxing nonbasic ``e``: the row of its blocking variable
        (None on a ray) and the sign of z's change along it (0 on a ray).

        Row i's ratio is ``rhs_i / col_e[i]``: its basic variable moves at rate
        ``-col_e[i] / det``.  The lexicographic mode breaks ties on the
        s'-columns: row i of ``[rhs | s']`` holds, up to a positive factor per
        column, the coefficients of (1, eps^1, ..., eps^d) in the variable's
        value on ``q_i + eps^i`` (a basic s'_j's column is ``det * e_k``).  z
        moves by ``t * sigma_z``, ``t`` signed as the blocking row's first
        nonzero entry in those columns.  Raises DegeneracyError on a ratio-test
        tie, and on an edge whose far end has two duplicate labels.
        """
        d = self.d
        col_e = self.column(e)
        cand = [i for i, a in enumerate(col_e) if a > 0]
        if not cand:
            return None, 0
        cols = [2 * d + 1] + (list(range(d, 2 * d)) if lexicographic else [])
        for c in cols:
            col = self.column(c)
            best = [cand[0]]
            for i in cand[1:]:
                lhs = col[i] * col_e[best[0]]
                rhs = col[best[0]] * col_e[i]
                if lhs < rhs:
                    best = [i]
                elif lhs == rhs:
                    best.append(i)
            cand = best
            if len(cand) == 1:
                break
        else:
            names = tuple(_var_name(v, d) for v in sorted(self.basis[i] for i in cand))
            raise DegeneracyError(f"ratio-test tie between {', '.join(names)}", ties=names)
        r = cand[0]
        b = self.basis[r]
        try:
            _dup_of_tight(set(self.cobasis) - {e} | {b}, d)  # the tight set past the edge
        except DegeneracyError as exc:
            raise DegeneracyError(
                f"the edge relaxing {_var_name(e, d)} leaves the complementary vertices: "
                f"{_var_name(b, d)} blocks it at duplicate labels {', '.join(map(str, exc.ties))}",
                ties=exc.ties,
            ) from None
        z = 2 * d
        if e == z:
            rate = 1
        elif z in self.basis:
            rate = -col_e[self.basis.index(z)]
        else:
            rate = 0
        t = self.rows[r][-1] or next((x for x in (self.column(c)[r] for c in cols[1:]) if x), 0)
        return r, ((t > 0) - (t < 0)) * ((rate > 0) - (rate < 0))

    def orientation(self, e: int) -> int:
        """Raw edge sign: +1 when the first nonzero of (z, y, s) along the edge
        relaxing ``e`` falls, -1 when it rises."""
        d = self.d
        col = dict(zip(self.basis, self.column(e)))
        for var in [2 * d] + list(range(2 * d)):
            if var == e:  # e rises at unit speed; the loop always reaches it
                return -1
            if col.get(var, 0) != 0:
                return 1 if col[var] > 0 else -1


def _values(basis: list[int], rhs: list[int], det: int, scale: list[int]) -> list[Fraction]:
    """Coordinates of (y, s, z) over the variable ids: basic ``basis[i]`` is
    ``rhs[i] / det`` in the tableau's units, unscaled for a slack."""
    d = len(scale)
    vals = [Q(0)] * (2 * d + 1)
    for var, b in zip(basis, rhs):
        vals[var] = Fraction(b, det * scale[var - d] if d <= var < 2 * d else det)
    return vals


def _snapshot_vertex(tab: _Tableau) -> LemkeVertex:
    """The vertex at ``tab``'s basis, kept as integers until a field is read.

    The basis and the rhs are copied, since later pivots rewrite the
    tableau's own; the row scales never change.  ``dup_label`` is read off
    the tight set at once, so a second duplicate label raises here.
    """
    tight = tab.tight()
    v = object.__new__(LemkeVertex)
    v.__dict__.update(
        dup_label=_dup_of_tight(tight, tab.d),
        _snapshot=(tab.basis[:], tight, [row[-1] for row in tab.rows], tab.det, tab.scale),
    )
    return v


def _vertex_fields(basis, tight, rhs, det, scale) -> dict:
    """y, s, z and the tight names of a :func:`_snapshot_vertex`."""
    d = len(scale)
    y, s, z = _split(_values(basis, rhs, det, scale), d)
    return {"y": y, "s": s, "z": z, "tight": frozenset(_var_name(v, d) for v in tight)}


def _split(vals: list[Fraction], d: int) -> tuple[QVector, QVector, Fraction]:
    """(y, s, z) from one list over the variable ids."""
    return QVector(tuple(vals[:d])), QVector(tuple(vals[d : 2 * d])), vals[2 * d]


def _dup_of_tight(tight: frozenset[int], d: int) -> Optional[int]:
    dups = [i for i in range(d) if i in tight and d + i in tight]
    if len(dups) > 1:
        raise DegeneracyError(
            "more than one duplicate label", ties=tuple(i + 1 for i in dups)
        )
    return dups[0] + 1 if dups else None


def _start_tableau(inst: LcpInstance, lexicographic: bool, tab: _Tableau) -> _Tableau:
    """The vertex where y = 0, z = |min q| and the minimal slack is tight,
    pivoted in place from ``tab``, a tableau of ``inst`` at the slack basis."""
    d = inst.d
    low = min(inst.q)
    if low >= 0:
        raise PreconditionError("q >= 0: y = 0 solves the instance directly")
    ties = [i for i in range(d) if inst.q[i] == low]
    if len(ties) > 1 and not lexicographic:
        raise DegeneracyError(
            "tied minimum in q at indices " + ", ".join(str(i + 1) for i in ties),
            ties=tuple(i + 1 for i in ties),
        )
    # q_i + eps^i is smallest at the last tied index
    tab.pivot(ties[-1], 2 * d)
    return tab


def _pivot_onto(tab: _Tableau, tight: frozenset[int]) -> Optional[_Tableau]:
    """Pivot ``tab`` in place onto the complement of the d+1 ids in ``tight``;
    None when that basis is singular.

    Each id of ``tight`` that is basic now enters, in id order, at the first
    row whose basic variable must leave.  From any start this reaches the
    target exactly when the target is nonsingular: the block of leaving rows
    by entering columns is nonsingular just when the target basis is, and
    stays so after each pivot.  The result has the target's det and, per
    basic variable, its row; only the order of the rows and of the cobasis
    depends on the start.
    """
    d = tab.d
    for e in sorted(tab.tight() - tight):
        col = tab.column(e)
        r = next((i for i in range(d) if col[i] != 0 and tab.basis[i] in tight), None)
        if r is None:
            return None
        tab.pivot(r, e)
    return tab


def _tableau_of_tight(inst: LcpInstance, tight: frozenset[int]) -> Optional[_Tableau]:
    """Pivot from the slack basis onto the complement of the d+1 ids in ``tight``;
    None when that basis is singular."""
    return _pivot_onto(_Tableau(inst), tight)


def _vertex_tableau(inst: LcpInstance, v: LemkeVertex, entering: str) -> tuple[_Tableau, int]:
    """Tableau at a vertex plus the id of ``entering``, which must be tight there."""
    d = inst.d
    var = _parse_var(entering, d)
    tight = frozenset(_parse_var(name, d) for name in v.tight)
    if len(tight) != d + 1:
        raise PreconditionError(f"a vertex has d+1 = {d + 1} tight constraints, not {len(tight)}")
    if var not in tight:
        raise PreconditionError(f"{entering} is not tight at this vertex")
    tab = _tableau_of_tight(inst, tight)
    if tab is None:
        raise InvariantViolationError("edge direction undefined; vertex is degenerate")
    return tab, var


def _path_edges(tab: _Tableau, calibration: Optional[int]) -> tuple[Optional[int], Optional[int]]:
    """The vertex read: the entering ids (forward, backward) of the path's
    edges at ``tab``'s vertex.  Off z = 0 they relax y_l and s_l at the
    duplicate label l and point opposite ways, so one orientation read orders
    them by ``calibration``, the raw sign that reads forward; None reads the
    start, whose forward edge relaxes y_l.  At z = 0 only z's edge exists."""
    d = tab.d
    tight = tab.tight()
    if 2 * d in tight:
        return (2 * d, None) if tab.orientation(2 * d) == calibration else (None, 2 * d)
    label = _dup_of_tight(tight, d) - 1
    if calibration is None or tab.orientation(label) == calibration:
        return label, d + label
    return d + label, label


# ----------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class LcpSolutionReport:
    """Per-constraint verification outcome; indices are 1-based."""

    ok: bool
    y_negative: tuple[int, ...]
    s_negative: tuple[int, ...]
    not_complementary: tuple[int, ...]
    slack: QVector

    def __bool__(self) -> bool:
        return self.ok


def verify_lcp_solution(inst: LcpInstance, y: QVector) -> LcpSolutionReport:
    """Check y >= 0, q + M y >= 0, and exact componentwise complementarity.

    The check runs on integers and is exact, with no float: y is written as
    integers ``n`` over one common denominator ``D``, so row i of ``[M | q]``
    scaled by ``L_i`` gives ``t_i = L_i D s_i = sum_j a_ij n_j + a_id D``.
    ``L_i`` and ``D`` are positive, so every sign is read off ``n`` and ``t``,
    and the reported slack is ``t_i / (L_i D)``.
    """
    if len(y) != inst.d:
        raise DimensionError("candidate length must be d")
    return _verify_scaled(*_scaled_rows(inst), y)


def _verify_scaled(rows: list[list[int]], scales: list[int], y: QVector) -> LcpSolutionReport:
    """:func:`verify_lcp_solution` over the scaled rows ``L_i [M | q]_i``."""
    d = len(rows)
    den = math.lcm(*[a.denominator for a in y])
    n = [a.numerator * (den // a.denominator) for a in y]
    n.append(den)  # multiplies the q column
    t = [sum(map(mul, row, n)) for row in rows]
    y_neg = tuple(i + 1 for i in range(d) if n[i] < 0)
    s_neg = tuple(i + 1 for i in range(d) if t[i] < 0)
    comp = tuple(i + 1 for i in range(d) if n[i] and t[i])
    return LcpSolutionReport(
        ok=not (y_neg or s_neg or comp),
        y_negative=y_neg,
        s_negative=s_neg,
        not_complementary=comp,
        slack=QVector(tuple(Fraction(ti, scale * den) for ti, scale in zip(t, scales))),
    )


def check_outcome(inst: LcpInstance, outcome: LcpOutcome) -> tuple[bool, str]:
    """Whether a stated Q1 or Q2 outcome holds on ``inst``, and why.

    Q1 must pass :func:`verify_lcp_solution`; Q2's minor is recomputed and
    must equal the stated one and be <= 0.
    """
    if isinstance(outcome, Q1):
        report = verify_lcp_solution(inst, outcome.y)
        if report.ok:
            return True, "solution verifies"
        return False, (
            f"y>=0 fails at {report.y_negative}; s>=0 fails at {report.s_negative}; "
            f"complementarity fails at {report.not_complementary}"
        )
    minor = principal_minor(inst.m, outcome.index_set)
    if minor != outcome.minor:
        return False, f"stated minor {outcome.minor} recomputes to {minor}"
    if minor > 0:
        return False, f"minor {minor} is positive"
    return True, f"index set has minor {minor} <= 0"


def _subsets_lex(d: int):
    """Nonempty subsets of 1..d in lexicographic order of their sorted tuples.

    Built one at a time: the next subset extends this one by its last
    element plus one or, when that element is d, drops it and steps the new
    last element up.
    """
    subset = [1] if d > 0 else []
    while subset:
        yield tuple(subset)
        if subset[-1] < d:
            subset.append(subset[-1] + 1)
        else:
            subset.pop()
            if subset:
                subset[-1] += 1


def p_matrix_witness(m: QMatrix) -> Optional[Q2]:
    """The lexicographically smallest index set with a non-positive minor, if any."""
    if not m.is_square:
        raise DimensionError("P-matrix test needs a square matrix")
    for subset in _subsets_lex(m.rows):
        value = principal_minor(m, subset)
        if value <= 0:
            return Q2(frozenset(subset), value)
    return None


def is_p_matrix(m: QMatrix) -> bool:
    """True iff every principal minor is strictly positive."""
    # cheap rejection: 1x1 minors are the diagonal
    if m.is_square and any(m[i, i] <= 0 for i in range(m.rows)):
        return False
    return p_matrix_witness(m) is None


def lemke_start(inst: LcpInstance) -> LemkeVertex:
    """Start vertex: y = 0, z = |min q|, s = q + z*1."""
    return _snapshot_vertex(_start_tableau(inst, False, _Tableau(inst)))


def lemke_pivot(inst: LcpInstance, v: LemkeVertex, entering: str) -> Union[LemkeVertex, Ray]:
    """Move to the adjacent vertex along the edge that relaxes ``entering``."""
    tab, var = _vertex_tableau(inst, v, entering)
    r, _ = tab.step(var, lexicographic=False)
    if r is None:
        return tab.ray(var)
    tab.pivot(r, var)
    return _snapshot_vertex(tab)


def duplicate_label(v: LemkeVertex) -> Optional[int]:
    """The unique 1-based l with y_l = s_l = 0, or None at a z = 0 solution vertex."""
    dups = [i + 1 for i in range(len(v.y)) if v.y[i] == 0 and v.s[i] == 0]
    if len(dups) > 1:
        raise DegeneracyError("two duplicate labels", ties=tuple(dups))
    return dups[0] if dups else None


def todd_orientation(inst: LcpInstance, v: LemkeVertex, entering: str) -> str:
    """Direction label of the edge that relaxes ``entering`` at v: its raw sign
    (the lexicographic sign of its direction on (z, y, s), which flips across
    the edge) against that of the start vertex's forward edge."""
    tab, var = _vertex_tableau(inst, v, entering)
    start = _start_tableau(inst, False, _Tableau(inst))
    forward = tab.orientation(var) == start.orientation(_path_edges(start, None)[0])
    return FORWARD if forward else BACKWARD


def q2_witness_at(inst: LcpInstance, y: QVector) -> Q2:
    """Witness extraction: try the support of y, then search all index sets."""
    support = frozenset(i + 1 for i in range(inst.d) if y[i] > 0)
    if support:
        value = principal_minor(inst.m, support)
        if value <= 0:
            return Q2(support, value)
    witness = p_matrix_witness(inst.m)
    if witness is None:
        raise InvariantViolationError("no non-positive principal minor exists")
    return witness


def lemke_solve(
    inst: LcpInstance, *, lexicographic: bool = False, budget: Optional[int] = None
) -> LemkeResult:
    """Complementary pivoting from the covering-variable start vertex.

    Returns Q1(y) when z reaches zero, or a verified Q2 witness when a
    secondary ray is hit or z fails to strictly decrease at some pivot.
    Raises BudgetExceededError, carrying the trace so far, when the path
    needs more than ``budget`` pivots.
    """
    d = inst.d
    if budget is None:
        budget = 2 ** (2 * d) + 1
    if budget < 0:
        raise PreconditionError(f"budget must be nonnegative, got {budget}")
    if all(x >= 0 for x in inst.q):
        return LemkeResult(Q1(QVector.zero(d)), ())

    tab = _start_tableau(inst, lexicographic, _Tableau(inst))
    trace = [_snapshot_vertex(tab)]
    entering = _path_edges(tab, None)[0]

    while True:
        r, z_trend = tab.step(entering, lexicographic)
        if r is None or z_trend >= 0:
            return LemkeResult(q2_witness_at(inst, trace[-1].y), tuple(trace))
        if len(trace) > budget:  # the path needs another pivot
            raise BudgetExceededError(f"no solution within {budget} pivots", trace=tuple(trace))
        blocker = tab.basis[r]
        tab.pivot(r, entering)
        trace.append(_snapshot_vertex(tab))
        if blocker == 2 * d:
            y = trace[-1].y
            if not _verify_scaled(tab.mq, tab.scale, y):
                raise InvariantViolationError("pivoting produced an infeasible answer")
            return LemkeResult(Q1(y), tuple(trace))
        entering = blocker + d if blocker < d else blocker - d


def brute_force_lcp(inst: LcpInstance) -> list[QVector]:
    """All solutions found by enumerating the 2^d complementary bases."""
    d = inst.d
    found: list[QVector] = []
    for bits in itertools.product((0, 1), repeat=d):
        alpha = [i for i in range(d) if bits[i]]
        y_vals = [Q(0)] * d
        if alpha:
            sub = inst.m.submatrix(alpha, alpha)
            rhs = QVector(tuple(-inst.q[i] for i in alpha))
            sol = solve_columns(sub, [tuple(rhs)])
            if sol is None:
                continue
            for pos, i in enumerate(alpha):
                y_vals[i] = sol[0][pos]
        y = QVector(tuple(y_vals))
        if verify_lcp_solution(inst, y) and y not in found:
            found.append(y)
    return found


# ----------------------------------------------------------------------------
# file formats


def load_lcp(text: str, paper_sign: bool = False) -> LcpInstance:
    """Parse: line 1 is d, then d rows of M, then one row for q.

    ``paper_sign`` negates M on ingestion, for data written in the
    opposite-sign convention ``M y <= q``.
    """
    lines = data_lines(text)
    if not lines:
        raise ParseError("empty instance file")
    d = integer(lines[0][1])
    if d < 1 or len(lines) != d + 2:
        raise ParseError(f"expected {d + 2} data lines for d={d}, got {len(lines)}")
    rows = []
    for num, ln in lines[1:]:
        try:
            row = [rational(tok) for tok in ln.split()]
        except ParseError as exc:
            raise ParseError(f"line {num}: {exc}") from exc
        if len(row) != d:
            what = "matrix row" if len(rows) < d else "q"
            raise ParseError(f"line {num}: {what} has {len(row)} entries, want {d}")
        rows.append(row)
    q_row = rows.pop()
    if paper_sign:
        rows = [[-a for a in row] for row in rows]
    return LcpInstance(QMatrix.of(rows), QVector.of(q_row))


def dump_lcp(inst: LcpInstance) -> str:
    lines = [str(inst.d)]
    lines += [" ".join(format_rational(a) for a in row) for row in inst.m.entries]
    lines.append(" ".join(format_rational(a) for a in inst.q))
    return "\n".join(lines) + "\n"


def format_outcome(outcome: LcpOutcome) -> str:
    if isinstance(outcome, Q1):
        return "Q1 " + " ".join(format_rational(a) for a in outcome.y)
    idx = ",".join(str(i) for i in sorted(outcome.index_set))
    return f"Q2 S={{{idx}}} minor={format_rational(outcome.minor)}"


def parse_outcome(line: str) -> LcpOutcome:
    parts = line.split()
    if not parts:
        raise ParseError("empty outcome line")
    if parts[0] == "Q1":
        return Q1(QVector.of(parts[1:]))
    if parts[0] == "Q2":
        # exactly one S= and one minor= token, nothing else
        fields = {}
        for part in parts[1:]:
            key, eq, value = part.partition("=")
            if not eq or key not in ("S", "minor") or key in fields:
                raise ParseError(f"malformed Q2 line: {line!r}")
            fields[key] = value
        if len(fields) != 2:
            raise ParseError(f"malformed Q2 line: {line!r}")
        idx = [integer(tok) for tok in fields["S"].strip("{}").split(",") if tok]
        if len(set(idx)) != len(idx):
            raise ParseError(f"repeated index in Q2 line: {line!r}")
        return Q2(frozenset(idx), rational(fields["minor"]))
    raise ParseError(f"unknown outcome tag {parts[0]!r}")
