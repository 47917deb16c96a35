"""Seeded instance generators for the clslab benchmark.

Every instance is built by construction, never by running a clslab solver,
so the time spent here does not follow solver speed:

* LCPs are strictly diagonally dominant (hence P-matrices), lower
  triangular long-path matrices, or long-path matrices with one negative
  diagonal entry (non-P, so pivoting ends in a minor witness).
* Line tables are path-shaped truth tables whose solutions are known from
  the construction.
* Contraction maps are coordinatewise ``f_i(x) = c x_i + (1 - c) x*_i`` with
  a known fixpoint ``x*``, so every answer has a closed-form check.

Ties are avoided by construction: the q entries carry jitters over distinct
primes (see ``_jittered``).  Nothing is pre-solved and nothing is re-seeded.  This module imports
nothing from clslab; it returns plain Python data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


def _primes(low: int, count: int) -> list[int]:
    out, n = [], low
    while len(out) < count:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            out.append(n)
        n += 1
    return out


# q_i carries the jitter u / p_i: one draw u < 2000 per instance and a distinct
# prime p_i > 200000 per index.  The q entries of one instance never tie, and an
# exact tie in a ratio test would need an integer relation sum c_i q_i = 0 with
# some |c_i| >= p_i, far beyond what these small matrices produce.  The jitter
# is a small step along one fixed direction, so every instance of a family
# and size follows the same pivot sequence and items of one class cost alike.
_JITTER_PRIMES = _primes(200_003, 40)
_JITTER_MAX = 2000


def item_rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    """Independent generator for one item; string seeds hash with SHA-512."""
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def _jittered(rng: random.Random, base: list[int]) -> tuple[Fraction, ...]:
    u = rng.randrange(1, _JITTER_MAX)
    return tuple(b + Fraction(u, _JITTER_PRIMES[i]) for i, b in enumerate(base))


@dataclass(frozen=True)
class LcpData:
    """Plain (M, q) data; ``family`` is dd, longpath or nonp."""

    family: str
    rows: tuple[tuple[int, ...], ...]
    q: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return len(self.q)

    def text(self) -> str:
        """The instance file format read by ``clslab.lcp.load_lcp``."""
        lines = [str(self.d)]
        lines += [" ".join(str(a) for a in row) for row in self.rows]
        lines.append(" ".join(str(a) for a in self.q))
        return "\n".join(lines) + "\n"


def dd_lcp(rng: random.Random, d: int) -> LcpData:
    """Diagonal 4d..5d, off-diagonal entries in {-1, 0, 1}; q has d // 2 negative entries.

    The dominance is strong and the negative entries (-9..-5) sit far from the
    positive ones (20..29), so the path makes exactly one pivot per negative
    entry.
    """
    rows = []
    for i in range(d):
        row = [rng.randint(-1, 1) for _ in range(d)]
        row[i] = rng.randint(4 * d, 5 * d)
        rows.append(tuple(row))
    negative = set(rng.sample(range(d), d // 2))
    base = [-rng.randint(5, 9) if i in negative else rng.randint(20, 29) for i in range(d)]
    return LcpData("dd", tuple(rows), _jittered(rng, base))


def _long_path_rows(d: int) -> list[list[int]]:
    return [[1 if i == j else (2 if i > j else 0) for j in range(d)] for i in range(d)]


def long_path_lcp(rng: random.Random, d: int) -> LcpData:
    """1 on the diagonal, 2 below it, q_i = -(i + 1) plus a small jitter."""
    q = _jittered(rng, [-(i + 1) for i in range(d)])
    return LcpData("longpath", tuple(tuple(r) for r in _long_path_rows(d)), q)


def nonp_lcp(rng: random.Random, d: int) -> LcpData:
    """The long-path matrix with M[d-3][d-3] = -1, for d >= 4.

    The 1x1 minor at index d - 2 (1-based) is -1, so M is not a P-matrix;
    the path makes at least one pivot before it reaches that index and ends
    in a minor witness.
    """
    if d < 4:
        raise ValueError("non-P family needs d >= 4")
    rows = _long_path_rows(d)
    rows[d - 3][d - 3] = -1
    q = _jittered(rng, [-(i + 1) for i in range(d)])
    return LcpData("nonp", tuple(tuple(r) for r in rows), q)


# ----------------------------------------------------------------------------
# line tables


@dataclass(frozen=True)
class LineTable:
    """A truth-table source plus the set of its solutions, known by construction.

    ``solutions`` holds ``(tag, bits)`` pairs; ``reduce_kind`` names the CLI
    reduction applied to the table.
    """

    kind: str
    text: str
    solutions: frozenset[tuple[str, str]]
    reduce_kind: str


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def _table_text(head: str, n: int, s: dict, p: dict, v: dict) -> str:
    rows = [head]
    rows += [f"{_bits(c, n)} {_bits(s[c], n)} {_bits(p[c], n)} {v[c]}" for c in range(1 << n)]
    return "\n".join(rows) + "\n"


def _path(rng: random.Random, n: int, length: int) -> list[int]:
    rest = list(range(1, 1 << n))
    rng.shuffle(rest)
    return [0] + rest[:length]


def eopl_table(rng: random.Random, n: int, m: int) -> LineTable:
    """A long monotone line from 0^n; every other config is a self loop.

    Potentials climb strictly along the line, so its far end is the only
    solution (R1).  The line has at least three edges, so the source is not
    trivial for the potential-to-metered reduction.
    """
    top = min((1 << n) - 1, (1 << m) - 1)
    length = top - rng.randint(0, 7)
    path = _path(rng, n, length)
    s = {c: c for c in range(1 << n)}
    p = dict(s)
    v = {c: rng.randrange(1 << m) for c in range(1 << n)}
    for a, b in zip(path, path[1:]):
        s[a], p[b] = b, a
    values = [0] + sorted(rng.sample(range(1, 1 << m), length))
    for c, val in zip(path, values):
        v[c] = val
    text = _table_text(f"EOPL {n} {m}", n, s, p, v)
    return LineTable("EOPL", text, frozenset({("R1", _bits(path[-1], n))}), "eopl-eoml")


def eoml_table(rng: random.Random, n: int, corrupt: bool) -> LineTable:
    """A long line from 0^n with odometer 1, 2, 3, ...; off-line configs read 0.

    The far end is a T1 solution.  A corrupted table adds 3 to the odometer
    at one interior vertex j >= 2, which makes vertices j - 1, j and j + 1
    T3 solutions as well.
    """
    length = (1 << n) - 1 - rng.randint(0, 7)
    path = _path(rng, n, length)
    s = {c: c for c in range(1 << n)}
    p = dict(s)
    v = {c: 0 for c in range(1 << n)}
    for a, b in zip(path, path[1:]):
        s[a], p[b] = b, a
    for i, c in enumerate(path):
        v[c] = i + 1
    solutions = {("T1", _bits(path[-1], n))}
    if corrupt:
        j = rng.randint(length // 3, 2 * length // 3)
        v[path[j]] += 3
        solutions |= {("T3", _bits(path[k], n)) for k in (j - 1, j, j + 1)}
    text = _table_text(f"EOML {n}", n, s, p, v)
    return LineTable("EOML", text, frozenset(solutions), "eoml-eopl")


# ----------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class ContractionSpec:
    """f_i(x) = c x_i + (1 - c) xstar_i on [0,1]^dim; a c-contraction in l1 and l-inf.

    ``delta`` is the fixpoint slack; iteration starts at the corner ``start``.
    """

    c: Fraction
    dim: int
    r: str  # "1" or "inf"
    xstar: tuple[Fraction, ...]
    start: tuple[Fraction, ...]
    delta: Fraction

    def gap(self, x) -> Fraction:
        """||f(x) - x|| in closed form: (1 - c) ||x - xstar||."""
        parts = [abs(a - b) for a, b in zip(x, self.xstar)]
        size = sum(parts) if self.r == "1" else max(parts)
        return (1 - self.c) * size


def contraction_spec(rng: random.Random, c: Fraction, dim: int, r: str) -> ContractionSpec:
    """Fixpoint within 1/32 of the centre, start at a corner: iteration counts barely vary.

    The odd numerators keep every fixpoint coordinate at denominator 8192.
    """
    xstar = tuple(Fraction(4096 + 2 * rng.randint(-128, 127) + 1, 8192) for _ in range(dim))
    start = tuple(Fraction(rng.randint(0, 1)) for _ in range(dim))
    return ContractionSpec(c, dim, r, xstar, start, (1 - c) / 8)


@dataclass(frozen=True)
class MetricSample:
    """Points for the distance-axiom check.

    ``kind`` "norm": the l1 or l-inf distance on ``points``.
    ``kind`` "pair": d(x, y) = p(x) + p(y) + 1 with p(x) = a (x_1 + ... + x_dim) + b
    on the uniform grid with ``side`` points per axis.
    """

    kind: str
    dim: int
    r: str
    points: tuple[tuple[Fraction, ...], ...]
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    side: int = 0


def norm_sample(rng: random.Random, dim: int, count: int, r: str) -> MetricSample:
    """``count`` distinct points of the 1/64 lattice in [0,1]^dim."""
    seen: set = set()
    points = []
    while len(points) < count:
        pt = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(dim))
        if pt not in seen:
            seen.add(pt)
            points.append(pt)
    return MetricSample("norm", dim, r, tuple(points))


def pair_sample(rng: random.Random, dim: int, side: int) -> MetricSample:
    a = Fraction(rng.randint(1, 16), rng.randint(1, 16))
    b = Fraction(rng.randint(0, 16), 16)
    return MetricSample("pair", dim, "1", (), a, b, side)
