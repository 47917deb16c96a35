"""Exact rational vectors and matrices.

Scalars are ``fractions.Fraction`` values; they are kept in canonical form
(positive denominator, gcd-reduced) by the stdlib after every operation, so
equality is structural and nothing ever rounds.  Determinants run through
fraction-free (Bareiss) elimination on row-scaled integer data, which keeps
intermediate growth polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, ParseError

Q = Fraction


def rational(value) -> Fraction:
    """Parse a rational from ``p/q`` or ``p`` text (or pass numbers through)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip().replace("−", "-")  # unicode minus
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def integer(text: str) -> int:
    """Parse a base-10 integer token; anything else is a ParseError.

    The token is ASCII digits after an optional sign: ``int`` alone would
    also take underscores, surrounding whitespace and non-ASCII digits.
    """
    if not (text.isdigit() and text.isascii()):  # unsigned digits, the common case
        unsigned = text[1:] if text[:1] in ("+", "-") else ""
        if not (unsigned.isdigit() and unsigned.isascii()):
            raise ParseError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # longer than int's digit limit
        raise ParseError(f"not an integer: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Emit ``p/q`` or ``p`` exactly; inverse of :func:`rational`."""
    return str(Fraction(x))


def data_lines(text: str) -> list[tuple[int, str]]:
    """Nonblank, comment-stripped lines paired with their 1-based numbers."""
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((num, stripped))
    return out


@dataclass(frozen=True)
class QVector:
    """Immutable fixed-length vector of rationals."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable) -> "QVector":
        return QVector(tuple(rational(v) for v in values))

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector((Q(0),) * n)

    def __hash__(self) -> int:
        # the generated hash over (entries,), computed on first use and kept:
        # circuit memos key on vectors, and each fresh hash runs
        # Fraction.__hash__ over every entry
        try:
            return self._hash
        except AttributeError:
            h = hash((self.entries,))
            object.__setattr__(self, "_hash", h)
            return h

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "QVector") -> "QVector":
        if len(self) != len(other):
            raise DimensionError("vector length mismatch")
        return QVector(tuple(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "QVector") -> "QVector":
        if len(self) != len(other):
            raise DimensionError("vector length mismatch")
        return QVector(tuple(a - b for a, b in zip(self, other)))

    def __str__(self) -> str:
        return " ".join(format_rational(a) for a in self)


@dataclass(frozen=True)
class QMatrix:
    """Immutable matrix of rationals, stored as a tuple of row tuples."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.entries and any(len(r) != len(self.entries[0]) for r in self.entries):
            raise DimensionError("ragged rows")

    @staticmethod
    def of(rows: Iterable[Iterable]) -> "QMatrix":
        return QMatrix(tuple(tuple(rational(v) for v in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def apply(self, v: QVector) -> QVector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise DimensionError("matrix/vector shape mismatch")
        return QVector(tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in self.entries))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QMatrix":
        return QMatrix(tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    def __str__(self) -> str:
        return "\n".join(" ".join(format_rational(a) for a in row) for row in self.entries)


def _scaled_int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and the row scales."""
    out, scales = [], []
    for row in rows:
        scale = math.lcm(*[a.denominator for a in row])
        out.append([a.numerator * (scale // a.denominator) for a in row])
        scales.append(scale)
    return out, scales


def _bareiss_eliminate(aug: list[list[int]], n: int, width: int) -> tuple[int, Optional[int]]:
    """Fraction-free forward elimination in place on ``n x width`` integer rows.

    Returns ``(sign, rank_defect_col)``; the second item is the column at
    which no pivot exists (matrix singular) or None.
    """
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return sign, col
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            sign = -sign
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col]
            row_r, row_c = aug[r], aug[col]
            for c in range(col, width):
                row_r[c] = (row_r[c] * pivot - factor * row_c[c]) // prev
        prev = pivot
    return sign, None


def mat_det(a: QMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not a.is_square:
        raise DimensionError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return Q(1)
    rows, scales = _scaled_int_rows(a.entries)
    sign, defect = _bareiss_eliminate(rows, n, n)
    if defect is not None:
        return Q(0)
    scale_product = 1
    for s in scales:
        scale_product *= s
    return Fraction(sign * rows[n - 1][n - 1], scale_product)


def solve_columns(a: QMatrix, columns: Sequence[Sequence[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Solve ``A x = b`` for several right-hand sides at once.

    Returns the solutions as a list of columns, or None when A is singular.
    """
    if not a.is_square:
        raise DimensionError("solve needs a square matrix")
    n = a.rows
    k = len(columns)
    for b in columns:
        if len(b) != n:
            raise DimensionError("right-hand side length mismatch")
    if n == 0:
        return [[] for _ in range(k)]
    rows, _ = _scaled_int_rows(
        [tuple(a.entries[i]) + tuple(col[i] for col in columns) for i in range(n)]
    )
    _, defect = _bareiss_eliminate(rows, n, n + k)
    if defect is not None:
        return None
    xs: list[list[Fraction]] = [[Q(0)] * n for _ in range(k)]
    for i in reversed(range(n)):
        for j in range(k):
            acc = Fraction(rows[i][n + j])
            for c in range(i + 1, n):
                acc -= rows[i][c] * xs[j][c]
            xs[j][i] = acc / rows[i][i]
    return xs


def solve_linear(a: QMatrix, b: QVector) -> Optional[QVector]:
    """Solve ``A x = b`` exactly; returns None when A is singular."""
    cols = solve_columns(a, [tuple(b)])
    if cols is None:
        return None
    return QVector(tuple(cols[0]))


def principal_minor(m: QMatrix, index_set: Iterable[int]) -> Fraction:
    """Determinant of the principal submatrix on the 1-based indices in ``index_set``."""
    if not m.is_square:
        raise DimensionError("principal minor needs a square matrix")
    idx = sorted(set(index_set))
    if not idx:
        raise DimensionError("index set must be nonempty")
    if idx[0] < 1 or idx[-1] > m.rows:
        raise DimensionError(f"index out of range 1..{m.rows}: {idx}")
    zero_based = [i - 1 for i in idx]
    return mat_det(m.submatrix(zero_based, zero_based))
