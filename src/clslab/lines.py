"""Oracle-based line-following search problems over bit configurations.

Two problem shapes share the successor/predecessor structure: one demands a
potential that strictly increases along the line (solutions R1/R2), the other
an odometer that counts steps exactly (solutions T1/T2/T3).  Oracles are
plain callables, so instances can be backed by explicit truth tables or by
procedures closing over another instance.

Each instance answers ``node(x)``: S(x), P(x) and V(x) at once, as ints,
for the config whose value is x, with the oracle contract checked once.
Tables and the line reductions compute it straight from their integer rows
and case lists; other instances get it from their oracles.

``follow_line``, the classifiers, ``enumerate_solutions``, the line
reductions and ``dump_line_table`` read an instance one checked node per
config, through a ``LineReader`` where answers are shared.  Over integer rows
and case lists, a ``BitConfig`` is built only where a config leaves the
reader: a returned solution and the steps of a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Callable, Iterator, Optional, Union

from .errors import (
    BudgetExceededError,
    DimensionError,
    InvariantViolationError,
    ParseError,
    PreconditionError,
)
from .qlinalg import data_lines, integer


class BitConfig:
    """Immutable fixed-width bit vector, held as one ``(value, width)`` pair.

    ``value`` is the integer the bits spell with bit 0, the first one printed,
    most significant, so ``str`` prints ``value`` in ``width`` binary digits and
    ``split``/``concat`` are shifts and masks.  Inputs are checked where text
    or ints come in (``from_string``, ``from_int``, ``zeros``); the constructor
    trusts its caller to pass ``0 <= value < 2^width``.  Two configs are equal
    when both value and width are, and the hash is computed once.
    """

    __slots__ = ("value", "width", "_hash")

    def __new__(cls, value: int, width: int) -> "BitConfig":
        self = _new_object(cls)
        _set_value(self, value)
        _set_width(self, width)
        _set_hash(self, hash((value, width)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BitConfig is immutable")

    def __delattr__(self, name):
        raise AttributeError("BitConfig is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return BitConfig, (self.value, self.width)

    def __eq__(self, other) -> bool:
        if isinstance(other, BitConfig):
            return self.value == other.value and self.width == other.width
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BitConfig({self.value}, {self.width})"

    def __str__(self) -> str:
        # a 1 above the top bit keeps the leading zeros; drop it with the "0b"
        return bin(self.value | 1 << self.width)[3:]

    @staticmethod
    def zeros(width: int) -> "BitConfig":
        width = index(width)
        if width < 0:
            raise ValueError(f"negative width {width}")
        return BitConfig(0, width)

    @staticmethod
    def from_string(text: str) -> "BitConfig":
        # int(text, 2) alone would also take "_", "+", "-" and whitespace
        if not text or text.strip("01"):
            raise ParseError(f"not a bit string: {text!r}")
        return BitConfig(int(text, 2), len(text))

    @staticmethod
    def from_int(value: int, width: int) -> "BitConfig":
        value, width = index(value), index(width)
        if value < 0 or value >= 1 << width:
            raise ValueError(f"{value} does not fit in {width} bits")
        return BitConfig(value, width)

    def is_zero(self) -> bool:
        return self.value == 0

    def concat(self, other: "BitConfig") -> "BitConfig":
        return BitConfig(self.value << other.width | other.value, self.width + other.width)

    def split(self, k: int) -> tuple["BitConfig", "BitConfig"]:
        """The first k bits and the rest."""
        if not 0 <= k <= self.width:
            raise ValueError(f"cannot split {self.width} bits at {k}")
        low = self.width - k
        return BitConfig(self.value >> low, k), BitConfig(self.value & ((1 << low) - 1), low)


# the constructor fills the slots through their descriptors, past __setattr__
_new_object = object.__new__
_set_value = BitConfig.value.__set__
_set_width = BitConfig.width.__set__
_set_hash = BitConfig._hash.__set__


def all_configs(width: int) -> Iterator[BitConfig]:
    """Every config of the width, in the order of their values."""
    for value in range(1 << width):
        yield BitConfig(value, width)


# Instances compare and hash by identity: the oracles are callables, so two
# separately built instances are distinct even when they agree pointwise.
@dataclass(frozen=True, eq=False)
class EoplInstance:
    """Successor/predecessor/potential oracles; the potential must climb along the line.

    Contract on the oracles: total and deterministic on all n-bit inputs,
    with values of ``v`` integers in [0, 2^m - 1].  ``raw_node``, when given,
    answers ``node`` unchecked; without it ``node`` asks the oracles.
    """

    n: int
    m: int
    s: Callable[[BitConfig], BitConfig]
    p: Callable[[BitConfig], BitConfig]
    v: Callable[[BitConfig], int]
    raw_node: Optional[Callable[[int], tuple[int, int, int]]] = field(default=None, repr=False)

    def _checked(self, x: BitConfig) -> BitConfig:
        if x.width != self.n:
            raise DimensionError(f"config width {x.width}, instance width {self.n}")
        return x

    def S(self, x: BitConfig) -> BitConfig:
        out = self.s(self._checked(x))
        if out.width != self.n:
            raise InvariantViolationError("successor oracle changed the width")
        return out

    def P(self, x: BitConfig) -> BitConfig:
        out = self.p(self._checked(x))
        if out.width != self.n:
            raise InvariantViolationError("predecessor oracle changed the width")
        return out

    def V(self, x: BitConfig) -> int:
        return self._value(self.v(self._checked(x)))

    def _value(self, out: int) -> int:
        # by bit length: 1 << m is as wide as the potentials may be
        if out < 0 or out.bit_length() > self.m:
            raise InvariantViolationError(f"potential {out} outside [0, 2^{self.m})")
        return out

    def node(self, x: int) -> tuple[int, int, int]:
        """S(x), P(x) and V(x) as ints for the config of value x in [0, 2^n).

        The contract is checked once: S and P in [0, 2^n), V in the kind's range.
        """
        n = self.n
        if self.raw_node is None:
            c = BitConfig(x, n)
            s, p, v = _int_of(self.s(c), n), _int_of(self.p(c), n), self.v(c)
        else:
            s, p, v = self.raw_node(x)
        if not 0 <= s < 1 << n:
            raise InvariantViolationError("successor oracle changed the width")
        if not 0 <= p < 1 << n:
            raise InvariantViolationError("predecessor oracle changed the width")
        return s, p, self._value(v)


def _int_of(out: BitConfig, n: int) -> int:
    """An oracle's answer as an int, or -1 when it is not n bits wide."""
    return out.value if out.width == n else -1


@dataclass(frozen=True, eq=False)
class EomlInstance:
    """Line oracles with an exact step odometer in [0, 2^n]."""

    n: int
    s: Callable[[BitConfig], BitConfig]
    p: Callable[[BitConfig], BitConfig]
    v: Callable[[BitConfig], int]
    raw_node: Optional[Callable[[int], tuple[int, int, int]]] = field(default=None, repr=False)

    # the same checked successor, predecessor and node as the potential line's,
    # each under its own name on this class; V and node check the odometer
    _checked, S, P, node = EoplInstance._checked, EoplInstance.S, EoplInstance.P, EoplInstance.node

    def V(self, x: BitConfig) -> int:
        return self._value(self.v(self._checked(x)))

    def _value(self, out: int) -> int:
        if not (0 <= out <= (1 << self.n)):
            raise InvariantViolationError(f"odometer {out} outside [0, 2^{self.n}]")
        return out


LineInstance = Union[EoplInstance, EomlInstance]


@dataclass(frozen=True)
class R1:
    x: BitConfig


@dataclass(frozen=True)
class R2:
    x: BitConfig


@dataclass(frozen=True)
class T1:
    x: BitConfig


@dataclass(frozen=True)
class T2:
    x: BitConfig


@dataclass(frozen=True)
class T3:
    x: BitConfig


EoplSolution = Union[R1, R2]
EomlSolution = Union[T1, T2, T3]
LineSolution = Union[EoplSolution, EomlSolution]
_SOL_TAGS = {"R1": R1, "R2": R2, "T1": T1, "T2": T2, "T3": T3}


class LineReader:
    """A line instance's configs by value, one checked ``node(x)`` each.

    The reader keeps each config's (S, P, V) tuple, so S, P and V of one
    config cost one ``node`` call between them.  The tuples live in one
    ``(anchor, seen)`` pair, and ``at`` replaces the pair whole when the
    anchor moves, so the store stays small.  Every tuple is keyed by the
    config it is about, so threads that share a reader may lose each other's
    tuples but never mix them up.
    """

    __slots__ = ("fetch", "state")

    def __init__(self, inst: LineInstance):
        self.fetch, self.state = inst.node, (-1, {})

    def at(self, u: int) -> None:
        """Anchor the store at u: u's node and its neighbours' carry over."""
        last, seen = self.state
        if last != u:
            got = seen.get(u)
            near = () if got is None else (u, got[0], got[1])
            self.state = (u, {y: seen[y] for y in near if y in seen})

    def node(self, x: int) -> tuple[int, int, int]:
        """S(x), P(x) and V(x): the stored node, or a new one stored."""
        seen = self.state[1]
        got = seen.get(x)
        if got is None:
            got = seen[x] = self.fetch(x)
        return got

    # S, P and V read a stored node inline and fetch only when it is missing
    def S(self, x: int) -> int:
        got = self.state[1].get(x)
        return (self.node(x) if got is None else got)[0]

    def P(self, x: int) -> int:
        got = self.state[1].get(x)
        return (self.node(x) if got is None else got)[1]

    def V(self, x: int) -> int:
        got = self.state[1].get(x)
        return (self.node(x) if got is None else got)[2]


def _broken_end(o: LineReader, x: int) -> bool:
    return (o.S(o.P(x)) != x and x != 0) or o.P(o.S(x)) != x


# The solution predicates, one per tag, on config values.  R1 and T1 are both
# a broken line end; R2 is a potential that fails to climb along a valid edge,
# T2 a second start (odometer 1 at a config other than 0^n), T3 an odometer
# that skips a count.
PREDICATES: dict[str, Callable[[LineReader, int], bool]] = {
    "R1": _broken_end,
    "R2": lambda o, x: x != o.S(x) and o.P(o.S(x)) == x and o.V(o.S(x)) - o.V(x) <= 0,
    "T1": _broken_end,
    "T2": lambda o, x: x != 0 and o.V(x) == 1,
    "T3": lambda o, x: (o.V(x) > 0 and o.V(o.S(x)) - o.V(x) != 1)
    or (o.V(x) > 1 and o.V(x) - o.V(o.P(x)) != 1),
}
EOPL_TAGS = ("R1", "R2")
EOML_TAGS = ("T1", "T2", "T3")


def _tags(inst: LineInstance) -> tuple[str, ...]:
    return EOPL_TAGS if isinstance(inst, EoplInstance) else EOML_TAGS


def tag_holds(inst: LineInstance, tag: str, x: BitConfig) -> bool:
    """Whether x satisfies the solution predicate of ``tag`` on its own."""
    return PREDICATES[tag](LineReader(inst), inst._checked(x).value)


def _classify(reader: LineReader, x: int, tags: tuple[str, ...]) -> Optional[str]:
    """The first tag whose predicate holds at x, or None."""
    for tag in tags:
        if PREDICATES[tag](reader, x):
            return tag
    return None


def _verify(inst: LineInstance, x: BitConfig, tags: tuple[str, ...]) -> Optional[LineSolution]:
    tag = _classify(LineReader(inst), inst._checked(x).value, tags)
    return None if tag is None else _SOL_TAGS[tag](x)


def eopl_verify(inst: EoplInstance, x: BitConfig) -> Optional[EoplSolution]:
    """Classify x as R1 (broken line end) or R2 (potential non-increase), R1 first."""
    return _verify(inst, x, EOPL_TAGS)


def eoml_verify(inst: EomlInstance, x: BitConfig) -> Optional[EomlSolution]:
    """Classify x as T1, T2, or T3, in that priority order."""
    return _verify(inst, x, EOML_TAGS)


def verify_solution(inst: LineInstance, x: BitConfig) -> Optional[LineSolution]:
    if isinstance(inst, EoplInstance):
        return eopl_verify(inst, x)
    return eoml_verify(inst, x)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_instance(inst: LineInstance) -> ValidationReport:
    """Check the start-of-line preconditions at the all-zeros config."""
    zero = BitConfig.zeros(inst.n)
    bad = []
    if inst.P(zero) != zero:
        bad.append(f"P(0^n) = {inst.P(zero)} != 0^n")
    if inst.S(zero) == zero:
        bad.append("S(0^n) = 0^n")
    want = 0 if isinstance(inst, EoplInstance) else 1
    if inst.V(zero) != want:
        bad.append(f"V(0^n) = {inst.V(zero)} != {want}")
    return ValidationReport(not bad, tuple(bad))


TraceStep = tuple[BitConfig, int]


def follow_line(
    inst: LineInstance, max_steps: int
) -> tuple[LineSolution, tuple[TraceStep, ...]]:
    """Walk successors from the all-zeros config until a solution verifies."""
    if max_steps < 1:
        raise PreconditionError("max_steps must be at least 1")
    tags = _tags(inst)
    reader = LineReader(inst)
    n, x = inst.n, 0
    trace: list[TraceStep] = [(BitConfig.zeros(n), reader.V(x))]
    steps = 0
    while True:
        tag = _classify(reader, x, tags)
        if tag is not None:
            return _SOL_TAGS[tag](trace[-1][0]), tuple(trace)
        if steps == max_steps:
            raise BudgetExceededError(
                f"no solution within {max_steps} steps", trace=tuple(trace)
            )
        x = reader.S(x)
        steps += 1
        # the classifier's nodes of the new x and its neighbours carry over
        reader.at(x)
        trace.append((BitConfig(x, n), reader.V(x)))


def enumerate_solutions(inst: LineInstance) -> list[LineSolution]:
    """Classify every config by the verifier; refuses instances over 20 bits wide."""
    if inst.n > 20:
        raise PreconditionError(f"instance width {inst.n} exceeds limit 20")
    tags = _tags(inst)
    reader = LineReader(inst)
    out = []
    for x in range(1 << inst.n):
        reader.at(x)
        tag = _classify(reader, x, tags)
        if tag is not None:
            out.append(_SOL_TAGS[tag](BitConfig(x, inst.n)))
    return out


# ----------------------------------------------------------------------------
# truth-table construction and file format


class _Rows:
    """A table's value-indexed S, P and V rows, read as its instance's oracles.

    One object with bound methods: a closure per oracle would cost its
    instance more allocated blocks, and a memo of instances keeps them all.
    """

    __slots__ = ("n", "succ", "pred", "val")

    def __init__(self, n: int, succ: list[int], pred: list[int], val: list[int]):
        self.n, self.succ, self.pred, self.val = n, succ, pred, val

    def s(self, x: BitConfig) -> BitConfig:
        return BitConfig(self.succ[x.value], self.n)

    def p(self, x: BitConfig) -> BitConfig:
        return BitConfig(self.pred[x.value], self.n)

    def v(self, x: BitConfig) -> int:
        return self.val[x.value]

    def node(self, x: int) -> tuple[int, int, int]:
        return self.succ[x], self.pred[x], self.val[x]


def _lists_instance(
    kind: str, n: int, m: Optional[int], succ: list[int], pred: list[int], val: list[int]
) -> LineInstance:
    """An instance over value-indexed rows, already checked against the contract."""
    rows = _Rows(n, succ, pred, val)
    oracles = dict(s=rows.s, p=rows.p, v=rows.v, raw_node=rows.node)
    if kind == "EOPL":
        return EoplInstance(n=n, m=m, **oracles)
    return EomlInstance(n=n, **oracles)


def table_instance(
    kind: str, n: int, s: dict, p: dict, v: dict, m: Optional[int] = None
) -> LineInstance:
    """Build an instance from explicit per-config maps.

    The keys must be exactly the n-bit configs, S and P n bits wide and V in
    the kind's range; anything else is a DimensionError here rather than at
    the first oracle call.
    """
    configs = list(all_configs(n))
    if any(len(t) != len(configs) or not all(x in t for x in configs) for t in (s, p, v)):
        raise DimensionError(f"truth tables must cover exactly the {n}-bit configs")
    if kind == "EOPL" and m is None:
        raise DimensionError("potential bit width m required")
    if kind not in ("EOPL", "EOML"):
        raise ParseError(f"unknown instance kind {kind!r}")
    top = 1 << m if kind == "EOPL" else (1 << n) + 1
    if any(s[x].width != n or p[x].width != n or not 0 <= v[x] < top for x in configs):
        raise DimensionError(f"S and P must be {n} bits wide and V in [0, {top})")
    succ, pred = [s[x].value for x in configs], [p[x].value for x in configs]
    return _lists_instance(kind, n, m, succ, pred, [v[x] for x in configs])


# The widest potential a table may declare, in bits, and the widest layer a
# CLI descriptor may build: following a line allocates integers that wide.
MAX_WIDTH = 1 << 16


def load_line_table(text: str) -> LineInstance:
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
    if m is not None and m > MAX_WIDTH:
        raise ParseError(f"potential width {m} is over the limit {MAX_WIDTH}")
    if len(lines) - 1 != 1 << n:
        raise ParseError(f"expected {1 << n} table rows, got {len(lines) - 1}")
    # the oracles' contract, checked once per row: n-bit S and P, V in [0, top);
    # V stays -1 until its row is read, which marks a repeated config
    top = 1 << m if kind == "EOPL" else (1 << n) + 1
    succ, pred, val = [0] * (1 << n), [0] * (1 << n), [-1] * (1 << n)
    for num, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ParseError(f"line {num}: bad table row {ln!r}")
        tx, ts, tp, tv = parts
        if len(tx) != n or len(ts) != n or len(tp) != n or (tx + ts + tp).strip("01"):
            for token in parts[:3]:  # bad text first, in row order, then widths
                BitConfig.from_string(token)
            if len(tx) != n:
                raise ParseError(f"line {num}: row width mismatch")
            raise ParseError(f"line {num}: successor or predecessor is not {n} bits wide")
        x = int(tx, 2)
        if val[x] >= 0:
            raise ParseError(f"line {num}: config {tx} is listed twice")
        vx = integer(tv)
        if not 0 <= vx < top:
            raise ParseError(f"line {num}: value {vx} outside [0, {top})")
        succ[x], pred[x], val[x] = int(ts, 2), int(tp, 2), vx
    return _lists_instance(kind, n, m, succ, pred, val)


def dump_line_table(inst: LineInstance) -> str:
    """Serialize any instance with n <= 16 as an explicit truth table."""
    n = inst.n
    if n > 16:
        raise PreconditionError("truth-table form is limited to 16-bit configs")
    if isinstance(inst, EoplInstance):
        lines = [f"EOPL {n} {inst.m}"]
    else:
        lines = [f"EOML {n}"]
    # each config's text at the table width, as BitConfig prints it, by value
    names = [bin(x | 1 << n)[3:] for x in range(1 << n)]
    node = inst.node
    for x, name in enumerate(names):
        s, p, v = node(x)
        lines.append(f"{name} {names[s]} {names[p]} {v}")
    return "\n".join(lines) + "\n"


def format_line_solution(sol: LineSolution) -> str:
    return f"{type(sol).__name__} {sol.x}"


def parse_line_solution(line: str) -> LineSolution:
    parts = line.split()
    if len(parts) != 2 or parts[0] not in _SOL_TAGS:
        raise ParseError(f"bad solution line: {line!r}")
    return _SOL_TAGS[parts[0]](BitConfig.from_string(parts[1]))
