"""Spans around calls into clslab's layers, recorded from the benchmark's side.

The traced run replaces public module attributes that the calling layer looks
up at call time (``clslab.lcp.solve_columns``, ``EoplInstance.S``,
``clslab.cli.main`` ...) with wrappers that open a span, call the original
and close the span; :meth:`Tracer.restore` puts every original back.

A span has a name, start, end, parent and item id.  Self time is a span's
duration minus the time its child spans cover; it is accumulated online, so
memory stays bounded however many calls a run makes.  The first
``keep`` span records stay in memory and are written out when the run ends.
Work done by counting hooks runs inside ``harness.probe`` spans, so the self
times of all spans, harness included, add up to the time of the traced
items (each item is a root ``harness.item`` span).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

ITEM = "harness.item"
PROBE = "harness.probe"


def _max_bits(values) -> int:
    out = 0
    for v in values:
        out = max(out, v.numerator.bit_length(), v.denominator.bit_length())
    return out


# --- counting hooks: hook(tracer, args, result, exc) ---------------------------


def _on_solve(t, args, result, exc):
    t.bump("qlinalg.solve.size_max", args[0].rows, op=max)
    if result is not None:
        t.bump("qlinalg.solve.bits_max", max((_max_bits(col) for col in result), default=0), op=max)


def _on_lemke(t, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "DegeneracyError":
            t.bump("lcp.degenerate", 1)
        return
    t.bump("lcp.pivots", len(result.trace) - 1 if result.trace else 0)


def _on_follow(t, args, result, exc):
    trace = result[1] if exc is None else getattr(exc, "trace", ())
    t.bump("lines.steps", max(len(trace) - 1, 0))


def _on_load_table(t, args, result, exc):
    if result is not None:
        t.bump("lines.table.rows", 1 << result.n)


def _on_dump_table(t, args, result, exc):
    if result is not None:
        t.bump("lines.table.rows", 1 << args[0].n)


def _on_eval(t, args, result, exc):
    t.bump("circuits.gates_evaluated", len(args[0].gates))
    if result is not None:
        t.bump("circuits.bits_max", _max_bits(result), op=max)


def _on_iterate(t, args, result, exc):
    trace = result[1] if exc is None else getattr(exc, "trace", ())
    t.bump("circuits.iterations", max(len(trace) - 1, 0))


def _on_metametric(t, args, result, exc):
    n = len(args[1])
    t.bump("circuits.metametric.points", n)
    t.bump("circuits.gates_evaluated", n * n * len(args[0].gates))


def _on_cli(t, args, result, exc):
    t.bump("cli.commands", 1)
    if exc is not None or result != 0:
        t.bump("cli.exit_nonzero", 1)


_RED = "clslab.reductions"
_LINE = "clslab.reductions.lcp_line"
_RLINES = "clslab.reductions.lines"
_RCON = "clslab.reductions.contraction"

# span name -> (module, attribute) pairs to wrap, and the counting hook.
# Every namespace that looks the name up at call time is listed.
WRAPS: dict[str, tuple[list[tuple[str, str]], object]] = {
    "qlinalg.solve": ([("clslab.lcp", "solve_columns")], _on_solve),
    "qlinalg.minor": ([("clslab.lcp", "principal_minor"), (_LINE, "principal_minor")], None),
    "lcp.solve": ([("clslab.lcp", "lemke_solve")], _on_lemke),
    "lcp.verify": ([("clslab.lcp", "verify_lcp_solution"), (_LINE, "verify_lcp_solution")], None),
    "lines.oracle": (
        [("clslab.lines", f"{cls}.{op}") for cls in ("EoplInstance", "EomlInstance") for op in "SPV"],
        None,
    ),
    "lines.verify": (
        [
            ("clslab.lines", "eopl_verify"),
            ("clslab.lines", "eoml_verify"),
            (_RLINES, "eopl_verify"),
            (_RLINES, "eoml_verify"),
            (_LINE, "eopl_verify"),
        ],
        None,
    ),
    "lines.follow": ([("clslab.lines", "follow_line")], _on_follow),
    "lines.table.load": ([("clslab.lines", "load_line_table")], _on_load_table),
    "lines.table.dump": ([("clslab.lines", "dump_line_table")], _on_dump_table),
    "reductions.build": (
        [(_RED, n) for n in ("plcp_to_eopl", "eoml_to_eopl", "eopl_to_eoml", "contraction_to_clo", "gc_to_clo", "clo_to_mmc")]
        + [(_LINE, "plcp_to_eopl"), (_LINE, "make_context"), (_RLINES, "eoml_to_eopl"), (_RLINES, "eopl_to_eoml")]
        + [(_RCON, n) for n in ("contraction_to_clo", "gc_to_clo", "clo_to_mmc")],
        None,
    ),
    "reductions.oracle": (
        [(_LINE, n) for n in ("successor", "predecessor", "potential", "is_valid_config")],
        None,
    ),
    "reductions.backmap": (
        [
            (_RED, n)
            for n in (
                "eopl_sol_to_plcp",
                "eopl_sol_to_eoml",
                "eoml_sol_to_eopl",
                "clo_sol_to_contraction",
                "clo_sol_to_gc",
                "mmc_sol_to_clo",
            )
        ]
        + [(_LINE, "eopl_sol_to_plcp")],
        None,
    ),
    "circuits.eval": ([("clslab.circuits", "circuit_eval"), (_RCON, "circuit_eval")], _on_eval),
    "circuits.verify": (
        [("clslab.circuits", n) for n in ("clo_verify", "contraction_verify", "mmc_verify")]
        + [(_RCON, n) for n in ("clo_verify", "contraction_verify", "mmc_verify")],
        None,
    ),
    "circuits.iterate": (
        [("clslab.circuits", "fixpoint_iterate"), ("clslab.circuits", "clo_solve_iterate")],
        _on_iterate,
    ),
    "circuits.metametric": ([("clslab.circuits", "check_metametric")], _on_metametric),
    "cli": ([("clslab.cli", "main")], _on_cli),
}


def _resolve(module: str, attr: str):
    """(owner, name) for ``module`` + ``attr`` (``Class.method`` allowed), or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Tracer:
    """Online span aggregation plus a bounded record of the first spans."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.records: list[list] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.item = -1
        self._stack: list[list] = []  # [name, start, child time, record index]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: dict[str, list[str]] = {}

    # spans

    def _open(self, name: str) -> None:
        start = perf_counter()
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.records) < self.keep:
            self.records.append([name, start, start, parent, self.item])
            index = len(self.records) - 1
        else:
            self.dropped += 1
            index = -1
        self._stack.append([name, start, 0.0, index])

    def _close(self) -> None:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            self.records[index][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def bump(self, key: str, value, op=None) -> None:
        if op is None:
            self.counters[key] = self.counters.get(key, 0) + value
        else:
            self.counters[key] = op(self.counters.get(key, value), value)

    def _probe(self, hook, args, result, exc) -> None:
        with self.span(PROBE):
            hook(self, args, result, exc)

    # wrapping

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close()
                if hook is not None:
                    tracer._probe(hook, args, None, exc)
                raise
            tracer._close()
            if hook is not None:
                tracer._probe(hook, args, result, None)
            return result

        return traced

    def install(self, wraps=WRAPS) -> None:
        """Wrap every listed attribute that exists; note the ones that do not."""
        for name, (targets, hook) in wraps.items():
            for module, attr in targets:
                found = _resolve(module, attr)
                if found is None:
                    self.missing.setdefault(name, []).append(f"{module}.{attr}")
                    continue
                owner, key = found
                original = vars(owner)[key]
                self._saved.append((owner, key, original))
                setattr(owner, key, self.wrap(name, original, hook))

    def restore(self) -> None:
        """Put every original attribute back, last wrapped first."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def absent(self, name: str) -> str | None:
        """Why a span's metrics are absent: every target of ``name`` is gone."""
        targets = WRAPS[name][0]
        gone = self.missing.get(name, [])
        if gone and len(gone) == len(targets):
            return "not found in clslab: " + ", ".join(gone)
        return None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item"],
                    "dropped": self.dropped,
                    "spans": self.records,
                },
                fh,
            )


def self_times(records) -> dict[str, float]:
    """Self time per span name from full records (name, start, end, parent, item).

    The online aggregation in :class:`Tracer` computes the same sums; this
    form works on written-out spans and is what the self-tests check.
    """
    child = [0.0] * len(records)
    for _, start, end, parent, _ in records:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(records):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out
