"""The four benchmark workloads: item schedules, set-up and checked items.

A workload is a fixed *round* of item classes, interleaved evenly, that
repeats for as long as a run lasts.  The seed changes the instances, never
the classes, so percentiles land on the same classes on every seed.  Each
round is built so that the median and the 90th percentile fall inside a
block of one class, or of classes of like cost:

* ~30% small items, ~27% one class around the median, ~15% between,
  ~24% one class around p90, and ~4% rare heavy items above p90.

Every call into clslab goes through a module attribute (``lab.lcp.lemke_solve``,
``lab.cli.main``), so a traced run sees it.  Each item checks its own
outputs; a failed check raises :class:`ItemFailure`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import gen


# redraws allowed when a generated instance equals an earlier one by value
MAX_DRAWS = 100


class ItemFailure(Exception):
    """An item's output failed a check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise ItemFailure(message)


@dataclass
class Outcome:
    """What one item produced: canonical text for the digest, plus counters."""

    summary: str
    stdout_bytes: int = 0
    pivots: int | None = None
    iterations: int | None = None


@dataclass
class Item:
    index: int
    cls: str
    spec: object
    key: str
    data: dict = field(default_factory=dict)


class Lab:
    """The clslab modules, looked up by attribute at call time."""

    def __init__(self):
        import clslab.circuits
        import clslab.cli
        import clslab.lcp
        import clslab.lines
        import clslab.qlinalg
        import clslab.reductions

        self.circuits = clslab.circuits
        self.cli = clslab.cli
        self.lcp = clslab.lcp
        self.lines = clslab.lines
        self.qlinalg = clslab.qlinalg
        self.reductions = clslab.reductions

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def lcp_instance(self, data: gen.LcpData):
        q = self.qlinalg
        return self.lcp.LcpInstance(q.QMatrix.of(data.rows), q.QVector.of(data.q))


def interleave(counts: list[tuple[str, int]]) -> list[str]:
    """Spread each class evenly over the round, in a seed-independent order."""
    slots = []
    for order, (cls, count) in enumerate(counts):
        for j in range(count):
            slots.append(((j + 0.5) / count, order, cls))
    return [cls for _, _, cls in sorted(slots)]


def hadamard_bits(data: gen.LcpData) -> int:
    """Bit-length bound for the (2d+1)-square tight system and its right-hand sides.

    Rows are the equality rows [-M | I | -1 | q | e_i] scaled to integers, as
    the solver scales them; unit rows have norm 1.  Every determinant of a
    square selection of these columns, and so every numerator and
    denominator a solve returns, is at most the product of the row norms.
    """
    total = 0.0
    for i, row in enumerate(data.rows):
        scale = data.q[i].denominator
        norm2 = sum((a * scale) ** 2 for a in row) + 3 * scale * scale
        norm2 += data.q[i].numerator ** 2
        total += math.log2(norm2) / 2
    return math.ceil(total)


# ----------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    round: list[str] = []
    # classes run once per set-up repetition as warm-up, on a disjoint seed
    warm: list[str] = []

    def __init__(self, lab: Lab):
        self.lab = lab
        self.seen: set[str] = set()  # keys of every item generated so far

    def make(self, rng, cls: str):
        raise NotImplementedError

    def key(self, spec) -> str:
        return repr(spec)

    def prepare(self, item: Item) -> None:
        """Set-up work for one item: build library objects, write files."""

    def run(self, item: Item) -> Outcome:
        raise NotImplementedError

    def path(self, item: Item, suffix: str) -> str:
        """A file name for the item, relative to the run's working directory."""
        return f"{item.cls}-{item.index}.{suffix}"

    def generate(self, seed, stream: str, classes: list[str], start: int = 0) -> list[Item]:
        """Items for ``classes``, distinct by value from each other and from ``seen``."""
        items = []
        for offset, cls in enumerate(classes):
            index = start + offset
            rng = gen.item_rng(self.name, seed, stream, index)
            for _ in range(MAX_DRAWS):
                spec = self.make(rng, cls)
                key = self.key(spec)
                if key not in self.seen:
                    break
            else:
                raise RuntimeError(f"{self.name}: no new distinct {cls} instance in {MAX_DRAWS} draws")
            self.seen.add(key)
            item = Item(index, cls, spec, key)
            self.prepare(item)
            items.append(item)
        return items


# ----------------------------------------------------------------------------


class LcpDirect(Workload):
    name = "lcp-direct"
    why = (
        "exact pivoting alone: plain and lexicographic lemke_solve on P-matrix LCPs, "
        "d = 4-32; bypasses memos, lines, circuits and the CLI"
    )
    round = interleave(
        [("dd4", 5), ("dd5", 5), ("dd6", 5), ("dd7", 5), ("dd8", 6), ("lp5", 6),
         ("dd11", 27),
         ("lp6", 2), ("dd12", 3), ("lp7", 2), ("lp8", 2), ("lp9", 1), ("lp10", 1),
         ("dd17", 27),
         ("lp11", 1), ("dd24", 2), ("dd28", 1), ("dd32", 1)]
    )
    warm = ["dd4", "lp5", "dd8"]

    def make(self, rng, cls):
        d = int(cls[2:])
        return (gen.dd_lcp if cls.startswith("dd") else gen.long_path_lcp)(rng, d)

    def key(self, spec):
        return spec.text()

    def prepare(self, item):
        item.data["inst"] = self.lab.lcp_instance(item.spec)
        item.data["hadamard_bits"] = hadamard_bits(item.spec)

    def run(self, item):
        lcp = self.lab.lcp
        inst = item.data["inst"]
        plain = lcp.lemke_solve(inst)
        lex = lcp.lemke_solve(inst, lexicographic=True)
        for result in (plain, lex):
            check(isinstance(result.outcome, lcp.Q1), f"P-matrix instance gave {result.outcome}")
            check(lcp.verify_lcp_solution(inst, result.outcome.y).ok, "solution does not verify")
        check(plain.outcome.y == lex.outcome.y, "plain and lexicographic solutions differ")
        p1, p2 = len(plain.trace) - 1, len(lex.trace) - 1
        return Outcome(f"{lcp.format_outcome(plain.outcome)} pivots={p1},{p2}", pivots=p1 + p2)


class PlcpPipeline(Workload):
    name = "plcp-pipeline"
    why = (
        "the same pivoting as memoised line oracles: CLI pipeline plcp (reduce, follow, "
        "back-map, cross-check) on P and non-P LCPs; memos grow across instances"
    )
    round = interleave(
        [("nonp4", 5), ("nonp5", 5), ("nonp6", 5), ("nonp7", 5), ("nonp8", 5), ("dd6", 7),
         ("dd8", 22), ("lp5", 5),
         ("lp6", 5), ("dd10", 6),
         ("dd12", 14), ("lp7", 13),
         ("lp8", 1), ("lp9", 1), ("lp10", 1), ("lp11", 1)]
    )
    warm = ["nonp4", "lp5", "dd6"]

    def make(self, rng, cls):
        family, d = cls.rstrip("0123456789"), int(cls.lstrip("abcdefghijklmnopqrstuvwxyz"))
        return {"dd": gen.dd_lcp, "lp": gen.long_path_lcp, "nonp": gen.nonp_lcp}[family](rng, d)

    def key(self, spec):
        return spec.text()

    def prepare(self, item):
        item.data["inst"] = self.lab.lcp_instance(item.spec)
        item.data["hadamard_bits"] = hadamard_bits(item.spec)
        item.data["file"] = self.path(item, "lcp")
        with open(item.data["file"], "w") as fh:
            fh.write(item.spec.text())

    def run(self, item):
        lab, lcp = self.lab, self.lab.lcp
        inst = item.data["inst"]
        code, out = lab.run_cli(["pipeline", "plcp", item.data["file"]])
        check(code == 0, f"pipeline exited {code}")
        lines = out.splitlines()
        check(len(lines) >= 4, f"short pipeline output: {out!r}")
        check(lines[0].startswith("direct:  ") and lines[1].startswith("reduced: "), "missing outcome lines")
        direct = lcp.parse_outcome(lines[0].split(":", 1)[1])
        reduced = lcp.parse_outcome(lines[1].split(":", 1)[1])
        want = lcp.Q2 if item.spec.family == "nonp" else lcp.Q1
        for outcome in (direct, reduced):
            check(isinstance(outcome, want), f"{item.spec.family} instance gave {outcome}")
            if want is lcp.Q1:
                check(lcp.verify_lcp_solution(inst, outcome.y).ok, "solution does not verify")
            else:
                minor = lcp.principal_minor(inst.m, outcome.index_set)
                check(minor == outcome.minor and minor <= 0, "Q2 minor does not re-verify")
        if want is lcp.Q1:
            check(direct.y == reduced.y, "direct and reduced solutions differ")
            check(lines[2] == "agreement: exact", lines[2])
        else:
            check(lines[2] == "agreement: both witnesses verified", lines[2])
        check("CERTIFICATE" in lines[3:] and "verdict: pass" in lines[3:], "no certificate")
        return Outcome(out, stdout_bytes=len(out.encode()))


class LineTables(Workload):
    name = "line-tables"
    why = (
        "truth-table lines: CLI reduce to a table file, CLI follow, library back-map, CLI "
        "verify; the only workload for reductions.lines and table I/O, no rationals"
    )
    round = interleave(
        [("eoml6", 10), ("eoml6c", 10), ("eoml7", 10), ("eoml7c", 8), ("eoml8c", 4),
         ("eoml8", 30),
         ("eopl6x6", 22),
         ("eopl6x7", 1), ("eopl7x6", 1)]
    )
    warm = ["eoml6c", "eoml8", "eopl6x6"]

    def make(self, rng, cls):
        if cls.startswith("eoml"):
            return gen.eoml_table(rng, int(cls[4]), cls.endswith("c"))
        n, m = cls[4:].split("x")
        return gen.eopl_table(rng, int(n), int(m))

    def key(self, spec):
        return spec.text

    def prepare(self, item):
        item.data["src"] = self.path(item, "src")
        with open(item.data["src"], "w") as fh:
            fh.write(item.spec.text)

    def run(self, item):
        lab, lines, red = self.lab, self.lab.lines, self.lab.reductions
        spec = item.spec
        src, tgt, sol_file = item.data["src"], self.path(item, "tgt"), self.path(item, "sol")
        stdout = 0
        code, out = lab.run_cli(["reduce", spec.reduce_kind, src, "-o", tgt])
        stdout += len(out.encode())
        check(code == 0 and out == f"wrote {tgt}\n", f"reduce exited {code}: {out!r}")
        code, followed = lab.run_cli(["follow", tgt])
        stdout += len(followed.encode())
        check(code == 0, f"follow exited {code}")
        found = lines.parse_line_solution(followed.strip())
        source = lines.load_line_table(spec.text)
        if spec.kind == "EOPL":
            check(type(found).__name__ in ("T1", "T2", "T3"), f"metered target gave {found}")
            back = red.eoml_sol_to_eopl(source, found.x)
            again = lines.eopl_verify(source, back.x)
        else:
            check(type(found).__name__ in ("R1", "R2"), f"potential target gave {found}")
            back = red.eopl_sol_to_eoml(source, found.x)
            again = lines.eoml_verify(source, back.x)
        tag = type(back).__name__
        check((tag, str(back.x)) in spec.solutions, f"back-map {tag} {back.x} is not a source solution")
        check(again is not None and type(again).__name__ == tag, "back-map does not re-classify")
        with open(sol_file, "w") as fh:
            fh.write(lines.format_line_solution(back) + "\n")
        code, verdict = lab.run_cli(["verify", spec.kind.lower(), src, sol_file])
        stdout += len(verdict.encode())
        check(code == 0 and "holds" in verdict, f"verify exited {code}: {verdict!r}")
        for path in (tgt, sol_file):
            os.remove(path)
        return Outcome(out + followed + verdict, stdout_bytes=stdout)


class Circuits(Workload):
    name = "circuits"
    why = (
        "exact circuit work only: slow contractions solved directly and through three "
        "reductions with back-maps, plus distance-axiom checks on point grids"
    )
    round = interleave(
        [("cm8d1", 8), ("pair3", 8), ("cm16d1", 8), ("cm16d2", 8),
         ("cm8d3", 27),
         ("norm2x30", 11),
         ("cm16d3", 27),
         ("cm32d3", 1), ("cm64d2", 1), ("pair5", 1), ("norm3x64", 1)]
    )
    warm = ["cm8d1", "pair3", "norm2x30"]
    budget = 4096

    def make(self, rng, cls):
        if cls.startswith("cm"):
            c, dim = cls[2:].split("d")
            den = int(c)
            return gen.contraction_spec(rng, Fraction(den - 1, den), int(dim), "1" if int(dim) != 2 else "inf")
        if cls.startswith("pair"):
            return gen.pair_sample(rng, 3, int(cls[4:]))
        dim, count = cls[4:].split("x")
        return gen.norm_sample(rng, int(dim), int(count), "1" if rng.random() < 0.5 else "inf")

    def prepare(self, item):
        lab, circuits, q = self.lab, self.lab.circuits, self.lab.qlinalg
        spec = item.spec
        norm = 1 if spec.r == "1" else circuits.INF
        if isinstance(spec, gen.ContractionSpec):
            b = circuits.CircuitBuilder(spec.dim)
            c = b.const(spec.c)
            outs = [b.add(b.mul(i, c), b.const((1 - spec.c) * spec.xstar[i])) for i in range(spec.dim)]
            f = b.build(outs)
            item.data["plain"] = circuits.ContractionInstance(
                f=f, r=norm, eps=Fraction(1, 4), c=spec.c, delta=spec.delta, dim=spec.dim
            )
            item.data["metric"] = circuits.MmcInstance(
                f=f, d=circuits.norm_distance_circuit(spec.dim, norm), r=norm, eps=spec.delta,
                c=spec.c, delta_d=Fraction(1), lam=Fraction(1), dim=spec.dim,
            )
            item.data["start"] = q.QVector(spec.start)
        elif spec.kind == "norm":
            item.data["d"] = circuits.norm_distance_circuit(spec.dim, norm)
            item.data["points"] = [q.QVector(p) for p in spec.points]
        else:
            b = circuits.CircuitBuilder(2 * spec.dim)
            a, shift, one = b.const(spec.a), b.const(spec.b), b.const(1)
            px = b.add(b.mul(b.sum(list(range(spec.dim))), a), shift)
            py = b.add(b.mul(b.sum(list(range(spec.dim, 2 * spec.dim))), a), shift)
            item.data["d"] = b.build([b.add(b.add(px, py), one)])
            item.data["points"] = circuits.unit_grid(spec.dim, spec.side)

    def run(self, item):
        if isinstance(item.spec, gen.ContractionSpec):
            return self._contraction(item)
        found = self.lab.circuits.check_metametric(item.data["d"], item.data["points"])
        check(found is None, f"a metric failed the axiom check: {found}")
        return Outcome(f"metric ok n={len(item.data['points'])}")

    def _contraction(self, item):
        circuits, red = self.lab.circuits, self.lab.reductions
        spec, plain, metric, start = item.spec, item.data["plain"], item.data["metric"], item.data["start"]
        fmt = self.lab.qlinalg.format_rational
        iterations = 0
        answers = []

        def near_fixpoint(x, route):
            check(spec.gap(x) <= spec.delta, f"{route}: |f(x) - x| > delta at {x}")
            answers.append(" ".join(fmt(a) for a in x))

        sol, trace = circuits.fixpoint_iterate(plain, start, budget=self.budget)
        iterations += len(trace) - 1
        check(isinstance(sol, circuits.CM1) and circuits.contraction_verify(plain, sol).ok, f"direct: {sol}")
        near_fixpoint(sol.x, "direct")

        clo = red.contraction_to_clo(plain)
        stall, trace = circuits.clo_solve_iterate(clo, start)
        iterations += len(trace) - 1
        back = red.clo_sol_to_contraction(plain, stall)
        check(isinstance(back, circuits.CM1) and circuits.contraction_verify(plain, back).ok, f"via clo: {back}")
        near_fixpoint(back.x, "contraction-clo")

        sol, trace = circuits.fixpoint_iterate(metric, start, budget=self.budget)
        iterations += len(trace) - 1
        check(isinstance(sol, circuits.M1) and circuits.mmc_verify(metric, sol).ok, f"metric direct: {sol}")
        near_fixpoint(sol.x, "metric direct")
        stall, trace = circuits.clo_solve_iterate(red.gc_to_clo(metric), start)
        iterations += len(trace) - 1
        back = red.clo_sol_to_gc(metric, stall)
        check(isinstance(back, circuits.M1) and circuits.mmc_verify(metric, back).ok, f"via gc-clo: {back}")
        near_fixpoint(back.x, "gc-clo")

        target = red.clo_to_mmc(clo)
        sol, trace = circuits.fixpoint_iterate(target, start, budget=self.budget)
        iterations += len(trace) - 1
        back = red.mmc_sol_to_clo(clo, sol)
        check(isinstance(back, circuits.C1) and circuits.clo_verify(clo, back).ok, f"via clo-mmc: {back}")
        # C1 on p = |f(x) - x| means c p(x) >= p(x) - (1 - c) delta, i.e. p(x) <= delta
        near_fixpoint(back.x, "clo-mmc")
        return Outcome(f"{type(sol).__name__} iterations={iterations} " + " | ".join(answers), iterations=iterations)


WORKLOADS = {w.name: w for w in (LcpDirect, PlcpPipeline, LineTables, Circuits)}
