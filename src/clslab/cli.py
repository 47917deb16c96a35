"""Command-line front end.

Exit codes are a total function of outcomes: 0 success, 1 verification
failure, 2 degeneracy, 3 internal invariant violation, 4 usage, parse or
shape error.  A trace prints when its walk returns: all of it on completion,
the prefix walked when a budget runs out, and none of it on an interrupt.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional

from . import circuits, lcp, lines, reductions
from .errors import (
    EXIT_DEGENERATE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    BudgetExceededError,
    ClslabError,
    DegeneracyError,
    DimensionError,
    InvariantViolationError,
    ParseError,
    PreconditionError,
)

# reduce kind -> (the source type it takes, the source's name in errors, its
# transformer's name in clslab.reductions).  The transformer is looked up on
# each call, so a wrapper put on clslab.reductions after import sees the call.
REDUCTIONS = {
    "plcp-eopl": (lcp.LcpInstance, "P-LCP", "plcp_to_eopl"),
    "eoml-eopl": (lines.EomlInstance, "metered-line", "eoml_to_eopl"),
    "eopl-eoml": (lines.EoplInstance, "potential-line", "eopl_to_eoml"),
    "gc-clo": (circuits.MmcInstance, "contraction-with-distance", "gc_to_clo"),
    "clo-mmc": (circuits.CloInstance, "local-opt", "clo_to_mmc"),
    "mmc-gc": (circuits.MmcInstance, "contraction-with-distance", "mmc_to_gc"),
    "contraction-clo": (circuits.ContractionInstance, "plain contraction", "contraction_to_clo"),
}

# verify problem -> (the instance type it takes, its solution tags)
VERIFY = {
    "lcp": (lcp.LcpInstance, ("Q1", "Q2")),
    "eopl": (lines.EoplInstance, lines.EOPL_TAGS),
    "eoml": (lines.EomlInstance, lines.EOML_TAGS),
    "clo": (circuits.CloInstance, ("C1", "C2a", "C2b")),
    "contraction": (circuits.ContractionInstance, ("CM1", "CM2")),
    "mmc": (circuits.MmcInstance, ("M1", "M2a", "M2b", "M2c", "MMVIOL")),
}

_LINE_TYPES = (lines.EoplInstance, lines.EomlInstance)
_DESCRIPTOR_HEAD = re.compile(r"\s*(PROCEDURAL(?!\S).*)(\n?)")

# The widest layer a descriptor may build, in bits (n, plus m for EOPL).  Each
# eoml-eopl / eopl-eoml pair about doubles the width.
MAX_DESCRIPTOR_WIDTH = lines.MAX_WIDTH


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _width(inst) -> int:
    """A line instance's config bits, plus its potential bits for EOPL."""
    return inst.n + (inst.m if isinstance(inst, lines.EoplInstance) else 0)


def _reduce(kind: str, source):
    """Run ``kind``'s transformer on ``source`` once its type is the one ``kind`` takes.

    A line target wider than ``MAX_DESCRIPTOR_WIDTH`` is refused, so ``reduce``
    writes no descriptor that a later load would refuse.
    """
    source_type, name, transformer = REDUCTIONS[kind]
    if not isinstance(source, source_type):
        raise ParseError(f"{kind} needs a {name} source")
    target = getattr(reductions, transformer)(source)
    width = _width(target) if isinstance(target, _LINE_TYPES) else 0
    if width > MAX_DESCRIPTOR_WIDTH:
        raise ParseError(f"descriptor layer {kind} is {width} bits wide, over the limit {MAX_DESCRIPTOR_WIDTH}")
    return target


def _load_line_instance(text: str):
    """Truth-table instance, or procedural descriptors wrapping a source file.

    Each ``PROCEDURAL <kind>`` header wraps the rest of the file.  The headers
    are peeled in a loop, then the layers reduce innermost first.
    """
    kinds, pos = [], 0
    while head := _DESCRIPTOR_HEAD.match(text, pos):
        if not head[2]:
            raise ParseError("procedural descriptor missing its source instance")
        kind = head[1].split()
        if len(kind) != 2 or kind[1] not in ("plcp-eopl", "eoml-eopl", "eopl-eoml"):
            raise ParseError(f"bad procedural header: {head[1]!r}")
        kinds.append(kind[1])
        pos = head.end()
    load = lcp.load_lcp if kinds[-1:] == ["plcp-eopl"] else lines.load_line_table
    source = load(text[pos:])
    for kind in reversed(kinds):
        source = _reduce(kind, source)
        if isinstance(source, reductions.ImmediateSolution):
            raise ParseError("descriptor wraps a trivial source; re-run the reduction")
    return source


def _load_instance(want: type, text: str, paper_sign: bool = False):
    """An instance file, read by the loader of ``want``'s family."""
    if want is lcp.LcpInstance:
        return lcp.load_lcp(text, paper_sign=paper_sign)
    if want in _LINE_TYPES:
        return _load_line_instance(text)
    return circuits.load_problem(text)


def _print_vertices(trace) -> None:
    for v in trace:
        print(f"vertex y=({v.y}) s=({v.s}) z={lcp.format_rational(v.z)}", flush=True)


def _print_steps(trace) -> None:
    for x, v in trace:
        print(f"step {x} {v}", flush=True)


def cmd_solve_lcp(args) -> int:
    inst = lcp.load_lcp(_read(args.file), paper_sign=args.paper_sign)
    try:
        result = lcp.lemke_solve(inst, lexicographic=args.lex, budget=args.budget)
    except BudgetExceededError as exc:
        if args.trace:
            _print_vertices(exc.trace)
        print(f"budget exhausted after {len(exc.trace) - 1} pivots")
        return EXIT_VERIFY_FAIL
    if args.trace:
        _print_vertices(result.trace)
    print(lcp.format_outcome(result.outcome))
    return EXIT_OK


def cmd_check_pmatrix(args) -> int:
    inst = lcp.load_lcp(_read(args.file), paper_sign=args.paper_sign)
    witness = lcp.p_matrix_witness(inst.m)
    if witness is None:
        print("ok: all principal minors positive")
        return EXIT_OK
    print(lcp.format_outcome(witness))
    return EXIT_VERIFY_FAIL


def cmd_reduce(args) -> int:
    text = _read(args.file)
    source = _load_instance(REDUCTIONS[args.kind][0], text, args.paper_sign)
    target = _reduce(args.kind, source)
    if isinstance(target, reductions.ImmediateSolution):
        sol_line = lines.format_line_solution(target.solution)
        if args.out:
            _write(args.out, sol_line + "\n")
        print(f"immediate-solution {sol_line}")
        return EXIT_OK
    if not isinstance(target, _LINE_TYPES):
        text = circuits.dump_problem(target)
    elif _width(target) <= 16:
        text = lines.dump_line_table(target)
    else:  # too wide for a table: a descriptor embedding the source
        embedded = lcp.dump_lcp(source) if isinstance(source, lcp.LcpInstance) else text
        text = f"PROCEDURAL {args.kind}\n" + embedded
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_follow(args) -> int:
    inst = _load_line_instance(_read(args.file))
    max_steps = 1 << min(inst.n, 20) if args.max_steps is None else args.max_steps
    try:
        sol, trace = lines.follow_line(inst, max_steps)
    except BudgetExceededError as exc:
        if args.trace:
            _print_steps(exc.trace)
        print(f"budget exhausted after {max_steps} steps")
        return EXIT_VERIFY_FAIL
    if args.trace:
        _print_steps(trace)
    print(lines.format_line_solution(sol))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    inst = _load_line_instance(_read(args.file))
    for sol in lines.enumerate_solutions(inst):
        print(lines.format_line_solution(sol))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst_text = _read(args.instance)
    sol_text = _read(args.solution).strip()
    if not sol_text:
        raise ParseError("empty solution file")
    sol_line = sol_text.splitlines()[0]
    want, tags = VERIFY[args.problem]
    inst = _load_instance(want, inst_text)
    if not isinstance(inst, want):
        raise ParseError(f"instance file is not a {args.problem} instance")
    if want is lcp.LcpInstance:
        sol = lcp.parse_outcome(sol_line)
    elif want in _LINE_TYPES:
        sol = lines.parse_line_solution(sol_line)
    else:
        sol = circuits.parse_circuit_solution(sol_line, inst.dim)
    tag = sol_line.split()[0]
    if tag not in tags:
        raise ParseError(f"{tag} is not a {args.problem} solution tag")
    if want is lcp.LcpInstance:
        ok, detail = lcp.check_outcome(inst, sol)
    elif want in _LINE_TYPES:
        ok = lines.tag_holds(inst, tag, sol.x)
        detail = f"{tag} condition {'holds' if ok else 'fails'} at {sol.x}"
    else:
        verdict = getattr(circuits, f"{args.problem}_verify")(inst, sol)
        ok, detail = verdict.ok, verdict.detail
    print(detail)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_pipeline(args) -> int:
    inst = lcp.load_lcp(_read(args.file), paper_sign=args.paper_sign)
    if all(x >= 0 for x in inst.q):
        print("q >= 0: both routes return y = 0")
        print("agreement: exact")
        return EXIT_OK
    direct = lcp.lemke_solve(inst, budget=args.budget)
    target = reductions.plcp_to_eopl(inst)
    budget = 2 ** target.n + 1 if args.budget is None else args.budget
    if budget == 0:  # the line's first step, from 0^n to the start, is over it
        raise BudgetExceededError("no solution within 0 steps")
    sol, trace = lines.follow_line(target, budget)
    if args.trace:
        _print_steps(trace)
    mapped = reductions.eopl_sol_to_plcp(inst, sol.x)
    reduced = lcp.format_outcome(mapped)
    print(f"direct:  {lcp.format_outcome(direct.outcome)}")
    print(f"reduced: {reduced}")
    # the round-trip certificate, printed only once the back-mapped solution checks out
    certificate = (
        "CERTIFICATE\n"
        "source: plcp\n"
        "target: eopl\n"
        f"forward: pivot-path line over {target.n}-bit configs\n"
        f"solution: {reduced}\n"
        "verdict: pass\n"
    )
    if isinstance(direct.outcome, lcp.Q1) and isinstance(mapped, lcp.Q1):
        if direct.outcome.y == mapped.y:
            print("agreement: exact")
            sys.stdout.write(certificate)
            return EXIT_OK
        print("agreement: FAILED (distinct solution vectors)")
        return EXIT_INVARIANT
    if isinstance(direct.outcome, lcp.Q2) and isinstance(mapped, lcp.Q2):
        if not all(lcp.check_outcome(inst, out)[0] for out in (direct.outcome, mapped)):
            print("agreement: FAILED (witness does not re-verify)")
            return EXIT_INVARIANT
        print("agreement: both witnesses verified")
        sys.stdout.write(certificate)
        return EXIT_OK
    print("agreement: FAILED (mixed outcome kinds)")
    return EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clslab",
        description="exact solvers, verifiers, and reductions for total search problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-lcp", help="run complementary pivoting on an instance file")
    p.add_argument("file")
    p.add_argument("--lex", action="store_true", help="lexicographic tie-breaking")
    p.add_argument("--paper-sign", action="store_true", help="negate M on ingestion")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("check-pmatrix", help="test all principal minors")
    p.add_argument("file")
    p.add_argument("--paper-sign", action="store_true")

    p = sub.add_parser("reduce", help="transform an instance file")
    p.add_argument("kind", choices=tuple(REDUCTIONS))
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--paper-sign", action="store_true")

    p = sub.add_parser("follow", help="walk the line from the all-zeros config")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("problem", choices=tuple(VERIFY))
    p.add_argument("instance")
    p.add_argument("solution")

    p = sub.add_parser("pipeline", help="reduce, follow, back-map, and cross-check")
    p.add_argument("problem", choices=("plcp",))
    p.add_argument("file")
    p.add_argument("--paper-sign", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("enumerate", help="classify every config of a line instance")
    p.add_argument("file")

    return parser


# Built once per process: parsing keeps no state on the parser, argparse finds
# sys.stdout and sys.stderr when it prints, and main looks each command's
# cmd_* function up by name on every call.
PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, PreconditionError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ClslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
