"""Command-line front end.

Exit codes are a total function of outcomes: 0 success, 1 verification
failure, 2 degeneracy, 3 internal invariant violation, 4 usage or parse
error.  Traces stream line-buffered so an aborted run still leaves a usable
prefix.
"""

from __future__ import annotations

import argparse
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
    DomainEscapeError,
    InvariantViolationError,
    ParseError,
    PreconditionError,
)

REDUCE_KINDS = (
    "plcp-eopl",
    "eoml-eopl",
    "eopl-eoml",
    "gc-clo",
    "clo-mmc",
    "mmc-gc",
    "contraction-clo",
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_line_instance(text: str):
    """Truth-table instance, or a procedural descriptor wrapping a source file."""
    stripped = text.lstrip()
    if not stripped.startswith("PROCEDURAL"):
        return lines.load_line_table(text)
    body = stripped.split("\n", 1)
    if len(body) != 2:
        raise ParseError("procedural descriptor missing its source instance")
    kind = body[0].split()
    if len(kind) != 2 or kind[1] not in ("plcp-eopl", "eoml-eopl", "eopl-eoml"):
        raise ParseError(f"bad procedural header: {body[0]!r}")
    name, source_text = kind[1], body[1]
    if name == "plcp-eopl":
        return reductions.plcp_to_eopl(lcp.load_lcp(source_text))
    if name == "eoml-eopl":
        return reductions.eoml_to_eopl(_load_line_instance(source_text))
    target = reductions.eopl_to_eoml(_load_line_instance(source_text))
    if isinstance(target, reductions.ImmediateSolution):
        raise ParseError("descriptor wraps a trivial source; re-run the reduction")
    return target


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


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _reduced_line_text(target, kind: str, source_text: str) -> str:
    width = target.n + (target.m if isinstance(target, lines.EoplInstance) else 0)
    if width <= 16:
        return lines.dump_line_table(target)
    return f"PROCEDURAL {kind}\n" + source_text


def cmd_reduce(args) -> int:
    kind = args.kind
    text = _read(args.file)
    if kind == "plcp-eopl":
        inst = lcp.load_lcp(text, paper_sign=args.paper_sign)
        target = reductions.plcp_to_eopl(inst)
        _write_or_print(_reduced_line_text(target, kind, lcp.dump_lcp(inst)), args.out)
        return EXIT_OK
    if kind == "eoml-eopl":
        source = _load_line_instance(text)
        if not isinstance(source, lines.EomlInstance):
            raise ParseError("eoml-eopl needs a metered-line source")
        target = reductions.eoml_to_eopl(source)
        _write_or_print(_reduced_line_text(target, kind, text), args.out)
        return EXIT_OK
    if kind == "eopl-eoml":
        source = _load_line_instance(text)
        if not isinstance(source, lines.EoplInstance):
            raise ParseError("eopl-eoml needs a potential-line source")
        target = reductions.eopl_to_eoml(source)
        if isinstance(target, reductions.ImmediateSolution):
            sol_line = lines.format_line_solution(target.solution)
            print(f"immediate-solution {sol_line}")
            if args.out:
                Path(args.out).write_text(sol_line + "\n")
            return EXIT_OK
        _write_or_print(_reduced_line_text(target, kind, text), args.out)
        return EXIT_OK
    problem = circuits.load_problem(text)
    if kind == "gc-clo":
        if not isinstance(problem, circuits.MmcInstance):
            raise ParseError("gc-clo needs a contraction-with-distance source")
        out = reductions.gc_to_clo(problem)
    elif kind == "clo-mmc":
        if not isinstance(problem, circuits.CloInstance):
            raise ParseError("clo-mmc needs a local-opt source")
        out = reductions.clo_to_mmc(problem)
    elif kind == "mmc-gc":
        if not isinstance(problem, circuits.MmcInstance):
            raise ParseError("mmc-gc needs a contraction-with-distance source")
        out = reductions.mmc_to_gc(problem)
    elif kind == "contraction-clo":
        if not isinstance(problem, circuits.ContractionInstance):
            raise ParseError("contraction-clo needs a plain contraction source")
        out = reductions.contraction_to_clo(problem)
    else:
        raise ParseError(f"unknown reduction kind {kind!r}")
    _write_or_print(circuits.dump_problem(out), args.out)
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
    if args.problem == "lcp":
        ok, detail = lcp.check_outcome(lcp.load_lcp(inst_text), lcp.parse_outcome(sol_line))
    elif args.problem in ("eopl", "eoml"):
        inst = _load_line_instance(inst_text)
        want = lines.EoplInstance if args.problem == "eopl" else lines.EomlInstance
        if not isinstance(inst, want):
            raise ParseError(f"instance file is not a {args.problem} instance")
        sol = lines.parse_line_solution(sol_line)
        tag = type(sol).__name__
        if tag not in (lines.EOPL_TAGS if args.problem == "eopl" else lines.EOML_TAGS):
            raise ParseError(f"{tag} is not a {args.problem} solution tag")
        ok = lines.tag_holds(inst, tag, sol.x)
        detail = f"{tag} condition {'holds' if ok else 'fails'} at {sol.x}"
    elif args.problem in ("clo", "contraction", "mmc"):
        inst = circuits.load_problem(inst_text)
        expected, verify = {
            "clo": (circuits.CloInstance, circuits.clo_verify),
            "contraction": (circuits.ContractionInstance, circuits.contraction_verify),
            "mmc": (circuits.MmcInstance, circuits.mmc_verify),
        }[args.problem]
        if not isinstance(inst, expected):
            raise ParseError(f"instance file is not a {args.problem} instance")
        sol = circuits.parse_circuit_solution(sol_line, inst.dim)
        verdict = verify(inst, sol)
        ok, detail = verdict.ok, verdict.detail
    else:
        raise ParseError(f"unknown problem {args.problem!r}")
    print(detail)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_pipeline(args) -> int:
    if args.problem != "plcp":
        raise ParseError("only the plcp pipeline is available")
    inst = lcp.load_lcp(_read(args.file), paper_sign=args.paper_sign)
    if all(x >= 0 for x in inst.q):
        print("q >= 0: both routes return y = 0")
        print("agreement: exact")
        return EXIT_OK
    direct = lcp.lemke_solve(inst, budget=args.budget)
    target = reductions.plcp_to_eopl(inst)
    budget = 2 ** target.n + 1 if args.budget is None else args.budget
    sol, trace = lines.follow_line(target, budget)
    if args.trace:
        _print_steps(trace)
    mapped = reductions.eopl_sol_to_plcp(inst, sol.x)
    reduced = lcp.format_outcome(mapped)
    print(f"direct:  {lcp.format_outcome(direct.outcome)}")
    print(f"reduced: {reduced}")
    certificate = reductions.format_certificate(
        "plcp", "eopl", f"pivot-path line over {target.n}-bit configs", reduced
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
    p.set_defaults(func=cmd_solve_lcp)

    p = sub.add_parser("check-pmatrix", help="test all principal minors")
    p.add_argument("file")
    p.add_argument("--paper-sign", action="store_true")
    p.set_defaults(func=cmd_check_pmatrix)

    p = sub.add_parser("reduce", help="transform an instance file")
    p.add_argument("kind", choices=REDUCE_KINDS)
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--paper-sign", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("follow", help="walk the line from the all-zeros config")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_follow)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("problem", choices=("lcp", "eopl", "eoml", "clo", "contraction", "mmc"))
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline", help="reduce, follow, back-map, and cross-check")
    p.add_argument("problem", choices=("plcp",))
    p.add_argument("file")
    p.add_argument("--paper-sign", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("enumerate", help="classify every config of a line instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantViolationError,) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (BudgetExceededError, DomainEscapeError, ClslabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
