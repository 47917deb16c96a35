import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clslab import cli, reductions
from clslab.cli import main
from clslab.lcp import parse_outcome
from clslab.errors import (
    BudgetExceededError,
    ClslabError,
    DegeneracyError,
    DimensionError,
    DomainEscapeError,
    InvariantViolationError,
    ParseError,
    PreconditionError,
)
from clslab.lines import (
    EOML_TAGS,
    EOPL_TAGS,
    EoplInstance,
    all_configs,
    dump_line_table,
    load_line_table,
    tag_holds,
)
from support import BAD_ROWS, EOML_TABLE, EOPL_TABLE, TRIVIAL_EOPL, hand_built_line_tables


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


D1_LCP = "1\n1\n-1\n"
DIAG_LCP = "2\n2 0\n0 3\n-4 -6\n"
NONNEG_LCP = "2\n2 0\n0 3\n3 1\n"
DEGENERATE_LCP = "2\n1 0\n0 1\n-1 -1\n"
NONP_LCP = "1\n0\n-1\n"
PD_LCP = "2\n2 1\n1 2\n-1 -1\n"
CONTRACTION_TEXT = "CONTRACTION dim=1 r=1 eps=1/4 c=1/2 delta=1/2\nARITH 1 2 1\nCONST 1/2\nMUL 0 1\n2\n"
CLO_TEXT = "CLO dim=1 r=1 eps=1/4 lambda=1\nARITH 1 2 1\nCONST 1/2\nMUL 0 1\n2\nARITH 1 0 1\n0\n"
MMC_TEXT = (
    "MMC dim=1 r=1 eps=1/4 c=1/2 delta_d=1 lambda=1\n"
    "ARITH 1 2 1\nCONST 1/2\nMUL 0 1\n2\n"
    "ARITH 2 3 1\nSUB 0 1\nABS 2\nCONST 1\n3\n"
)


def test_solve_lcp_and_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "a.lcp", D1_LCP)
    assert main(["solve-lcp", path]) == 0
    assert capsys.readouterr().out.strip() == "Q1 1"
    assert main(["solve-lcp", write(tmp_path, "n.lcp", NONNEG_LCP)]) == 0
    assert capsys.readouterr().out.strip() == "Q1 0 0"
    assert main(["solve-lcp", write(tmp_path, "d.lcp", DEGENERATE_LCP)]) == 2
    assert main(["solve-lcp", write(tmp_path, "d2.lcp", DEGENERATE_LCP), "--lex"]) == 0
    assert capsys.readouterr().out.strip() == "Q1 1 1"
    assert main(["solve-lcp", write(tmp_path, "bad.lcp", "nonsense\n")]) == 4
    assert main(["solve-lcp", str(tmp_path / "absent.lcp")]) == 4


def test_budget_exhaustion_exits_1_with_partial_trace(tmp_path, capsys):
    path = write(tmp_path, "a.lcp", DIAG_LCP)
    assert main(["solve-lcp", path, "--budget", "0"]) == 1
    assert capsys.readouterr().out == "budget exhausted after 0 pivots\n"
    assert main(["solve-lcp", path, "--budget", "1", "--trace"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "vertex y=(0 0) s=(2 0) z=6",
        "vertex y=(0 2/3) s=(0 0) z=4",
        "budget exhausted after 1 pivots",
    ]
    assert main(["solve-lcp", path, "--budget", "2"]) == 0
    assert main(["pipeline", "plcp", path, "--budget", "0"]) == 1
    capsys.readouterr()
    assert main(["follow", write(tmp_path, "p.eopl", EOPL_TABLE), "--max-steps", "1", "--trace"]) == 1
    assert capsys.readouterr() == ("step 00 0\nstep 01 1\nbudget exhausted after 1 steps\n", "")


def test_a_budget_of_zero_answers_a_path_with_no_pivot(tmp_path, capsys):
    # y1 enters at the start of M = [[0]], q = (-1) along a ray: the Q2
    # answer needs 0 pivots, while the reduced line still needs its first step
    path = write(tmp_path, "z.lcp", NONP_LCP)
    assert main(["solve-lcp", path, "--budget", "0", "--trace"]) == 0
    assert capsys.readouterr() == ("vertex y=(0) s=(0) z=1\nQ2 S={1} minor=0\n", "")
    assert main(["pipeline", "plcp", path, "--budget", "0"]) == 1
    assert capsys.readouterr() == ("", "error: no solution within 0 steps\n")
    assert main(["pipeline", "plcp", path, "--budget", "1"]) == 0


def test_explicit_zero_is_not_the_default(tmp_path, capsys):
    path = write(tmp_path, "a.eoml", EOML_TABLE)
    assert main(["follow", path, "--max-steps", "0"]) == 4
    assert "max_steps must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve-lcp"], ["pipeline", "plcp"]])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, command):
    path = write(tmp_path, "a.lcp", DIAG_LCP)
    assert main(command + [path, "--budget", "-1"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: budget must be nonnegative, got -1\n"
    assert main(command + [path, "--budget", "0"]) == 1


def test_check_pmatrix(tmp_path, capsys):
    assert main(["check-pmatrix", write(tmp_path, "a.lcp", DIAG_LCP)]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["check-pmatrix", write(tmp_path, "b.lcp", NONP_LCP)]) == 1
    assert "Q2 S={1} minor=0" in capsys.readouterr().out


def test_paper_sign_flag(tmp_path, capsys):
    # written in the opposite sign convention, -M y <= q style
    text = "1\n-1\n-1\n"
    path = write(tmp_path, "p.lcp", text)
    assert main(["solve-lcp", path, "--paper-sign"]) == 0
    assert capsys.readouterr().out.strip() == "Q1 1"


def test_pipeline_agreement(tmp_path, capsys):
    assert main(["pipeline", "plcp", write(tmp_path, "a.lcp", D1_LCP)]) == 0
    out = capsys.readouterr().out
    assert "agreement: exact" in out
    assert "CERTIFICATE" in out and "verdict: pass" in out
    assert main(["pipeline", "plcp", write(tmp_path, "n.lcp", NONNEG_LCP)]) == 0
    assert "y = 0" in capsys.readouterr().out
    assert main(["pipeline", "plcp", write(tmp_path, "d.lcp", DEGENERATE_LCP)]) == 2
    assert main(["pipeline", "plcp", write(tmp_path, "q2.lcp", NONP_LCP)]) == 0
    assert "both witnesses verified" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, mapped, out",
    [
        (D1_LCP, "Q1 2", "direct:  Q1 1\nreduced: Q1 2\nagreement: FAILED (distinct solution vectors)\n"),
        (
            NONP_LCP,
            "Q2 S={1} minor=1",
            "direct:  Q2 S={1} minor=0\nreduced: Q2 S={1} minor=1\nagreement: FAILED (witness does not re-verify)\n",
        ),
        (D1_LCP, "Q2 S={1} minor=0", "direct:  Q1 1\nreduced: Q2 S={1} minor=0\nagreement: FAILED (mixed outcome kinds)\n"),
    ],
    ids=["distinct-q1", "q2-fails", "mixed"],
)
def test_pipeline_disagreement_exits_3(tmp_path, capsys, monkeypatch, text, mapped, out):
    # a back-map that disagrees with the direct route; cmd_pipeline looks the
    # back-map up on clslab.reductions at call time
    monkeypatch.setattr(reductions, "eopl_sol_to_plcp", lambda inst, u: parse_outcome(mapped))
    assert main(["pipeline", "plcp", write(tmp_path, "a.lcp", text)]) == 3
    assert capsys.readouterr() == (out, "")


def _certificate(solution: str) -> str:
    return (
        "CERTIFICATE\nsource: plcp\ntarget: eopl\nforward: pivot-path line over 2-bit configs\n"
        f"solution: {solution}\nverdict: pass\n"
    )


@pytest.mark.parametrize(
    "command, text, flags, out",
    [
        (["pipeline", "plcp"], D1_LCP, [], "direct:  Q1 1\nreduced: Q1 1\nagreement: exact\n" + _certificate("Q1 1")),
        (
            ["pipeline", "plcp"],
            NONP_LCP,
            [],
            "direct:  Q2 S={1} minor=0\nreduced: Q2 S={1} minor=0\nagreement: both witnesses verified\n"
            + _certificate("Q2 S={1} minor=0"),
        ),
        (
            ["pipeline", "plcp"],
            D1_LCP,
            ["--trace"],
            "step 00 0\nstep 11 18\nstep 10 27\n"
            "direct:  Q1 1\nreduced: Q1 1\nagreement: exact\n" + _certificate("Q1 1"),
        ),
        (
            ["solve-lcp"],
            DIAG_LCP,
            ["--trace"],
            "vertex y=(0 0) s=(2 0) z=6\nvertex y=(0 2/3) s=(0 0) z=4\nvertex y=(2 2) s=(0 0) z=0\nQ1 2 2\n",
        ),
        # small rational data: D = lcm(50, 20) = 100 and Delta = 2! * 5^3 + 1 comes
        # from the integer data [2 | -5], so the potential climbs to the line's end
        (["pipeline", "plcp"], "1\n1/50\n-1/20\n", [], "direct:  Q1 5/2\nreduced: Q1 5/2\nagreement: exact\n" + _certificate("Q1 5/2")),
        (["pipeline", "plcp"], "1\n2/5\n-1/10\n", [], "direct:  Q1 1/4\nreduced: Q1 1/4\nagreement: exact\n" + _certificate("Q1 1/4")),
    ],
    ids=["pipeline-q1", "pipeline-q2", "pipeline-trace", "solve-lcp-trace", "pipeline-rational-1", "pipeline-rational-2"],
)
def test_stdout_bytes(tmp_path, capsys, command, text, flags, out):
    assert main(command + [write(tmp_path, "a.lcp", text)] + flags) == 0
    assert capsys.readouterr() == (out, "")


def test_pipeline_takes_only_plcp(tmp_path, capsys):
    assert main(["pipeline", "eopl", write(tmp_path, "a.lcp", D1_LCP)]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (DegeneracyError("tie"), 2, "degeneracy: tie\n"),
        (ParseError("bad"), 4, "error: bad\n"),
        (PreconditionError("pre"), 4, "error: pre\n"),
        (InvariantViolationError("broken"), 3, "internal invariant violated: broken\n"),
        (BudgetExceededError("spent"), 1, "error: spent\n"),
        (DomainEscapeError("out"), 1, "error: out\n"),
        (DimensionError("shape"), 4, "error: shape\n"),
        (ClslabError("other"), 1, "error: other\n"),
    ],
)
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, capsys, exc, code, err):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_enumerate", fail)
    assert main(["enumerate", "x"]) == code
    assert capsys.readouterr() == ("", err)


def test_an_escaping_map_exits_1(tmp_path, capsys):
    path = write(tmp_path, "c", CONTRACTION_TEXT.replace("CONST 1/2", "CONST 2"))
    assert main(["reduce", "contraction-clo", path]) == 1
    assert capsys.readouterr() == ("", "error: f leaves the unit box near 2/3\n")


def test_reduce_plcp_to_table_and_follow(tmp_path, capsys):
    lcp_path = write(tmp_path, "a.lcp", D1_LCP)
    out_path = str(tmp_path / "a.eopl")
    assert main(["reduce", "plcp-eopl", lcp_path, "-o", out_path]) == 0
    text = (tmp_path / "a.eopl").read_text()
    assert text.startswith("EOPL 2 6")
    capsys.readouterr()
    assert main(["follow", out_path, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "step 00 0" in out and out.strip().endswith("R1 10")


def test_reduce_emitted_instance_matches_original(tmp_path):
    # at d = 2 the potential width pushes past table size, so the emitted
    # file is a procedural descriptor; reloading it must agree pointwise
    lcp_path = write(tmp_path, "a.lcp", DIAG_LCP)
    out_path = str(tmp_path / "a.eopl")
    assert main(["reduce", "plcp-eopl", lcp_path, "-o", out_path]) == 0
    from clslab.cli import _load_line_instance
    from clslab.lcp import load_lcp
    from clslab.reductions import plcp_to_eopl

    text = (tmp_path / "a.eopl").read_text()
    assert text.startswith("PROCEDURAL plcp-eopl")
    emitted = _load_line_instance(text)
    original = plcp_to_eopl(load_lcp(DIAG_LCP))
    assert (emitted.n, emitted.m) == (original.n, original.m)
    for x in all_configs(4):
        assert emitted.S(x) == original.S(x)
        assert emitted.P(x) == original.P(x)
        assert emitted.V(x) == original.V(x)


def test_reduce_line_reductions(tmp_path, capsys):
    src = write(tmp_path, "m.eoml", EOML_TABLE)
    out = str(tmp_path / "m.eopl")
    assert main(["reduce", "eoml-eopl", src, "-o", out]) == 0
    reduced = load_line_table((tmp_path / "m.eopl").read_text())
    assert reduced.n == 3
    capsys.readouterr()
    assert main(["follow", out]) == 0
    assert capsys.readouterr().out.strip().startswith("R")

    # the reverse construction on a trivial source prints its solution
    trivial = write(tmp_path, "t.eopl", TRIVIAL_EOPL)
    assert main(["reduce", "eopl-eoml", trivial, "-o", str(tmp_path / "t.eoml")]) == 0
    assert "immediate-solution" in capsys.readouterr().out


def test_reduce_out_file_bytes(tmp_path, capsys):
    out = tmp_path / "t.eoml"
    assert main(["reduce", "eopl-eoml", write(tmp_path, "t.eopl", TRIVIAL_EOPL), "-o", str(out)]) == 0
    assert capsys.readouterr() == ("immediate-solution R1 1\n", "")
    assert out.read_text() == "R1 1\n"
    out = tmp_path / "c.clo"
    assert main(["reduce", "contraction-clo", write(tmp_path, "c", CONTRACTION_TEXT), "-o", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")
    assert out.read_text() == (
        "CLO dim=1 r=1 eps=1/4 lambda=3/2\n"
        "ARITH 1 2 1\nCONST 1/2\nMUL 0 1\n2\n"
        "ARITH 1 4 1\nCONST 1/2\nMUL 0 1\nSUB 2 0\nABS 3\n4\n"
    )


@pytest.mark.parametrize("r, join", [("1", "ADD"), ("inf", "MAX")])
def test_reduce_contraction_clo_bytes_for_both_norms(tmp_path, capsys, r, join):
    f = "ARITH 2 3 2\nCONST 1/2\nMUL 0 2\nMUL 1 2\n3 4\n"
    src = write(tmp_path, "c.con", f"CONTRACTION dim=2 r={r} eps=1/4 c=1/2 delta=1/2\n{f}")
    out = tmp_path / "c.clo"
    assert main(["reduce", "contraction-clo", src, "-o", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")
    # the potential ||f(x) - x||: f inlined, then the norm of the differences
    assert out.read_text() == (
        f"CLO dim=2 r={r} eps=1/4 lambda=3/2\n{f}"
        f"ARITH 2 8 1\nCONST 1/2\nMUL 0 2\nMUL 1 2\nSUB 3 0\nABS 5\nSUB 4 1\nABS 7\n{join} 6 8\n9\n"
    )


@pytest.mark.parametrize(
    "kind, text", [("eopl-eoml", TRIVIAL_EOPL), ("eoml-eopl", EOML_TABLE)], ids=["immediate-solution", "table"]
)
def test_an_unwritable_out_path_exits_4_and_prints_nothing(tmp_path, capsys, kind, text):
    src = write(tmp_path, "src", text)
    absent = tmp_path / "absent" / "out.txt"
    for out, reason in ((absent, "[Errno 2] No such file or directory"), (tmp_path, "[Errno 21] Is a directory")):
        assert main(["reduce", kind, src, "-o", str(out)]) == 4
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}: '{out}'\n")


def test_reduce_circuit_chain(tmp_path, capsys):
    clo_text = "\n".join(
        [
            "CLO dim=1 r=1 eps=1/2 lambda=1",
            "ARITH 1 2 1",
            "CONST 1/2",
            "MUL 0 1",
            "2",
            "ARITH 1 0 1",
            "0",
        ]
    ) + "\n"
    src = write(tmp_path, "c.clo", clo_text)
    out = str(tmp_path / "c.mmc")
    assert main(["reduce", "clo-mmc", src, "-o", out]) == 0
    text = (tmp_path / "c.mmc").read_text()
    assert text.startswith("MMC dim=1 r=1 eps=1/2 c=7/8")
    capsys.readouterr()
    assert main(["reduce", "mmc-gc", out, "-o", str(tmp_path / "c.gc")]) == 0
    assert main(["reduce", "gc-clo", str(tmp_path / "c.gc"), "-o", str(tmp_path / "c2.clo")]) == 0

    src2 = write(tmp_path, "k.con", CONTRACTION_TEXT)
    assert main(["reduce", "contraction-clo", src2, "-o", str(tmp_path / "k.clo")]) == 0
    text = (tmp_path / "k.clo").read_text()
    assert "eps=1/4" in text and "lambda=3/2" in text


def test_verify_command(tmp_path, capsys):
    lcp_path = write(tmp_path, "a.lcp", D1_LCP)
    good = write(tmp_path, "good.sol", "Q1 1\n")
    bad = write(tmp_path, "bad.sol", "Q1 2\n")
    assert main(["verify", "lcp", lcp_path, good]) == 0
    assert main(["verify", "lcp", lcp_path, bad]) == 1
    nonp = write(tmp_path, "n.lcp", NONP_LCP)
    capsys.readouterr()
    for inst, claim, code, detail in (
        (nonp, "Q2 S={1} minor=0", 0, "index set has minor 0 <= 0"),
        (nonp, "Q2 S={1} minor=-1", 1, "stated minor -1 recomputes to 0"),
        (lcp_path, "Q2 S={1} minor=1", 1, "minor 1 is positive"),
    ):
        assert main(["verify", "lcp", inst, write(tmp_path, "q2.sol", claim + "\n")]) == code
        assert capsys.readouterr().out == detail + "\n"

    eopl = write(tmp_path, "p.eopl", EOPL_TABLE)
    assert main(["verify", "eopl", eopl, write(tmp_path, "r1.sol", "R1 10\n")]) == 0
    assert main(["verify", "eopl", eopl, write(tmp_path, "r2.sol", "R2 10\n")]) == 1
    assert main(["verify", "eoml", write(tmp_path, "m.eoml", EOML_TABLE),
                 write(tmp_path, "t1.sol", "T1 10\n")]) == 0

    mmc = write(tmp_path, "i.mmc", MMC_TEXT)
    # the distance is a metric, so a triangle-violation claim must fail
    viol = write(tmp_path, "v.sol", "MMVIOL 4 0 1/2 1\n")
    assert main(["verify", "mmc", mmc, viol]) == 1
    good_m1 = write(tmp_path, "m1.sol", "M1 1/4\n")
    assert main(["verify", "mmc", mmc, good_m1]) == 0

    con = write(tmp_path, "h.con", CONTRACTION_TEXT)
    assert main(["verify", "contraction", con, write(tmp_path, "cm1.sol", "CM1 1/2\n")]) == 0
    assert main(["verify", "contraction", con, write(tmp_path, "cm2.sol", "CM2 0 1\n")]) == 1

    clo = write(tmp_path, "h.clo", CLO_TEXT)
    assert main(["verify", "clo", clo, write(tmp_path, "c1.sol", "C1 1/4\n")]) == 0
    assert main(["verify", "clo", clo, write(tmp_path, "c2a.sol", "C2a 0 1\n")]) == 1


@pytest.mark.parametrize(
    "problem, text, claim, message",
    [
        ("lcp", DIAG_LCP, "Q1 1", "candidate length must be d"),
        ("lcp", DIAG_LCP, "Q2 S={5} minor=1", "index out of range 1..2: [5]"),
        ("eopl", EOPL_TABLE, "R1 1", "config width 1, instance width 2"),
        ("lcp", PD_LCP, "Q2 S=1 minor=2 extra", "malformed Q2 line: 'Q2 S=1 minor=2 extra'"),
        ("lcp", PD_LCP, "Q2 S={1,1} minor=2", "repeated index in Q2 line: 'Q2 S={1,1} minor=2'"),
        ("lcp", PD_LCP, "Q2 S={1} minor=2 S={2}", "malformed Q2 line: 'Q2 S={1} minor=2 S={2}'"),
    ],
    ids=["short-q1", "q2-index", "short-config", "q2-stray-token", "q2-repeated-index", "q2-repeated-key"],
)
def test_a_solution_of_the_wrong_shape_exits_4(tmp_path, capsys, problem, text, claim, message):
    argv = ["verify", problem, write(tmp_path, "i", text), write(tmp_path, "s", claim + "\n")]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_enumerate_command(tmp_path, capsys):
    eopl = write(tmp_path, "p.eopl", EOPL_TABLE)
    assert main(["enumerate", eopl]) == 0
    assert capsys.readouterr().out.strip() == "R1 10"


def test_usage_errors(tmp_path):
    assert main(["reduce", "nope", "x"]) == 4
    assert main(["verify", "lcp", "missing", "missing"]) == 4
    assert main([]) == 4


USAGE_ARGVS = [
    [],
    ["--help"],
    ["-h"],
    ["solve-lcp", "--help"],
    ["verify", "-h"],
    ["nope"],
    ["reduce", "nope", "x"],
    ["solve-lcp"],
    ["solve-lcp", "a", "--budget", "x"],
    ["follow", "a", "--bogus"],
    ["pipeline", "lcp", "a"],
]


def test_repeated_in_process_calls_print_the_same_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lcp = write(tmp_path, "a.lcp", D1_LCP)
    argvs = USAGE_ARGVS + [
        ["solve-lcp", lcp],
        ["solve-lcp", lcp, "--trace", "--lex"],
        ["pipeline", "plcp", lcp],
        ["check-pmatrix", str(tmp_path / "absent")],
        ["solve-lcp", lcp, "--budget", "-1"],
    ]

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    rounds = [[run(argv) for argv in argvs] for _ in range(3)]
    assert rounds[0] == rounds[1] == rounds[2]
    # the same bytes as a parser built for the call
    fresh = []
    for argv in argvs:
        with monkeypatch.context() as m:
            m.setattr(cli, "PARSER", cli.build_parser())
            fresh.append(run(argv))
    assert fresh == rounds[0]
    assert [code for code, _, _ in rounds[0]] == [4, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 0, 0, 0, 4, 4]
    helps = [out for _, out, _ in rounds[0][1:5]]
    assert helps[0] == helps[1] and helps[0].startswith("usage: clslab [-h]")
    assert helps[2].startswith("usage: clslab solve-lcp") and helps[3].startswith("usage: clslab verify")
    for code, out, err in rounds[0][5:11]:
        assert out == "" and err.startswith("usage: clslab") and "error: " in err
    assert rounds[0][8][2].endswith("clslab solve-lcp: error: argument --budget: invalid int value: 'x'\n")
    assert rounds[0][-1][1:] == ("", "error: budget must be nonnegative, got -1\n")


FIXTURES = {
    "lcp": D1_LCP,
    "eopl": EOPL_TABLE,
    "eoml": EOML_TABLE,
    "clo": CLO_TEXT,
    "contraction": CONTRACTION_TEXT,
    "mmc": MMC_TEXT,
}
FAMILY = {"lcp": "lcp", "eopl": "line", "eoml": "line", "clo": "circuit", "contraction": "circuit", "mmc": "circuit"}
# reduce kind -> (fixture it takes, the source's name in errors, transformer in clslab.reductions)
REDUCE_SOURCES = {
    "plcp-eopl": ("lcp", None, "plcp_to_eopl"),
    "eoml-eopl": ("eoml", "metered-line", "eoml_to_eopl"),
    "eopl-eoml": ("eopl", "potential-line", "eopl_to_eoml"),
    "gc-clo": ("mmc", "contraction-with-distance", "gc_to_clo"),
    "clo-mmc": ("clo", "local-opt", "clo_to_mmc"),
    "mmc-gc": ("mmc", "contraction-with-distance", "mmc_to_gc"),
    "contraction-clo": ("contraction", "plain contraction", "contraction_to_clo"),
}
GOOD_SOLUTIONS = {
    "lcp": "Q1 1\n",
    "eopl": "R1 10\n",
    "eoml": "T1 10\n",
    "clo": "C1 1/4\n",
    "contraction": "CM1 1/2\n",
    "mmc": "M1 1/4\n",
}


def _load_error(family: str, text: str) -> str:
    """What the loader of ``family`` says about a file of another family."""
    first = text.splitlines()[0]
    return {
        "lcp": f"not an integer: {first!r}",
        "line": f"line 1: bad header {first!r}",
        "circuit": f"unknown problem tag {first.split()[0]!r}",
    }[family]


@pytest.mark.parametrize(
    "kind, fixture",
    [(k, f) for k, (src, _, _) in REDUCE_SOURCES.items() for f in FIXTURES if f != src],
)
def test_reduce_of_a_wrong_source_exits_4(tmp_path, capsys, kind, fixture):
    src, name, _ = REDUCE_SOURCES[kind]
    if FAMILY[fixture] == FAMILY[src]:
        message = f"{kind} needs a {name} source"
    else:
        message = _load_error(FAMILY[src], FIXTURES[fixture])
    assert main(["reduce", kind, write(tmp_path, fixture, FIXTURES[fixture])]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("problem, fixture", [(p, f) for p in GOOD_SOLUTIONS for f in FIXTURES if f != p])
def test_verify_against_another_kind_of_instance_exits_4(tmp_path, capsys, problem, fixture):
    if FAMILY[fixture] == FAMILY[problem]:
        message = f"instance file is not a {problem} instance"
    else:
        message = _load_error(FAMILY[problem], FIXTURES[fixture])
    inst = write(tmp_path, fixture, FIXTURES[fixture])
    sol = write(tmp_path, "x.sol", GOOD_SOLUTIONS[problem])
    assert main(["verify", problem, inst, sol]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("kind", sorted(REDUCE_SOURCES))
def test_reduce_looks_its_transformer_up_at_call_time(tmp_path, capsys, monkeypatch, kind):
    # a tracer that wraps clslab.reductions.<name> after import must see the call
    import clslab.reductions

    src, _, name = REDUCE_SOURCES[kind]
    original, calls = getattr(clslab.reductions, name), []

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(clslab.reductions, name, counting)
    assert main(["reduce", kind, write(tmp_path, src, FIXTURES[src])]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["reduce", "contraction-clo"], CONTRACTION_TEXT.replace("dim=1", "dim=2"), "f must map dim -> dim"),
        (["reduce", "mmc-gc"], MMC_TEXT.replace("ARITH 2 3 1", "ARITH 3 3 1"), "d must map 2*dim -> 1"),
        (["verify", "clo", "A", "C1 0"], CLO_TEXT.replace("dim=1", "dim=3"), "f must map dim -> dim"),
    ],
    ids=["contraction-f", "mmc-d", "clo-f"],
)
def test_a_dim_that_disagrees_with_a_circuit_exits_4_naming_line_1(tmp_path, capsys, argv, text, message):
    path = write(tmp_path, "A", text)
    if argv[0] == "verify":
        argv = argv[:2] + [path, write(tmp_path, "x.sol", argv[3] + "\n")]
    else:
        argv = argv + [path]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", f"error: line 1: {message}\n")


# Descriptors that no command loads: a layer's source must be the kind its
# reduction takes, the header must name a kind and be followed by a source,
# and no layer may reduce to an immediate solution.
WRONG_DESCRIPTORS = [
    ("PROCEDURAL eoml-eopl\n" + EOPL_TABLE, "eoml-eopl needs a metered-line source"),
    ("PROCEDURAL eopl-eoml\n" + EOML_TABLE, "eopl-eoml needs a potential-line source"),
    ("PROCEDURAL eoml-eopl\n" * 3000 + EOML_TABLE, "eoml-eopl needs a metered-line source"),
    ("PROCEDURAL eopl-eoml\n" * 3000 + EOPL_TABLE, "eopl-eoml needs a potential-line source"),
    ("PROCEDURALX eoml-eopl\n" + EOML_TABLE, "line 1: bad header 'PROCEDURALX eoml-eopl'"),
    ("PROCEDURAL foo\n" + TRIVIAL_EOPL, "bad procedural header: 'PROCEDURAL foo'"),
    ("PROCEDURAL eopl-eoml", "procedural descriptor missing its source instance"),
    ("PROCEDURAL eopl-eoml\n" + TRIVIAL_EOPL, "descriptor wraps a trivial source; re-run the reduction"),
]


@pytest.mark.parametrize(
    "text, message",
    WRONG_DESCRIPTORS,
    ids=["eoml-eopl", "eopl-eoml", "deep-eoml", "deep-eopl", "longer-word", "unknown-kind", "no-source", "trivial-source"],
)
def test_a_descriptor_over_the_wrong_kind_of_source_exits_4(tmp_path, capsys, text, message):
    path = write(tmp_path, "d", text)
    for argv in (
        ["follow", path],
        ["enumerate", path],
        ["verify", "eopl", path, write(tmp_path, "x.sol", "R2 000\n")],
        ["reduce", "eopl-eoml", path],
        ["reduce", "eoml-eopl", path],
    ):
        assert main(argv) == 4, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_a_descriptor_wider_than_the_limit_exits_4(tmp_path, capsys):
    # each pair about doubles the width: 13 pairs end at 49150 bits, 14 at 98302
    pair = "PROCEDURAL eoml-eopl\nPROCEDURAL eopl-eoml\n"
    assert main(["reduce", "eopl-eoml", write(tmp_path, "w13", pair * 13 + EOPL_TABLE)]) == 0
    capsys.readouterr()
    wide = write(tmp_path, "w14", pair * 14 + EOPL_TABLE)
    # 27 layers load; reducing them once more would write the 98302-bit layer
    w27 = write(tmp_path, "w27", "PROCEDURAL eopl-eoml\n" + pair * 13 + EOPL_TABLE)
    out = tmp_path / "w28"
    message = "error: descriptor layer eoml-eopl is 98302 bits wide, over the limit 65536\n"
    for argv in (
        ["reduce", "eopl-eoml", wide],
        ["follow", wide],
        ["enumerate", wide],
        ["verify", "eopl", wide, write(tmp_path, "x.sol", "R2 000\n")],
        ["reduce", "eoml-eopl", w27],
        ["reduce", "eoml-eopl", w27, "-o", str(out)],
    ):
        assert main(argv) == 4, argv
        assert capsys.readouterr() == ("", message), argv
    assert not out.exists()


@pytest.mark.parametrize("argv", [["follow", "T"], ["reduce", "eopl-eoml", "T"], ["verify", "eopl", "T", "S"]])
def test_a_potential_width_over_the_limit_exits_4_without_allocating_it(tmp_path, capsys, argv):
    # 1 << m for m = 2^24 takes 2 MiB; the header is refused before any of it
    m = 1 << 24
    paths = {"T": write(tmp_path, "t", f"EOPL 1 {m}\n0 1 0 0\n1 1 0 1\n"), "S": write(tmp_path, "s", "R1 1\n")}
    tracemalloc.start()
    try:
        code = main([paths.get(arg, arg) for arg in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert capsys.readouterr() == ("", f"error: potential width {m} is over the limit 65536\n")
    assert peak < 1 << 20, peak
    # the limit itself loads
    wide = write(tmp_path, "w", "EOPL 1 65536\n0 1 0 0\n1 1 0 1\n")
    assert main(["follow", wide]) == 0
    assert capsys.readouterr().out == "R1 1\n"


def test_nested_descriptors_reduce_innermost_first(tmp_path, capsys):
    from clslab.cli import _load_line_instance
    from clslab.reductions import eoml_to_eopl, eopl_to_eoml

    text = "PROCEDURAL eoml-eopl\nPROCEDURAL eopl-eoml\n" + EOPL_TABLE
    emitted = _load_line_instance(text)
    direct = eoml_to_eopl(eopl_to_eoml(load_line_table(EOPL_TABLE)))
    assert (emitted.n, emitted.m) == (direct.n, direct.m)
    for x in all_configs(direct.n):
        assert (emitted.S(x), emitted.P(x), emitted.V(x)) == (direct.S(x), direct.P(x), direct.V(x))
    assert main(["follow", write(tmp_path, "d", text)]) == 0
    assert capsys.readouterr().out.startswith("R")


# family -> a solution line of each of its tags, parseable against the fixtures
TAG_LINES = {
    "line": {tag: f"{tag} 10" for tag in EOPL_TAGS + EOML_TAGS},
    "circuit": {
        "C1": "C1 1/4",
        "C2a": "C2a 0 1",
        "C2b": "C2b 0 1",
        "CM1": "CM1 1/2",
        "CM2": "CM2 0 1",
        "M1": "M1 1/4",
        "M2a": "M2a 0 1",
        "M2b": "M2b 0 1 0 1",
        "M2c": "M2c 0 1",
        "MMVIOL": "MMVIOL 4 0 1/2 1",
    },
}
PROBLEM_TAGS = {
    "eopl": EOPL_TAGS,
    "eoml": EOML_TAGS,
    "clo": ("C1", "C2a", "C2b"),
    "contraction": ("CM1", "CM2"),
    "mmc": ("M1", "M2a", "M2b", "M2c", "MMVIOL"),
}


@pytest.mark.parametrize("problem, tag", [(p, t) for p in PROBLEM_TAGS for t in TAG_LINES[FAMILY[p]]])
def test_verify_with_another_problems_tag_exits_4(tmp_path, capsys, problem, tag):
    inst = write(tmp_path, "A", FIXTURES[problem])
    code = main(["verify", problem, inst, write(tmp_path, "x.sol", TAG_LINES[FAMILY[problem]][tag] + "\n")])
    out = capsys.readouterr()
    if tag in PROBLEM_TAGS[problem]:
        assert code in (0, 1) and out.err == ""
    else:
        assert (code, out.out, out.err) == (4, "", f"error: {tag} is not a {problem} solution tag\n")


def test_verify_exit_code_is_the_tag_predicate(tmp_path, capsys):
    for k, inst in enumerate(hand_built_line_tables()):
        kind, tags = ("eopl", EOPL_TAGS) if isinstance(inst, EoplInstance) else ("eoml", EOML_TAGS)
        path = write(tmp_path, f"{k}.{kind}", dump_line_table(inst))
        for x in all_configs(inst.n):
            for tag in tags:
                holds = tag_holds(inst, tag, x)
                code = main(["verify", kind, path, write(tmp_path, "x.sol", f"{tag} {x}\n")])
                assert code == (0 if holds else 1), (k, tag, x)
                verdict = "holds" if holds else "fails"
                assert capsys.readouterr().out == f"{tag} condition {verdict} at {x}\n"
            other = EOML_TAGS[0] if kind == "eopl" else EOPL_TAGS[0]
            assert main(["verify", kind, path, write(tmp_path, "x.sol", f"{other} {x}\n")]) == 4


def test_malformed_integer_tokens_exit_4(tmp_path, capsys):
    assert main(["follow", write(tmp_path, "a.eopl", EOPL_TABLE.replace("EOPL 2 2", "EOPL a 2"))]) == 4
    assert main(["follow", write(tmp_path, "v.eopl", EOPL_TABLE.replace("01 10 00 1", "01 10 00 one"))]) == 4
    assert main(["follow", write(tmp_path, "m.eopl", EOPL_TABLE.replace("EOPL 2 2", "EOPL 2 -1"))]) == 4
    bad_head = CONTRACTION_TEXT.replace("ARITH 1 2 1", "ARITH x 2 1")
    assert main(["reduce", "contraction-clo", write(tmp_path, "h.con", bad_head)]) == 4
    bad_dim = CONTRACTION_TEXT.replace("dim=1", "dim=one")
    assert main(["reduce", "contraction-clo", write(tmp_path, "d.con", bad_dim)]) == 4
    con = write(tmp_path, "k.con", CONTRACTION_TEXT)
    assert main(["verify", "contraction", con, write(tmp_path, "v.sol", "MMVIOL x 0 1\n")]) == 4
    assert main(["verify", "contraction", con, write(tmp_path, "w.sol", "MMVIOL\n")]) == 4
    lcp_path = write(tmp_path, "a.lcp", D1_LCP)
    assert main(["verify", "lcp", lcp_path, write(tmp_path, "q2.sol", "Q2 S={1,b} minor=0\n")]) == 4
    assert main(["solve-lcp", write(tmp_path, "b.lcp", "two\n1 0\n0 1\n-1 -1\n")]) == 4
    assert "not an integer: 'two'" in capsys.readouterr().err


def test_out_of_range_gate_operand_exits_4(tmp_path, capsys):
    bad_gate = CONTRACTION_TEXT.replace("MUL 0 1", "ADD 0 5")
    assert main(["reduce", "contraction-clo", write(tmp_path, "g.con", bad_gate)]) == 4
    assert "circuit at line 2: bad ADD gate at 1" in capsys.readouterr().err
    bad_out = CONTRACTION_TEXT.replace("MUL 0 1\n2\n", "MUL 0 1\n3\n")
    assert main(["reduce", "contraction-clo", write(tmp_path, "o.con", bad_out)]) == 4
    negative = CONTRACTION_TEXT.replace("ARITH 1 2 1", "ARITH 1 -2 1")
    assert main(["reduce", "contraction-clo", write(tmp_path, "n.con", negative)]) == 4


def test_empty_solution_file_exits_4(tmp_path, capsys):
    inst = write(tmp_path, "m.eoml", EOML_TABLE)
    assert main(["verify", "eoml", inst, "/dev/null"]) == 4
    assert main(["verify", "eoml", inst, write(tmp_path, "blank.sol", "\n  \n")]) == 4
    assert "empty solution file" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_malformed_table_rows_exit_4_naming_the_line(tmp_path, capsys, case):
    text, line = BAD_ROWS[case]
    kind = text.split()[0].lower()
    path = write(tmp_path, f"bad.{kind}", text)
    sol = write(tmp_path, "x.sol", ("R1" if kind == "eopl" else "T1") + " 10\n")
    reduce_kind = "eopl-eoml" if kind == "eopl" else "eoml-eopl"
    for argv in (
        ["follow", path],
        ["enumerate", path],
        ["verify", kind, path, sol],
        ["reduce", reduce_kind, path],
    ):
        assert main(argv) == 4, argv
        assert capsys.readouterr().err.startswith(f"error: line {line}: "), argv


# One command per fixture file kind; each file is a valid input as written.
MUTATION_CASES = [
    (["solve-lcp", "A"], {"A": DIAG_LCP}),
    (["check-pmatrix", "A"], {"A": NONP_LCP}),
    (["pipeline", "plcp", "A"], {"A": DIAG_LCP}),
    (["reduce", "plcp-eopl", "A"], {"A": D1_LCP}),
    (["verify", "lcp", "A", "B"], {"A": DIAG_LCP, "B": "Q1 2 2\n"}),
    (["verify", "lcp", "A", "B"], {"A": NONP_LCP, "B": "Q2 S={1} minor=0\n"}),
    (["follow", "A"], {"A": EOML_TABLE}),
    (["enumerate", "A"], {"A": EOPL_TABLE}),
    (["reduce", "eoml-eopl", "A"], {"A": EOML_TABLE}),
    (["reduce", "eopl-eoml", "A"], {"A": EOPL_TABLE}),
    (["verify", "eopl", "A", "B"], {"A": EOPL_TABLE, "B": "R1 10\n"}),
    (["verify", "eoml", "A", "B"], {"A": EOML_TABLE, "B": "T1 10\n"}),
    (["reduce", "clo-mmc", "A"], {"A": CLO_TEXT}),
    (["reduce", "contraction-clo", "A"], {"A": CONTRACTION_TEXT}),
    (["reduce", "mmc-gc", "A"], {"A": MMC_TEXT}),
    (["verify", "clo", "A", "B"], {"A": CLO_TEXT, "B": "C2a 0 1\n"}),
    (["verify", "contraction", "A", "B"], {"A": CONTRACTION_TEXT, "B": "CM1 1/2\n"}),
    (["verify", "mmc", "A", "B"], {"A": MMC_TEXT, "B": "MMVIOL 4 0 1/2 1\n"}),
]
NON_INTEGERS = ["x", "1.5", "1/2", "--1", "1e3", "0x10", "#", "0_1", "٢"]
OUT_OF_RANGE = ["-1", "0", "2", "7", "99", "-99", "100000"]
TOKEN = re.compile(r"[^\s=,{}]+")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.integers(0, len(MUTATION_CASES) - 1),
    which=st.integers(0, 1),
    pick=st.integers(0, 10**6),
    token=st.sampled_from(NON_INTEGERS + OUT_OF_RANGE),
)
def test_one_bad_token_never_raises(tmp_path_factory, case, which, pick, token):
    argv, files = MUTATION_CASES[case]
    name = sorted(files)[which % len(files)]
    spans = [m.span() for m in TOKEN.finditer(files[name])]
    start, end = spans[pick % len(spans)]
    texts = dict(files, **{name: files[name][:start] + token + files[name][end:]})
    base = tmp_path_factory.mktemp("mutated")
    paths = {}
    for key, text in texts.items():
        paths[key] = str(base / key)
        (base / key).write_text(text)
    assert main([paths.get(arg, arg) for arg in argv]) in (0, 1, 2, 3, 4)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["follow"], EOPL_TABLE.replace("01 10 00 1", "01 10 00 0_1")),  # int() reads 1
        (["follow"], EOPL_TABLE.replace("EOPL 2 2", "EOPL ٢ 2")),  # an Arabic-Indic two
        (["solve-lcp"], "٢\n2 0\n0 3\n-4 -6\n"),
        (["verify", "lcp", "DIAG"], "Q2 S={1_0} minor=0\n"),
    ],
    ids=["underscored value", "non-ASCII table width", "non-ASCII LCP dimension", "underscored Q2 index"],
)
def test_an_integer_token_that_is_not_ascii_digits_exits_4(tmp_path, capsys, argv, text):
    diag = write(tmp_path, "diag.lcp", DIAG_LCP)
    argv = [diag if arg == "DIAG" else arg for arg in argv]
    assert main(argv + [write(tmp_path, "a.txt", text)]) == 4
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, files", MUTATION_CASES)
def test_trailing_data_in_an_input_file_exits_4(tmp_path, capsys, argv, files):
    paths = {key: write(tmp_path, key, text) for key, text in files.items()}
    assert main([paths.get(arg, arg) for arg in argv]) in (0, 1)
    capsys.readouterr()
    trailing = write(tmp_path, "trailing", files["A"] + "TRAILING GARBAGE 1 2\n")
    assert main([dict(paths, A=trailing).get(arg, arg) for arg in argv]) == 4
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_clslab_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "clslab", "solve-lcp", write(tmp_path, "a.lcp", D1_LCP)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout) == (0, "Q1 1\n")
