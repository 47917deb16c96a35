from clslab.cli import main
from clslab.lines import all_configs, load_line_table


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


D1_LCP = "1\n1\n-1\n"
DIAG_LCP = "2\n2 0\n0 3\n-4 -6\n"
NONNEG_LCP = "2\n2 0\n0 3\n3 1\n"
DEGENERATE_LCP = "2\n1 0\n0 1\n-1 -1\n"
NONP_LCP = "1\n0\n-1\n"
EOML_TABLE = "\n".join(
    [
        "EOML 2",
        "00 01 00 1",
        "01 10 00 2",
        "10 10 01 3",
        "11 11 11 0",
    ]
) + "\n"


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


def test_explicit_zero_is_not_the_default(tmp_path, capsys):
    path = write(tmp_path, "a.eoml", EOML_TABLE)
    assert main(["follow", path, "--max-steps", "0"]) == 4
    assert "max_steps must be at least 1" in capsys.readouterr().err


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
    trivial = write(
        tmp_path,
        "t.eopl",
        "EOPL 1 2\n0 1 0 0\n1 1 0 1\n",
    )
    assert main(["reduce", "eopl-eoml", trivial, "-o", str(tmp_path / "t.eoml")]) == 0
    assert "immediate-solution" in capsys.readouterr().out


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

    con_text = "\n".join(
        [
            "CONTRACTION dim=1 r=1 eps=1/4 c=1/2 delta=1/2",
            "ARITH 1 2 1",
            "CONST 1/2",
            "MUL 0 1",
            "2",
        ]
    ) + "\n"
    src2 = write(tmp_path, "k.con", con_text)
    assert main(["reduce", "contraction-clo", src2, "-o", str(tmp_path / "k.clo")]) == 0
    text = (tmp_path / "k.clo").read_text()
    assert "eps=1/4" in text and "lambda=3/2" in text


def test_verify_command(tmp_path, capsys):
    lcp_path = write(tmp_path, "a.lcp", D1_LCP)
    good = write(tmp_path, "good.sol", "Q1 1\n")
    bad = write(tmp_path, "bad.sol", "Q1 2\n")
    assert main(["verify", "lcp", lcp_path, good]) == 0
    assert main(["verify", "lcp", lcp_path, bad]) == 1

    eopl = write(
        tmp_path,
        "p.eopl",
        "EOPL 2 2\n00 01 00 0\n01 10 00 1\n10 10 01 2\n11 11 11 0\n",
    )
    assert main(["verify", "eopl", eopl, write(tmp_path, "r1.sol", "R1 10\n")]) == 0
    assert main(["verify", "eopl", eopl, write(tmp_path, "r2.sol", "R2 10\n")]) == 1
    assert main(["verify", "eoml", write(tmp_path, "m.eoml", EOML_TABLE),
                 write(tmp_path, "t1.sol", "T1 10\n")]) == 0

    mmc_text = "\n".join(
        [
            "MMC dim=1 r=1 eps=1/4 c=1/2 delta_d=1 lambda=1",
            "ARITH 1 2 1",
            "CONST 1/2",
            "MUL 0 1",
            "2",
            "ARITH 2 3 1",
            "SUB 0 1",
            "ABS 2",
            "CONST 1",
            "3",
        ]
    ) + "\n"
    mmc = write(tmp_path, "i.mmc", mmc_text)
    # the distance is a metric, so a triangle-violation claim must fail
    viol = write(tmp_path, "v.sol", "MMVIOL 4 0 1/2 1\n")
    assert main(["verify", "mmc", mmc, viol]) == 1
    good_m1 = write(tmp_path, "m1.sol", "M1 1/4\n")
    assert main(["verify", "mmc", mmc, good_m1]) == 0

    con_text = "\n".join(
        [
            "CONTRACTION dim=1 r=1 eps=1/4 c=1/2 delta=1/2",
            "ARITH 1 2 1",
            "CONST 1/2",
            "MUL 0 1",
            "2",
        ]
    ) + "\n"
    con = write(tmp_path, "h.con", con_text)
    assert main(["verify", "contraction", con, write(tmp_path, "cm1.sol", "CM1 1/2\n")]) == 0
    assert main(["verify", "contraction", con, write(tmp_path, "cm2.sol", "CM2 0 1\n")]) == 1

    clo_text = "\n".join(
        [
            "CLO dim=1 r=1 eps=1/4 lambda=1",
            "ARITH 1 2 1",
            "CONST 1/2",
            "MUL 0 1",
            "2",
            "ARITH 1 0 1",
            "0",
        ]
    ) + "\n"
    clo = write(tmp_path, "h.clo", clo_text)
    assert main(["verify", "clo", clo, write(tmp_path, "c1.sol", "C1 1/4\n")]) == 0
    assert main(["verify", "clo", clo, write(tmp_path, "c2a.sol", "C2a 0 1\n")]) == 1


def test_enumerate_command(tmp_path, capsys):
    eopl = write(
        tmp_path,
        "p.eopl",
        "EOPL 2 2\n00 01 00 0\n01 10 00 1\n10 10 01 2\n11 11 11 0\n",
    )
    assert main(["enumerate", eopl]) == 0
    assert capsys.readouterr().out.strip() == "R1 10"


def test_usage_errors(tmp_path):
    assert main(["reduce", "nope", "x"]) == 4
    assert main(["verify", "lcp", "missing", "missing"]) == 4
    assert main([]) == 4
