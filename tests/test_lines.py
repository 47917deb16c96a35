import copy
import pickle
import random
import re
import tracemalloc
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from clslab import (
    BudgetExceededError,
    PreconditionError,
    R1,
    R2,
    T1,
    T2,
    T3,
    enumerate_solutions,
    eoml_verify,
    eopl_verify,
    follow_line,
    validate_instance,
)
from clslab.errors import DimensionError, InvariantViolationError, ParseError
from clslab.lines import (
    EOML_TAGS,
    EOPL_TAGS,
    PREDICATES,
    BitConfig,
    EomlInstance,
    EoplInstance,
    all_configs,
    dump_line_table,
    format_line_solution,
    load_line_table,
    parse_line_solution,
    table_instance,
    tag_holds,
    verify_solution,
)
from clslab.reductions import ImmediateSolution, eoml_to_eopl, eopl_to_eoml
from support import (
    BAD_ROWS,
    EOML_TABLE,
    EOPL_TABLE,
    TRIVIAL_EOPL,
    BitConfigRef,
    bench_gen,
    bitconfigs_built,
    bits,
    counted,
    dump_line_table_ref,
    follow_line_ref,
    gen_eoml_path,
    gen_eoml_random,
    gen_eopl_monotone,
    gen_eopl_tangle,
    hand_built_line_tables,
    load_line_table_ref,
    single_edge,
    two_bit_path,
)


def test_eopl_verify_examples():
    inst = two_bit_path("EOPL", [0, 1, 2], m=2)
    assert eopl_verify(inst, bits("10")) == R1(bits("10"))
    assert eopl_verify(inst, bits("01")) is None
    bent = two_bit_path("EOPL", [0, 1, 1], m=2)
    assert eopl_verify(bent, bits("01")) == R2(bits("01"))


def test_eoml_verify_examples():
    inst = two_bit_path("EOML", [1, 2, 3])
    assert eoml_verify(inst, bits("10")) == T1(bits("10"))
    flat = two_bit_path("EOML", [1, 1, 3])
    assert eoml_verify(flat, bits("01")) == T2(bits("01"))
    # odometer values live in [0, 2^n]; 4 is the largest legal jump target here
    jump = two_bit_path("EOML", [1, 2, 4])
    assert eoml_verify(jump, bits("01")) == T3(bits("01"))


def test_follow_line_examples():
    inst = two_bit_path("EOPL", [0, 1, 2], m=2)
    sol, trace = follow_line(inst, 8)
    assert sol == R1(bits("10"))
    assert [(str(x), v) for x, v in trace] == [("00", 0), ("01", 1), ("10", 2)]

    stuck = two_bit_path("EOPL", [0, 0, 2], m=2)
    sol, trace = follow_line(stuck, 8)
    assert sol == R2(bits("00")) and len(trace) == 1

    with pytest.raises(BudgetExceededError) as err:
        follow_line(inst, 1)
    assert len(err.value.trace) == 2


def test_enumerate_solutions_examples():
    inst = two_bit_path("EOPL", [0, 1, 2], m=2)
    assert enumerate_solutions(inst) == [R1(bits("10"))]
    wide = EoplInstance(n=21, m=1, s=lambda x: x, p=lambda x: x, v=lambda x: 0)
    with pytest.raises(PreconditionError, match="^instance width 21 exceeds limit 20$"):
        enumerate_solutions(wide)
    eoml = two_bit_path("EOML", [1, 2, 3])
    sols = enumerate_solutions(eoml)
    assert sols == [T1(bits("10"))]


def test_enumerate_single_edge_instance():
    # one real edge out of the start, everything else a self loop: the
    # solutions are exactly that edge's endpoints
    assert enumerate_solutions(single_edge(1)) == [R1(bits("01"))]
    assert enumerate_solutions(single_edge(0)) == [R2(bits("00")), R1(bits("01"))]


def test_validate_instance_examples():
    good = two_bit_path("EOPL", [0, 1, 2], m=2)
    assert validate_instance(good)
    bad_v = two_bit_path("EOPL", [1, 2, 3], m=2)
    report = validate_instance(bad_v)
    assert not report and any("V(0^n)" in t for t in report.violations)
    cfgs = list(all_configs(2))
    self_start = table_instance(
        "EOPL", 2, {c: c for c in cfgs}, {c: c for c in cfgs}, {c: 0 for c in cfgs}, 2
    )
    assert not validate_instance(self_start)


def test_follow_result_reverifies_and_enumerate_is_superset():
    rng = random.Random(5)
    for _ in range(30):
        inst = gen_eoml_random(rng, rng.randint(2, 5))
        assert validate_instance(inst)
        sol, _ = follow_line(inst, 1 << inst.n)
        assert verify_solution(inst, sol.x) is not None
        assert sol in enumerate_solutions(inst)


def test_totality_at_desk_scale():
    rng = random.Random(9)
    for n in (3, 6, 9, 12):
        inst = gen_eoml_path(rng, min(n, 6), corrupt=False) if n <= 6 else gen_eoml_random(rng, n)
        sol, _ = follow_line(inst, 1 << inst.n)
        assert verify_solution(inst, sol.x) is not None


def test_truth_table_round_trip():
    inst = two_bit_path("EOPL", [0, 1, 2], m=2)
    text = dump_line_table(inst)
    again = load_line_table(text)
    assert again.n == inst.n and again.m == inst.m
    for x in all_configs(2):
        assert again.S(x) == inst.S(x)
        assert again.P(x) == inst.P(x)
        assert again.V(x) == inst.V(x)


def _loops(n):
    """Self-loop maps over the n-bit configs, every V 0."""
    cfgs = list(all_configs(n))
    return {c: c for c in cfgs}, {c: c for c in cfgs}, {c: 0 for c in cfgs}


def _wide_key(table):
    """The map with its 11 key replaced by the three-bit 011."""
    out = {x: y for x, y in table.items() if x != bits("11")}
    out[bits("011")] = table[bits("11")]
    return out


# Maps that break the oracles' contract.  Table rows are ints, which carry no
# width to check at call time, so construction must reject each of these; a
# missing or three-bit key would otherwise surface as a bare KeyError at the
# first oracle call.
MALFORMED_MAPS = {
    "missing config": lambda s, p, v: ({x: y for x, y in s.items() if x != bits("10")}, p, v),
    "three-bit key": lambda s, p, v: (_wide_key(s), _wide_key(p), _wide_key(v)),
    "wide successor": lambda s, p, v: ({**s, bits("01"): bits("001")}, p, v),
    "narrow predecessor": lambda s, p, v: (s, {**p, bits("11"): bits("1")}, v),
    "value too large": lambda s, p, v: (s, p, {**v, bits("01"): 5}),
    "negative value": lambda s, p, v: (s, p, {**v, bits("01"): -1}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
@pytest.mark.parametrize("kind", ["EOPL", "EOML"])
def test_table_instance_rejects_a_malformed_map_at_construction(kind, case):
    s, p, v = MALFORMED_MAPS[case](*_loops(2))
    with pytest.raises(DimensionError):
        table_instance(kind, 2, s, p, v, 2 if kind == "EOPL" else None)


def test_table_instance_keeps_the_range_of_each_kind():
    s, p, v = _loops(2)
    # 3 is the top potential of m = 2 and 4 = 2^n the top odometer of n = 2
    assert table_instance("EOPL", 2, s, p, {**v, bits("11"): 3}, 2).V(bits("11")) == 3
    assert table_instance("EOML", 2, s, p, {**v, bits("11"): 4}).V(bits("11")) == 4
    with pytest.raises(DimensionError):
        table_instance("EOPL", 2, s, p, {**v, bits("11"): 4}, 2)
    with pytest.raises(DimensionError):
        table_instance("EOPL", 2, s, p, v)  # no potential width


def _rows(inst):
    return [(inst.S(x), inst.P(x), inst.V(x)) for x in all_configs(inst.n)]


def test_loader_gives_the_rows_of_the_dict_reference():
    rng = random.Random(17)
    tables = [dump_line_table(inst) for inst in hand_built_line_tables()]
    for n in (1, 3, 5, 7):
        tables.append(dump_line_table(gen_eoml_random(rng, n)))
        tables.append(dump_line_table(gen_eopl_tangle(rng, n, rng.randint(2, 4))))
    # comments, blank lines and ragged spacing are not rows
    tables.append("# a comment\n" + EOPL_TABLE.replace("\n", "  # note\n\n").replace(" ", "\t "))
    for text in tables:
        new, ref = load_line_table(text), load_line_table_ref(text)
        assert type(new) is type(ref) and new.n == ref.n and getattr(new, "m", None) == getattr(ref, "m", None)
        assert _rows(new) == _rows(ref)


def _bad_row(bad):
    return EOML_TABLE.replace("01 10 00 2", bad)


MALFORMED_TABLES = {case: text for case, (text, _) in BAD_ROWS.items()} | {
    "three tokens": _bad_row("01 10 00"),
    "five tokens": _bad_row("01 10 00 2 2"),
    "config text": _bad_row("0x 10 00 2"),
    "successor text": _bad_row("01 1_ 00 2"),
    "predecessor text": _bad_row("01 10 +0 2"),
    "wide config, narrow predecessor": _bad_row("011 10 0 2"),
    "wide config, predecessor text": _bad_row("011 10 0x 2"),
    "narrow config": _bad_row("1 10 00 2"),
    "value text": _bad_row("01 10 00 x"),
    "fractional value": _bad_row("01 10 00 2.0"),
    "repeated first row": _bad_row("00 10 00 2"),
    "repeated row, value text": _bad_row("00 10 00 x"),
    "repeated row of value 0": EOPL_TABLE.replace("01 10 00 1", "00 10 00 1"),
    "too few rows": "EOML 2\n00 01 00 1\n",
    "zero width": "EOML 0\n",
    "negative potential width": "EOPL 1 -1\n0 1 0 0\n1 1 0 1\n",
    "short header": "EOPL 1\n0 1 0 0\n1 1 0 1\n",
    "empty": "",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_loader_rejects_a_malformed_table_like_the_dict_reference(case):
    text = MALFORMED_TABLES[case]
    with pytest.raises(ParseError) as new:
        load_line_table(text)
    with pytest.raises(ParseError) as ref:
        load_line_table_ref(text)
    assert str(new.value) == str(ref.value)


def test_solution_line_round_trip():
    for sol in (R1(bits("10")), R2(bits("01")), T3(bits("11"))):
        assert parse_line_solution(format_line_solution(sol)) == sol


def test_bitconfig_helpers():
    x = BitConfig.from_int(5, 4)
    assert str(x) == "0101" and x.value == 5
    a, b = x.split(2)
    assert str(a) == "01" and str(b) == "01"
    assert str(a.concat(b)) == "0101"
    assert BitConfig.zeros(3).is_zero()


@pytest.mark.parametrize(
    "value, width, text",
    [(0, 0, ""), (0, 1, "0"), (1, 1, "1"), (1, 4, "0001"), (5, 8, "00000101"), (0, 3, "000"), (6, 3, "110")],
)
def test_bitconfig_str_bytes(value, width, text):
    assert str(BitConfig(value, width)).encode() == text.encode()
    assert str(BitConfig.from_int(value, width)) == text


@st.composite
def config_pairs(draw):
    """Two (value, width) pairs of width 0-20; the second is often the first,
    or the first's value one bit wider."""
    width = draw(st.integers(0, 20))
    a = (draw(st.integers(0, (1 << width) - 1)), width)
    width_b = draw(st.integers(0, 20))
    b = draw(st.sampled_from([a, (a[0], width + 1), (draw(st.integers(0, (1 << width_b) - 1)), width_b)]))
    return a, b


@settings(max_examples=400, deadline=None)
@given(pair=config_pairs())
def test_bitconfig_matches_the_tuple_reference(pair):
    (va, wa), (vb, wb) = pair
    a, b = BitConfig.from_int(va, wa), BitConfig.from_int(vb, wb)
    ref_a, ref_b = BitConfigRef.from_int(va, wa), BitConfigRef.from_int(vb, wb)
    # str spells every bit, so equal strings mean equal widths and values
    text = str(ref_a)
    assert str(a) == text and a.width == ref_a.width == wa
    assert a.value == ref_a.to_int() == va
    assert a.is_zero() == ref_a.is_zero()
    assert str(BitConfig.zeros(wa)) == str(BitConfigRef.zeros(wa))
    if text:
        parsed = BitConfig.from_string(text)
        assert str(parsed) == str(BitConfigRef.from_string(text))
        assert parsed == a and hash(parsed) == hash(a)
    for k in range(wa + 1):
        assert list(map(str, a.split(k))) == list(map(str, ref_a.split(k)))
    assert str(a.concat(b)) == str(ref_a.concat(ref_b))
    assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("text", ["", "012", "0_1", "+01", " 01", "-1", "01 ", "2"])
def test_bitconfig_rejects_bad_text_like_the_reference(text):
    with pytest.raises(ParseError) as new:
        BitConfig.from_string(text)
    with pytest.raises(ParseError) as ref:
        BitConfigRef.from_string(text)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("width", range(21))
def test_bitconfig_rejects_out_of_range_ints_like_the_reference(width):
    for value in (-1, 1 << width, -(1 << width) - 1):
        with pytest.raises(ValueError) as new:
            BitConfig.from_int(value, width)
        with pytest.raises(ValueError) as ref:
            BitConfigRef.from_int(value, width)
        assert str(new.value) == str(ref.value)


def test_bitconfig_is_an_immutable_pair_equal_only_to_bitconfigs():
    x = bits("01")
    assert (x.value, x.width) == (1, 2)
    assert x != bits("1") and x != bits("001")  # same value, other width
    assert x != 1 and x != (1, 2) and x != "01"
    assert len({x, bits("01"), BitConfig.from_int(1, 2)}) == 1
    with pytest.raises(AttributeError):
        x.value = 2
    with pytest.raises(AttributeError):
        del x.width
    assert copy.copy(x) == pickle.loads(pickle.dumps(x)) == x


# The solution predicates typed out from their definitions, oracle call by
# oracle call: an independent reference for the table in clslab.lines.
REFERENCE = {
    "R1": lambda inst, x: (inst.S(inst.P(x)) != x and not x.is_zero()) or inst.P(inst.S(x)) != x,
    "R2": lambda inst, x: x != inst.S(x)
    and inst.P(inst.S(x)) == x
    and inst.V(inst.S(x)) - inst.V(x) <= 0,
    "T1": lambda inst, x: (inst.S(inst.P(x)) != x and not x.is_zero()) or inst.P(inst.S(x)) != x,
    "T2": lambda inst, x: not x.is_zero() and inst.V(x) == 1,
    "T3": lambda inst, x: (inst.V(x) > 0 and inst.V(inst.S(x)) - inst.V(x) != 1)
    or (inst.V(x) > 1 and inst.V(x) - inst.V(inst.P(x)) != 1),
}
TAG_TYPES = {"R1": R1, "R2": R2, "T1": T1, "T2": T2, "T3": T3}


def inline_classifier(inst, x):
    """The classifiers written with one inline expression per tag; their
    oracle calls per config are the ceiling for the shared predicate table."""
    zero = BitConfig.zeros(inst.n)
    if isinstance(inst, EoplInstance):
        sx = inst.S(x)
        if (inst.S(inst.P(x)) != x and x != zero) or inst.P(sx) != x:
            return R1(x)
        if x != sx and inst.P(sx) == x and inst.V(sx) - inst.V(x) <= 0:
            return R2(x)
        return None
    if (inst.S(inst.P(x)) != x and x != zero) or inst.P(inst.S(x)) != x:
        return T1(x)
    vx = inst.V(x)
    if x != zero and vx == 1:
        return T2(x)
    if (vx > 0 and inst.V(inst.S(x)) - vx != 1) or (vx > 1 and vx - inst.V(inst.P(x)) != 1):
        return T3(x)
    return None


def line_instances():
    """Hand-built tables, random and path tables of both kinds, and reduced lines."""
    rng = random.Random(13)
    out = list(hand_built_line_tables())
    for _ in range(12):
        n = rng.randint(2, 4)
        out.append(gen_eoml_random(rng, n))
        out.append(gen_eoml_path(rng, n))
        out.append(gen_eopl_monotone(rng, n, rng.randint(2, 4)))
        loose = gen_eoml_random(rng, n)
        out.append(EoplInstance(n=n, m=n + 1, s=loose.s, p=loose.p, v=loose.v))
    out.append(eoml_to_eopl(gen_eoml_path(rng, 3)))
    for _ in range(8):
        target = eopl_to_eoml(gen_eopl_monotone(rng, 2, 3))
        if not isinstance(target, ImmediateSolution):
            out.append(target)
    return out


def test_classifiers_pick_the_first_reference_tag_that_holds():
    for inst in line_instances():
        tags = EOPL_TAGS if isinstance(inst, EoplInstance) else EOML_TAGS
        for x in all_configs(inst.n):
            holding = [tag for tag in tags if REFERENCE[tag](inst, x)]
            for tag in tags:
                assert tag_holds(inst, tag, x) == (tag in holding), (tag, x)
            want = TAG_TYPES[holding[0]](x) if holding else None
            assert verify_solution(inst, x) == want == inline_classifier(inst, x)


def test_classifiers_make_no_more_oracle_calls_than_inline_ones():
    for inst in line_instances():
        for x in all_configs(inst.n):
            shared, shared_calls = counted(inst)
            inline, inline_calls = counted(inst)
            verify_solution(shared, x)
            inline_classifier(inline, x)
            for name in "SPV":
                assert shared_calls[name] <= inline_calls[name], (name, x)
    # a 16-config path: the most calls per config, by oracle
    rng = random.Random(2)
    for inst, ceiling in (
        (gen_eopl_monotone(rng, 4, 5), {"S": 2, "P": 3, "V": 2}),
        (gen_eoml_path(rng, 4, corrupt=False), {"S": 3, "P": 3, "V": 3}),
    ):
        for x in all_configs(4):
            probe, calls = counted(inst)
            verify_solution(probe, x)
            assert all(calls[name] <= ceiling[name] for name in "SPV"), (x, calls)


def _walk(follow, inst, max_steps):
    try:
        return follow(inst, max_steps)
    except BudgetExceededError as exc:
        return type(exc).__name__, str(exc), exc.trace


def test_follow_matches_the_reference_walk_with_fewer_oracle_calls():
    for inst in line_instances():
        for max_steps in (1, 2, 3, 1 << inst.n):
            probe, calls = counted(inst)
            ref_probe, ref_calls = counted(inst)
            assert _walk(follow_line, probe, max_steps) == _walk(follow_line_ref, ref_probe, max_steps)
            assert all(calls[name] <= ref_calls[name] for name in "SPV"), (calls, ref_calls)


def test_follow_reads_the_step_memo_instead_of_asking_again():
    # a 15-step metered path: the reference walk asks 46 S, 31 P and 60 V
    inst = gen_eoml_path(random.Random(4), 6, corrupt=False)
    probe, calls = counted(inst)
    sol, trace = follow_line(probe, 1 << 6)
    assert (sol, trace) == follow_line_ref(inst, 1 << 6)
    assert len(trace) == 16
    assert calls["S"] <= 31 and calls["P"] <= 16 and calls["V"] <= 30, calls


def test_a_potential_is_range_checked_without_building_its_bound():
    m = 1 << 24  # 1 << m would take 2 MiB
    inst = load_line_table(TRIVIAL_EOPL)
    wide = EoplInstance(1, m, inst.s, inst.p, lambda x: (1 << 100) - 1 if x.value else 0)
    tracemalloc.start()
    try:
        assert wide.V(bits("1")) == wide.node(1)[2] == (1 << 100) - 1
        assert follow_line(wide, 4) == (R1(bits("1")), ((bits("0"), 0), (bits("1"), (1 << 100) - 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    for bad in (-1, 1 << 3):
        narrow = EoplInstance(1, 3, inst.s, inst.p, lambda x, bad=bad: bad)
        with pytest.raises(InvariantViolationError, match=re.escape(f"potential {bad} outside [0, 2^3)")):
            narrow.V(bits("1"))


def _follow_case(rng: random.Random, shape: str):
    """A random table, or a reduced line over one, of the named shape."""
    n = rng.randint(1, 4)
    if shape == "eoml random":
        return gen_eoml_random(rng, n)
    if shape == "eopl tangle":
        return gen_eopl_tangle(rng, n, rng.randint(1, 4))
    if shape == "eoml-eopl":
        return eoml_to_eopl(gen_eoml_random(rng, n))
    m = rng.randint(2, 4)
    return eopl_to_eoml(gen_eopl_tangle(rng, max(n, 2), m, rng.randint(2, (1 << m) - 1)))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    shape=st.sampled_from(["eoml random", "eopl tangle", "eoml-eopl", "eopl-eoml"]),
    oracle_built=st.booleans(),
    data=st.data(),
)
def test_follow_matches_the_reference_walk_on_random_lines(seed, shape, oracle_built, data):
    inst = _follow_case(random.Random(seed), shape)
    if isinstance(inst, ImmediateSolution):
        return
    if oracle_built:
        inst = counted(inst)[0]
    max_steps = data.draw(st.integers(1, 1 << (inst.n + 1)), label="max_steps")
    # the solution and trace, or the budget error's type, text and trace
    assert _walk(follow_line, inst, max_steps) == _walk(follow_line_ref, inst, max_steps)


def _wide_configs(n: int) -> list[BitConfig]:
    return [BitConfig(value, width) for width in (n - 1, n + 1) for value in (0, 1)]


def test_a_config_of_the_wrong_width_raises_the_same_dimension_error_everywhere():
    insts = [load_line_table(EOPL_TABLE), load_line_table(EOML_TABLE)]
    insts += [counted(inst)[0] for inst in insts]
    for inst in insts:
        verify = eopl_verify if isinstance(inst, EoplInstance) else eoml_verify
        for x in _wide_configs(inst.n):
            checks = [lambda: verify(inst, x), lambda: verify_solution(inst, x)]
            checks += [lambda tag=tag: tag_holds(inst, tag, x) for tag in PREDICATES]
            for check in checks:
                with pytest.raises(DimensionError) as err:
                    check()
                # the text of the checked oracles; T2 at a wide zero now raises too
                assert str(err.value) == f"config width {x.width}, instance width {inst.n}"


def recording(inst):
    """An oracle-built copy whose S and P answer with new objects; it notes
    every object the oracles are handed and every one they return."""
    handed, returned = [], []

    def fresh(oracle):
        def call(x):
            handed.append(x)
            out = BitConfig(oracle(x).value, inst.n)
            returned.append(out)
            return out

        return call

    def v(x):
        handed.append(x)
        return inst.v(x)

    oracles = dict(s=fresh(inst.s), p=fresh(inst.p), v=v)
    if isinstance(inst, EoplInstance):
        return EoplInstance(n=inst.n, m=inst.m, **oracles), handed, returned
    return EomlInstance(n=inst.n, **oracles), handed, returned


def _ids(objs) -> set[int]:
    return {id(obj) for obj in objs}


def test_oracles_are_handed_the_configs_that_earlier_answers_returned():
    for source in line_instances():
        inst, handed, returned = recording(source)
        trace = _walk(follow_line, inst, 1 << inst.n)[-1]
        # past the start, each config is an object an oracle returned
        assert _ids(handed) | _ids(x for x, _ in trace) <= _ids(returned) | {id(trace[0][0])}
        for x in list(all_configs(inst.n))[:4]:
            inst, handed, returned = recording(source)
            sol = verify_solution(inst, x)
            assert _ids(handed) <= _ids(returned) | {id(x)}
            assert sol is None or sol.x is x


def test_a_follow_on_a_table_builds_one_bitconfig_per_trace_step():
    rng = random.Random(61)
    gen = bench_gen()
    insts = [load_line_table(gen.eoml_table(rng, n, corrupt=n % 2 == 0).text) for n in (3, 6, 8)]
    insts += [load_line_table(gen.eopl_table(rng, n, 6).text) for n in (3, 6)]
    insts += [eoml_to_eopl(insts[2]), eopl_to_eoml(insts[4]), eoml_to_eopl(eopl_to_eoml(insts[3]))]
    longest = 0
    for inst in insts:
        for max_steps in (1, 3, 1 << inst.n):
            with bitconfigs_built() as built:
                trace = _walk(follow_line, inst, max_steps)[-1]
            assert built["BitConfig"] <= len(trace) + 1, (inst.n, max_steps)
            longest = max(longest, len(trace))
    assert longest > 20


def test_enumerate_builds_a_config_only_for_each_solution():
    rng = random.Random(67)
    gen = bench_gen()
    insts = line_instances()
    insts += [load_line_table(gen.eoml_table(rng, 5, corrupt=True).text)]
    insts += [load_line_table(gen.eopl_table(rng, 4, 5).text)]
    insts += [eoml_to_eopl(insts[-2]), eopl_to_eoml(insts[-1])]
    for inst in insts:
        want = [sol for sol in map(partial(inline_classifier, inst), all_configs(inst.n)) if sol]
        with bitconfigs_built() as built:
            assert enumerate_solutions(inst) == want
        if inst.raw_node is not None:
            assert built["BitConfig"] == len(want)


# ----------------------------------------------------------------------------
# dumps: one checked node per row


def test_dump_matches_the_bitconfig_reference():
    rng = random.Random(53)
    gen = bench_gen()
    insts = list(hand_built_line_tables())
    for n in (2, 3, 5, 8):
        insts.append(load_line_table(gen.eopl_table(rng, n, rng.randint(3, 7)).text))
        insts.append(load_line_table(gen.eoml_table(rng, n, corrupt=n >= 5).text))
        insts.append(gen_eopl_tangle(rng, n, rng.randint(2, 4)))
        insts.append(gen_eoml_random(rng, n))
    insts += [counted(inst)[0] for inst in insts]  # public constructor: no raw node
    insts.append(EoplInstance(0, 1, s=lambda x: x, p=lambda x: x, v=lambda x: 1))  # width 0
    for inst in insts:
        assert dump_line_table(inst) == dump_line_table_ref(inst)
    for text in (EOPL_TABLE, EOML_TABLE):
        assert dump_line_table(load_line_table(text)) == text


def _at_10(oracle, bad):
    """The oracle, with bad(x) in place of its answer at config 10."""
    return lambda x: bad(x) if x == bits("10") else oracle(x)


# Public-constructor instances that break the contract at config 10 only:
# a one-bit successor, a three-bit predecessor, V one above its range.
MISBEHAVING = {
    "successor width": lambda i: EoplInstance(2, 2, _at_10(i.s, lambda x: BitConfig(1, 1)), i.p, i.v),
    "predecessor width": lambda i: EoplInstance(2, 2, i.s, _at_10(i.p, lambda x: BitConfig(2, 3)), i.v),
    "potential range": lambda i: EoplInstance(2, 2, i.s, i.p, _at_10(i.v, lambda x: 4)),
    "odometer range": lambda i: EomlInstance(2, i.s, i.p, _at_10(i.v, lambda x: 5)),
}


@pytest.mark.parametrize("case", sorted(MISBEHAVING))
def test_dumping_a_misbehaving_instance_raises_the_reference_error(case):
    inst = MISBEHAVING[case](load_line_table(EOPL_TABLE))
    with pytest.raises(InvariantViolationError) as ref:
        dump_line_table_ref(inst)
    with pytest.raises(InvariantViolationError) as new:
        dump_line_table(inst)
    assert str(new.value) == str(ref.value)
    with pytest.raises(InvariantViolationError) as node:
        inst.node(2)
    assert str(node.value) == str(ref.value)


def test_node_checks_a_raw_node_once_per_call():
    good = load_line_table(EOML_TABLE)
    assert [good.node(x) for x in range(4)] == [(1, 0, 1), (2, 0, 2), (2, 1, 3), (3, 3, 0)]
    for raw, message in [
        ((4, 0, 1), "successor oracle changed the width"),
        ((0, -1, 1), "predecessor oracle changed the width"),
        ((0, 0, 5), "odometer 5 outside [0, 2^2]"),
    ]:
        inst = EomlInstance(2, good.s, good.p, good.v, raw_node=lambda x, raw=raw: raw)
        with pytest.raises(InvariantViolationError, match=re.escape(message)):
            inst.node(0)
