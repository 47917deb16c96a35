import gc
import itertools
import math
import random
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as F

import pytest

from clslab import (
    DegeneracyError,
    DimensionError,
    InvariantViolationError,
    PreconditionError,
    QMatrix,
    QVector,
    R2,
    enumerate_solutions,
    follow_line,
    is_p_matrix,
    lemke_solve,
    validate_instance,
)
from clslab import lcp
from clslab.lcp import Q1, Q2, _Tableau, check_outcome
from clslab.lines import BitConfig, all_configs, eopl_verify
from clslab.reductions import (
    eopl_sol_to_plcp,
    etoi,
    is_valid_config,
    itoe,
    make_context,
    plcp_to_eopl,
)
from clslab.reductions import lcp_line
from clslab.reductions.lcp_line import (
    PlcpEoplContext,
    _config_tight,
    _node,
    _pivoted_code,
    _tableau_at,
    potential,
    predecessor,
    successor,
)
from support import (
    BitConfigRef,
    bits,
    ceil_log2_ref,
    config_point_ref,
    config_tight_ref,
    copies,
    dd_lcp,
    gen_nonp_lcp,
    gen_p_lcp,
    gen_reduction_safe_lcp,
    is_valid_config_ref,
    itoe_ref,
    make_lcp,
    murty_lcp,
    random_lcp,
    tight_point,
)


def d1_instance():
    return make_lcp([[1]], [-1])


def test_context_constants_d1():
    ctx = make_context(d1_instance())
    assert ctx.n == 2
    assert ctx.delta == 3  # 2! * 1^3 + 1
    assert ctx.m == 6  # ceil(log2(2 * 27)) = 6


def test_context_m_matches_the_ceil_log2_reference():
    rng = random.Random(11)
    for d in range(1, 7):
        # rational entries; q's first entry is the largest in size and the
        # unique minimum, so the start is not degenerate
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)] for _ in range(d)]
        q = [F(-(30 * (d - i) + 1), 3) for i in range(d)]
        ctx = make_context(make_lcp(rows, q))
        # Delta is read off the integer data D M, D q
        scale = math.lcm(*(x.denominator for row in rows + [q] for x in row))
        largest = max(abs(x) * scale for row in rows + [q] for x in row)
        assert type(ctx.delta) is int and ctx.scale == scale > 1, d
        assert ctx.delta == math.factorial(2 * d) * largest ** (2 * d + 1) + 1, d
        assert ctx.m == ceil_log2_ref(F(2 * ctx.delta**3)), d


def test_is_valid_config_examples():
    ctx = make_context(d1_instance())
    assert is_valid_config(ctx, bits("00"))
    assert is_valid_config(ctx, bits("11"))  # the start vertex
    d2 = make_lcp([[2, 0], [0, 3]], [-4, -6])
    ctx2 = make_context(d2)
    assert not is_valid_config(ctx2, bits("0011"))  # two duplicate-label bits


def test_oracles_reject_a_config_of_the_wrong_width():
    ctx = make_context(d1_instance())
    for oracle in (is_valid_config, successor, predecessor, potential):
        for text in ("0", "1", "000", "011", "110", "1111"):
            with pytest.raises(PreconditionError) as info:
                oracle(ctx, bits(text))
            assert str(info.value) == f"config width {len(text)}, expected 2", (oracle, text)


def test_potential_raises_rather_than_return_a_nonpositive_value():
    # a context whose Delta does not bound z: the start vertex (z = 1) of the
    # d = 1 line would get floor(1 * (1 - 1)) = 0, which no valid config may have
    small = replace(make_context(d1_instance()), delta=1)
    with pytest.raises(InvariantViolationError, match="^potential 0 <= 0 at the valid config 11$"):
        potential(small, bits("11"))
    with pytest.raises(InvariantViolationError):
        is_valid_config(small, bits("11"))
    assert potential(small, bits("01")) == 0 and not is_valid_config(small, bits("01"))


def test_etoi_itoe_examples():
    ctx = make_context(d1_instance())
    y, s, z = etoi(ctx, bits("11"))
    assert (tuple(y), tuple(s), z) == ((F(0),), (F(0),), F(1))
    assert itoe(ctx, y, s, z) == bits("11")
    # a z = 0 solution point leaves the duplicate-label half empty
    assert itoe(ctx, QVector.of([1]), QVector.of([0]), F(0)) == bits("10")
    # a non-complementary point is flagged invalid
    d2 = make_lcp([[2, 0], [0, 3]], [-4, -6])
    ctx2 = make_context(d2)
    sentinel = itoe(ctx2, QVector.of([1, 1]), QVector.of([1, 1]), F(0))
    assert not is_valid_config(ctx2, sentinel)
    # invalid configs decode to the all-zeros sentinel triple
    y, s, z = etoi(ctx2, bits("0011"))
    assert all(v == 0 for v in y) and all(v == 0 for v in s) and z == 0


def test_itoe_returns_the_sentinel_for_both_invalid_inputs():
    ctx = make_context(make_lcp([[2, 0, 0], [0, 3, 0], [0, 0, 1]], [-4, -6, -1]))
    sentinel = BitConfig(0b000001, 6)
    # y_1 s_1 != 0: not complementary
    assert itoe(ctx, QVector.of([1, 0, 0]), QVector.of([1, 0, 1]), F(0)) == sentinel
    # y_2 = s_2 = 0 and y_3 = s_3 = 0: two duplicate labels
    assert itoe(ctx, QVector.of([1, 0, 0]), QVector.of([0, 0, 0]), F(1)) == sentinel


def test_itoe_sentinel_is_invalid_at_every_small_d():
    for d in range(1, 6):
        ctx = make_context(make_lcp([[2 if i == j else 0 for j in range(d)] for i in range(d)],
                                    [-(i + 1) for i in range(d)]))
        # y_1 s_1 != 0: not complementary
        sentinel = itoe(ctx, QVector.of([1] * d), QVector.of([1] * d), F(0))
        assert sentinel == BitConfig(1, 2 * d), d
        assert _config_tight(ctx, sentinel) is None, d
        assert not is_valid_config(ctx, sentinel), d


def test_context_hash_is_the_field_hash_and_is_kept():
    inst = make_lcp([[3, 1], [-1, 2]], [-1, "-1/2"])
    ctx = make_context(inst)
    before = repr(ctx)
    assert hash(ctx) == hash((inst, ctx.n, ctx.delta, ctx.m))
    assert hash(ctx) == hash((inst, ctx.n, ctx.delta, ctx.m))
    assert repr(ctx) == before
    assert [f.name for f in fields(ctx)] == ["inst", "n", "delta", "m", "start", "calibration", "scale"]
    with pytest.raises(FrozenInstanceError):
        ctx.delta = F(1)
    # start, calibration and scale take no part in equality or hashing
    twin = replace(ctx, calibration=-ctx.calibration, scale=ctx.scale + 1)
    assert twin == ctx and hash(twin) == hash(ctx)


@pytest.mark.parametrize("hashed_first", [False, True], ids=["unhashed", "hashed"])
def test_context_copies_equal_and_hash_like_a_fresh_one(hashed_first):
    inst = make_lcp([[4, -1, 0], [1, 5, 1], [0, 0, 3]], [-1, "2/7", -3])
    ctx = make_context(inst)
    if hashed_first:
        hash(ctx)
    fresh = PlcpEoplContext(
        inst=make_lcp([[4, -1, 0], [1, 5, 1], [0, 0, 3]], [-1, "2/7", -3]),
        n=ctx.n,
        delta=ctx.delta,
        m=ctx.m,
        start=ctx.start,
        calibration=ctx.calibration,
        scale=ctx.scale,
    )
    start = successor(ctx, BitConfig.zeros(ctx.n))
    for how, twin in copies(ctx).items():
        assert twin == fresh and fresh == twin, how
        assert hash(twin) == hash(fresh) == hash((fresh.inst, fresh.n, fresh.delta, fresh.m)), how
        assert repr(twin) == repr(fresh), how
        assert (twin.start, twin.calibration, twin.scale) == (ctx.start, ctx.calibration, ctx.scale), how
        # an equal context answers from the memo the original filled
        hits = successor.cache_info().hits
        assert successor(twin, BitConfig.zeros(twin.n)) == start, how
        assert successor.cache_info().hits == hits + 1, how


def test_following_a_line_hashes_each_instance_once(monkeypatch):
    calls = []
    generated = QMatrix.__hash__

    def counting(self):
        calls.append(self)
        return generated(self)

    monkeypatch.setattr(QMatrix, "__hash__", counting)
    inst = dd_lcp(random.Random(19), 6)
    sol, trace = follow_line(plcp_to_eopl(inst), 10000)
    assert len(trace) == 8  # one step to the start vertex, then six pivots
    assert isinstance(eopl_sol_to_plcp(inst, sol.x), Q1)
    assert len(calls) <= 1


def test_procedures_d1_walkthrough():
    inst = d1_instance()
    ctx = make_context(inst)
    assert successor(ctx, bits("00")) == bits("11")
    assert successor(ctx, bits("11")) == bits("10")
    assert successor(ctx, bits("10")) == bits("10")
    assert predecessor(ctx, bits("00")) == bits("00")
    assert predecessor(ctx, bits("11")) == bits("00")
    assert predecessor(ctx, bits("10")) == bits("11")
    assert potential(ctx, bits("00")) == 0
    assert potential(ctx, bits("11")) == 18  # floor(9 * (3 - 1))
    assert potential(ctx, bits("10")) == 27  # floor(9 * 3)
    # dummy configs self-loop with zero potential
    assert successor(ctx, bits("01")) == bits("01")
    assert predecessor(ctx, bits("01")) == bits("01")
    assert potential(ctx, bits("01")) == 0


def test_reduced_instance_validates_and_follows():
    inst = d1_instance()
    target = plcp_to_eopl(inst)
    assert validate_instance(target)
    assert target.V(BitConfig.zeros(2)) == 0
    sol, trace = follow_line(target, 8)
    assert eopl_sol_to_plcp(inst, sol.x) == Q1(QVector.of([1]))
    # direct route agrees exactly
    assert lemke_solve(inst).outcome == Q1(QVector.of([1]))


def test_back_map_q2_and_errors():
    inst = make_lcp([[0]], [-1])
    target = plcp_to_eopl(inst)
    sol, _ = follow_line(target, 8)
    assert eopl_sol_to_plcp(inst, sol.x) == Q2(frozenset({1}), F(0))
    with pytest.raises(PreconditionError):
        eopl_sol_to_plcp(inst, BitConfig.zeros(2))  # not a solution config
    with pytest.raises(PreconditionError):
        eopl_sol_to_plcp(d1_instance(), bits("11"))  # interior point of the line


def test_rejects_trivial_and_degenerate_instances():
    with pytest.raises(PreconditionError):
        make_context(make_lcp([[1]], [2]))
    with pytest.raises(DegeneracyError):
        make_context(make_lcp([[1, 0], [0, 1]], [-1, -1]))


@pytest.mark.parametrize("m, q, y", [("1/50", "-1/20", "5/2"), ("2/5", "-1/10", "1/4")])
def test_small_rational_data_keeps_the_potential_climbing(m, q, y):
    # Delta taken from the raw entries was 4001/4000 and 141/125 here, too small
    # for floor(Delta^2 (Delta - z)) to tell the start's z from the end's
    inst = make_lcp([[m]], [q])
    ctx = make_context(inst)
    target = plcp_to_eopl(inst)
    end = successor(ctx, successor(ctx, bits("00")))
    assert 0 < target.V(successor(ctx, bits("00"))) < target.V(end)
    if m == "1/50":  # D = 100, Delta = 2! * 5^3 + 1 = 251 and D z = 5 at the start
        assert (target.V(bits("11")), target.V(bits("10"))) == (251**2 * (251 - 5), 251**3)
    sol, _ = follow_line(target, 8)
    assert eopl_sol_to_plcp(inst, sol.x) == lemke_solve(inst).outcome == Q1(QVector.of([y]))


def test_direct_and_reduced_routes_agree_on_small_rational_lcps():
    rng = random.Random(2024)

    def frac():
        return F(rng.randint(-60, 60), rng.randint(10, 1000))

    agreed = 0
    for _ in range(300):
        d = rng.randint(1, 3)
        inst = make_lcp([[frac() for _ in range(d)] for _ in range(d)], [frac() for _ in range(d)])
        if min(inst.q) >= 0:
            continue
        try:
            direct = lemke_solve(inst).outcome
            sol, trace = follow_line(plcp_to_eopl(inst), 2 ** (2 * d) + 1)
        except DegeneracyError:
            continue
        # the potential along the line is floor(Delta^2 (Delta - D z)), D the lcm of the denominators
        ctx = make_context(inst)
        scale = math.lcm(*(x.denominator for row in inst.m.entries + (tuple(inst.q),) for x in row))
        for x, v in trace[1:]:
            assert v == math.floor(ctx.delta**2 * (ctx.delta - scale * etoi(ctx, x)[2])), inst
        reduced = eopl_sol_to_plcp(inst, sol.x)
        assert type(reduced) is type(direct), inst
        if isinstance(direct, Q1):
            assert reduced == direct, inst
        else:
            assert check_outcome(inst, reduced)[0] and check_outcome(inst, direct)[0], inst
        agreed += 1
    assert agreed >= 200


def test_round_trip_on_all_valid_configs():
    rng = random.Random(21)
    for _ in range(6):
        inst = gen_reduction_safe_lcp(rng, rng.randint(1, 3))
        ctx = make_context(inst)
        for u in all_configs(ctx.n):
            if is_valid_config(ctx, u):
                y, s, z = etoi(ctx, u)
                assert itoe(ctx, y, s, z) == u


def test_potential_orders_like_z():
    rng = random.Random(33)
    for _ in range(4):
        inst = gen_reduction_safe_lcp(rng, rng.randint(2, 3))
        ctx = make_context(inst)
        valid = [
            u
            for u in all_configs(ctx.n)
            if not u.is_zero() and is_valid_config(ctx, u)
        ]
        for a in valid:
            za = etoi(ctx, a)[2]
            assert 0 <= za <= ctx.delta - 1
            for b in valid:
                zb = etoi(ctx, b)[2]
                va, vb = potential(ctx, a), potential(ctx, b)
                assert (va == vb) == (za == zb)
                assert (va > vb) == (za < zb)


def test_no_potential_violation_solutions():
    rng = random.Random(55)
    for _ in range(5):
        inst = gen_reduction_safe_lcp(rng, rng.randint(1, 3))
        target = plcp_to_eopl(inst)
        assert not any(isinstance(s, R2) for s in enumerate_solutions(target))


def test_potential_fits_declared_width():
    rng = random.Random(77)
    for _ in range(4):
        inst = gen_reduction_safe_lcp(rng, rng.randint(1, 3))
        ctx = make_context(inst)
        target = plcp_to_eopl(inst)
        for u in all_configs(ctx.n):
            assert 0 <= target.V(u) < (1 << ctx.m)


def test_nonp_line_end_maps_to_verified_witness():
    rng = random.Random(99)
    found = 0
    while found < 4:
        inst = gen_reduction_safe_lcp(rng, 2)
        if is_p_matrix(inst.m):
            continue
        target = plcp_to_eopl(inst)
        sol, _ = follow_line(target, 2 ** target.n + 1)
        mapped = eopl_sol_to_plcp(inst, sol.x)
        if isinstance(mapped, Q2):
            from clslab import principal_minor

            assert principal_minor(inst.m, mapped.index_set) == mapped.minor <= 0
            found += 1


def test_config_decoding_matches_tight_system_oracle():
    # every config of small instances, singular tight sets included, decodes
    # to the oracle's solution of its tight system (None when singular); the
    # tableau's integer validity rule agrees with the Fraction one, and a
    # valid config's tableau holds the same point
    rng = random.Random(23)
    decoded = singular = valid = 0
    for _ in range(60):
        inst = random_lcp(rng, rng.randint(2, 3), span=2)
        if min(inst.q) >= 0:
            continue
        try:
            ctx = make_context(inst)
        except DegeneracyError:
            continue
        for u in all_configs(ctx.n):
            tight = _config_tight(ctx, u)
            if tight is None:
                continue
            want = tight_point(inst, tight)
            point = config_point_ref(ctx, u)
            assert point == (None if want is None else tuple(want))
            decoded += 1
            singular += want is None
            ok = is_valid_config_ref(ctx, u)
            assert is_valid_config(ctx, u) == ok, u
            tab = None if u.is_zero() else _tableau_at(ctx, u)
            assert (tab is not None) == (ok and not u.is_zero()), u
            if tab is not None:
                assert tuple(tab.values()) == point
                valid += 1
    assert decoded >= 500 and singular >= 50 and valid >= 50


def test_config_codec_matches_the_tuple_reference():
    # the instances of this module, d <= 3: every config's tight set, and the
    # config that its decoded point (a sentinel on dummies) encodes back to
    insts = [d1_instance(), make_lcp([[2, 0], [0, 3]], [-4, -6]), make_lcp([[0]], [-1])]
    rng = random.Random(21)
    insts += [gen_reduction_safe_lcp(rng, rng.randint(1, 3)) for _ in range(6)]
    seen = set()
    for inst in insts:
        ctx = make_context(inst)
        d = inst.d
        for u in all_configs(ctx.n):
            ref = BitConfigRef.from_string(str(u))
            assert _config_tight(ctx, u) == config_tight_ref(d, ref.bits)
            y, s, z = etoi(ctx, u)
            assert str(itoe(ctx, y, s, z)) == str(BitConfigRef(itoe_ref(d, y, s)))
            seen.add((d, _config_tight(ctx, u) is None, is_valid_config(ctx, u)))
        point = QVector.of([1] * d)  # not complementary
        assert str(itoe(ctx, point, point, F(0))) == str(BitConfigRef(itoe_ref(d, point, point)))
    assert {d for d, _, _ in seen} == {1, 2, 3}
    assert {(dummy, valid) for _, dummy, valid in seen} == {(True, False), (False, False), (False, True)}


def test_etoi_rejects_a_config_of_the_wrong_width():
    ctx = make_context(d1_instance())
    for text in ("0", "000", "0000", "1", "011", "1111"):
        with pytest.raises(PreconditionError) as info:
            etoi(ctx, bits(text))
        assert str(info.value) == f"config width {len(text)}, expected 2", text


@pytest.mark.parametrize(
    "y, s",
    [([1], [0, 1]), ([1, 0], [0]), ([1, 0, 0], [0, 1, 0]), ([1, 0], [0, 1, 0])],
    ids=["y-short", "s-short", "both-long", "s-long"],
)
def test_itoe_rejects_coordinates_of_the_wrong_length(y, s):
    ctx = make_context(make_lcp([[2, 0], [0, 3]], [-4, -6]))
    with pytest.raises(DimensionError) as info:
        itoe(ctx, QVector.of(y), QVector.of(s), F(0))
    assert str(info.value) == f"y and s have lengths {len(y)} and {len(s)}, expected 2"


def _outcome(call):
    """A call's value, or the type and text of what it raised."""
    try:
        return call()
    except (DegeneracyError, InvariantViolationError) as exc:
        return type(exc), str(exc)


def _node_instances():
    rng = random.Random(25)
    insts = [gen_p_lcp(rng, d) for d in (1, 2, 3, 3)] + [gen_nonp_lcp(rng, d) for d in (1, 2, 3, 3)]
    insts += [make_lcp([["1/50"]], ["-1/20"]), make_lcp([["2/5"]], ["-1/10"]), murty_lcp(4)]
    insts += [make_lcp([[F(rng.randint(-60, 60), rng.randint(10, 99)) for _ in range(2)] for _ in range(2)],
                       [F(-rng.randint(1, 60), rng.randint(10, 99)) for _ in range(2)]) for _ in range(4)]
    insts += [random_lcp(rng, rng.randint(2, 3), span=2) for _ in range(80)]
    # the start's forward step ties at each of these
    insts += [make_lcp(m, q) for m, q in [([[1, -1], [1, 1]], [1, -1]), ([[1, 2], [-2, -1]], [-1, 2]),
                                          ([[-2, 0], [1, 1]], [0, -2]), ([[2, 1], [1, 0]], [-2, -1])]]
    out = []
    for inst in insts:
        try:
            out.append((inst, make_context(inst)))
        except (DegeneracyError, PreconditionError):
            pass
    return out


def test_node_answers_what_the_memoised_oracles_answer():
    # on every config, the raw node's (S, P, V) is the separate oracles' (or
    # what the first of S, P, V raises); the start step and dummies included
    compared = raised = 0
    for inst, ctx in _node_instances():
        target = plcp_to_eopl(inst)
        for u in all_configs(ctx.n):
            want = _outcome(lambda: (target.S(u).value, target.P(u).value, target.V(u)))
            assert _outcome(lambda: target.node(u.value)) == want, (inst, u)
            compared += 1
            raised += isinstance(want[0], type)
    assert compared >= 2000 and raised >= 6


def test_pivoted_code_is_itoe_of_the_pivoted_point():
    # every pivot (r, e) with a nonzero entry at every valid config: the code
    # read off the unpivoted rows is itoe of the point after the pivot, the
    # sentinel of infeasible and non-complementary points included
    pivots = sentinels = 0
    for inst, ctx in _node_instances():
        for u in all_configs(ctx.n):
            tab = None if u.is_zero() else _tableau_at(ctx, u)
            if tab is None:
                continue
            for e in list(tab.cobasis):
                for r, a in enumerate(tab.column(e)):
                    if a == 0:
                        continue
                    code = _pivoted_code(tab, r, e)
                    pivoted = _tableau_at(ctx, u)
                    pivoted.pivot(r, e)
                    assert code == itoe(ctx, *pivoted.point()).value, (inst, u, r, e)
                    pivots += 1
                    sentinels += code == 1
    assert pivots >= 1000 and sentinels >= 100


def test_node_raises_the_potential_error_under_a_delta_too_small():
    small = replace(make_context(d1_instance()), delta=1)
    with pytest.raises(InvariantViolationError) as want:
        potential(small, bits("11"))
    with pytest.raises(InvariantViolationError) as got:
        _node(small, 0b11)
    assert str(got.value) == str(want.value) == "potential 0 <= 0 at the valid config 11"
    assert _node(small, 0b01) == (0b01, 0b01, 0) and _node(small, 0) == (0b11, 0, 0)


def _counting_pivots(monkeypatch) -> list:
    """The entering ids of every ``_Tableau.pivot`` from here on."""
    pivots = []
    pivot = _Tableau.pivot

    def counting(self, r, e):
        pivots.append(e)
        pivot(self, r, e)

    monkeypatch.setattr(_Tableau, "pivot", counting)
    return pivots


def test_following_a_line_decodes_each_config_once(monkeypatch):
    # each decode starts from the context's last tableau, one pivot away from
    # the config the follow asks about next
    inst = murty_lcp(8)
    direct = lemke_solve(inst).outcome
    decodes = []
    decode = lcp_line._warm_tableau

    def counting(ctx, tight):
        decodes.append(tight)
        return decode(ctx, tight)

    target = plcp_to_eopl(inst)
    monkeypatch.setattr(lcp_line, "_warm_tableau", counting)
    pivots = _counting_pivots(monkeypatch)
    sol, trace = follow_line(target, 1 << 17)
    assert len(trace) == 257  # 0^n, then the 2^8 vertices of Murty's path
    assert len(decodes) <= len(trace) + 2 and len(pivots) <= len(trace) + 2
    # the back-map, as in `pipeline plcp`: its verify reads the end config and
    # its predecessor again, and the end point is decoded once more
    followed = len(pivots)
    assert eopl_sol_to_plcp(inst, sol.x) == direct
    assert len(pivots) - followed <= 2
    # the start is one pivot from the slack tableau, far from the end just read
    followed = len(pivots)
    target.node(trace[1][0].value)
    assert len(pivots) - followed == 1


@pytest.mark.parametrize("d", range(6, 11))
def test_following_murtys_line_makes_one_pivot_per_step(monkeypatch, d):
    target = plcp_to_eopl(murty_lcp(d))
    pivots = _counting_pivots(monkeypatch)
    sol, trace = follow_line(target, 1 << (2 * d + 1))
    assert len(trace) == 2**d + 1
    # the start is a copy of the context's start tableau, then one pivot per step
    assert len(pivots) == len(trace) - 2


def test_a_node_reads_one_orientation_for_both_its_edges(monkeypatch):
    # one vertex read per decoded node orders its forward and backward edges
    target = plcp_to_eopl(murty_lcp(6))
    decoded, reads = [], []
    decode, orientation = lcp_line._decode, _Tableau.orientation

    def counting_decode(ctx, u):
        at = decode(ctx, u)
        if at is not None:
            decoded.append(u)
        return at

    def counting_orientation(self, e):
        reads.append(e)
        return orientation(self, e)

    monkeypatch.setattr(lcp_line, "_decode", counting_decode)
    monkeypatch.setattr(_Tableau, "orientation", counting_orientation)
    sol, trace = follow_line(target, 1 << 13)
    assert len(trace) == 2**6 + 1
    assert len(decoded) >= 2**6 and len(reads) <= len(decoded)


def _rows_by_variable(tab) -> dict:
    """Each basic variable's row, its entries keyed by their cobasis ids (rhs last)."""
    return {var: dict(zip(tab.cobasis + ["rhs"], row)) for var, row in zip(tab.basis, tab.rows)}


def test_warm_decodes_equal_cold_ones_in_any_order():
    # every config, in shuffled order: the tableau pivoted from the context's
    # slot has the cold decode's basic rows, det and point, whatever order its
    # rows are in, and the node (or what it raises) is that of a context whose
    # slot starts cold
    rng = random.Random(29)
    compared = warm = reordered = 0
    for inst, ctx in _node_instances():
        ctx = replace(ctx)
        order = list(range(1 << ctx.n))
        rng.shuffle(order)
        for x in order:
            tight = _config_tight(ctx, BitConfig(x, ctx.n))
            if tight is not None:
                slack, last = lcp_line._slot(ctx)
                got = lcp_line._warm_tableau(ctx, tight)
                want = lcp._tableau_of_tight(inst, tight)
                assert (got is None) == (want is None), (inst, x)
                if got is not None:
                    assert _rows_by_variable(got) == _rows_by_variable(want), (inst, x)
                    assert got.det == want.det and got.values() == want.values(), (inst, x)
                    warm += len(last.tight() - tight) < len(slack.tight() - tight)
                    reordered += got.basis != want.basis
            assert _outcome(lambda: _node(ctx, x)) == _outcome(lambda: _node(replace(ctx), x)), (inst, x)
            compared += 1
    assert compared >= 2000 and warm >= 100 and reordered >= 50


def test_pivoting_from_any_basis_onto_any_other_matches_the_cold_decode():
    # the greedy rule from every nonsingular basis to every tight set of
    # (y, s, z): None exactly when the target is singular, else the target's rows
    checked = singular = 0
    for inst, _ in _node_instances()[:24]:
        sets = [frozenset(t) for t in itertools.combinations(range(2 * inst.d + 1), inst.d + 1)]
        cold = {t: lcp._tableau_of_tight(inst, t) for t in sets}
        for base in filter(None, cold.values()):
            for t in sets:
                got = lcp._pivot_onto(base.copy(), t)
                assert (got is None) == (cold[t] is None), (inst, base.basis, t)
                if got is None:
                    singular += 1
                else:
                    assert _rows_by_variable(got) == _rows_by_variable(cold[t]), (inst, base.basis, t)
                    assert got.det == cold[t].det, (inst, base.basis, t)
                    checked += 1
    assert checked >= 5000 and singular >= 500


@pytest.mark.parametrize("inst", [murty_lcp(7), dd_lcp(random.Random(19), 6)], ids=["murty7", "dd6"])
def test_threads_sharing_a_reduced_line_follow_it_alike(inst):
    target = plcp_to_eopl(inst)
    budget = 1 << target.n
    want = follow_line(target, budget)
    want_outcome = eopl_sol_to_plcp(inst, want[0].x)
    got = []

    def follow():
        for _ in range(3):
            sol, trace = follow_line(target, budget)
            got.append((sol, trace, eopl_sol_to_plcp(inst, sol.x)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-decode
    try:
        threads = [threading.Thread(target=follow) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(got) == 18
    assert all(g == (*want, want_outcome) for g in got)


def _use_every_memo(inst):
    target = plcp_to_eopl(inst)
    sol, _ = follow_line(target, 1 << target.n)
    eopl_sol_to_plcp(inst, sol.x)
    ctx = make_context(inst)
    for oracle in (successor, predecessor, potential, is_valid_config):
        oracle(ctx, sol.x)
    return target, ctx


def test_a_dropped_reduction_is_not_kept():
    # each memo keeps its last entry, so the first reduction dies once every
    # memo that saw it has seen another
    inst = dd_lcp(random.Random(41), 5)
    refs = [weakref.ref(obj) for obj in (inst, *_use_every_memo(inst))]
    del inst
    _use_every_memo(dd_lcp(random.Random(42), 5))
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_copies_of_a_context_leave_its_slot_behind():
    inst = murty_lcp(3)
    ctx = make_context(inst)
    sol, _ = follow_line(plcp_to_eopl(inst), 1 << ctx.n)
    assert "_warm" in vars(ctx)
    for how, twin in copies(ctx).items():
        assert "_warm" not in vars(twin) and twin == ctx, how
        # a copy's first decode builds its own slot and answers as ctx does
        assert _node(twin, sol.x.value) == _node(ctx, sol.x.value), how
        assert lcp_line._slot(twin)[0] is not lcp_line._slot(ctx)[0], how


def test_verifying_next_to_a_ratio_tie_reports_the_degeneracy():
    # the start's forward step ties s1 with z; verifying 0^n reads the start's
    # whole node, so the tie is reported where the oracles alone asked only
    # P(start) and V(start) and classified 0^n as no solution
    inst = make_lcp([[1, -1], [1, 1]], [1, -1])
    target = plcp_to_eopl(inst)
    assert target.S(BitConfig.zeros(4)) == bits("0101")
    with pytest.raises(DegeneracyError, match="^ratio-test tie between s1, z$"):
        eopl_verify(target, BitConfig.zeros(4))
