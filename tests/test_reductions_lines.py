import random
import sys
import threading
from collections import Counter

import pytest

from clslab import (
    BudgetExceededError,
    EomlInstance,
    EoplInstance,
    PreconditionError,
    R1,
    R2,
    T1,
    T3,
    enumerate_solutions,
    eopl_verify,
    follow_line,
    validate_instance,
)
from clslab.lines import (
    BitConfig,
    all_configs,
    dump_line_table,
    load_line_table,
    table_instance,
    verify_solution,
)
from clslab.reductions import (
    ImmediateSolution,
    eoml_sol_to_eopl,
    eoml_to_eopl,
    eopl_sol_to_eoml,
    eopl_to_eoml,
    plcp_to_eopl,
)
from support import (
    EOML_TABLE,
    EOPL_TABLE,
    bench_gen,
    bitconfigs_built,
    bits,
    counted,
    dump_line_table_ref,
    eoml_to_eopl_ref,
    eopl_to_eoml_ref,
    gen_eoml_path,
    gen_eoml_random,
    gen_eopl_line,
    gen_eopl_monotone,
    gen_eopl_tangle,
    gen_reduction_safe_lcp,
    node_counted,
)


def path_instance(kind, n, path, vals, m=None):
    cfgs = list(all_configs(n))
    s = {c: c for c in cfgs}
    p = {c: c for c in cfgs}
    v = {c: 0 for c in cfgs}
    for a, b in zip(path, path[1:]):
        s[a] = b
        p[b] = a
    v.update(vals)
    return table_instance(kind, n, s, p, v, m)


def simple_eoml():
    path = [bits("00"), bits("01"), bits("10")]
    return path_instance("EOML", 2, path, {path[0]: 1, path[1]: 2, path[2]: 3})


# ----------------------------------------------------------------------------
# metered -> potential


def test_prefix_bit_construction_cases():
    src = simple_eoml()
    tgt = eoml_to_eopl(src)
    assert tgt.n == 3 and validate_instance(tgt)
    assert tgt.S(BitConfig.zeros(3)) == bits("100")
    # dummies and zero-odometer vertices self-loop
    assert tgt.S(bits("001")) == bits("001") and tgt.P(bits("001")) == bits("001")
    assert tgt.S(bits("111")) == bits("111")  # V(11) = 0 in the source
    assert tgt.P(bits("100")) == BitConfig.zeros(3)
    # potential forwards the odometer on the real half
    assert tgt.V(bits("101")) == 2 and tgt.V(bits("011")) == 0


def test_prefix_bit_back_map_cases():
    src = simple_eoml()
    tgt = eoml_to_eopl(src)
    sols = enumerate_solutions(tgt)
    assert sols, "the reduced instance must keep a solution"
    for sol in sols:
        mapped = eopl_sol_to_eoml(src, sol.x)
        assert verify_solution(src, mapped.x) is not None
    # the genuine end of the line survives as T1
    end = [s for s in sols if s.x == bits("110")]
    assert end and isinstance(eopl_sol_to_eoml(src, end[0].x), T1)


def test_prefix_bit_zero_potential_predecessor_gives_t3():
    # odometer collapses to zero mid-path: 01 becomes a self loop in the
    # target, so its follower 10 starts a line there while keeping valid
    # source edges; the source defect is the odometer gap over 01
    path = [bits("00"), bits("01"), bits("10"), bits("11")]
    src = path_instance(
        "EOML", 2, path, {path[0]: 1, path[1]: 0, path[2]: 3, path[3]: 4}
    )
    tgt = eoml_to_eopl(src)
    sol = eopl_verify(tgt, bits("110"))
    assert isinstance(sol, R1)
    mapped = eopl_sol_to_eoml(src, bits("110"))
    assert mapped == T3(bits("10"))


def test_prefix_bit_r2_maps_to_t3():
    # a non-increasing odometer step shows up as a potential violation
    path = [bits("00"), bits("01"), bits("10"), bits("11")]
    src = path_instance(
        "EOML", 2, path, {path[0]: 1, path[1]: 2, path[2]: 2, path[3]: 3}
    )
    tgt = eoml_to_eopl(src)
    r2 = eopl_verify(tgt, bits("101"))
    assert isinstance(r2, R2)
    mapped = eopl_sol_to_eoml(src, bits("101"))
    assert isinstance(mapped, T3) and mapped.x == bits("01")


def test_prefix_bit_rejects_non_solutions():
    src = simple_eoml()
    with pytest.raises(PreconditionError):
        eopl_sol_to_eoml(src, bits("101"))  # an interior vertex of the line


def test_prefix_bit_round_trip_random():
    rng = random.Random(17)
    for _ in range(40):
        src = gen_eoml_random(rng, rng.randint(2, 4))
        tgt = eoml_to_eopl(src)
        assert validate_instance(tgt)
        for sol in enumerate_solutions(tgt):
            mapped = eopl_sol_to_eoml(src, sol.x)
            assert verify_solution(src, mapped.x) is not None


def test_prefix_bit_no_spurious_solutions_at_width_8():
    # exhaustive solution-set comparison: every broken line end of the
    # target projects onto a source defect, so nothing new is introduced
    rng = random.Random(19)
    src = gen_eoml_random(rng, 8)
    tgt = eoml_to_eopl(src)
    source_sols = {s.x for s in enumerate_solutions(src)}
    for sol in enumerate_solutions(tgt):
        mapped = eopl_sol_to_eoml(src, sol.x)
        assert mapped.x in source_sols


# ----------------------------------------------------------------------------
# potential -> metered


def simple_eopl(vals, m=3):
    path = [bits("00"), bits("01"), bits("10")]
    return path_instance("EOPL", 2, path, dict(zip(path, vals)), m=m)


def test_subdivision_start_edge_with_unit_steps():
    # unit-step source: the start jumps straight to the second successor
    src = simple_eopl([0, 1, 2])
    tgt = eopl_to_eoml(src)
    assert not isinstance(tgt, ImmediateSolution)
    start = BitConfig.zeros(tgt.n)
    assert tgt.S(start) == bits("10").concat(BitConfig.from_int(2, 3))
    assert tgt.P(tgt.S(start)) == start


def test_subdivision_construction_cases():
    src = simple_eopl([0, 1, 4])
    tgt = eopl_to_eoml(src)
    assert tgt.n == 5 and validate_instance(tgt)
    assert tgt.V(BitConfig.zeros(5)) == 1
    # copies of the bypassed first successor are all self loops
    for pi in range(8):
        x = bits("01").concat(BitConfig.from_int(pi, 3))
        assert tgt.S(x) == x and tgt.P(x) == x
    # the start chain interpolates up to the second successor's potential
    walk = [BitConfig.zeros(5)]
    for _ in range(4):
        walk.append(tgt.S(walk[-1]))
    assert [tgt.V(x) for x in walk] == [1, 2, 3, 4, 4]


def test_subdivision_interpolates_interior_gaps():
    # potential jump 1 -> 4 on a valid edge away from the start segment
    # (copies of the first successor are always dummies) subdivides into
    # unit steps through copies of the tail: (011,1)->(011,2)->(011,3)->(100,4)
    cfgs = list(all_configs(3))
    s = {c: c for c in cfgs}
    p = {c: c for c in cfgs}
    v = {c: 0 for c in cfgs}
    for a, b in ((bits("000"), bits("001")), (bits("001"), bits("010"))):
        s[a] = b
        p[b] = a
    v[bits("001")] = 1
    v[bits("010")] = 2
    s[bits("011")] = bits("100")
    p[bits("100")] = bits("011")
    v[bits("011")] = 1
    v[bits("100")] = 4
    src = table_instance("EOPL", 3, s, p, v, m=3)
    tgt = eopl_to_eoml(src)
    x = bits("011").concat(BitConfig.from_int(1, 3))
    seen = []
    for _ in range(4):
        seen.append((str(x), tgt.V(x)))
        x = tgt.S(x)
    assert [t for t, _ in seen] == ["011001", "011010", "011011", "100100"]
    assert [val for _, val in seen] == [1, 2, 3, 4]
    # the chain vertices are genuine edges: predecessors walk back down
    assert tgt.P(bits("100100")) == bits("011011")
    assert tgt.P(bits("011011")) == bits("011010")


def test_trivial_sources_return_immediately():
    src = simple_eopl([0, 1, 2])
    short = path_instance("EOPL", 2, [bits("00"), bits("01")], {bits("00"): 0, bits("01"): 1}, m=3)
    out = eopl_to_eoml(short)
    assert isinstance(out, ImmediateSolution)
    assert eopl_verify(short, out.solution.x) is not None
    # back-map degenerates to the stored solution
    assert eoml_sol_to_eopl(short, BitConfig.zeros(5)) == out.solution


def test_odometer_steps_by_one_on_monotone_sources():
    rng = random.Random(23)
    for _ in range(20):
        src = gen_eopl_monotone(rng, rng.randint(2, 3), rng.randint(2, 3))
        tgt = eopl_to_eoml(src)
        if isinstance(tgt, ImmediateSolution):
            continue
        assert tgt.V(BitConfig.zeros(tgt.n)) == 1
        for x in all_configs(tgt.n):
            y = tgt.S(x)
            if y == x or tgt.P(y) != x:
                continue
            assert tgt.V(y) - tgt.V(x) == 1, (str(x), str(y))


def test_subdivision_back_map_cases():
    src = simple_eopl([0, 1, 4])
    tgt = eopl_to_eoml(src)
    sols = enumerate_solutions(tgt)
    assert sols
    for sol in sols:
        mapped = eoml_sol_to_eopl(src, sol.x)
        assert eopl_verify(src, mapped.x) is not None

    # potential drop in the source becomes an odometer defect in the target;
    # the drop must sit past the second vertex or the triviality check fires
    drop = path_instance(
        "EOPL",
        2,
        [bits("00"), bits("01"), bits("10"), bits("11")],
        {bits("00"): 0, bits("01"): 1, bits("10"): 3, bits("11"): 2},
        m=3,
    )
    dtgt = eopl_to_eoml(drop)
    assert not isinstance(dtgt, ImmediateSolution)
    dsols = enumerate_solutions(dtgt)
    kinds = set()
    for sol in dsols:
        mapped = eoml_sol_to_eopl(drop, sol.x)
        verdict = eopl_verify(drop, mapped.x)
        assert verdict is not None
        kinds.add(type(verdict).__name__)
    assert "R2" in kinds  # the drop itself must be reachable from some defect


def test_subdivision_round_trip_random():
    rng = random.Random(29)
    for _ in range(25):
        src = gen_eopl_monotone(rng, rng.randint(2, 3), rng.randint(2, 4))
        tgt = eopl_to_eoml(src)
        if isinstance(tgt, ImmediateSolution):
            assert eopl_verify(src, tgt.solution.x) is not None
            continue
        assert validate_instance(tgt)
        for sol in enumerate_solutions(tgt):
            mapped = eoml_sol_to_eopl(src, sol.x)
            assert eopl_verify(src, mapped.x) is not None


# ----------------------------------------------------------------------------
# the integer reductions against the BitConfig references in support


def assert_same_lines(new, ref, rng):
    """Every row's S', P' and V' agree: asked in value order, as a dump asks,
    then in a shuffled order with the oracles shuffled per row."""
    assert (type(new), new.n, getattr(new, "m", None)) == (type(ref), ref.n, getattr(ref, "m", None))
    configs = list(all_configs(new.n))
    for x in configs:
        assert (new.S(x), new.P(x), new.V(x)) == (ref.S(x), ref.P(x), ref.V(x)), x
    for x in rng.sample(configs, len(configs)):
        for name in rng.sample("SPV", 3):
            assert getattr(new, name)(x) == getattr(ref, name)(x), (name, x)


def _edge_shape(src, u):
    nxt = src.S(u)
    if src.P(nxt) != u or nxt == u:
        return "invalid edge"
    step = src.V(nxt) - src.V(u)
    return "jump up" if step > 0 else "jump down" if step < 0 else "flat"


def test_subdivision_matches_the_bitconfig_reference():
    rng = random.Random(31)
    seen = Counter()
    for _ in range(80):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        p_ss0 = rng.choice([None, 2, rng.randint(3, (1 << m) - 1)])
        src = gen_eopl_tangle(rng, n, m, p_ss0)
        new, ref = eopl_to_eoml(src), eopl_to_eoml_ref(src)
        if isinstance(ref, ImmediateSolution):
            seen["immediate"] += 1
            assert new == ref
            continue
        zero = BitConfig.zeros(n)
        seen["p_ss0 == 2" if src.V(src.S(src.S(zero))) == 2 else "p_ss0 > 2"] += 1
        seen.update(_edge_shape(src, u) for u in all_configs(n))
        assert_same_lines(new, ref, rng)
    cases = ("immediate", "p_ss0 == 2", "p_ss0 > 2", "invalid edge", "jump up", "jump down", "flat")
    assert all(seen[case] for case in cases), seen


def test_prefix_bit_matches_the_bitconfig_reference():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 5)
        src = rng.choice([gen_eoml_random, gen_eoml_path])(rng, n)
        assert_same_lines(eoml_to_eopl(src), eoml_to_eopl_ref(src), rng)


def _asked(calls):
    return sum(calls.values())


def test_a_reduced_dump_reads_the_source_once_per_config():
    # an eopl6x6-shaped source: each of its 64 configs u is carried by 64 of
    # the 4096 rows, and the rows of one u share the nodes of u, S(u) and P(u)
    src = gen_eopl_line(random.Random(41), 6, 6)
    probe, calls = counted(src)
    target = eopl_to_eoml(probe)
    built = Counter(calls)
    assert dump_line_table(target) == dump_line_table(eopl_to_eoml_ref(src))
    read = calls - built
    assert read["S"] == read["P"] == read["V"] <= 3 << 6, read
    # the rows of each u in turn, in the order a dump asks them
    probe, calls = counted(src)
    target = eopl_to_eoml(probe)
    for u in range(1 << 6):
        before = Counter(calls)
        for pi in range(1 << 6):
            x = BitConfig(u << 6 | pi, 12)
            target.S(x), target.P(x), target.V(x)
        read = calls - before
        assert read["S"] == read["P"] == read["V"] <= 3, (u, read)


def test_a_prefix_bit_dump_reads_the_source_at_most_three_times_per_row():
    src = gen_eoml_path(random.Random(43), 6, corrupt=False)
    assert dump_line_table(eoml_to_eopl(src)) == dump_line_table(eoml_to_eopl_ref(src))
    probe, calls = counted(src)
    target = eoml_to_eopl(probe)
    for x in all_configs(7):
        before = _asked(calls)
        target.S(x), target.P(x), target.V(x)
        assert _asked(calls) - before <= 3, x


def _walk(inst, max_steps):
    try:
        return follow_line(inst, max_steps)
    except BudgetExceededError as exc:
        return str(exc), exc.trace


def test_following_a_reduced_line_matches_the_reference():
    rng = random.Random(47)
    pairs = []
    for _ in range(12):
        src = gen_eoml_path(rng, rng.randint(2, 5))
        pairs.append((eoml_to_eopl(src), eoml_to_eopl_ref(src)))
        src = rng.choice([gen_eopl_line(rng, 3, 4), gen_eopl_tangle(rng, 3, 3, rng.randint(2, 7))])
        new, ref = eopl_to_eoml(src), eopl_to_eoml_ref(src)
        if not isinstance(ref, ImmediateSolution):
            pairs.append((new, ref))
    for new, ref in pairs:
        for max_steps in (1, 3, 1 << new.n):
            assert _walk(new, max_steps) == _walk(ref, max_steps)


def test_a_thread_moving_the_slot_does_not_mix_two_configs_reads():
    # thread A asks V'(1,01) and stops inside the source's V(01) read while
    # the main thread moves the shared reader to 10; A's answer must not land
    # among 10's reads, nor 10's among A's
    src = simple_eoml()
    u1, u2 = bits("01"), bits("10")
    inside, resume = threading.Event(), threading.Event()

    def v(x):
        if x == u1 and threading.current_thread() is asker:
            inside.set()
            resume.wait(5)
        return src.v(x)

    x1, x2 = bits("101"), bits("110")
    got = {}
    asker = threading.Thread(target=lambda: got.update(a=target.V(x1)))
    target = eoml_to_eopl(EomlInstance(n=2, s=src.s, p=src.p, v=v))
    asker.start()
    assert inside.wait(5)
    got["b"] = target.V(x2)
    resume.set()
    asker.join()
    assert (got["a"], got["b"], target.V(x2), target.V(x1)) == (2, 3, 3, 2)


def test_threads_sharing_a_reduced_line_get_each_rows_answers():
    # more threads than cores, switching often, each walking the rows in its
    # own order: a reader answer stored under the wrong config would show
    rng = random.Random(71)
    src = load_line_table(bench_gen().eopl_table(rng, 5, 5).text)
    ref = eopl_to_eoml_ref(src)
    want = [(ref.S(x).value, ref.P(x).value, ref.V(x)) for x in all_configs(ref.n)]
    for source in (src, counted(src)[0]):
        target = eopl_to_eoml(source)
        orders = [rng.sample(range(len(want)), len(want)) for _ in range(6)]
        wrong = []

        def walk(order):
            wrong.extend(x for x in order if target.node(x) != want[x])

        threads = [threading.Thread(target=walk, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def _chain(inst):
    """inst, then the targets of alternating reductions while they fit a table."""
    out = []
    while not isinstance(inst, ImmediateSolution) and inst.n <= 16:
        out.append(inst)
        inst = eopl_to_eoml(inst) if isinstance(inst, EoplInstance) else eoml_to_eopl(inst)
    return out


def test_reduced_dumps_match_the_bitconfig_reference():
    rng = random.Random(59)
    gen = bench_gen()
    sources = [load_line_table(EOPL_TABLE), load_line_table(EOML_TABLE)]
    sources.append(load_line_table(gen.eopl_table(rng, 6, 6).text))
    sources.append(load_line_table(gen.eoml_table(rng, 8, corrupt=True).text))
    sources += [gen_eopl_tangle(rng, 3, 3, 4), gen_eoml_path(rng, 4)]
    targets = [target for src in sources for target in _chain(src)[1:]]
    # nested descriptors: 2 -> 3 -> 6 -> 7 -> 14 -> 15 bits from the EOML table
    assert max(target.n for target in targets) == 15
    for d in (1, 2, 3, 4):
        targets.append(plcp_to_eopl(gen_reduction_safe_lcp(rng, d)))  # 2d bits
    for target in targets:
        assert dump_line_table(target) == dump_line_table_ref(target), target.n
    # the same oracles through the public constructors, with no raw node
    for target in targets[:6]:
        assert dump_line_table(counted(target)[0]) == dump_line_table(target)


def test_a_subdivision_dump_reads_one_node_per_row():
    # before node(x) this dump made 7.78 slot reads and 3.14 BitConfigs per
    # row: V' ran both case lists again after S' and P'; the reader fetches
    # one source node per config it reads, and the rows of one u share them
    src, fetched = node_counted(load_line_table(bench_gen().eopl_table(random.Random(3), 6, 6).text))
    target = eopl_to_eoml(src)
    fetched.clear()
    with bitconfigs_built() as built:
        text = dump_line_table(target)
    rows = 1 << target.n
    assert rows == 4096 and text == dump_line_table_ref(eopl_to_eoml_ref(src))
    assert fetched["node"] <= 8 << src.n, fetched["node"] / (1 << src.n)
    assert built["BitConfig"] <= 0.2 * rows, built["BitConfig"] / rows
    # the prefix bit: one row per source config
    src, fetched = node_counted(load_line_table(bench_gen().eoml_table(random.Random(3), 7, True).text))
    target = eoml_to_eopl(src)
    for x in range(1 << target.n):
        before = fetched["node"]
        target.node(x)
        assert fetched["node"] - before <= 3, x
