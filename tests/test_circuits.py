import dataclasses
import math
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from clslab import (
    BudgetExceededError,
    C1,
    C2a,
    C2b,
    CM1,
    CM2,
    CloInstance,
    ContractionInstance,
    CircuitBuilder,
    DomainEscapeError,
    INF,
    M1,
    M2a,
    MMviol,
    MmcInstance,
    QVector,
    check_metametric,
    circuit_eval,
    clo_solve_iterate,
    clo_verify,
    contraction_verify,
    fixpoint_iterate,
    mmc_verify,
)
from clslab import circuits
from clslab.circuits import (
    GATE_OPERANDS,
    REDUCE_BITS,
    ArithCircuit,
    dump_circuit,
    dump_problem,
    format_circuit_solution,
    identity_circuit,
    load_problem,
    norm_distance_circuit,
    parse_circuit,
    parse_circuit_solution,
    probe_domain,
    unit_grid,
)
from clslab.errors import DimensionError, ParseError, PreconditionError
from support import (
    coordinate_potential,
    eval_raw_ref,
    kinked_map,
    norm_pow,
    scale_shift_map,
    triangle_violation_ref,
)


def vec(*entries):
    return QVector.of(entries)


def test_circuit_eval_examples():
    b = CircuitBuilder(1)
    const = b.build([b.const("1/2")])
    assert circuit_eval(const, vec("1/4")) == vec("1/2")

    b = CircuitBuilder(2)
    adder = b.build([b.add(0, 1)])
    assert circuit_eval(adder, vec("1/3", "1/6")) == vec("1/2")

    b = CircuitBuilder(1)
    gap = b.build([b.abs(b.sub(0, b.const("1/2")))])
    assert circuit_eval(gap, vec("1/4")) == vec("1/4")


def test_circuit_eval_is_deterministic():
    f = kinked_map(2)
    x = vec("3/7", "1/9")
    assert circuit_eval(f, x) == circuit_eval(f, x)


def _pairs(circ, inputs):
    """Every value of ``circ`` at ``inputs`` as the kernel keeps it: (num, den) pairs."""
    nums, dens = [a.numerator for a in inputs], [a.denominator for a in inputs]
    circuits._eval_ints(circ, nums, dens)
    return list(zip(nums, dens))


def _canonical(values):
    return [(a.numerator, a.denominator) for a in values]


small_q = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def gate_lists(draw):
    """(arity, inputs, gates): random gates, then up to 12 squarings of the last value.

    Each squaring doubles the bits, so ten of them take a denominator of 2 or
    more past ``REDUCE_BITS``.
    """
    arity = draw(st.integers(0, 3))
    inputs = tuple(draw(st.lists(small_q, min_size=arity, max_size=arity)))
    gates = []
    for _ in range(draw(st.integers(0, 20))):
        top = arity + len(gates)
        op = draw(st.sampled_from(sorted(GATE_OPERANDS) if top else ["CONST"]))
        if op == "CONST":
            gates.append(("CONST", draw(small_q)))
        else:
            count = GATE_OPERANDS[op]
            gates.append((op, *draw(st.lists(st.integers(0, top - 1), min_size=count, max_size=count))))
    for _ in range(draw(st.integers(0, 12)) if arity + len(gates) else 0):
        top = arity + len(gates)
        gates.append(("MUL", top - 1, top - 1))
    return arity, inputs, tuple(gates)


@settings(max_examples=300, deadline=None)
@given(gate_lists())
def test_int_pair_kernel_matches_the_fraction_reference(case):
    arity, inputs, gates = case
    top = arity + len(gates)
    assume(top > 0)
    circ = ArithCircuit(arity, gates, tuple(range(top)))  # every value is an output
    got = circuit_eval(circ, QVector(inputs))
    want = eval_raw_ref(circ, inputs)
    assert all(type(a) is F for a in got)
    assert _canonical(got) == _canonical(want)
    # a kept value is within the bound or already reduced
    for n, d in _pairs(circ, inputs):
        assert d > 0 and (d.bit_length() <= REDUCE_BITS or math.gcd(n, d) == 1)


def test_max_min_abs_ties_keep_the_first_operand():
    b = CircuitBuilder(1)  # x = 1/2
    two_halves = b.add(0, 0)  # equal denominators add without a gcd: (2, 2)
    one = b.const(1)
    sixths = b.add(b.const("1/6"), b.const("1/3"))  # (9, 18)
    zero = b.sub(two_halves, one)  # (0, 2)
    neg = b.sub(b.const("-3/4"), sixths)  # (-90, 72)
    outs = [
        b.max(two_halves, one),
        b.max(one, two_halves),
        b.min(two_halves, one),
        b.min(one, two_halves),
        b.max(sixths, 0),
        b.min(0, sixths),
        b.max(zero, b.const(0)),
        b.min(b.const(0), zero),
        b.abs(zero),
        b.abs(neg),
    ]
    circ = b.build(outs)
    x = (F(1, 2),)
    pairs = _pairs(circ, x)
    assert [pairs[o] for o in outs] == [
        (2, 2), (1, 1), (2, 2), (1, 1), (9, 18), (1, 2), (0, 2), (0, 1), (0, 2), (90, 72)
    ]
    got = circuit_eval(circ, QVector(x))
    assert _canonical(got) == _canonical(eval_raw_ref(circ, x))
    assert list(got) == [1, 1, 1, 1, F(1, 2), F(1, 2), 0, 0, 0, F(5, 4)]


def test_a_squaring_chain_is_reduced_once_it_passes_the_bound():
    b = CircuitBuilder(1)
    v = b.add(0, 0)  # x + x = (2, 2) at x = 1/2
    for _ in range(12):
        v = b.mul(v, v)
    circ = b.build([v])
    # (2, 2) squares unreduced up to (2^512, 2^512); the next square's
    # denominator 2^1024 passes the bound, so it and every later one is (1, 1)
    assert (2**1024).bit_length() == REDUCE_BITS + 1
    unreduced = [(2 ** (1 << k), 2 ** (1 << k)) for k in range(10)]
    assert _pairs(circ, (F(1, 2),)) == [(1, 2)] + unreduced + [(1, 1)] * 3
    assert circuit_eval(circ, vec("1/2")) == vec(1)


def test_a_memo_hit_hashes_no_fraction():
    inst = MmcInstance(
        f=kinked_map(2), d=norm_distance_circuit(2, 1), r=1, eps=F(1, 4), c=F(1, 2), delta_d=F(1), lam=F(1), dim=2
    )
    ev = circuits._Evals(inst)
    x, y = vec("1/3", "2/7"), vec("3/4", "1/5")
    first = (ev.f(x), ev.d(x, y), ev.d(y, x))
    hashed = []
    real = F.__hash__

    def counting(self):
        hashed.append(self)
        return real(self)

    with mock.patch.object(F, "__hash__", counting):
        assert (ev.f(x), ev.d(x, y), ev.d(y, x)) == first
        assert ev.d(vec("1/3", "2/7"), y) == first[1]  # an equal vector hits too
    assert len(ev.seen) == 3
    assert hashed == [F(1, 3), F(2, 7)]  # only the fresh vector's own hash


def test_norm_examples():
    assert norm_pow(vec("1/2", "-1/2"), 1) == 1
    assert norm_pow(vec("1/2", "-1/3"), INF) == F(1, 2)
    assert norm_pow(QVector.zero(2), 1) == 0
    for r in (2, 0, 3):
        with pytest.raises(PreconditionError, match=f"^unsupported norm order {r}$"):
            norm_pow(vec("1/2", "1/2"), r)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8), min_size=1, max_size=5))
def test_norm_order_inequality(entries):
    v = QVector.of(entries)
    one = norm_pow(v, 1)
    top = norm_pow(v, INF)
    assert one >= top >= 0
    assert (one == 0) == (top == 0) == all(x == 0 for x in v)


def test_clo_verify_examples():
    ident = identity_circuit(1)
    b = CircuitBuilder(1)
    zero_p = b.build([b.const(0)])
    inst = CloInstance(f=ident, p=zero_p, eps=F(1, 4), lam=F(1), r=1, dim=1)
    for x in ("0", "1/3", "1"):
        assert clo_verify(inst, C1(vec(x)))

    half = scale_shift_map(1, "1/2", [0])
    inst = CloInstance(f=half, p=coordinate_potential(1), eps=F(1, 4), lam=F(1), r=1, dim=1)
    assert clo_verify(inst, C1(vec("1/4")))

    steep = kinked_map(1)
    inst = CloInstance(f=half, p=coordinate_potential(1), eps=F(1, 4), lam=F(1), r=1, dim=1)
    bad_p = CloInstance(f=half, p=steep, eps=F(1, 4), lam=F(1), r=1, dim=1)
    assert clo_verify(bad_p, C2b(vec("1/4"), vec("1/2")))
    assert not clo_verify(inst, C2a(vec("1/4"), vec("1/2")))


def test_contraction_verify_examples():
    half = scale_shift_map(1, "1/2", [0])
    inst = ContractionInstance(f=half, r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 2), dim=1)
    assert contraction_verify(inst, CM1(vec("1/2")))
    ident = ContractionInstance(
        f=identity_circuit(1), r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 8), dim=1
    )
    assert contraction_verify(ident, CM1(vec("2/3")))
    assert contraction_verify(ident, CM2(vec(0), vec(1)))


def test_mmc_verify_examples():
    b = CircuitBuilder(2)
    const_one = b.build([b.const(1)])
    half = scale_shift_map(1, "1/2", [0])
    inst = MmcInstance(
        f=half, d=const_one, r=1, eps=F(1, 2), c=F(3, 4), delta_d=F(1), lam=F(1), dim=1
    )
    assert not mmc_verify(inst, M1(vec("1/2")))  # distance is pinned at 1 > eps

    metric = MmcInstance(
        f=half,
        d=norm_distance_circuit(1, 1),
        r=1,
        eps=F(1, 4),
        c=F(3, 4),
        delta_d=F(1),
        lam=F(1),
        dim=1,
    )
    assert not mmc_verify(metric, M2a(vec(0), vec(1)))

    b = CircuitBuilder(2)
    neg = b.build([b.const(-1)])
    bad = MmcInstance(
        f=half, d=neg, r=1, eps=F(1, 2), c=F(1, 2), delta_d=F(1), lam=F(1), dim=1
    )
    assert mmc_verify(bad, MMviol(1, (vec("1/2"), vec("1/2"))))
    assert not mmc_verify(inst, MMviol(2, (vec("1/2"), vec("1/2"))))


def test_check_metametric_examples():
    grid1 = [vec(0), vec("1/2"), vec(1)]
    assert check_metametric(norm_distance_circuit(1, 1), grid1) is None

    # p(x) + p(y) + 1 with p = |x - 1/2| is a valid distance-like map
    b = CircuitBuilder(2)
    half = b.const("1/2")
    px = b.abs(b.sub(0, half))
    py = b.abs(b.sub(1, half))
    shifted = b.build([b.add(b.add(px, py), b.const(1))])
    assert check_metametric(shifted, grid1) is None

    b = CircuitBuilder(2)
    signed = b.build([b.sub(0, 1)])
    viol = check_metametric(signed, grid1)
    assert viol is not None and viol.kind == 1


def test_check_metametric_triangle_and_symmetry():
    # d(x,y) = x + 2y is asymmetric
    b = CircuitBuilder(2)
    asym = b.build([b.add(0, b.mul(1, b.const(2)))])
    viol = check_metametric(asym, [vec(0), vec("1/2"), vec(1)])
    assert viol is not None and viol.kind == 3

    # d(x,y) = |x-y|^2 via MUL breaks the triangle inequality
    b = CircuitBuilder(2)
    gap = b.sub(0, 1)
    sq = b.build([b.mul(gap, gap)])
    viol = check_metametric(sq, [vec(0), vec("1/2"), vec(1)])
    assert viol is not None and viol.kind == 4


def _squared_l2(dim: int):
    """sum_i (x_i - y_i)^2: nonnegative, symmetric and zero only on the diagonal,
    but not a metric."""
    b = CircuitBuilder(2 * dim)
    squares = []
    for i in range(dim):
        gap = b.sub(i, dim + i)
        squares.append(b.mul(gap, gap))
    return b.build([b.sum(squares)])


def _scaled_l1_plus_square():
    """(3/7)|x-y| + (x-y)^2 on the line: breaks only the triangle inequality."""
    b = CircuitBuilder(2)
    gap = b.sub(0, 1)
    lin = b.mul(b.abs(gap), b.const("3/7"))
    return b.build([b.add(lin, b.mul(gap, gap))])


def _scaled_max():
    """(5/3) max(|x1-y1|, |x2-y2|): a metric with a non-unit scale."""
    b = CircuitBuilder(4)
    return b.build([b.mul(b.const("5/3"), b.inline(norm_distance_circuit(2, INF), range(4))[0])])


# (dim, distance circuit); each either is a metric or breaks only the triangle
# inequality, so check_metametric answers from its triangle pass
TRIANGLE_CASES = [
    (1, _squared_l2(1)),
    (2, _squared_l2(2)),
    (1, _scaled_l1_plus_square()),
    (1, norm_distance_circuit(1, 1)),
    (2, norm_distance_circuit(2, 1)),
    (2, norm_distance_circuit(2, INF)),
    (2, _scaled_max()),
]
UNIT_RATIONALS = st.one_of(
    st.fractions(0, 1, max_denominator=12),
    st.builds(
        lambda k, p: F(k % (p + 1), p),
        st.integers(0, 10**12),
        st.sampled_from([7, 2**31 - 1, 10**9 + 7, 3**20]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(case=st.integers(0, len(TRIANGLE_CASES) - 1), data=st.data())
def test_triangle_check_matches_fraction_reference(case, data):
    dim, dist = TRIANGLE_CASES[case]
    point = st.builds(QVector, st.tuples(*[UNIT_RATIONALS] * dim))
    points = data.draw(st.lists(point, min_size=1, max_size=8))
    assert check_metametric(dist, points) == triangle_violation_ref(dist, points)


def test_check_metametric_l1_grid_without_row_collapse():
    # every point of an l1 grid has its own row of distances, so the triangle
    # pass runs over all 125 points
    assert check_metametric(norm_distance_circuit(3, 1), unit_grid(3, 5)) is None


def test_clo_solve_iterate_examples():
    half = scale_shift_map(1, "1/2", [0])
    inst = CloInstance(f=half, p=coordinate_potential(1), eps=F(1, 4), lam=F(1), r=1, dim=1)
    sol, trace = clo_solve_iterate(inst, vec(1))
    assert sol == C1(vec("1/2")) and len(trace) <= 3

    ident = CloInstance(
        f=identity_circuit(1), p=coordinate_potential(1), eps=F(1, 4), lam=F(1), r=1, dim=1
    )
    sol, _ = clo_solve_iterate(ident, vec("2/3"))
    assert sol == C1(vec("2/3"))

    steep = CloInstance(f=kinked_map(1), p=coordinate_potential(1), eps=F(1, 8), lam=F(1), r=1, dim=1)
    sol, _ = clo_solve_iterate(steep, vec("3/10"))
    assert isinstance(sol, C2a)
    assert clo_verify(steep, sol)


def test_fixpoint_iterate_examples():
    half = scale_shift_map(1, "1/2", [0])
    inst = ContractionInstance(f=half, r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 4), dim=1)
    # stops at the first point whose step is within delta: |f(x)-x| = 1/4 at x = 1/2
    sol, trace = fixpoint_iterate(inst, vec(1))
    assert sol == CM1(vec("1/2"))

    ident = ContractionInstance(
        f=identity_circuit(1), r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 8), dim=1
    )
    sol, trace = fixpoint_iterate(ident, vec("1/3"))
    assert sol == CM1(vec("1/3")) and len(trace) == 1

    slow = ContractionInstance(f=identity_circuit(1), r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 8), dim=1)
    assert contraction_verify(slow, CM2(vec(0), vec(1)))


def test_solver_closed_loop():
    half3 = scale_shift_map(3, "1/2", ["1/8", "1/4", "3/8"])
    inst = ContractionInstance(f=half3, r=INF, eps=F(1, 4), c=F(1, 2), delta=F(1, 16), dim=3)
    sol, _ = fixpoint_iterate(inst, vec(1, 0, "1/2"))
    assert contraction_verify(inst, sol)


def test_domain_escape():
    b = CircuitBuilder(1)
    doubler = b.build([b.mul(0, b.const(2))])
    inst = ContractionInstance(f=doubler, r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 64), dim=1)
    with pytest.raises(DomainEscapeError):
        fixpoint_iterate(inst, vec(1))
    assert probe_domain(doubler, 1) is not None
    assert probe_domain(identity_circuit(1), 1) is None


def test_budget_exhaustion_reports_trace():
    # slow honest contraction against a tiny delta budget
    b = CircuitBuilder(1)
    near = b.build([b.add(b.mul(0, b.const("99/100")), b.const("1/1000"))])
    inst = ContractionInstance(f=near, r=1, eps=F(1, 2), c=F(99, 100), delta=F(1, 10**6), dim=1)
    with pytest.raises(BudgetExceededError) as err:
        fixpoint_iterate(inst, vec(1), budget=5)
    assert len(err.value.trace) >= 5


def test_clo_default_budget_is_at_least_two():
    # p = -1 everywhere: ceil(p(start)/eps) + 2 is -2, yet x = 0 stalls at once
    b = CircuitBuilder(1)
    minus_one = b.build([b.const(-1)])
    inst = CloInstance(f=identity_circuit(1), p=minus_one, eps=F(1, 4), lam=F(1), r=1, dim=1)
    assert clo_solve_iterate(inst, vec(0)) == clo_solve_iterate(inst, vec(0), budget=1) == (C1(vec(0)), (vec(0),))
    with pytest.raises(BudgetExceededError, match="^no stall within 0 iterations$"):
        clo_solve_iterate(inst, vec(0), budget=0)


def test_a_negative_budget_is_a_precondition_error():
    clo = CloInstance(f=identity_circuit(1), p=coordinate_potential(1), eps=F(1, 4), lam=F(1), r=1, dim=1)
    contraction = ContractionInstance(f=identity_circuit(1), r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 8), dim=1)
    for run, inst in ((clo_solve_iterate, clo), (fixpoint_iterate, contraction)):
        with pytest.raises(PreconditionError, match="^budget must be nonnegative, got -1$"):
            run(inst, vec(0), budget=-1)


def test_problem_file_round_trip():
    half3 = scale_shift_map(3, "1/2", ["1/8", "1/4", "3/8"])
    inst = MmcInstance(
        f=half3,
        d=norm_distance_circuit(3, 1),
        r=1,
        eps=F(1, 4),
        c=F(1, 2),
        delta_d=F(1),
        lam=F(1),
        dim=3,
    )
    again = load_problem(dump_problem(inst))
    assert isinstance(again, MmcInstance)
    x, y = vec("1/4", 0, 1), vec("1/3", "1/2", "1/7")
    assert circuit_eval(again.f, x) == circuit_eval(inst.f, x)
    xy = QVector(x.entries + y.entries)
    assert circuit_eval(again.d, xy) == circuit_eval(inst.d, xy)
    assert (again.eps, again.c, again.delta_d, again.lam) == (
        inst.eps,
        inst.c,
        inst.delta_d,
        inst.lam,
    )


def _problem_examples():
    """One instance of each problem kind with its exact problem-file text."""
    return [
        (
            CloInstance(
                f=scale_shift_map(2, "1/2", ["1/8", 0]),
                p=coordinate_potential(2),
                eps=F(1, 8),
                lam=F(3, 2),
                r=INF,
                dim=2,
            ),
            "CLO dim=2 r=inf eps=1/8 lambda=3/2\n"
            "ARITH 2 5 2\nCONST 1/2\nMUL 0 2\nCONST 1/8\nADD 3 4\nMUL 1 2\n5 6\n"
            "ARITH 2 0 1\n0\n",
        ),
        (
            ContractionInstance(f=kinked_map(1), r=1, eps=F(1, 4), c=F(2, 3), delta=F(1, 16), dim=1),
            "CONTRACTION dim=1 r=1 eps=1/4 c=2/3 delta=1/16\n"
            "ARITH 1 8 1\nCONST 2\nCONST 1/4\nCONST 0\nCONST 1\nMUL 0 1\nSUB 5 2\nMAX 6 3\nMIN 7 4\n8\n",
        ),
        (
            MmcInstance(
                f=scale_shift_map(1, "1/2", ["1/4"]),
                d=norm_distance_circuit(1, INF),
                r=INF,
                eps=F(1, 4),
                c=F(1, 2),
                delta_d=F(2),
                lam=F(5, 4),
                dim=1,
            ),
            "MMC dim=1 r=inf eps=1/4 c=1/2 delta_d=2 lambda=5/4\n"
            "ARITH 1 4 1\nCONST 1/2\nMUL 0 1\nCONST 1/4\nADD 2 3\n4\n"
            "ARITH 2 2 1\nSUB 0 1\nABS 2\n3\n",
        ),
    ]


@pytest.mark.parametrize("inst, text", _problem_examples(), ids=["clo", "contraction", "mmc"])
def test_dump_problem_bytes(inst, text):
    assert dump_problem(inst) == text


@pytest.mark.parametrize("inst, text", _problem_examples(), ids=["clo", "contraction", "mmc"])
def test_load_of_dump_gives_the_same_instance(inst, text):
    again = load_problem(dump_problem(inst))
    assert type(again) is type(inst)
    for field in dataclasses.fields(inst):
        mine, theirs = getattr(inst, field.name), getattr(again, field.name)
        if isinstance(mine, ArithCircuit):
            assert dump_circuit(theirs) == dump_circuit(mine)
        else:
            assert theirs == mine
    assert dump_problem(again) == text


def test_problem_classes_keep_their_fields_and_hash_by_identity():
    no = dataclasses.MISSING
    assert [(f.name, f.default) for f in dataclasses.fields(CloInstance)] == [
        ("f", no), ("p", no), ("eps", no), ("lam", no), ("r", 1), ("dim", 3)
    ]
    assert [(f.name, f.default) for f in dataclasses.fields(ContractionInstance)] == [
        ("f", no), ("r", no), ("eps", no), ("c", no), ("delta", no), ("dim", 3)
    ]
    assert [(f.name, f.default) for f in dataclasses.fields(MmcInstance)] == [
        ("f", no), ("d", no), ("r", no), ("eps", no), ("c", no), ("delta_d", no), ("lam", no), ("dim", 3)
    ]
    for inst, _ in _problem_examples():
        twin = dataclasses.replace(inst)
        assert twin != inst and hash(twin) != hash(inst) and inst == inst
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.eps = F(1, 2)


# problem class -> (header values that must exceed 0, those that must also lie below 1)
VALUE_RANGES = {
    CloInstance: (("eps", "lam"), ()),
    ContractionInstance: (("eps", "c", "delta"), ("eps", "c")),
    MmcInstance: (("eps", "c", "delta_d", "lam"), ("eps", "c")),
}


@pytest.mark.parametrize("inst, text", _problem_examples(), ids=["clo", "contraction", "mmc"])
def test_construction_checks_each_header_value_range_and_the_norm(inst, text):
    positive, below_one = VALUE_RANGES[type(inst)]
    for name in positive:
        with pytest.raises(PreconditionError, match=f"^{name} must exceed 0$"):
            dataclasses.replace(inst, **{name: F(0)})
        if name in below_one:
            with pytest.raises(PreconditionError, match=f"^{name} must be below 1$"):
                dataclasses.replace(inst, **{name: F(1)})
        else:
            assert getattr(dataclasses.replace(inst, **{name: F(7)}), name) == 7
    with pytest.raises(PreconditionError, match="^instance norm must be 1 or inf$"):
        dataclasses.replace(inst, r=2)
    # the circuit shapes are checked before the norm and the values
    with pytest.raises(DimensionError, match="^f must map dim -> dim$"):
        dataclasses.replace(inst, f=identity_circuit(inst.dim + 1), r=2, eps=F(0))


# A header with several malformed values reports r first, then the kind's
# values in header order, then dim.
@pytest.mark.parametrize(
    "text",
    [
        "CLO dim=1 r=1 eps=1/4 lambda=1\nARITH 1 0 1\n0\nARITH 1 0 1\n0\n",
        "CONTRACTION dim=1 r=1 eps=1/4 c=1/2 delta=1/2\nARITH 1 0 1\n0\n",
        "MMC dim=1 r=1 eps=1/4 c=1/2 delta_d=1 lambda=1\nARITH 1 0 1\n0\nARITH 2 0 1\n0\n",
    ],
    ids=["clo", "contraction", "mmc"],
)
def test_header_values_are_parsed_r_first_then_in_header_order_then_dim(text):
    head, rest = text.split("\n", 1)
    tag, *pairs = head.split()
    keys = [pair.split("=")[0] for pair in pairs]
    values = [k for k in keys if k not in ("dim", "r")]

    def broken(*bad):
        return " ".join([tag] + [f"{k}=bad-{k}" if k in bad else p for k, p in zip(keys, pairs)]) + "\n" + rest

    with pytest.raises(ParseError, match="'bad-r'"):
        load_problem(broken("dim", "r", *values))
    for k, key in enumerate(values):
        with pytest.raises(ParseError, match=f"'bad-{key}'"):
            load_problem(broken("dim", *values[k:]))
    with pytest.raises(ParseError, match="'bad-dim'"):
        load_problem(broken("dim"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("CONTRACTION dim=2 r=1 eps=1/4 c=1/2 delta=1/2\nARITH 1 0 1\n0\n", "f must map dim -> dim"),
        ("CLO dim=1 r=1 eps=1/4 lambda=1\nARITH 1 0 1\n0\nARITH 1 0 2\n0 0\n", "p must map dim -> 1"),
        (
            "# distance on the wrong number of inputs\n"
            "MMC dim=1 r=1 eps=1/4 c=1/2 delta_d=1 lambda=1\nARITH 1 0 1\n0\nARITH 1 0 1\n0\n",
            "d must map 2*dim -> 1",
        ),
    ],
    ids=["f", "p", "d"],
)
def test_a_dim_that_disagrees_with_a_circuit_is_a_parse_error_naming_the_header(text, message):
    line = 2 if text.startswith("#") else 1
    with pytest.raises(ParseError, match=re.escape(f"line {line}: {message}")):
        load_problem(text)


def test_circuit_file_round_trip():
    f = kinked_map(2)
    again = parse_circuit(dump_circuit(f))
    x = vec("2/5", "5/9")
    assert circuit_eval(again, x) == circuit_eval(f, x)


# A circuit that uses every gate op, as a file and as its gate tuple.
ALL_OPS_TEXT = (
    "ARITH 2 9 2\n"
    "CONST 0\n"
    "CONST -3/7\n"
    "CONST 5\n"
    "ADD 0 1\n"
    "SUB 5 3\n"
    "MUL 6 4\n"
    "MAX 7 2\n"
    "MIN 8 0\n"
    "ABS 9\n"
    "10 7\n"
)
ALL_OPS_GATES = (
    ("CONST", F(0)),
    ("CONST", F(-3, 7)),
    ("CONST", F(5)),
    ("ADD", 0, 1),
    ("SUB", 5, 3),
    ("MUL", 6, 4),
    ("MAX", 7, 2),
    ("MIN", 8, 0),
    ("ABS", 9),
)


def test_every_gate_op_dumps_parses_and_builds_to_the_same_gates():
    circ = ArithCircuit(2, ALL_OPS_GATES, (10, 7))
    assert dump_circuit(circ) == ALL_OPS_TEXT
    parsed = parse_circuit(ALL_OPS_TEXT)
    assert (parsed.arity, parsed.gates, parsed.outputs) == (2, ALL_OPS_GATES, (10, 7))
    assert [type(part) for gate in parsed.gates for part in gate[1:]] == [F] * 3 + [int] * 11
    b = CircuitBuilder(2)
    c0, c1, c5 = b.const(0), b.const("-3/7"), b.const(5)
    mul = b.mul(b.sub(b.add(0, 1), c1), c5)
    built = b.build([b.abs(b.min(b.max(mul, c0), 0)), mul])
    assert built.gates == ALL_OPS_GATES and built.outputs == (10, 7)


def test_inline_rewires_every_gate_op():
    b = CircuitBuilder(3)
    b.const(1)
    outs = b.inline(ArithCircuit(2, ALL_OPS_GATES, (10, 7)), [2, 0])
    assert outs == [12, 9]
    assert tuple(b.gates) == (
        ("CONST", F(1)),
        ("CONST", F(0)),
        ("CONST", F(-3, 7)),
        ("CONST", F(5)),
        ("ADD", 2, 0),
        ("SUB", 7, 5),
        ("MUL", 8, 6),
        ("MAX", 9, 4),
        ("MIN", 10, 2),
        ("ABS", 11),
    )
    with pytest.raises(DimensionError, match="^inline input count mismatch$"):
        b.inline(ArithCircuit(2, ALL_OPS_GATES, (10, 7)), [0])


@pytest.mark.parametrize(
    "arity, gates, outputs, message",
    [
        (-1, (("NEG", 0),), (), "arity must be nonnegative"),
        (1, (("NEG", 0),), (), "at least one output required"),
        (1, (("NEG", 0),), (1,), "unknown gate op 'NEG'"),
        (1, (("CONST",),), (1,), "bad CONST gate at 0"),
        (1, (("CONST", F(1), 0),), (1,), "bad CONST gate at 0"),
        (1, (("CONST", 1),), (1,), "bad CONST gate at 0"),
        (1, (("CONST", "1/2"),), (1,), "bad CONST gate at 0"),
        (1, (("ABS",),), (1,), "bad ABS gate at 0"),
        (1, (("ABS", 0, 0),), (1,), "bad ABS gate at 0"),
        (1, (("ABS", 1),), (1,), "bad ABS gate at 0"),
        (1, (("ABS", -1),), (1,), "bad ABS gate at 0"),
        (1, (("ADD", 0),), (1,), "bad ADD gate at 0"),
        (1, (("SUB", 0, 0, 0),), (1,), "bad SUB gate at 0"),
        (1, (("MUL", 0, 1),), (1,), "bad MUL gate at 0"),
        (1, (("MAX", -1, 0),), (1,), "bad MAX gate at 0"),
        (1, (("ABS", 0), ("MIN", 0, 2)), (1,), "bad MIN gate at 1"),
        (1, (("ABS", 0), ("NEG", 0), ("ADD", 9, 9)), (9,), "unknown gate op 'NEG'"),
        (1, (("ABS", 0),), (2,), "output index out of range"),
        (1, (("ABS", 0),), (-1,), "output index out of range"),
    ],
)
def test_circuit_construction_errors(arity, gates, outputs, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        ArithCircuit(arity, gates, outputs)


@pytest.mark.parametrize(
    "text, message",
    [
        ("ARITH 1 1 1\nNEG 0\n1\n", "line 2: bad gate 'NEG 0'"),
        ("ARITH 1 1 1\nCONST\n1\n", "line 2: bad gate 'CONST'"),
        ("ARITH 1 1 1\nCONST 1 2\n1\n", "line 2: bad gate 'CONST 1 2'"),
        ("ARITH 1 1 1\nABS\n1\n", "line 2: bad gate 'ABS'"),
        ("ARITH 1 1 1\nABS 0 0\n1\n", "line 2: bad gate 'ABS 0 0'"),
        ("ARITH 1 1 1\nADD 0\n1\n", "line 2: bad gate 'ADD 0'"),
        ("ARITH 1 1 1\nMIN 0 0 0\n1\n", "line 2: bad gate 'MIN 0 0 0'"),
        ("ARITH 1 1 1\nADD x\n1\n", "line 2: bad gate 'ADD x'"),
        ("ARITH 1 1 1\nCONST x\n1\n", "not a rational: 'x'"),
        ("ARITH 1 1 1\nCONST 1/0\n1\n", "not a rational: '1/0'"),
        ("ARITH 1 1 1\nABS x\n1\n", "not an integer: 'x'"),
        ("ARITH 1 1 1\nMUL 0 1/2\n1\n", "not an integer: '1/2'"),
        ("ARITH 1 2 1\nABS x\nNEG 0\n2\n", "not an integer: 'x'"),
        ("ARITH 1 2 1\nNEG 0\nABS x\n2\n", "line 2: bad gate 'NEG 0'"),
        ("ARITH 1 1 1\nADD 0 1\n1\n", "circuit at line 1: bad ADD gate at 0"),
        ("ARITH 1 2 1\nABS 0\nABS 5\n2\n", "circuit at line 1: bad ABS gate at 1"),
        ("ARITH 1 1 1\nABS -1\n1\n", "circuit at line 1: bad ABS gate at 0"),
        ("ARITH 1 1 1\nABS 0\n2\n", "circuit at line 1: output index out of range"),
    ],
)
def test_circuit_file_gate_errors(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_circuit(text)


@pytest.mark.parametrize("arity, outputs", [(3, 1), (2, 2), (1, 1)])
def test_check_metametric_needs_a_pair_circuit(arity, outputs):
    b = CircuitBuilder(arity)
    d = b.build([b.const(0)] * outputs)
    with pytest.raises(DimensionError, match=r"^distance circuit must map 2\*dim -> 1$"):
        check_metametric(d, [vec(0), vec(1)])


@pytest.mark.parametrize(
    "points",
    [
        [vec(0, 0, 0), vec(1, 1, 1)],  # longer than d's halves: no false nonnegativity witness
        [vec(0), vec(1)],
        [vec(0, 1), vec(1)],
        [vec(0, 1), vec(1, 0), vec(1)],
    ],
)
def test_check_metametric_rejects_points_of_the_wrong_dimension(points):
    with pytest.raises(DimensionError, match=r"^every point needs 2 coordinates for this distance circuit$"):
        check_metametric(norm_distance_circuit(2, 1), points)


def test_load_problem_probes_for_domain_escapes():
    text = "CONTRACTION dim=1 r=1 eps=1/4 c=1/2 delta=1/2\nARITH 1 2 1\nCONST 2\nMUL 0 1\n2\n"
    with pytest.raises(DomainEscapeError, match=r"^f leaves the unit box near 2/3$") as err:
        load_problem(text)
    assert err.value.point == vec("2/3")
    assert load_problem(text.replace("CONST 2", "CONST 1")).f.gates[0] == ("CONST", F(1))


def test_solution_line_round_trip():
    for sol in (
        C1(vec("1/2")),
        C2a(vec(0), vec(1)),
        CM2(vec("1/3"), vec("2/3")),
        MMviol(4, (vec(0), vec("1/2"), vec(1))),
    ):
        dim = 1
        assert parse_circuit_solution(format_circuit_solution(sol), dim) == sol


def test_unit_grid():
    grid = unit_grid(1, 9)
    assert len(grid) == 9 and grid[0] == vec(0) and grid[-1] == vec(1)
    assert len(unit_grid(3, 3)) == 27
