import itertools
import random
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from clslab import (
    BudgetExceededError,
    DegeneracyError,
    DimensionError,
    LemkeVertex,
    ParseError,
    PreconditionError,
    QMatrix,
    QVector,
    brute_force_lcp,
    duplicate_label,
    is_p_matrix,
    lemke_pivot,
    lemke_solve,
    lemke_start,
    p_matrix_witness,
    todd_orientation,
    verify_lcp_solution,
)
from clslab import lcp
from clslab.lcp import (
    Q1,
    Q2,
    Ray,
    _subsets_lex,
    _var_name,
    dump_lcp,
    format_outcome,
    load_lcp,
    parse_outcome,
)
from support import (
    FullTableau,
    copies,
    full_tableau,
    full_tableau_of_tight,
    gen_nonp_lcp,
    gen_p_lcp,
    make_lcp,
    murty_lcp,
    off_path_text,
    oracle_orientation,
    random_lcp,
    tight_direction,
    tight_point,
    var_id,
    verify_lcp_solution_ref,
)


def test_verify_solution_examples():
    inst = make_lcp([[1]], [5])
    assert verify_lcp_solution(inst, QVector.of([0]))
    inst = make_lcp([[1]], [-1])
    assert verify_lcp_solution(inst, QVector.of([1]))
    report = verify_lcp_solution(inst, QVector.of([2]))
    assert not report
    assert report.not_complementary == (1,)


# zero, small, and large entries over coprime and prime denominators
RATIONALS = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(
        F,
        st.integers(-(10**12), 10**12),
        st.sampled_from([1, 7, 2**31 - 1, 10**9 + 7, 3**20, 2**64]),
    ),
)


@st.composite
def lcp_with_candidate(draw):
    """An instance and a candidate y: random, or built to solve it, then maybe
    perturbed so that one constraint fails; some candidates have the wrong length."""
    d = draw(st.integers(1, 5))
    m = [[draw(RATIONALS) for _ in range(d)] for _ in range(d)]
    if draw(st.booleans()):
        y = [abs(draw(RATIONALS)) for _ in range(d)]
        s = [F(0) if y[i] else abs(draw(RATIONALS)) for i in range(d)]
        q = [s[i] - sum(a * b for a, b in zip(m[i], y)) for i in range(d)]
        if draw(st.booleans()):
            i = draw(st.integers(0, d - 1))
            y[i] += draw(RATIONALS)
    else:
        q = [draw(RATIONALS) for _ in range(d)]
        y = [draw(RATIONALS) for _ in range(d)]
    y += [draw(RATIONALS) for _ in range(draw(st.sampled_from([0, 0, 0, 1])))]
    if draw(st.integers(0, 9)) == 0:
        y = y[:-1]
    return make_lcp(m, q), QVector(tuple(y))


@settings(max_examples=400, deadline=None)
@given(case=lcp_with_candidate())
def test_verify_lcp_solution_matches_fraction_reference(case):
    inst, y = case
    if len(y) != inst.d:
        with pytest.raises(DimensionError):
            verify_lcp_solution(inst, y)
        with pytest.raises(DimensionError):
            verify_lcp_solution_ref(inst, y)
        return
    got = verify_lcp_solution(inst, y)
    ref = verify_lcp_solution_ref(inst, y)
    assert got.ok == ref.ok
    assert got.y_negative == ref.y_negative
    assert got.s_negative == ref.s_negative
    assert got.not_complementary == ref.not_complementary
    assert tuple(got.slack) == tuple(ref.slack)


def test_p_matrix_examples():
    assert is_p_matrix(QMatrix.identity(3))
    w = p_matrix_witness(QMatrix.of([[0]]))
    assert w == Q2(frozenset({1}), F(0))
    w = p_matrix_witness(QMatrix.of([[1, 2], [3, 1]]))
    assert w.index_set == frozenset({1, 2}) and w.minor == -5
    for rows in ([[1], [1]], [[1, 1]]):  # tall and wide
        with pytest.raises(DimensionError, match="^P-matrix test needs a square matrix$"):
            is_p_matrix(QMatrix.of(rows))


def test_p_matrix_witness_is_lex_smallest():
    # subset order is (1), (1,2), (1,2,3), (1,3), ...; the first two pass,
    # so the full set wins over the equally bad {1,3}
    from clslab import principal_minor

    m = QMatrix.of([[1, 0, 2], [0, 1, 0], [3, 0, 1]])
    w = p_matrix_witness(m)
    assert w.index_set == frozenset({1, 2, 3}) and w.minor == -5
    assert principal_minor(m, (1, 3)) == -5


def test_subsets_come_in_lexicographic_order():
    for d in range(1, 8):
        want = sorted(c for r in range(1, d + 1) for c in itertools.combinations(range(1, d + 1), r))
        assert list(_subsets_lex(d)) == want, d


def test_p_matrix_witness_tests_the_first_subset_before_building_the_rest():
    # 2^40 - 1 subsets; {1} is first and its minor is -1
    m = QMatrix.of([[-1 if i == j == 0 else int(i == j) for j in range(40)] for i in range(40)])
    tracemalloc.start()
    try:
        w = p_matrix_witness(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == Q2(frozenset({1}), F(-1))
    assert peak < 1 << 20


def test_lemke_start_examples():
    v = lemke_start(make_lcp([[1, 0], [0, 1]], [-1, -2]))
    assert v.z == 2 and tuple(v.s) == (F(1), F(0)) and tuple(v.y) == (F(0), F(0))
    assert v.dup_label == 2
    v = lemke_start(make_lcp([[1]], [-3]))
    assert v.z == 3 and tuple(v.s) == (F(0),)
    with pytest.raises(DegeneracyError):
        lemke_start(make_lcp([[1, 0], [0, 1]], [-1, -1]))
    with pytest.raises(PreconditionError):
        lemke_start(make_lcp([[1]], [2]))


def test_lemke_pivot_examples():
    inst = make_lcp([[1]], [-1])
    start = lemke_start(inst)
    nxt = lemke_pivot(inst, start, "y1")
    assert tuple(nxt.y) == (F(1),) and nxt.z == 0 and nxt.dup_label is None
    with pytest.raises(PreconditionError):
        lemke_pivot(inst, nxt, "y1")  # y1 is basic there
    with pytest.raises(PreconditionError):
        lemke_pivot(inst, replace(start, tight=frozenset({"y1"})), "y1")  # d+1 = 2 needed
    ray = lemke_pivot(make_lcp([[0]], [-1]), lemke_start(make_lcp([[0]], [-1])), "y1")
    assert isinstance(ray, Ray)


def test_variable_names_take_ascii_digits_only():
    inst = make_lcp([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [-1, -2, -3])
    start = lemke_start(inst)
    assert isinstance(lemke_pivot(inst, start, "y3"), type(start))
    # a superscript digit is a digit to str.isdigit but not to int, and an
    # Arabic-Indic three is a 3 to both; a leading zero is no name that
    # vertices carry
    for name in ("y¹", "y٣", "s٣", "y_3", "y+3", "y03"):
        with pytest.raises(PreconditionError):
            lemke_pivot(inst, start, name)


@pytest.mark.parametrize("name", ["", " ", "\t", "y", "y0", "y01", "s01", " y1", "y1 ", "Z", "z1"])
def test_only_the_names_vertices_carry_are_variables(name):
    # an empty or blank name used to raise a bare IndexError from name[0]
    inst = make_lcp([[1, 0], [0, 1]], [-1, -2])
    start = lemke_start(inst)
    for op in (lemke_pivot, todd_orientation):
        with pytest.raises(PreconditionError, match=f"^unknown variable {re.escape(repr(name))} "):
            op(inst, start, name)


def test_duplicate_label_examples():
    v = lemke_start(make_lcp([[1, 0], [0, 1]], [-1, -2]))
    assert duplicate_label(v) == 2
    inst = make_lcp([[1]], [-1])
    solution_vertex = lemke_pivot(inst, lemke_start(inst), "y1")
    assert duplicate_label(solution_vertex) is None
    hand = lemke_start(make_lcp([[1, 0], [0, 1]], [-3, -1]))
    assert duplicate_label(hand) == 1


def test_lemke_solve_examples():
    res = lemke_solve(make_lcp([[2]], [3]))
    assert res.outcome == Q1(QVector.of([0])) and res.trace == ()
    res = lemke_solve(make_lcp([[2, 0], [0, 3]], [-4, -6]))
    assert res.outcome == Q1(QVector.of([2, 2]))
    res = lemke_solve(make_lcp([[0]], [-1]))
    assert res.outcome == Q2(frozenset({1}), F(0))


def test_trace_invariants_on_p_instances():
    rng = random.Random(41)
    instances = [make_lcp([[2, 1], [1, 3]], [-4, -5])]
    instances += [gen_p_lcp(rng, rng.randint(1, 5)) for _ in range(12)]
    for inst in instances:
        assert is_p_matrix(inst.m)
        res = lemke_solve(inst)
        assert isinstance(res.outcome, Q1)
        zs = [v.z for v in res.trace]
        assert all(a > b for a, b in zip(zs, zs[1:]))
        for v in res.trace:
            # exact feasibility and full labeling at every visited vertex
            assert inst.q + inst.m.apply(v.y) + QVector.of([v.z] * inst.d) == v.s
            assert all(v.y[i] == 0 or v.s[i] == 0 for i in range(inst.d))
            assert all(x >= 0 for x in v.y) and all(x >= 0 for x in v.s) and v.z >= 0
            labels = [i for i in range(inst.d) if v.y[i] == 0 and v.s[i] == 0]
            assert len(labels) <= 1
            assert duplicate_label(v) == (labels[0] + 1 if labels else None)


def test_orientation_contract_on_traced_path():
    inst = make_lcp([[2, 1], [1, 3]], [-4, -5])
    res = lemke_solve(inst)
    trace = res.trace
    assert len(trace) >= 3
    start = trace[0]
    entering = f"y{start.dup_label}"
    assert todd_orientation(inst, start, entering) == "forward"
    for v, w in zip(trace, trace[1:]):
        leave = set(v.tight) - set(w.tight)
        join = set(w.tight) - set(v.tight)
        assert len(leave) == 1 and len(join) == 1
        assert todd_orientation(inst, v, leave.pop()) == "forward"
        assert todd_orientation(inst, w, join.pop()) == "backward"
    for prev, mid, nxt in zip(trace, trace[1:], trace[2:]):
        back = (set(mid.tight) - set(prev.tight)).pop()
        ahead = (set(mid.tight) - set(nxt.tight)).pop()
        labels = {
            todd_orientation(inst, mid, back),
            todd_orientation(inst, mid, ahead),
        }
        assert labels == {"forward", "backward"}


def test_orientation_antisymmetric_on_every_edge():
    # every pivot edge, including ones that raise z, gets complementary
    # labels from its two endpoints
    rng = random.Random(61)
    from clslab.lcp import Ray as RayType

    checked = 0
    for _ in range(16):
        inst = gen_p_lcp(rng, rng.randint(1, 3)) if rng.random() < 0.5 else gen_nonp_lcp(
            rng, rng.randint(1, 3)
        )
        try:
            vertex = lemke_start(inst)
        except PreconditionError:
            continue
        frontier = [vertex]
        seen = {(tuple(vertex.y), tuple(vertex.s), vertex.z)}
        while frontier and checked < 120:
            v = frontier.pop()
            for entering in sorted(v.tight):
                try:
                    w = lemke_pivot(inst, v, entering)
                except DegeneracyError:
                    continue
                if isinstance(w, RayType):
                    continue
                back = set(w.tight) - set(v.tight)
                assert len(back) == 1
                lab_v = todd_orientation(inst, v, entering)
                lab_w = todd_orientation(inst, w, back.pop())
                assert {lab_v, lab_w} == {"forward", "backward"}
                checked += 1
                key = (tuple(w.y), tuple(w.s), w.z)
                if key not in seen:
                    seen.add(key)
                    frontier.append(w)
    assert checked >= 30


def test_lexicographic_mode_resolves_ties():
    inst = make_lcp([[1, 0], [0, 1]], [-1, -1])
    with pytest.raises(DegeneracyError):
        lemke_solve(inst)
    res = lemke_solve(inst, lexicographic=True)
    assert res.outcome == Q1(QVector.of([1, 1]))
    assert brute_force_lcp(inst) == [QVector.of([1, 1])]


def test_q2_minor_reverifies():
    rng = random.Random(11)
    for _ in range(10):
        inst = gen_nonp_lcp(rng, rng.randint(1, 3))
        res = lemke_solve(inst)
        assert isinstance(res.outcome, Q2)
        from clslab import principal_minor

        assert principal_minor(inst.m, res.outcome.index_set) == res.outcome.minor
        assert res.outcome.minor <= 0


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.data())
def test_oracle_equivalence_small_entries(d, data):
    entries = [[data.draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
    q = [data.draw(st.integers(-2, 2)) for _ in range(d)]
    inst = make_lcp(entries, q)
    if not is_p_matrix(inst.m):
        return
    try:
        res = lemke_solve(inst)
    except DegeneracyError:
        res = lemke_solve(inst, lexicographic=True)
    solutions = brute_force_lcp(inst)
    assert len(solutions) == 1
    assert isinstance(res.outcome, Q1)
    assert res.outcome.y == solutions[0]


def test_file_round_trip_and_paper_sign():
    inst = make_lcp([[2, -1], [0, 3]], [-4, 5])
    text = dump_lcp(inst)
    again = load_lcp(text)
    assert again == inst
    flipped = load_lcp(text, paper_sign=True)
    assert flipped.m == QMatrix.of([[-2, 1], [0, -3]])
    assert flipped.q == inst.q


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n1 x\n0 1\n-1 -1\n", "line 2: not a rational: 'x'"),
        ("2\n1 0\n0 1\n-1 y\n", "line 4: not a rational: 'y'"),
        ("2\n1\n0 1\n-1 -1\n", "line 2: matrix row has 1 entries, want 2"),
        ("# c\n2\n1 0\n\n0 1 2\n-1 -1\n", "line 5: matrix row has 3 entries, want 2"),
        ("2\n1 0\n0 1\n-1\n", "line 4: q has 1 entries, want 2"),
        ("2\n1 0\n0 1\n", "expected 4 data lines for d=2, got 3"),
        ("2\n1 0\n0 1\n-1 -1\n5 5\n", "expected 4 data lines for d=2, got 5"),
    ],
    ids=["token-in-m", "token-in-q", "short-m-row", "long-m-row", "short-q", "too-few-lines", "too-many-lines"],
)
def test_load_lcp_error_texts(text, message):
    with pytest.raises(ParseError) as err:
        load_lcp(text)
    assert str(err.value) == message


def test_outcome_round_trip():
    for out in (
        Q1(QVector.of(["1/2", 0])),
        Q2(frozenset({1, 3}), F(-5, 2)),
        Q2(frozenset({2}), F(0)),
        Q2(frozenset(), F(1)),
    ):
        assert parse_outcome(format_outcome(out)) == out


@pytest.mark.parametrize(
    "line, message",
    [
        ("Q2 S=1 minor=2 extra", "malformed Q2 line: 'Q2 S=1 minor=2 extra'"),
        ("Q2 S={1} minor=2 S={2}", "malformed Q2 line: 'Q2 S={1} minor=2 S={2}'"),
        ("Q2 S={1} minor=2 minor=2", "malformed Q2 line: 'Q2 S={1} minor=2 minor=2'"),
        ("Q2 S={1} minor=2 note=x", "malformed Q2 line: 'Q2 S={1} minor=2 note=x'"),
        ("Q2 S={1}", "malformed Q2 line: 'Q2 S={1}'"),
        ("Q2 S={1,1} minor=2", "repeated index in Q2 line: 'Q2 S={1,1} minor=2'"),
        ("Q2 S={2,1,2} minor=2", "repeated index in Q2 line: 'Q2 S={2,1,2} minor=2'"),
    ],
    ids=["stray-token", "repeated-s", "repeated-minor", "unknown-key", "missing-minor",
         "repeated-index", "repeated-index-apart"],
)
def test_parse_outcome_rejects_junk_in_a_q2_line(line, message):
    with pytest.raises(ParseError) as err:
        parse_outcome(line)
    assert str(err.value) == message


def test_parse_outcome_q2_fields_in_either_order():
    assert parse_outcome("Q2 minor=-1 S={3,1}") == Q2(frozenset({1, 3}), F(-1))
    assert parse_outcome("Q2 S=2 minor=0") == Q2(frozenset({2}), F(0))


def test_instance_hash_is_the_field_hash_and_is_kept():
    inst = make_lcp([[2, 1], [1, 2]], ["1/3", -2])
    before = repr(inst)
    assert hash(inst) == hash((inst.m, inst.q))
    assert hash(inst) == hash((inst.m, inst.q))
    assert repr(inst) == before == repr(make_lcp([[2, 1], [1, 2]], ["1/3", -2]))
    assert [f.name for f in fields(inst)] == ["m", "q"]
    with pytest.raises(FrozenInstanceError):
        inst.q = QVector.of([1, 1])
    with pytest.raises(FrozenInstanceError):
        inst._hash = 0
    assert inst == make_lcp([[2, 1], [1, 2]], ["1/3", -2])
    assert inst != make_lcp([[2, 1], [1, 2]], ["1/3", -1])


@pytest.mark.parametrize("hashed_first", [False, True], ids=["unhashed", "hashed"])
def test_instance_copies_equal_and_hash_like_a_fresh_one(hashed_first):
    inst = make_lcp([[4, -1, 0], [1, 5, 1], [0, 0, 3]], [-1, "2/7", -3])
    if hashed_first:
        hash(inst)
    fresh = make_lcp([[4, -1, 0], [1, 5, 1], [0, 0, 3]], [-1, "2/7", -3])
    for how, twin in copies(inst).items():
        assert twin == fresh and fresh == twin, how
        assert hash(twin) == hash(fresh) == hash((fresh.m, fresh.q)), how
        assert repr(twin) == repr(fresh), how
        with pytest.raises(FrozenInstanceError):
            twin.m = fresh.m


def test_solver_budget_guard():
    rng = random.Random(3)
    inst = gen_p_lcp(rng, 3)
    res = lemke_solve(inst, budget=2 ** 6 + 1)
    assert isinstance(res.outcome, Q1)
    # a budget of k allows k pivots; running out keeps the path so far
    pivots = len(res.trace) - 1
    assert lemke_solve(inst, budget=pivots) == res
    for k in range(pivots):
        with pytest.raises(BudgetExceededError) as info:
            lemke_solve(inst, budget=k)
        assert info.value.trace == res.trace[: k + 1]


def test_a_path_with_no_pivot_fits_a_budget_of_zero():
    # the budget counts pivots, so it is checked only before one is made:
    # y1 enters at the start of M = [[0]], q = (-1) along a ray
    inst = make_lcp([[0]], [-1])
    for lex in (False, True):
        res = lemke_solve(inst, lexicographic=lex, budget=0)
        assert res.outcome == Q2(frozenset({1}), F(0)) and len(res.trace) == 1


def test_negative_budget_is_rejected_in_both_modes():
    inst = gen_p_lcp(random.Random(3), 3)
    trivial = make_lcp([[1, 0], [0, 1]], [1, 2])
    for case, lex in itertools.product((inst, trivial), (False, True)):
        with pytest.raises(PreconditionError, match="budget must be nonnegative"):
            lemke_solve(case, lexicographic=lex, budget=-1)


def _tight_ids(inst, v):
    return frozenset(var_id(name, inst.d) for name in v.tight)


def _coords(v):
    return list(v.y) + list(v.s) + [v.z]


def _scaled_rows_copy(inst, rng):
    """Row i of (M, q) times a positive rational: same solutions, new scales."""
    c = [F(rng.randint(1, 4), rng.randint(1, 5)) for _ in range(inst.d)]
    rows = [[c[i] * a for a in inst.m.row(i)] for i in range(inst.d)]
    return make_lcp(rows, [c[i] * inst.q[i] for i in range(inst.d)])


def _differential_instances():
    """Seeded P and non-P instances, plus tie-prone ones only lex mode can run.

    Each comes twice: as drawn, and with row i of (M, q) scaled by a positive
    rational, which keeps every solution y and gives the tableau rows
    denominators to clear.
    """
    rng = random.Random(97)
    out = [gen_p_lcp(rng, rng.randint(1, 6)) for _ in range(14)]
    out += [gen_nonp_lcp(rng, rng.randint(1, 5)) for _ in range(10)]
    out += [random_lcp(rng, rng.randint(2, 5), span=1) for _ in range(24)]
    out = [inst for inst in out if min(inst.q) < 0]
    return out + [_scaled_rows_copy(inst, rng) for inst in out]


def test_trace_vertices_match_tight_system_oracle():
    checked = {False: 0, True: 0}
    for inst in _differential_instances():
        for lex in (False, True):
            try:
                res = lemke_solve(inst, lexicographic=lex)
            except DegeneracyError as exc:
                assert not lex
                ids = [var_id(name, inst.d) for name in exc.ties if not isinstance(name, int)]
                assert ids == sorted(ids)  # ratio-test ties are named in variable order
                continue
            for v in res.trace:
                assert _coords(v) == tight_point(inst, _tight_ids(inst, v))
                checked[lex] += 1
    assert checked[False] >= 60 and checked[True] > checked[False]


def test_pivots_and_orientation_match_oracle_directions():
    # every edge at every traced vertex: the pivot lands on the oracle's
    # vertex (or ray direction) and Todd's label is the oracle direction's sign
    rays = edges = 0
    for inst in _differential_instances():
        try:
            trace = lemke_solve(inst).trace
        except DegeneracyError:
            continue
        for v in trace:
            tight = _tight_ids(inst, v)
            for name in sorted(v.tight):
                entering = var_id(name, inst.d)
                label = todd_orientation(inst, v, name)
                assert label == oracle_orientation(inst, tight, entering)
                try:
                    w = lemke_pivot(inst, v, name)
                except DegeneracyError:
                    continue
                if isinstance(w, Ray):
                    sigma = tight_direction(inst, tight, entering)
                    assert list(w.dir_y) + list(w.dir_s) + [w.dir_z] == sigma
                    rays += 1
                else:
                    assert _coords(w) == tight_point(inst, _tight_ids(inst, w))
                    edges += 1
    assert rays >= 20 and edges >= 50


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_plain_and_lexicographic_agree_without_ties(d, data):
    entries = [[data.draw(st.integers(-3, 3)) for _ in range(d)] for _ in range(d)]
    q = [data.draw(st.integers(-3, 3)) for _ in range(d)]
    inst = make_lcp(entries, q)
    try:
        plain = lemke_solve(inst)
    except DegeneracyError:
        return
    lex = lemke_solve(inst, lexicographic=True)
    assert lex.outcome == plain.outcome
    assert lex.trace == plain.trace


# ----------------------------------------------------------------------------
# the condensed dictionary against the full-column reference tableau


def _solve(inst, lex):
    """``lemke_solve``'s outcome and trace, or the ties of its DegeneracyError."""
    try:
        res = lemke_solve(inst, lexicographic=lex)
    except DegeneracyError as exc:
        return "tie", str(exc), exc.ties
    return res.outcome, res.trace


def _assert_same_dictionary(new, ref):
    d = new.d
    assert (new.basis, new.det, new.tight(), new.values()) == (
        ref.basis,
        ref.det,
        ref.tight(),
        ref.values(),
    )
    for var in range(2 * d + 2):  # y, s', z and the rhs
        assert new.column(var) == ref.column(var)


def _reads(tab, e):
    """Everything the pivot rules read about nonbasic ``e``, in both modes."""
    out = [tab.orientation(e), tab.ray(e)]
    for lex in (False, True):
        try:
            out.append(tab.step(e, lex))
        except DegeneracyError as exc:
            out.append(("tie", str(exc), exc.ties))
    return out


def _walk_in_lockstep(inst, lex):
    """Lemke's path pivoted on both tableaux; every read agrees at every
    vertex.  Returns the number of pivots made and whether a tie ended it."""
    d = inst.d
    start = max(i for i in range(d) if inst.q[i] == min(inst.q))
    new, ref = lcp._Tableau(inst), FullTableau(inst)
    for tab in (new, ref):
        tab.pivot(start, 2 * d)
    entering, pivots = start, 0
    while True:
        _assert_same_dictionary(new, ref)
        for e in sorted(new.cobasis):
            assert _reads(new, e) == _reads(ref, e)
        try:
            r, z_trend = new.step(entering, lex)
        except DegeneracyError:
            return pivots, True
        if r is None or z_trend >= 0:
            return pivots, False
        blocker = new.basis[r]
        for tab in (new, ref):
            tab.pivot(r, entering)
        pivots += 1
        if blocker == 2 * d:
            _assert_same_dictionary(new, ref)
            return pivots, False
        entering = blocker + d if blocker < d else blocker - d


def _assert_same_decode(inst, tight):
    new = lcp._tableau_of_tight(inst, tight)
    ref = full_tableau_of_tight(inst, tight)
    assert (new is None) == (ref is None)
    if new is not None:
        _assert_same_dictionary(new, ref)
    return new is None


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["p", "nonp", "ties"]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    scaled=st.booleans(),
)
def test_condensed_tableau_matches_full_reference(kind, d, seed, scaled):
    rng = random.Random(seed)
    if kind == "p":
        inst = gen_p_lcp(rng, d)
    elif kind == "nonp":
        inst = gen_nonp_lcp(rng, max(d, 2))
    else:  # entries in {-1, 0, 1}: ratio-test ties are common
        inst = random_lcp(rng, d, span=1)
        if min(inst.q) >= 0:
            inst = make_lcp([list(inst.m.row(i)) for i in range(d)], [-1] + list(inst.q)[1:])
    if scaled:
        inst = _scaled_rows_copy(inst, rng)
    for lex in (False, True):
        got = _solve(inst, lex)
        with full_tableau():
            assert _solve(inst, lex) == got
        _walk_in_lockstep(inst, lex)
    ids = range(2 * inst.d + 1)
    for _ in range(20):
        _assert_same_decode(inst, frozenset(rng.sample(ids, inst.d + 1)))


def test_decodes_match_full_reference_on_every_tight_set():
    # every (d+1)-subset of (y, s, z), singular bases (None) included
    singular = regular = 0
    for inst in _differential_instances():
        if inst.d > 4:
            continue
        for tight in itertools.combinations(range(2 * inst.d + 1), inst.d + 1):
            if _assert_same_decode(inst, frozenset(tight)):
                singular += 1
            else:
                regular += 1
    assert singular >= 100 and regular >= 1000


def _ref_step(inst, tight, e, lex):
    """What ``_Tableau.step`` answers at the basis off ``tight``, read with the
    full tableau's separate reads: ``ratio_row`` (its tie text included),
    then ``z_trend`` at that row, or the labels a pivot there would leave
    when the far vertex is not complementary."""
    ref = full_tableau_of_tight(inst, tight)
    try:
        r = ref.ratio_row(e, lex)
    except DegeneracyError as exc:
        return "raises", str(exc), exc.ties
    if r is None:
        return None, 0
    trend, blocker = ref.z_trend(r, e, lex), _var_name(ref.basis[r], inst.d)
    ref.pivot(r, e)
    try:
        ref.vertex()
    except DegeneracyError as exc:
        return "raises", off_path_text(_var_name(e, inst.d), blocker, exc.ties), exc.ties
    return r, trend


def test_step_answers_as_the_full_reference_reads():
    # every nonbasic variable at every nonsingular basis of the small
    # instances, in both modes: the blocking row, None on a ray (then the
    # same ray), the sign of z's change, and the same DegeneracyError text
    seen = {key: 0 for key in ("tie", "off", "ray", -1, 0, 1)}
    for inst in _differential_instances():
        if inst.d > 4:
            continue
        for tight in map(frozenset, itertools.combinations(range(2 * inst.d + 1), inst.d + 1)):
            tab = lcp._tableau_of_tight(inst, tight)
            if tab is None:
                continue
            for e, lex in itertools.product(sorted(tight), (False, True)):
                want = _ref_step(inst, tight, e, lex)
                try:
                    got = tab.step(e, lex)
                except DegeneracyError as exc:
                    got = "raises", str(exc), exc.ties
                assert got == want, (inst, tight, e, lex)
                if want[0] == "raises":
                    seen["tie" if want[1].startswith("ratio-test tie") else "off"] += 1
                elif want[0] is None:
                    assert tab.ray(e) == full_tableau_of_tight(inst, tight).ray(e)
                    seen["ray"] += 1
                else:
                    seen[want[1]] += 1
    assert seen["tie"] >= 300 and seen["off"] >= 2000 and seen["ray"] >= 4000, seen
    assert min(seen[-1], seen[0], seen[1]) >= 2000, seen


def test_an_edge_off_the_complementary_vertices_is_named():
    # relaxing y2 at the start (s3 and y3 tight) is blocked by s1, which
    # would leave y1 and s1 tight as well: two duplicate labels, no tie
    inst = make_lcp([[0, -2, 0], [0, 0, 1], [0, -1, 1]], [1, -1, -2])
    start = lemke_start(inst)
    with pytest.raises(DegeneracyError) as info:
        lemke_pivot(inst, start, "y2")
    assert str(info.value) == (
        "the edge relaxing y2 leaves the complementary vertices: "
        "s1 blocks it at duplicate labels 1, 3"
    )
    assert info.value.ties == (1, 3)
    # the path's own edge from there reaches a solution
    assert lemke_pivot(inst, start, "y3").z == 0


def test_lockstep_walks_cover_ties_and_both_modes():
    pivots = {False: 0, True: 0}
    ties = {False: 0, True: 0}
    for inst in _differential_instances():
        for lex in (False, True):
            made, tied = _walk_in_lockstep(inst, lex)
            pivots[lex] += made
            ties[lex] += tied
    assert ties[False] >= 5 and ties[True] == 0
    assert pivots[False] >= 50 and pivots[True] > pivots[False]


@pytest.mark.parametrize("d", range(1, 9))
def test_murty_path_has_exponentially_many_pivots(d):
    inst = murty_lcp(d)
    plain = lemke_solve(inst)
    lex = lemke_solve(inst, lexicographic=True)
    assert len(plain.trace) - 1 == 2**d - 1
    assert (lex.outcome, lex.trace) == (plain.outcome, plain.trace)
    with full_tableau():
        ref = lemke_solve(inst)
    assert (ref.outcome, ref.trace) == (plain.outcome, plain.trace)
    assert verify_lcp_solution(inst, plain.outcome.y)


# ----------------------------------------------------------------------------
# the lazy trace against vertices built at once by the full reference tableau


def _eager_path(inst, lex):
    """Lemke's path pivoted on :class:`FullTableau`, every vertex built at once
    by ``FullTableau.vertex``, and how the path ended: "solution", "ray",
    "z-trend", or the text of the DegeneracyError that stopped it."""
    d = inst.d
    low = min(inst.q)
    ties = [i for i in range(d) if inst.q[i] == low]
    if len(ties) > 1 and not lex:
        return [], "tied minimum"
    tab = FullTableau(inst)
    tab.pivot(ties[-1], 2 * d)
    trace, entering = [tab.vertex()], ties[-1]
    while True:
        try:
            r = tab.ratio_row(entering, lex)
        except DegeneracyError as exc:
            return trace, str(exc)
        if r is None:
            return trace, "ray"
        if tab.z_trend(r, entering, lex) >= 0:
            return trace, "z-trend"
        blocker = tab.basis[r]
        tab.pivot(r, entering)
        trace.append(tab.vertex())
        if blocker == 2 * d:
            return trace, "solution"
        entering = blocker + d if blocker < d else blocker - d


# each traced vertex is first touched by one of these, given it and its
# eager twin, then checked in full
_FIRST_READS = {
    "fields": lambda v, ref: (v.y, v.s, v.z, v.tight, v.dup_label),
    "one field": lambda v, ref: v.z,
    "eq": lambda v, ref: v == ref,
    "eq from the eager side": lambda v, ref: ref == v,
    "hash": lambda v, ref: hash(v),
    "repr": lambda v, ref: repr(v),
    "copies": lambda v, ref: copies(v),
    "replace": lambda v, ref: replace(v),
}


def _assert_same_vertex(got, ref):
    assert type(got) is LemkeVertex
    assert [getattr(got, f.name) for f in fields(ref)] == [getattr(ref, f.name) for f in fields(ref)]
    assert got == ref and ref == got
    assert hash(got) == hash(ref) and repr(got) == repr(ref)
    with pytest.raises(FrozenInstanceError):
        got.z = ref.z


def _assert_same_as_eager(got, ref, first_read):
    """``got`` equals the eager ``ref`` when first touched by ``first_read``,
    and its copies, taken before that read and after it, equal ref's copies.

    A copy is compared with the same copy of ref: a pickled frozenset may
    iterate, and so print, in another order than the original.
    """
    ref_copies = copies(ref)
    before = copies(got) if first_read == "later copies" else {}
    if first_read != "later copies":
        _FIRST_READS[first_read](got, ref)
    _assert_same_vertex(got, ref)
    for twins in (before, copies(got)):
        for how, twin in twins.items():
            _assert_same_vertex(twin, ref_copies[how])
            assert vars(twin) == vars(ref), how  # a copy carries the rationals only


def _outcome(inst, lex):
    """``lemke_solve``'s result, or the text of its DegeneracyError."""
    try:
        return lemke_solve(inst, lexicographic=lex)
    except DegeneracyError as exc:
        return str(exc)


def test_lazy_trace_equals_the_eager_one_vertex_for_vertex():
    reads = list(_FIRST_READS) + ["later copies"]
    ends, checked = {}, 0
    for inst in _differential_instances():
        for lex in (False, True):
            eager, end = _eager_path(inst, lex)
            ends[end] = ends.get(end, 0) + 1
            for first_read in reads:
                res = _outcome(inst, lex)
                if isinstance(res, str):  # the same tie stops both
                    assert res == end or (end == "tied minimum" and res.startswith(end))
                    break
                assert end in ("solution", "ray", "z-trend")
                assert isinstance(res.outcome, Q1) == (end == "solution")
                assert len(res.trace) == len(eager)
                for v, ref in zip(res.trace, eager):
                    tight = frozenset(var_id(name, inst.d) for name in ref.tight)
                    assert full_tableau_of_tight(inst, tight).vertex() == ref
                    _assert_same_as_eager(v, ref, first_read)
                    checked += 1
                if end == "solution":
                    assert res.outcome.y == eager[-1].y
    assert ends["solution"] >= 60 and ends["ray"] >= 40 and ends["z-trend"] >= 25
    assert ends["tied minimum"] >= 5 and checked >= 2000


def test_budget_prefixes_equal_the_eager_path():
    prefixes = 0
    for inst in _differential_instances():
        for lex in (False, True):
            eager, end = _eager_path(inst, lex)
            if end not in ("solution", "ray", "z-trend"):
                continue
            for k in range(len(eager) - 1):
                with pytest.raises(BudgetExceededError) as info:
                    lemke_solve(inst, lexicographic=lex, budget=k)
                trace = info.value.trace
                assert len(trace) == k + 1
                for i, (v, ref) in enumerate(zip(trace, eager)):
                    _assert_same_as_eager(v, ref, list(_FIRST_READS)[i % len(_FIRST_READS)])
                prefixes += 1
    assert prefixes >= 100


def _eager_pivot(inst, ref, name):
    """``lemke_pivot`` on the full tableau, its vertex built at once."""
    d = inst.d
    tab = full_tableau_of_tight(inst, frozenset(var_id(n, d) for n in ref.tight))
    var = var_id(name, d)
    try:
        r = tab.ratio_row(var, lexicographic=False)
    except DegeneracyError as exc:
        return str(exc)
    if r is None:
        return tab.ray(var)
    blocker = _var_name(tab.basis[r], d)
    tab.pivot(r, var)
    try:
        return tab.vertex()
    except DegeneracyError as exc:
        return off_path_text(name, blocker, exc.ties)


def test_start_and_pivot_vertices_equal_eager_ones():
    # every edge out of the vertices reachable from the start in a few
    # pivots, non-complementary ones included; pivoting z into a vertex off
    # the path can leave two duplicate labels, which must raise at the pivot
    counts = {"vertex": 0, "ray": 0, "two labels": 0, "tie": 0}
    reads = list(_FIRST_READS)
    for inst in _differential_instances():
        eager, end = _eager_path(inst, False)
        if end == "tied minimum":
            continue
        start = lemke_start(inst)
        _assert_same_as_eager(start, eager[0], reads[inst.d % len(reads)])
        frontier, seen = [eager[0]], {eager[0]}
        while frontier and len(seen) < 12:
            ref = frontier.pop(0)
            for name in sorted(ref.tight):
                want = _eager_pivot(inst, ref, name)
                try:
                    got = lemke_pivot(inst, ref, name)
                except DegeneracyError as exc:
                    assert str(exc) == want
                    counts["two labels" if "duplicate" in want else "tie"] += 1
                    continue
                assert not isinstance(want, str), want  # the eager pivot raised
                if isinstance(want, Ray):
                    assert got == want
                    counts["ray"] += 1
                    continue
                _assert_same_as_eager(got, want, reads[counts["vertex"] % len(reads)])
                counts["vertex"] += 1
                if want not in seen:
                    seen.add(want)
                    frontier.append(want)
    assert counts["vertex"] >= 300 and counts["ray"] >= 400
    assert counts["two labels"] >= 100 and counts["tie"] >= 25


@contextmanager
def _vertex_builds():
    """Count the snapshot vertices that build their rationals in the block."""
    builds = []
    build = lcp._vertex_fields

    def counted(*snapshot):
        builds.append(snapshot)
        return build(*snapshot)

    with mock.patch.object(lcp, "_vertex_fields", counted):
        yield builds


@pytest.mark.parametrize("lex", [False, True], ids=["plain", "lex"])
def test_a_solve_builds_at_most_the_last_vertex(lex):
    inst = murty_lcp(8)
    with _vertex_builds() as builds:
        res = lemke_solve(inst, lexicographic=lex)
        assert len(res.trace) == 2**8 and len(builds) <= 1
        assert res.outcome.y == res.trace[-1].y
        # the start's y, read after 255 more pivots rewrote the tableau
        assert res.trace[0].y == QVector.zero(8) and res.trace[0].z == -min(inst.q)
        assert len(builds) == 2
    with _vertex_builds() as builds:
        with pytest.raises(BudgetExceededError) as info:
            lemke_solve(inst, lexicographic=lex, budget=100)
        assert len(info.value.trace) == 101 and builds == []
    assert res.trace == tuple(_eager_path(inst, lex)[0])
