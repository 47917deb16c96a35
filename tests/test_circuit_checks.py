"""The circuit solution checks against the verifiers and iterators they replaced.

``clslab.circuits.CHECKS`` holds one check per tag; the three verifiers and the
two iterators share it and read each circuit value from a per-call memo.  The
references in ``tests/support.py`` are the earlier isinstance chains and
iterators, which evaluate the circuits afresh for every check.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from clslab import circuits
from clslab.circuits import (
    C1,
    C2a,
    C2b,
    CHECKS,
    CM1,
    CM2,
    INF,
    M1,
    M2a,
    M2b,
    M2c,
    MMviol,
    CircuitBuilder,
    CloInstance,
    ContractionInstance,
    MmcInstance,
    QVector,
    circuit_eval,
    clo_solve_iterate,
    clo_verify,
    contraction_verify,
    fixpoint_iterate,
    identity_circuit,
    mmc_verify,
    norm_distance_circuit,
)
from clslab.errors import BudgetExceededError, DomainEscapeError, PreconditionError
from support import (
    clo_solve_iterate_ref,
    clo_verify_ref,
    contraction_verify_ref,
    coordinate_potential,
    fixpoint_iterate_ref,
    kinked_map,
    mean_potential,
    mmc_verify_ref,
    norm_pow,
    scale_shift_map,
)

COORDS = [F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
POINT_TAGS = [C1, C2a, C2b, CM1, CM2, M1, M2a, M2b, M2c]


def _point(rng, dim):
    return QVector(tuple(rng.choice(COORDS) for _ in range(dim)))


def _map(rng, dim):
    """Contracting, non-contracting, kinked and box-escaping maps."""
    kind = rng.choice(["affine", "affine", "kinked", "identity", "rotate"])
    if kind == "identity":
        return identity_circuit(dim)
    if kind == "kinked":
        return kinked_map(dim)
    factor = rng.choice([F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 4), F(2)])
    shifts = [rng.choice([F(0), F(1, 8), F(1, 4), F(1, 2), F(-1, 8)]) for _ in range(dim)]
    if kind == "affine":
        return scale_shift_map(dim, factor, shifts)
    b = CircuitBuilder(dim)
    fac = b.const(factor)
    return b.build([b.add(b.mul((i + 1) % dim, fac), b.const(shifts[i])) for i in range(dim)])


def _distance(rng, dim):
    """Metrics, and distances that break each axiom: negative, zero off the
    diagonal, asymmetric, and squared (no triangle inequality)."""
    kind = rng.choice(["l1", "linf", "scaled", "steep", "asym", "negative", "zero", "squared", "const"])
    if kind in ("l1", "linf"):
        return norm_distance_circuit(dim, 1 if kind == "l1" else INF)
    b = CircuitBuilder(2 * dim)
    diffs = [b.sub(i, dim + i) for i in range(dim)]
    l1 = b.sum([b.abs(t) for t in diffs])
    if kind == "scaled":
        out = b.mul(l1, b.const(rng.choice([F(1, 2), F(2)])))
    elif kind == "steep":  # breaks its own continuity bound (M2b) along a contraction
        out = b.mul(l1, b.const(4))
    elif kind == "asym":
        out = b.add(l1, b.mul(diffs[0], b.const(F(1, 2))))
    elif kind == "negative":
        out = b.sub(l1, b.const(F(1, 4)))
    elif kind == "zero":
        out = b.max(b.sub(l1, b.const(F(1, 4))), b.const(0))
    elif kind == "squared":
        out = b.sum([b.mul(t, t) for t in diffs])
    else:
        out = b.const(rng.choice([F(1), F(1, 8)]))
    return b.build([out])


def _potential(rng, dim):
    kind = rng.choice(["coordinate", "mean", "steep", "const"])
    if kind == "coordinate":
        return coordinate_potential(dim)
    if kind == "mean":
        return mean_potential(dim)
    b = CircuitBuilder(dim)
    if kind == "steep":
        return b.build([b.mul(0, b.const(3))])
    return b.build([b.const(F(1, 2))])


def _instance(rng):
    dim = rng.choice([1, 1, 2])
    r = rng.choice([1, INF])
    fraction = lambda: rng.choice([F(1, 8), F(1, 4), F(1, 2), F(3, 4)])  # noqa: E731
    kind = rng.choice(["clo", "contraction", "mmc"])
    if kind == "clo":
        lam = rng.choice([F(1, 2), F(1), F(2)])
        return CloInstance(f=_map(rng, dim), p=_potential(rng, dim), eps=fraction(), lam=lam, r=r, dim=dim)
    if kind == "contraction":
        return ContractionInstance(f=_map(rng, dim), r=r, eps=fraction(), c=fraction(), delta=fraction(), dim=dim)
    return MmcInstance(
        f=_map(rng, dim), d=_distance(rng, dim), r=r, eps=rng.choice([F(1, 32), F(1, 8), F(1, 4)]),
        c=fraction(), delta_d=rng.choice([F(1, 2), F(1)]), lam=rng.choice([F(1, 4), F(1, 2), F(1)]), dim=dim,
    )


def _candidate(rng, tag, dim):
    """A candidate of ``tag``; now and then with a point outside the box or of the wrong size."""
    if tag is MMviol:
        count = rng.choice([1, 2, 2, 3, 3])
        return MMviol(rng.choice([1, 2, 3, 4, 5]), tuple(_point(rng, dim) for _ in range(count)))
    pts = [_point(rng, dim) for _ in range(len(tag.__dataclass_fields__))]
    roll = rng.random()
    if roll < 0.05:
        pts[-1] = QVector((F(3, 2),) * dim)
    elif roll < 0.08:
        pts[0] = QVector((F(0),) * (dim + 1))
    return tag(*pts)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the two sides must raise alike
        return (type(exc).__name__, str(exc), getattr(exc, "trace", None), getattr(exc, "point", None))


VERIFIERS = {
    CloInstance: (clo_verify, clo_verify_ref),
    ContractionInstance: (contraction_verify, contraction_verify_ref),
    MmcInstance: (mmc_verify, mmc_verify_ref),
}


def _iterate(inst, start, budget, new=True):
    if isinstance(inst, CloInstance):
        fn = clo_solve_iterate if new else clo_solve_iterate_ref
    else:
        fn = fixpoint_iterate if new else fixpoint_iterate_ref
    return _outcome(fn, inst, start, budget)


def _budget(rng, inst):
    if isinstance(inst, CloInstance):
        return rng.choice([None, None, 0, 2, 6])
    return rng.choice([0, 1, 3, 12, 12])


def _compare(seed):
    """Run one seeded instance through both sides; return how the iteration
    ended and the tags whose verdicts held."""
    rng = random.Random(seed)
    inst = _instance(rng)
    new, ref = VERIFIERS[type(inst)]
    start, budget = _point(rng, inst.dim), _budget(rng, inst)
    got = _iterate(inst, start, budget)
    assert got == _iterate(inst, start, budget, new=False), (seed, got)
    ended = type(got[1][0]).__name__ if got[0] == "ok" else got[0]
    fired = set()
    for tag in POINT_TAGS + [MMviol]:
        for _ in range(4):
            cand = _candidate(rng, tag, inst.dim)
            verdict = _outcome(new, inst, cand)
            assert verdict == _outcome(ref, inst, cand), (seed, cand)
            if verdict[0] == "ok" and verdict[1].ok:
                fired.add(tag.__name__)
    return ended, fired


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_checks_match_the_reference_verifiers_and_iterators(seed):
    _compare(seed)


def test_seeded_instances_fire_every_tag_and_both_errors():
    ended, fired = Counter(), set()
    for seed in range(300):
        how, held = _compare(seed)
        ended[how] += 1
        fired |= held
    assert fired == {tag.__name__ for tag in CHECKS}
    # M2b ends a seeded run too rarely to count on; the next test pins it
    want = {tag.__name__ for tag in POINT_TAGS if tag is not M2b} | {"DomainEscapeError", "BudgetExceededError"}
    assert want <= set(ended), ended


def _steep_distance(dim, factor):
    b = CircuitBuilder(2 * dim)
    return b.build([b.mul(b.sum([b.abs(b.sub(i, dim + i)) for i in range(dim)]), b.const(factor))])


@pytest.mark.parametrize(
    "inst, start, want",
    [
        # a steep d jumps more between consecutive pairs than delta_d allows
        (
            MmcInstance(f=scale_shift_map(1, "1/4", [0]), d=_steep_distance(1, 4), r=1, eps=F(1, 32),
                        c=F(1, 2), delta_d=F(1, 2), lam=F(1, 2), dim=1),
            [1], M2b(QVector.of([1]), QVector.of(["1/4"]), QVector.of(["1/4"]), QVector.of(["1/16"])),
        ),
        # f halves distances, more than its claimed 1/4-continuity allows
        (
            MmcInstance(f=scale_shift_map(1, "1/2", [0]), d=norm_distance_circuit(1, 1), r=1, eps=F(1, 32),
                        c=F(3, 4), delta_d=F(1), lam=F(1, 4), dim=1),
            [1], M2c(QVector.of([1]), QVector.of(["1/2"])),
        ),
    ],
)
def test_pair_violations_end_a_metered_run_as_in_the_reference(inst, start, want):
    got = _iterate(inst, QVector.of(start), 12)
    assert got == _iterate(inst, QVector.of(start), 12, new=False)
    assert got[0] == "ok" and got[1][0] == want


@pytest.fixture
def eval_counts(monkeypatch):
    counts = Counter()
    original = circuits.circuit_eval

    def counting(circ, x):
        counts[id(circ)] += 1
        return original(circ, x)

    monkeypatch.setattr(circuits, "circuit_eval", counting)
    return counts


def test_iterators_evaluate_each_circuit_once_per_point(eval_counts):
    runs = 0
    for seed in range(200):
        rng = random.Random(seed)
        inst = _instance(rng)
        start, budget = _point(rng, inst.dim), _budget(rng, inst)
        eval_counts.clear()
        outcome = _iterate(inst, start, budget)
        trace = outcome[1][1] if outcome[0] == "ok" else outcome[2]
        if trace is None:
            continue
        runs += 1
        n = len(trace)
        assert eval_counts[id(inst.f)] <= n + 1, seed
        if isinstance(inst, CloInstance):
            assert eval_counts[id(inst.p)] <= n + 1, seed
        if isinstance(inst, MmcInstance):
            assert eval_counts[id(inst.d)] <= 2 * n + 1, seed
    assert runs > 150


def test_a_long_metered_run_evaluates_f_once_and_d_twice_per_iteration(eval_counts):
    half = scale_shift_map(1, "1/2", ["1/8"])
    inst = MmcInstance(
        f=half, d=norm_distance_circuit(1, 1), r=1, eps=F(1, 10**9), c=F(1, 2),
        delta_d=F(1), lam=F(1), dim=1,
    )
    with pytest.raises(BudgetExceededError) as err:
        fixpoint_iterate(inst, QVector.of([1]), budget=20)
    n = len(err.value.trace)  # 21 iterations, x_0 .. x_21
    assert n == 22
    assert eval_counts[id(inst.f)] == n
    assert eval_counts[id(inst.d)] == 2 * n - 1


def test_domain_escape_matches_the_reference():
    b = CircuitBuilder(1)
    doubler = b.build([b.mul(0, b.const(2))])
    for inst in (
        ContractionInstance(f=doubler, r=1, eps=F(1, 2), c=F(1, 2), delta=F(1, 64), dim=1),
        CloInstance(f=doubler, p=coordinate_potential(1), eps=F(1, 8), lam=F(4), r=1, dim=1),
    ):
        got = _iterate(inst, QVector.of(["3/4"]), 5)
        assert got[0] == DomainEscapeError.__name__
        assert got == _iterate(inst, QVector.of(["3/4"]), 5, new=False)


# ----------------------------------------------------------------------------
# the integer checks against the Fraction references, ties at the bound included

# each point tag -> the instance field its check compares against, and the
# relation it uses
BOUNDS = {
    C1: ("eps", ">="), C2a: ("lam", ">"), C2b: ("lam", ">"), CM1: ("delta", "<="), CM2: ("c", ">"),
    M1: ("eps", "<="), M2a: ("c", ">"), M2b: ("delta_d", ">"), M2c: ("lam", ">"),
}
TAGS = {
    CloInstance: [C1, C2a, C2b],
    ContractionInstance: [CM1, CM2],
    MmcInstance: [M1, M2a, M2b, M2c],
}


def _doubled_map(dim, factor, shifts):
    """x -> factor * ((x + x) * 1/2) + shift; the kernel leaves x + x and its half unreduced."""
    b = CircuitBuilder(dim)
    half, fac = b.const(F(1, 2)), b.const(factor)
    return b.build([b.add(b.mul(b.mul(b.add(i, i), half), fac), b.const(s)) for i, s in enumerate(shifts)])


def _tie(inst, tag, x, y, x2, y2):
    """The value of ``tag``'s bound at which its check on these points is an equality, or None."""

    def at(circ, *pts):
        return circuit_eval(circ, QVector(sum((pt.entries for pt in pts), ())))

    def norm(u, v):
        return norm_pow(u - v, inst.r)

    if tag is C1:
        return at(inst.p, x)[0] - at(inst.p, at(inst.f, x))[0]
    if tag is CM1:
        return norm(at(inst.f, x), x)
    if tag is M1:
        return at(inst.d, at(inst.f, x), x)[0]
    if tag is M2a:
        lhs, base = at(inst.d, at(inst.f, x), at(inst.f, y))[0], at(inst.d, x, y)[0]
    elif tag is M2b:
        lhs = abs(at(inst.d, x, y)[0] - at(inst.d, x2, y2)[0])
        base = norm_pow(QVector((x - x2).entries + (y - y2).entries), inst.r)
    else:
        g = inst.p if tag is C2b else inst.f
        lhs, base = norm(at(g, x), at(g, y)), norm(x, y)
    return lhs / base if base else None


def _tied_case(rng, tag, r):
    """An instance of ``tag``'s class in norm ``r`` and four points with
    denominators up to 12; when it is a legal header value, ``tag``'s bound is
    set to tie its check on those points.  Returns (instance, points, tied)."""
    dim = rng.choice([1, 2])
    factor = rng.choice([F(0), F(1, 3), F(1, 2), F(3, 4), F(1), F(5, 4)])
    f = _doubled_map(dim, factor, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)])
    klass = next(k for k, tags in TAGS.items() if tag in tags)
    if klass is CloInstance:
        inst = CloInstance(f=f, p=_potential(rng, dim), eps=F(1, 4), lam=F(1), r=r, dim=dim)
    elif klass is ContractionInstance:
        inst = ContractionInstance(f=f, r=r, eps=F(1, 4), c=F(1, 2), delta=F(1, 8), dim=dim)
    else:
        inst = MmcInstance(
            f=f, d=_distance(rng, dim), r=r, eps=F(1, 8), c=F(1, 2), delta_d=F(1), lam=F(1, 2), dim=dim
        )
    sides = [rng.randint(1, 12) for _ in range(4 * dim)]
    coords = [F(rng.randint(0, q), q) for q in sides]
    pts = [QVector(tuple(coords[i : i + dim])) for i in range(0, 4 * dim, dim)]
    value = _tie(inst, tag, *pts)
    if value is not None:
        try:
            return replace(inst, **{BOUNDS[tag][0]: value}), pts, True
        except PreconditionError:  # not a legal header value
            pass
    return inst, pts, False


def _compare_verdicts(inst, pts, tied):
    """Every tag of the instance's class on these points, integer check against
    reference; ``tied`` is the tag whose bound ties, or None."""
    x, y, x2, y2 = pts
    new, ref = VERIFIERS[type(inst)]
    shapes = {M2b: (x, y, x2, y2), C1: (x,), CM1: (x,), M1: (x,)}
    cands = [tag(*shapes.get(tag, (x, y))) for tag in TAGS[type(inst)]]
    if isinstance(inst, MmcInstance):
        cands += [MMviol(1, (x, y)), MMviol(2, (x, y)), MMviol(3, (x, y)), MMviol(4, (x, y, x2)),
                  MMviol(4, (x, x2, y)), MMviol(5, (x,))]
    for cand in cands:
        verdict = new(inst, cand)
        assert verdict == ref(inst, cand), cand
        if type(cand) is tied:
            # an equality: the strict relation fails, the weak ones hold
            lhs, rel, rhs, _ = verdict.detail.rsplit(": ", 1)[1].split()
            assert (lhs, rel) == (rhs, BOUNDS[tied][1]), verdict
            assert verdict.ok == (rel != ">"), verdict


@settings(max_examples=300, deadline=None)
@given(tag=st.sampled_from(list(BOUNDS)), r=st.sampled_from([1, INF]), rng=st.randoms(use_true_random=False))
def test_integer_checks_match_the_fraction_references_verdict_for_verdict(tag, r, rng):
    inst, pts, tied = _tied_case(rng, tag, r)
    _compare_verdicts(inst, pts, tag if tied else None)


@pytest.mark.parametrize("r", [1, INF])
@pytest.mark.parametrize("tag", list(BOUNDS))
def test_every_point_tag_ties_at_its_bound_in_both_norms(tag, r):
    rng = random.Random(f"{tag.__name__} {r}")
    for _ in range(500):
        inst, pts, tied = _tied_case(rng, tag, r)
        if tied:
            _compare_verdicts(inst, pts, tag)
            return
    pytest.fail(f"no legal tie for {tag.__name__} at r={r}")


def test_the_iterators_format_no_verdict_text(monkeypatch):
    formatted = []
    real = circuits.format_rational
    monkeypatch.setattr(circuits, "format_rational", lambda value: formatted.append(value) or real(value))
    ended = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        inst = _instance(rng)
        outcome = _iterate(inst, _point(rng, inst.dim), _budget(rng, inst))
        ended[outcome[0]] += 1
    assert ended["ok"] > 100 and formatted == []
    # the verifiers format through the same name
    inst = ContractionInstance(f=identity_circuit(1), r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 8), dim=1)
    assert contraction_verify(inst, CM1(QVector.of(["1/3"]))).detail == "|f(x)-x| <= delta: 0 <= 1/8 holds"
    assert formatted == [F(0), F(1, 8)]
