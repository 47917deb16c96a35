from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from clslab import (
    C1,
    C2a,
    C2b,
    CircuitBuilder,
    CloInstance,
    INF,
    M1,
    M2a,
    M2c,
    PreconditionError,
    QVector,
    check_metametric,
    circuit_eval,
    clo_solve_iterate,
    clo_verify,
    contraction_verify,
    fixpoint_iterate,
    mmc_verify,
)
from clslab.circuits import identity_circuit, norm_distance_circuit, unit_grid
from clslab.reductions import (
    clo_sol_to_contraction,
    clo_sol_to_gc,
    clo_to_mmc,
    contraction_to_clo,
    gc_sol_to_mmc,
    gc_to_clo,
    mmc_sol_to_clo,
    mmc_to_gc,
)
from clslab.reductions.contraction import _continuity_factor_bound
from support import (
    clo_catalog,
    contraction_catalog,
    coordinate_potential,
    gc_catalog,
    kinked_map,
    scale_shift_map,
)


def vec(*entries):
    return QVector.of(entries)


def test_gap_to_local_opt_constants():
    from clslab import MmcInstance

    half = scale_shift_map(1, "1/2", [0])
    d1 = norm_distance_circuit(1, 1)
    gc = MmcInstance(f=half, d=d1, r=1, eps=F(1, 4), c=F(1, 2), delta_d=F(2), lam=F(1), dim=1)
    clo = gc_to_clo(gc)
    assert clo.eps == F(1, 8)  # (1 - c) * eps
    assert clo.lam == F(4)  # (lam + 1) * delta_d
    # the built potential is the step size measured by d
    assert circuit_eval(clo.p, vec(1)) == vec("1/2")


def test_gap_identity_source_stalls_immediately():
    from clslab import MmcInstance

    gc = MmcInstance(
        f=identity_circuit(1),
        d=norm_distance_circuit(1, 1),
        r=1,
        eps=F(1, 4),
        c=F(1, 2),
        delta_d=F(1),
        lam=F(1),
        dim=1,
    )
    clo = gc_to_clo(gc)
    sol, _ = clo_solve_iterate(clo, vec("1/3"))
    assert sol == C1(vec("1/3"))
    assert clo_sol_to_gc(gc, sol) == M1(vec("1/3"))


def test_gap_false_contraction_promise_maps_to_m2a():
    from clslab import MmcInstance

    half = scale_shift_map(1, "1/2", [0])
    gc = MmcInstance(
        f=half,
        d=norm_distance_circuit(1, 1),
        r=1,
        eps=F(1, 5),
        c=F(1, 4),
        delta_d=F(1),
        lam=F(1),
        dim=1,
    )
    sol, _ = clo_solve_iterate(gc_to_clo(gc), vec("3/5"))
    mapped = clo_sol_to_gc(gc, sol)
    assert isinstance(mapped, M2a)
    assert mmc_verify(gc, mapped)


def test_pair_potential_constants_and_distance_axioms():
    half = scale_shift_map(1, "1/2", [0])
    clo = CloInstance(f=half, p=coordinate_potential(1), eps=F(1, 2), lam=F(1), r=1, dim=1)
    mmc = clo_to_mmc(clo)
    assert mmc.c == F(7, 8)  # 1 - eps/4
    assert mmc.eps == clo.eps and mmc.delta_d == clo.lam
    assert mmc.lam == clo.lam  # r = 1 keeps the factor at exactly 1
    assert check_metametric(mmc.d, unit_grid(1, 9)) is None


def test_continuity_factor_bound():
    assert _continuity_factor_bound(F(3), 1) == 3
    assert _continuity_factor_bound(F(3), INF) == F(3, 2)


def test_pair_potential_rejects_negative_p():
    b = CircuitBuilder(1)
    signed = b.build([b.sub(0, b.const("1/2"))])
    half = scale_shift_map(1, "1/2", [0])
    clo = CloInstance(f=half, p=signed, eps=F(1, 2), lam=F(1), r=1, dim=1)
    with pytest.raises(PreconditionError):
        clo_to_mmc(clo)


def test_pair_potential_back_maps():
    half = scale_shift_map(1, "1/2", [0])
    clo = CloInstance(f=half, p=coordinate_potential(1), eps=F(1, 2), lam=F(1), r=1, dim=1)
    mmc = clo_to_mmc(clo)
    sol, _ = fixpoint_iterate(mmc, vec(1))
    assert isinstance(sol, M2a)
    mapped = mmc_sol_to_clo(clo, sol)
    assert isinstance(mapped, C1) and clo_verify(clo, mapped)
    with pytest.raises(PreconditionError):
        mmc_sol_to_clo(clo, M1(vec(0)))
    # a continuity violation of f transfers verbatim
    kink_src = CloInstance(
        f=kinked_map(1),
        p=coordinate_potential(1),
        eps=F(1, 2),
        lam=F(1),
        r=1,
        dim=1,
    )
    kink_tgt = clo_to_mmc(kink_src)
    viol = M2c(vec("3/10"), vec("2/5"))
    assert mmc_verify(kink_tgt, viol)
    mapped = mmc_sol_to_clo(kink_src, viol)
    assert mapped == C2a(vec("3/10"), vec("2/5"))


def test_gap_map_continuity_violation_back_maps_to_m2c():
    # the target's map-continuity bound (lam + 1) * delta_d = 1/2 sits below
    # the source's lam = 1, and f's jump at its kink breaks both
    from clslab import MmcInstance

    gc = MmcInstance(
        f=kinked_map(1),
        d=norm_distance_circuit(1, 1),
        r=1,
        eps=F(1, 4),
        c=F(1, 2),
        delta_d=F(1, 4),
        lam=F(1),
        dim=1,
    )
    target = gc_to_clo(gc)
    assert target.lam == F(1, 2)
    cand = C2a(vec("3/10"), vec("2/5"))
    assert clo_verify(target, cand)
    mapped = clo_sol_to_gc(gc, cand)
    assert mapped == M2c(vec("3/10"), vec("2/5")) and mmc_verify(gc, mapped)


def test_gap_potential_jump_blames_distance_continuity():
    # understated continuity for the supplied distance: the potential jump
    # survives as a distance-continuity violation on the image pairs
    from clslab import M2b, MmcInstance

    gc = MmcInstance(
        f=kinked_map(1),
        d=norm_distance_circuit(1, 1),
        r=1,
        eps=F(1, 4),
        c=F(1, 2),
        delta_d=F(1, 4),
        lam=F(1),
        dim=1,
    )
    target = gc_to_clo(gc)
    cand = C2b(vec("1/16"), vec(0))
    assert clo_verify(target, cand)
    mapped = clo_sol_to_gc(gc, cand)
    assert isinstance(mapped, M2b) and mmc_verify(gc, mapped)


def test_pair_potential_m2b_back_maps_to_potential_continuity():
    from clslab import M2b

    b = CircuitBuilder(1)
    vee = b.build([b.abs(b.sub(0, b.const("1/4")))])
    half = scale_shift_map(1, "1/2", [0])
    clo = CloInstance(f=half, p=vee, eps=F(1, 2), lam=F(1, 2), r=1, dim=1)
    target = clo_to_mmc(clo)
    cand = M2b(vec("1/4"), vec(0), vec(0), vec(0))
    assert mmc_verify(target, cand)
    mapped = mmc_sol_to_clo(clo, cand)
    assert isinstance(mapped, C2b) and clo_verify(clo, mapped)


def test_plain_contraction_potential_jump_back_maps():
    from clslab import ContractionInstance

    b = CircuitBuilder(1)
    three = b.const(3)
    steep = b.build([b.min(b.max(b.sub(b.mul(0, three), b.const("1/2")), b.const(0)), b.const(1))])
    con = ContractionInstance(f=steep, r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 16), dim=1)
    target = contraction_to_clo(con)
    cand = C2b(vec("1/4"), vec("1/2"))
    assert clo_verify(target, cand)
    mapped = clo_sol_to_contraction(con, cand)
    assert contraction_verify(con, mapped)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_potential_distance_axioms_hold_generically(data):
    # |affine| potentials are nonnegative by construction, so the built
    # distance satisfies all four axioms on any sample
    dim = data.draw(st.integers(1, 2))
    b = CircuitBuilder(dim)
    scale = b.const(F(data.draw(st.integers(-3, 3)), 2))
    shift = b.const(F(data.draw(st.integers(-2, 2)), 3))
    p = b.build([b.abs(b.add(b.mul(0, scale), shift))])
    clo = CloInstance(
        f=identity_circuit(dim), p=p, eps=F(1, 2), lam=F(4), r=1, dim=dim
    )
    target = clo_to_mmc(clo)
    coords = st.fractions(min_value=0, max_value=1, max_denominator=4)
    sample = [
        QVector.of([data.draw(coords) for _ in range(dim)]) for _ in range(5)
    ]
    assert check_metametric(target.d, sample) is None


def test_identity_embedding():
    from clslab import MmcInstance

    gc = gc_catalog()[0][0]
    assert mmc_to_gc(gc) is gc
    sol = M1(vec("1/2"))
    assert mmc_verify(gc, sol)
    assert gc_sol_to_mmc(gc, sol) == sol


def test_plain_contraction_constants():
    half = scale_shift_map(1, "1/2", [0])
    from clslab import ContractionInstance

    con = ContractionInstance(f=half, r=1, eps=F(1, 4), c=F(1, 2), delta=F(1, 2), dim=1)
    clo = contraction_to_clo(con)
    assert clo.eps == F(1, 4)  # (1 - c) * delta
    assert clo.lam == F(3, 2)  # c + 1
    assert circuit_eval(clo.p, vec(1)) == vec("1/2")
    inf_con = ContractionInstance(
        f=scale_shift_map(3, "1/2", [0, 0, 0]), r=INF, eps=F(1, 4), c=F(1, 2), delta=F(1, 2), dim=3
    )
    inf_clo = contraction_to_clo(inf_con)
    assert circuit_eval(inf_clo.p, vec(1, "1/2", 0)) == vec("1/2")


def test_plain_contraction_back_maps():
    for inst in contraction_catalog():
        clo = contraction_to_clo(inst)
        start = QVector.of(["9/10"] * inst.dim)
        sol, _ = clo_solve_iterate(clo, start)
        mapped = clo_sol_to_contraction(inst, sol)
        assert contraction_verify(inst, mapped)


def test_catalog_round_trips_with_certificates():
    for inst, start in gc_catalog():
        clo = gc_to_clo(inst)
        sol, _ = clo_solve_iterate(clo, start)
        mapped = clo_sol_to_gc(inst, sol)
        assert mmc_verify(inst, mapped)
    for inst, start in clo_catalog():
        mmc = clo_to_mmc(inst)
        sol, _ = fixpoint_iterate(mmc, start)
        mapped = mmc_sol_to_clo(inst, sol)
        assert clo_verify(inst, mapped)
