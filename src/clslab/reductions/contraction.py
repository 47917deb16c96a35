"""Reductions among the contraction and local-opt circuit problems.

Each transformer builds the target's circuits by composition and fixes the
target constants as exact rationals; each back-mapper re-verifies on the
source before returning, so a certificate is never issued on faith.

``clo_to_mmc`` keeps only its last target (``lru_cache(maxsize=1)``): the only
hit is a back-map rebuilding the target its caller has just built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import InvariantViolationError, PreconditionError
from ..circuits import (
    C1,
    C2a,
    C2b,
    CM1,
    CM2,
    M1,
    M2a,
    M2b,
    M2c,
    ArithCircuit,
    CircuitBuilder,
    CloInstance,
    CloSolution,
    ContractionInstance,
    ContractionSolution,
    MmcInstance,
    MmcSolution,
    NormOrder,
    circuit_eval,
    clo_verify,
    contraction_verify,
    mmc_verify,
    norm_distance_circuit,
    unit_grid,
)


def _compose_gap_distance(f: ArithCircuit, d: ArithCircuit, dim: int) -> ArithCircuit:
    """p(x) = d(f(x), x) as a single circuit."""
    b = CircuitBuilder(dim)
    fx = b.inline(f, list(range(dim)))
    out = b.inline(d, fx + list(range(dim)))
    return b.build(out)


def _pair_potential_distance(p: ArithCircuit, dim: int) -> ArithCircuit:
    """d(x, y) = p(x) + p(y) + 1 as a circuit on 2*dim inputs."""
    b = CircuitBuilder(2 * dim)
    px = b.inline(p, list(range(dim)))
    py = b.inline(p, list(range(dim, 2 * dim)))
    one = b.const(1)
    return b.build([b.add(b.add(px[0], py[0]), one)])


# ----------------------------------------------------------------------------
# contraction with a supplied distance -> local opt


def gc_to_clo(inst: MmcInstance) -> CloInstance:
    """Potential p(x) = d(f(x), x); slack (1-c)*eps, continuity (lam+1)*delta_d."""
    return CloInstance(
        f=inst.f,
        p=_compose_gap_distance(inst.f, inst.d, inst.dim),
        eps=(1 - inst.c) * inst.eps,
        lam=(inst.lam + 1) * inst.delta_d,
        r=inst.r,
        dim=inst.dim,
    )


def _first_ok(verify, inst, cands, failure: str):
    """The first candidate that verifies on the source; none is a reduction bug."""
    for cand in cands:
        if verify(inst, cand):
            return cand
    raise InvariantViolationError(failure)


def clo_sol_to_gc(inst: MmcInstance, sol: CloSolution) -> MmcSolution:
    """An eps-stall is a near-fixpoint or a contraction violation one step out."""
    target = gc_to_clo(inst)
    if not clo_verify(target, sol):
        raise PreconditionError("candidate does not solve the reduced instance")
    if isinstance(sol, C1):
        cands = (M1(sol.x), M2a(circuit_eval(inst.f, sol.x), sol.x))
        return _first_ok(mmc_verify, inst, cands, "stalled point is neither a fixpoint nor a violation")
    if isinstance(sol, C2a):
        cands = (M2c(sol.x, sol.y),)
        return _first_ok(mmc_verify, inst, cands, "map-continuity violation did not survive back-mapping")
    # C2b: the potential jump blames either d's continuity on the image pairs
    # or f's continuity on the original pair
    fx = circuit_eval(inst.f, sol.x)
    fy = circuit_eval(inst.f, sol.y)
    cands = (M2b(fx, sol.x, fy, sol.y), M2c(sol.x, sol.y))
    return _first_ok(mmc_verify, inst, cands, "potential-continuity violation did not survive back-mapping")


# ----------------------------------------------------------------------------
# local opt -> contraction with a supplied distance


def _continuity_factor_bound(lam: Fraction, r: NormOrder) -> Fraction:
    """2^(1/r - 1) * lam: lam for r = 1, lam / 2 for r = inf."""
    if r == 1:
        return lam
    return lam / 2


@lru_cache(maxsize=1)
def clo_to_mmc(inst: CloInstance) -> MmcInstance:
    """Distance p(x) + p(y) + 1; self-distance stays above eps so only
    violation-type solutions exist in the target."""
    for x in unit_grid(inst.dim, 4):
        if circuit_eval(inst.p, x)[0] < 0:
            raise PreconditionError(f"potential is negative at {x}; distance needs p >= 0")
    if inst.eps >= 1:
        raise PreconditionError("slack must stay below the baked-in self-distance 1")
    return MmcInstance(
        f=inst.f,
        d=_pair_potential_distance(inst.p, inst.dim),
        r=inst.r,
        eps=inst.eps,
        c=1 - inst.eps / 4,
        delta_d=inst.lam,
        lam=_continuity_factor_bound(inst.lam, inst.r),
        dim=inst.dim,
    )


def mmc_sol_to_clo(inst: CloInstance, sol: MmcSolution) -> CloSolution:
    target = clo_to_mmc(inst)
    if isinstance(sol, M1):
        raise PreconditionError(
            "near-fixpoints cannot exist: the distance is at least 1 > eps"
        )
    if not mmc_verify(target, sol):
        raise PreconditionError("candidate does not solve the reduced instance")
    if isinstance(sol, M2a):
        # the contraction shortfall forces an eps-stall at one of the pair
        cands = (C1(sol.x), C1(sol.y))
        return _first_ok(clo_verify, inst, cands, "contraction violation back-mapped to no stall")
    if isinstance(sol, M2b):
        cands = (C2b(sol.x, sol.x2), C2b(sol.y, sol.y2))
        return _first_ok(clo_verify, inst, cands, "distance-continuity violation did not survive back-mapping")
    if isinstance(sol, M2c):
        cands = (C2a(sol.x, sol.y),)
        return _first_ok(clo_verify, inst, cands, "map-continuity violation did not survive back-mapping")
    raise PreconditionError("axiom violations cannot arise: the built distance satisfies them")


# ----------------------------------------------------------------------------
# dropping the axiom-violation clause is an identity embedding


def mmc_to_gc(inst: MmcInstance) -> MmcInstance:
    """Identity embedding: the target forbids axiom-violation answers."""
    return inst


def gc_sol_to_mmc(inst: MmcInstance, sol: MmcSolution) -> MmcSolution:
    """Any solution without the axiom-violation shape is a source solution verbatim."""
    if not mmc_verify(inst, sol):
        raise PreconditionError("candidate does not solve the instance")
    return sol


# ----------------------------------------------------------------------------
# plain contraction -> local opt


def contraction_to_clo(inst: ContractionInstance) -> CloInstance:
    """Potential ||f(x) - x||; slack (1-c)*delta, continuity c+1."""
    return CloInstance(
        f=inst.f,
        p=_compose_gap_distance(inst.f, norm_distance_circuit(inst.dim, inst.r), inst.dim),
        eps=(1 - inst.c) * inst.delta,
        lam=inst.c + 1,
        r=inst.r,
        dim=inst.dim,
    )


def clo_sol_to_contraction(inst: ContractionInstance, sol: CloSolution) -> ContractionSolution:
    target = contraction_to_clo(inst)
    if not clo_verify(target, sol):
        raise PreconditionError("candidate does not solve the reduced instance")
    if isinstance(sol, C1):
        cands = (CM1(sol.x), CM2(sol.x, circuit_eval(inst.f, sol.x)))
        return _first_ok(contraction_verify, inst, cands, "stalled point is neither a fixpoint nor a violation")
    cands = (CM2(sol.x, sol.y),)
    return _first_ok(contraction_verify, inst, cands, "continuity violation did not survive back-mapping")
