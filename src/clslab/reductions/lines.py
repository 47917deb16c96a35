"""Reductions between the metered-line and potential-line problems.

Metered -> potential prepends one bit: the real graph lives on 1-prefixed
configs, 0-prefixed configs are dummies, and zero-odometer vertices become
self loops so the strict-increase contract cannot see them.

Potential -> metered appends the potential to the vertex: an edge whose
potential jumps by g is subdivided into g unit steps through copies of its
tail, so the odometer moves by exactly one on every surviving edge.  Case
lists are evaluated strictly top to bottom, first match wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from ..errors import InvariantViolationError, PreconditionError
from ..lines import (
    BitConfig,
    EomlInstance,
    EomlSolution,
    EoplInstance,
    EoplSolution,
    eoml_verify,
    eopl_verify,
    validate_instance,
)


def _require_valid(inst) -> None:
    report = validate_instance(inst)
    if not report:
        raise PreconditionError("source instance is invalid: " + "; ".join(report.violations))


# ----------------------------------------------------------------------------
# metered -> potential (one extra leading bit)


def _join_bit(b: int, u: BitConfig) -> BitConfig:
    return BitConfig(b << u.width | u.value, u.width + 1)


def _split_bit(x: BitConfig) -> tuple[int, BitConfig]:
    """The leading bit of x and the config after it."""
    n = x.width - 1
    return x.value >> n, BitConfig(x.value & ((1 << n) - 1), n)


@lru_cache(maxsize=None)
def eoml_to_eopl(inst: EomlInstance) -> EoplInstance:
    """Potential-line instance on n+1 bits whose line mirrors the source's."""
    _require_valid(inst)
    n = inst.n
    zero_n = BitConfig.zeros(n)
    zero_k = BitConfig.zeros(n + 1)

    def s_prime(x: BitConfig) -> BitConfig:
        b, u = _split_bit(x)
        if x == zero_k:
            return _join_bit(1, zero_n)
        if b == 0 and u != zero_n:
            return x  # dummy self loop
        if b == 1 and inst.V(u) == 0:
            return x  # zero-odometer self loop
        if b == 1 and inst.V(u) > 0:
            return _join_bit(1, inst.S(u))
        return x

    def p_prime(x: BitConfig) -> BitConfig:
        b, u = _split_bit(x)
        if x == zero_k:
            return x
        if b == 0 and u != zero_n:
            return x
        if b == 1 and u == zero_n:
            return zero_k  # makes the 0^k -> (1,0^n) edge consistent
        if b == 1 and inst.V(u) == 0:
            return x
        if b == 1 and inst.V(u) > 0 and u != zero_n:
            return _join_bit(1, inst.P(u))
        return x

    def v_prime(x: BitConfig) -> int:
        b, u = _split_bit(x)
        return inst.V(u) if b else 0

    # odometer values stay below 2^n + 1, so n + 1 potential bits suffice
    return EoplInstance(n=n + 1, m=n + 1, s=s_prime, p=p_prime, v=v_prime)


def eopl_sol_to_eoml(src: EomlInstance, x: BitConfig) -> EomlSolution:
    """Drop the leading bit and re-classify on the source."""
    target = eoml_to_eopl(src)
    if eopl_verify(target, x) is None:
        raise PreconditionError(f"{x} does not solve the reduced instance")
    _, u = _split_bit(x)
    classified = eoml_verify(src, u)
    if classified is None:
        raise InvariantViolationError(f"back-map of {x} failed to verify on the source")
    return classified


# ----------------------------------------------------------------------------
# potential -> metered (potential carried in the low bits)


@dataclass(frozen=True)
class ImmediateSolution:
    """The source was trivial; this is already a verified source solution."""

    solution: EoplSolution


def _split(x: BitConfig, n: int) -> tuple[BitConfig, int]:
    m = x.width - n
    return BitConfig(x.value >> m, n), x.value & ((1 << m) - 1)


def _join(u: BitConfig, pi: int, m: int) -> BitConfig:
    return u.concat(BitConfig.from_int(pi, m))


@lru_cache(maxsize=None)
def eopl_to_eoml(inst: EoplInstance) -> Union[EomlInstance, ImmediateSolution]:
    """Metered instance on n+m bits, or the source solution when it is trivial."""
    _require_valid(inst)
    n, m = inst.n, inst.m
    zero_n = BitConfig.zeros(n)
    for candidate in (zero_n, inst.S(zero_n)):
        found = eopl_verify(inst, candidate)
        if found is not None:
            return ImmediateSolution(found)

    s0 = inst.S(zero_n)
    ss0 = inst.S(s0)
    p_ss0 = inst.V(ss0)
    if p_ss0 < 2:
        raise InvariantViolationError("potential after two steps must be at least 2")
    zero_k = BitConfig.zeros(n + m)

    def s_prime(x: BitConfig) -> BitConfig:
        u, pi = _split(x, n)
        if (u == zero_n and pi == 1) or u == s0:
            return x
        if x == zero_k:
            if p_ss0 == 2:
                return _join(ss0, 2, m)
            return _join(zero_n, 2, m)
        if u == zero_n:
            if 2 <= pi < p_ss0 - 1:
                return _join(zero_n, pi + 1, m)
            if pi == p_ss0 - 1:
                return _join(ss0, p_ss0, m)
            return x  # pi >= p_ss0
        nxt = inst.S(u)
        pn = inst.V(nxt)
        pu = inst.V(u)
        if inst.P(nxt) != u or nxt == u:
            return x  # invalid edge
        if pi == pu and (pn == pu or pn == pu + 1 or pn == pu - 1):
            return _join(nxt, pn, m)
        if (pi < pu <= pn) or (pu <= pn <= pi) or (pi > pu >= pn) or (pu >= pn >= pi):
            return x  # irrelevant potential value
        if pu < pn:
            if pu <= pi < pn - 1:
                return _join(u, pi + 1, m)
            if pi == pn - 1:
                return _join(nxt, pn, m)
        if pu > pn:
            if pu >= pi > pn + 1:
                return _join(u, pi - 1, m)
            if pi == pn + 1:
                return _join(nxt, pn, m)
        return x

    def p_prime(x: BitConfig) -> BitConfig:
        u, pi = _split(x, n)
        if (u == zero_n and pi == 1) or u == s0:
            return x
        if u == zero_n:
            if pi == 0:
                return x  # the start points to itself
            if pi < p_ss0 and pi not in (1, 2):
                return _join(zero_n, pi - 1, m)
            if pi < p_ss0 and pi == 2:
                return zero_k
            # pi >= p_ss0 falls through to the general cases below
        if u == ss0 and pi == p_ss0:
            if pi == 2:
                return zero_k
            return _join(zero_n, pi - 1, m)
        if pi == inst.V(u):
            prev = inst.P(u)
            pp = inst.V(prev)
            pu = inst.V(u)
            if inst.S(prev) != u or prev == u:
                return x
            if pu == pp:
                return _join(prev, pp, m)
            if pp < pu:
                return _join(prev, pu - 1, m)
            return _join(prev, pu + 1, m)
        nxt = inst.S(u)
        pn = inst.V(nxt)
        pu = inst.V(u)
        if inst.P(nxt) != u or nxt == u:
            return x
        if pn == pu or (pi < pu < pn) or (pu < pn <= pi) or (pi > pu > pn) or (pu > pn >= pi):
            return x
        if pu < pn and pu < pi <= pn - 1:
            return _join(u, pi - 1, m)
        if pu > pn and pu > pi >= pn + 1:
            return _join(u, pi + 1, m)
        return x

    def v_prime(x: BitConfig) -> int:
        if x == zero_k:
            return 1
        if s_prime(x) == x and p_prime(x) == x:
            return 0
        return _split(x, n)[1]

    return EomlInstance(n=n + m, s=s_prime, p=p_prime, v=v_prime)


def eoml_sol_to_eopl(src: EoplInstance, x: BitConfig) -> EoplSolution:
    """Candidates are the carried vertex and up to two predecessors."""
    target = eopl_to_eoml(src)
    if isinstance(target, ImmediateSolution):
        return target.solution
    if eoml_verify(target, x) is None:
        raise PreconditionError(f"{x} does not solve the reduced instance")
    u, _ = _split(x, src.n)
    candidates = [u, src.P(u), src.P(src.P(u))]
    for candidate in candidates:
        classified = eopl_verify(src, candidate)
        if classified is not None:
            return classified
    raise InvariantViolationError(f"no back-mapped candidate of {x} verifies on the source")
