"""Reductions between the metered-line and potential-line problems.

Metered -> potential prepends one bit: the real graph lives on 1-prefixed
configs, 0-prefixed configs are dummies, and zero-odometer vertices become
self loops so the strict-increase contract cannot see them.

Potential -> metered appends the potential to the vertex: an edge whose
potential jumps by g is subdivided into g unit steps through copies of its
tail, so the odometer moves by exactly one on every surviving edge.  Case
lists are evaluated strictly top to bottom, first match wins.

Both reductions run their case lists on integer configs and read the source
through one ``LineReader`` per target, anchored at the current source config
u: the source's nodes of u and its neighbours are fetched once, and every
row that carries u shares them.  Each target also answers ``node(x)`` from the
same case lists, so a table dump runs each list once per row and takes the
metered odometer from the S' and P' just found.
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
    LineReader,
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


@lru_cache(maxsize=None)
def eoml_to_eopl(inst: EomlInstance) -> EoplInstance:
    """Potential-line instance on n+1 bits whose line mirrors the source's."""
    _require_valid(inst)
    n = inst.n
    lead = 1 << n  # the extra bit; configs below it are the dummies
    low = lead - 1
    src = LineReader(inst)

    def node(x: int) -> tuple[int, int, int]:
        if x < lead:
            return lead if x == 0 else x, x, 0  # the start and the dummy self loops
        u = x & low
        src.at(u)
        s, p, v = src.node(u)
        if v == 0:
            s = p = x  # a zero-odometer self loop
        else:
            s, p = lead | s, lead | p
        return s, 0 if u == 0 else p, v  # P'(1,0^n) = 0^k makes the first edge consistent

    k = n + 1  # odometer values stay below 2^n + 1, so n + 1 potential bits suffice
    return EoplInstance(
        n=k, m=k, s=lambda x: BitConfig(node(x.value)[0], k), p=lambda x: BitConfig(node(x.value)[1], k),
        v=lambda x: node(x.value)[2], raw_node=node,
    )


def eopl_sol_to_eoml(src: EomlInstance, x: BitConfig) -> EomlSolution:
    """Drop the leading bit and re-classify on the source."""
    target = eoml_to_eopl(src)
    if eopl_verify(target, x) is None:
        raise PreconditionError(f"{x} does not solve the reduced instance")
    classified = eoml_verify(src, BitConfig(x.value & ((1 << src.n) - 1), src.n))
    if classified is None:
        raise InvariantViolationError(f"back-map of {x} failed to verify on the source")
    return classified


# ----------------------------------------------------------------------------
# potential -> metered (potential carried in the low bits)


@dataclass(frozen=True)
class ImmediateSolution:
    """The source was trivial; this is already a verified source solution."""

    solution: EoplSolution


@lru_cache(maxsize=None)
def eopl_to_eoml(inst: EoplInstance) -> Union[EomlInstance, ImmediateSolution]:
    """Metered instance on n+m bits, or the source solution when it is trivial.

    A config x is the pair (u, pi) = (x >> m, x & mask) of a source config
    and a potential; 0 is the all-zeros config of either width.
    """
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
    s0, ss0 = s0.value, ss0.value
    mask = (1 << m) - 1
    src = LineReader(inst)

    def s_int(x: int) -> int:
        u, pi = x >> m, x & mask
        if (u == 0 and pi == 1) or u == s0:
            return x
        if x == 0:
            return ss0 << m | 2 if p_ss0 == 2 else 2
        if u == 0:
            if 2 <= pi < p_ss0 - 1:
                return pi + 1
            if pi == p_ss0 - 1:
                return ss0 << m | p_ss0
            return x  # pi >= p_ss0
        src.at(u)
        nxt, _, pu = src.node(u)
        if src.P(nxt) != u or nxt == u:
            return x  # invalid edge
        pn = src.V(nxt)
        if pi == pu and (pn == pu or pn == pu + 1 or pn == pu - 1):
            return nxt << m | pn
        if (pi < pu <= pn) or (pu <= pn <= pi) or (pi > pu >= pn) or (pu >= pn >= pi):
            return x  # irrelevant potential value
        if pu < pn:
            if pu <= pi < pn - 1:
                return x + 1
            if pi == pn - 1:
                return nxt << m | pn
        if pu > pn:
            if pu >= pi > pn + 1:
                return x - 1
            if pi == pn + 1:
                return nxt << m | pn
        return x

    def p_int(x: int) -> int:
        u, pi = x >> m, x & mask
        if (u == 0 and pi == 1) or u == s0:
            return x
        if u == 0:
            if pi == 0:
                return x  # the start points to itself
            if pi < p_ss0 and pi not in (1, 2):
                return pi - 1
            if pi < p_ss0 and pi == 2:
                return 0
            # pi >= p_ss0 falls through to the general cases below
        if u == ss0 and pi == p_ss0:
            return 0 if pi == 2 else pi - 1
        src.at(u)
        nxt, prev, pu = src.node(u)
        if pi == pu:
            if src.S(prev) != u or prev == u:
                return x
            pp = src.V(prev)
            if pu == pp:
                return prev << m | pp
            if pp < pu:
                return prev << m | (pu - 1)
            return prev << m | (pu + 1)
        if src.P(nxt) != u or nxt == u:
            return x
        pn = src.V(nxt)
        if pn == pu or (pi < pu < pn) or (pu < pn <= pi) or (pi > pu > pn) or (pu > pn >= pi):
            return x
        if pu < pn and pu < pi <= pn - 1:
            return x - 1
        if pu > pn and pu > pi >= pn + 1:
            return x + 1
        return x

    def node(x: int) -> tuple[int, int, int]:
        s, p = s_int(x), p_int(x)
        # the odometer: 1 at the start, 0 on a config off every line, else pi
        return s, p, 1 if x == 0 else 0 if s == x and p == x else x & mask

    k = n + m
    return EomlInstance(
        n=k, s=lambda x: BitConfig(s_int(x.value), k), p=lambda x: BitConfig(p_int(x.value), k),
        v=lambda x: node(x.value)[2], raw_node=node,
    )


def eoml_sol_to_eopl(src: EoplInstance, x: BitConfig) -> EoplSolution:
    """Candidates are the carried vertex and up to two predecessors."""
    target = eopl_to_eoml(src)
    if isinstance(target, ImmediateSolution):
        return target.solution
    if eoml_verify(target, x) is None:
        raise PreconditionError(f"{x} does not solve the reduced instance")
    u = BitConfig(x.value >> src.m, src.n)
    candidates = [u, src.P(u), src.P(src.P(u))]
    for candidate in candidates:
        classified = eopl_verify(src, candidate)
        if classified is not None:
            return classified
    raise InvariantViolationError(f"no back-mapped candidate of {x} verifies on the source")
