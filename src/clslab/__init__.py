"""Exact-arithmetic lab for total search problems.

Everything is immutable and computed over rationals: LCP instances and the
complementary pivoting path, line-following problems given by oracles,
arithmetic-circuit fixpoint problems, and verified reductions between them.
"""

from .errors import (
    BudgetExceededError,
    ClslabError,
    DegeneracyError,
    DimensionError,
    DomainEscapeError,
    InvariantViolationError,
    ParseError,
    PreconditionError,
)
from .qlinalg import (
    Q,
    QMatrix,
    QVector,
    format_rational,
    mat_det,
    principal_minor,
    rational,
    solve_linear,
)
from .lcp import (
    LcpInstance,
    LcpOutcome,
    LemkeResult,
    LemkeVertex,
    Q1,
    Q2,
    Ray,
    brute_force_lcp,
    duplicate_label,
    is_p_matrix,
    lemke_pivot,
    lemke_solve,
    lemke_start,
    load_lcp,
    p_matrix_witness,
    todd_orientation,
    verify_lcp_solution,
)
from .lines import (
    BitConfig,
    EomlInstance,
    EoplInstance,
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
from .circuits import (
    ArithCircuit,
    C1,
    C2a,
    C2b,
    CM1,
    CM2,
    CircuitBuilder,
    CloInstance,
    ContractionInstance,
    INF,
    M1,
    M2a,
    M2b,
    M2c,
    MMviol,
    MmcInstance,
    check_metametric,
    circuit_eval,
    clo_solve_iterate,
    clo_verify,
    contraction_verify,
    fixpoint_iterate,
    mmc_verify,
)

__version__ = "0.1.0"
