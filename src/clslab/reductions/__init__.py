"""Instance transformers and solution back-mappers between the lab's problems."""

from .contraction import (
    clo_sol_to_contraction,
    clo_sol_to_gc,
    clo_to_mmc,
    contraction_to_clo,
    gc_sol_to_mmc,
    gc_to_clo,
    mmc_sol_to_clo,
    mmc_to_gc,
)
from .lcp_line import (
    PlcpEoplContext,
    eopl_sol_to_plcp,
    etoi,
    is_valid_config,
    itoe,
    make_context,
    plcp_to_eopl,
)
from .lines import (
    ImmediateSolution,
    eoml_sol_to_eopl,
    eoml_to_eopl,
    eopl_sol_to_eoml,
    eopl_to_eoml,
)

__all__ = [
    "PlcpEoplContext",
    "make_context",
    "is_valid_config",
    "etoi",
    "itoe",
    "plcp_to_eopl",
    "eopl_sol_to_plcp",
    "ImmediateSolution",
    "eoml_to_eopl",
    "eopl_sol_to_eoml",
    "eopl_to_eoml",
    "eoml_sol_to_eopl",
    "gc_to_clo",
    "clo_sol_to_gc",
    "clo_to_mmc",
    "mmc_sol_to_clo",
    "mmc_to_gc",
    "gc_sol_to_mmc",
    "contraction_to_clo",
    "clo_sol_to_contraction",
]
