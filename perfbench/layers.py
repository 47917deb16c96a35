"""Per-layer metrics of a traced run, and the map from layers to end-to-end metrics.

The six clslab modules are the layers.  ``LAYER_MAP`` states, for each
layer, which end-to-end metric its per-layer metrics should move and on
which workload, and where no change is predicted.  Every result carries it.
"""

from __future__ import annotations

import sys

LAYER_MAP = {
    "qlinalg": {
        "moves": {
            "latency_ms.p90": ["lcp-direct"],
            "instances_per_s": ["lcp-direct", "plcp-pipeline"],
        },
        "unchanged": ["line-tables", "circuits"],
    },
    "lcp": {
        "moves": {"latency_ms.p90": ["lcp-direct"]},
        "note": "lcp.solve.self_s against the qlinalg time shows whether Coord-tuple "
        "bookkeeping or the exact solves dominate",
        "unchanged": ["line-tables", "circuits"],
    },
    "lines": {
        "moves": {
            "instances_per_s": ["plcp-pipeline", "line-tables"],
            "latency_ms.p90": ["line-tables"],
        },
        "unchanged": ["lcp-direct", "circuits"],
    },
    "reductions": {
        "moves": {
            "retained_kblocks": ["plcp-pipeline"],
            "peak_rss_mb": ["plcp-pipeline"],
            "instances_per_s": ["plcp-pipeline"],
        },
        "unchanged": ["lcp-direct"],
        "note": "lemke_solve uses no memo",
    },
    "circuits": {
        "moves": {"instances_per_s": ["circuits"], "latency_ms.p90": ["circuits"]},
        "unchanged": ["lcp-direct", "plcp-pipeline", "line-tables"],
    },
    "cli": {
        "moves": {"latency_ms.p50": ["plcp-pipeline", "line-tables"]},
        "unchanged": ["lcp-direct", "circuits"],
    },
}

# the memoised public functions whose cache_info() every result records
MEMOS = [
    ("clslab.reductions.lcp_line", n)
    for n in ("make_context", "successor", "predecessor", "potential", "is_valid_config", "plcp_to_eopl")
] + [
    ("clslab.reductions.lines", "eoml_to_eopl"),
    ("clslab.reductions.lines", "eopl_to_eoml"),
    ("clslab.reductions.contraction", "clo_to_mmc"),
]
MEMO_FUNCTIONS = [name for _, name in MEMOS]


def memo_counters() -> dict:
    """cache_info() of each memoised function; None where it is no longer memoised."""
    out = {}
    for module, name in MEMOS:
        fn = getattr(sys.modules.get(module), name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[name] = None if info is None else {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


# name, unit, better, span names the value needs (absent when all are unwrapped)
PER_LAYER = [
    ("qlinalg.solve.calls", "count", "lower", ["qlinalg.solve"]),
    ("qlinalg.solve.self_s", "s", "lower", ["qlinalg.solve"]),
    ("qlinalg.solve.size_max", "count", "lower", ["qlinalg.solve"]),
    ("qlinalg.solve.bits_max", "bits", "lower", ["qlinalg.solve"]),
    ("qlinalg.hadamard_bits_max", "bits", "lower", []),
    ("qlinalg.minor.calls", "count", "lower", ["qlinalg.minor"]),
    ("qlinalg.minor.self_s", "s", "lower", ["qlinalg.minor"]),
    ("qlinalg.solves_per_pivot", "ratio", "lower", ["qlinalg.solve", "lcp.solve"]),
    ("qlinalg.solves_per_step", "ratio", "lower", ["qlinalg.solve", "lines.follow"]),
    ("lcp.solve.calls", "count", "lower", ["lcp.solve"]),
    ("lcp.solve.self_s", "s", "lower", ["lcp.solve"]),
    ("lcp.pivots", "count", "lower", ["lcp.solve"]),
    ("lcp.pivots_per_item", "count", "lower", ["lcp.solve"]),
    ("lcp.ms_per_pivot", "ms", "lower", ["lcp.solve"]),
    ("lcp.verify.self_s", "s", "lower", ["lcp.verify"]),
    ("lcp.degenerate", "count", "lower", ["lcp.solve"]),
    ("lines.steps", "count", "lower", ["lines.follow"]),
    ("lines.steps_per_item", "count", "lower", ["lines.follow"]),
    ("lines.follow.self_s", "s", "lower", ["lines.follow"]),
    ("lines.oracle.calls", "count", "lower", ["lines.oracle"]),
    ("lines.oracle.self_s", "s", "lower", ["lines.oracle"]),
    ("lines.oracle_calls_per_step", "ratio", "lower", ["lines.oracle", "lines.follow"]),
    ("lines.verify.calls", "count", "lower", ["lines.verify"]),
    ("lines.table.rows", "count", "lower", ["lines.table.load", "lines.table.dump"]),
    ("lines.table.self_s", "s", "lower", ["lines.table.load", "lines.table.dump"]),
    ("reductions.build.self_s", "s", "lower", ["reductions.build"]),
    ("reductions.oracle.self_s", "s", "lower", ["reductions.oracle"]),
    ("reductions.memo.hit_ratio", "ratio", "higher", []),
    ("reductions.memo.entries", "count", "lower", []),
    ("reductions.backmap.calls", "count", "lower", ["reductions.backmap"]),
    ("reductions.backmap.self_s", "s", "lower", ["reductions.backmap"]),
    ("circuits.eval.calls", "count", "lower", ["circuits.eval"]),
    ("circuits.eval.self_s", "s", "lower", ["circuits.eval"]),
    ("circuits.gates_evaluated", "count", "lower", ["circuits.eval", "circuits.metametric"]),
    ("circuits.iterations", "count", "lower", ["circuits.iterate"]),
    ("circuits.iterate.self_s", "s", "lower", ["circuits.iterate"]),
    ("circuits.verify.calls", "count", "lower", ["circuits.verify"]),
    ("circuits.verify.self_s", "s", "lower", ["circuits.verify"]),
    ("circuits.metametric.self_s", "s", "lower", ["circuits.metametric"]),
    ("circuits.metametric.points", "count", "lower", ["circuits.metametric"]),
    ("circuits.bits_max", "bits", "lower", ["circuits.eval"]),
    ("cli.commands", "count", "lower", ["cli"]),
    ("cli.self_s", "s", "lower", ["cli"]),
    ("cli.exit_nonzero", "count", "lower", ["cli"]),
    ("cli.stdout_bytes", "bytes", "lower", []),
    ("harness.self_s", "s", "lower", []),
    ("trace.items", "count", "higher", []),
    ("trace.wall_s", "s", "lower", []),
    ("trace.self_sum_s", "s", "lower", []),
    ("trace.untraced_wall_s", "s", "lower", []),
    ("trace.overhead_s", "s", "lower", []),
] + [
    (f"memo.{fn}.{field}", "count", better, [])
    for fn in MEMO_FUNCTIONS
    for field, better in (("hits", "higher"), ("misses", "lower"), ("size", "lower"))
]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted in the base."""
    return num / den if den else 0.0


def per_layer(tracer, run, memo_before: dict, memo_after: dict, replay: dict | None, replay_missing: str = "") -> dict:
    """Every per-layer metric, or a record of why it is absent.

    Without an untraced ``replay`` report the two metrics that need it are
    absent, with ``replay_missing`` as the reason.
    """
    calls, self_s, total_s, ctr = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters

    def c(name):
        return ctr.get(name, 0)

    pivots, steps = c("lcp.pivots"), c("lines.steps")
    items = len(run.latencies)
    traced = total_s.get("harness.item", 0.0)
    values = {
        "qlinalg.solve.calls": calls.get("qlinalg.solve", 0),
        "qlinalg.solve.self_s": self_s.get("qlinalg.solve", 0.0),
        "qlinalg.solve.size_max": c("qlinalg.solve.size_max"),
        "qlinalg.solve.bits_max": c("qlinalg.solve.bits_max"),
        "qlinalg.hadamard_bits_max": run.hadamard_bits,
        "qlinalg.minor.calls": calls.get("qlinalg.minor", 0),
        "qlinalg.minor.self_s": self_s.get("qlinalg.minor", 0.0),
        "qlinalg.solves_per_pivot": _ratio(calls.get("qlinalg.solve", 0), pivots),
        "qlinalg.solves_per_step": _ratio(calls.get("qlinalg.solve", 0), steps),
        "lcp.solve.calls": calls.get("lcp.solve", 0),
        "lcp.solve.self_s": self_s.get("lcp.solve", 0.0),
        "lcp.pivots": pivots,
        "lcp.pivots_per_item": _ratio(pivots, items),
        "lcp.ms_per_pivot": _ratio(1000 * total_s.get("lcp.solve", 0.0), pivots),
        "lcp.verify.self_s": self_s.get("lcp.verify", 0.0),
        "lcp.degenerate": c("lcp.degenerate"),
        "lines.steps": steps,
        "lines.steps_per_item": _ratio(steps, items),
        "lines.follow.self_s": self_s.get("lines.follow", 0.0),
        "lines.oracle.calls": calls.get("lines.oracle", 0),
        "lines.oracle.self_s": self_s.get("lines.oracle", 0.0),
        "lines.oracle_calls_per_step": _ratio(calls.get("lines.oracle", 0), steps),
        "lines.verify.calls": calls.get("lines.verify", 0),
        "lines.table.rows": c("lines.table.rows"),
        "lines.table.self_s": self_s.get("lines.table.load", 0.0) + self_s.get("lines.table.dump", 0.0),
        "reductions.build.self_s": self_s.get("reductions.build", 0.0),
        "reductions.oracle.self_s": self_s.get("reductions.oracle", 0.0),
        "reductions.backmap.calls": calls.get("reductions.backmap", 0),
        "reductions.backmap.self_s": self_s.get("reductions.backmap", 0.0),
        "circuits.eval.calls": calls.get("circuits.eval", 0),
        "circuits.eval.self_s": self_s.get("circuits.eval", 0.0),
        "circuits.gates_evaluated": c("circuits.gates_evaluated"),
        "circuits.iterations": c("circuits.iterations"),
        "circuits.iterate.self_s": self_s.get("circuits.iterate", 0.0),
        "circuits.verify.calls": calls.get("circuits.verify", 0),
        "circuits.verify.self_s": self_s.get("circuits.verify", 0.0),
        "circuits.metametric.self_s": self_s.get("circuits.metametric", 0.0),
        "circuits.metametric.points": c("circuits.metametric.points"),
        "circuits.bits_max": c("circuits.bits_max"),
        "cli.commands": c("cli.commands"),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.exit_nonzero": c("cli.exit_nonzero"),
        "cli.stdout_bytes": run.stdout_bytes,
        "harness.self_s": sum(v for k, v in self_s.items() if k.startswith("harness.")),
        "trace.items": items,
        "trace.wall_s": traced,
        "trace.self_sum_s": sum(self_s.values()),
    }
    if replay is not None:
        values["trace.untraced_wall_s"] = replay["item_seconds"]
        # both sides scaled by their own reference timings, so machine drift cancels
        values["trace.overhead_s"] = run.scaled_item_seconds() - replay["item_seconds_scaled"]
    hits = misses = entries = 0
    memo_absent = []
    for fn in MEMO_FUNCTIONS:
        before, after = memo_before.get(fn), memo_after.get(fn)
        if after is None or before is None:
            memo_absent.append(fn)
            continue
        values[f"memo.{fn}.hits"] = after["hits"] - before["hits"]
        values[f"memo.{fn}.misses"] = after["misses"] - before["misses"]
        values[f"memo.{fn}.size"] = after["size"]
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        entries += after["size"]
    values["reductions.memo.hit_ratio"] = _ratio(hits, hits + misses)
    values["reductions.memo.entries"] = entries

    out = {}
    for name, unit, _, needs in PER_LAYER:
        reasons = [r for r in (tracer.absent(span) for span in needs) if r]
        if name.startswith("memo.") and name.split(".")[1] in memo_absent:
            reasons.append(f"{name.split('.')[1]} is not memoised")
        if reasons and (len(reasons) == len(needs) or name.startswith("memo.")):
            out[name] = {"value": None, "unit": unit, "absent": "; ".join(reasons)}
        elif name not in values:
            out[name] = {"value": None, "unit": unit, "absent": replay_missing}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
