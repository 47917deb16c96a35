"""Self-tests for the benchmark harness: percentiles, spans, wrappers, generators.

Run with ``python3 -m pytest perfbench`` from the checkout root.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates_and_counts_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == pytest.approx(50.5)
    assert run.percentile(values, 0.9) == pytest.approx(90.1)
    assert run.beyond(values, 0.9) == 10
    assert run.percentile([7.0], 0.9) == 7.0
    # MIN_ITEMS samples always leave at least ten beyond p90
    assert run.beyond([float(v) for v in range(run.MIN_ITEMS)], 0.9) >= 10


def test_latencies_are_scaled_by_the_nearby_reference_time():
    nominal = run.REF_NOMINAL_S
    refs = [nominal] * 10 + [2 * nominal] * 10
    got = run.normalised([1.0] * 20, refs, window=2)
    assert got[:8] == [1.0] * 8  # windows inside the nominal-speed half
    assert got[12:] == [0.5] * 8  # the machine ran at half speed here
    assert run.setup_seconds(1.0, [2.0], [[2 * nominal], [2 * nominal]], scale=True) == 1.5
    assert run.setup_seconds(1.0, [2.0], [[2 * nominal], [2 * nominal]], scale=False) == 3.0


def test_stop_rule_ends_at_the_round_boundary_closest_to_the_time():
    n = run.MIN_ITEMS
    assert not run.should_stop(n, 10.0, 20.0, None, n)  # half a round short of the time
    assert run.should_stop(2 * n, 20.5, 20.0, None, n)
    assert run.should_stop(n, 14.0, 20.0, None, n)  # a second round would overshoot more
    assert not run.should_stop(n + 1, 30.0, 20.0, None, n)  # mid-round
    assert not run.should_stop(n - 1, 30.0, 20.0, None, n - 1)  # too few samples
    assert run.should_stop(n + 1, run.HARD_CAP_S, 20.0, None, n)
    assert run.should_stop(3, 0.0, 99.0, 3, n)


def test_self_time_subtracts_nested_children():
    records = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["b", 6.0, 8.0, 0, 0],
    ]
    got = spans.self_times(records)
    assert got == {"root": 4.0, "a": 3.0, "b": 3.0}
    assert sum(got.values()) == pytest.approx(10.0)


def test_online_self_times_match_the_records_and_add_up_to_the_root():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap("inner", leaf)

    def middle():
        return inner() + inner()

    outer = tracer.wrap("outer", middle, hook=lambda t, a, r, e: t.bump("outer.calls", 1))
    with tracer.span(spans.ITEM):
        for _ in range(3):
            outer()
    assert tracer.calls == {"inner": 6, "outer": 3, spans.PROBE: 3, spans.ITEM: 1}
    assert tracer.counters["outer.calls"] == 3
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s[spans.ITEM], rel=1e-9)
    assert tracer.self_s["outer"] <= tracer.total_s["outer"] - tracer.total_s["inner"] + 1e-9
    offline = spans.self_times(tracer.records)
    assert offline.keys() == tracer.self_s.keys()
    for name, value in offline.items():
        assert tracer.self_s[name] == pytest.approx(value, rel=1e-9, abs=1e-12)
    assert tracer.records[1][3] == 0 and tracer.records[2][3] == 1  # parents


def test_only_the_first_spans_are_kept():
    tracer = spans.Tracer(keep=2)
    for _ in range(5):
        with tracer.span("x"):
            pass
    assert len(tracer.records) == 2 and tracer.dropped == 3 and tracer.calls["x"] == 5


def test_wrappers_are_restored_after_a_traced_run():
    import clslab.cli
    import clslab.lcp
    import clslab.lines

    before = (clslab.lcp.solve_columns, clslab.lines.EoplInstance.S, clslab.cli.main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert clslab.lcp.solve_columns is not before[0]
        assert clslab.lines.EoplInstance.__dict__["S"] is not before[1]
        assert tracer.missing == {}
    finally:
        tracer.restore()
    assert (clslab.lcp.solve_columns, clslab.lines.EoplInstance.S, clslab.cli.main) == before
    assert clslab.cli.main is before[2]


def test_a_missing_wrapped_name_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install({"gone": ([("clslab.lcp", "no_such_function")], None)})
    tracer.restore()
    assert tracer.missing == {"gone": ["clslab.lcp.no_such_function"]}


@pytest.mark.parametrize(
    "make",
    [
        lambda r: gen.dd_lcp(r, 9),
        lambda r: gen.long_path_lcp(r, 7),
        lambda r: gen.nonp_lcp(r, 6),
        lambda r: gen.eopl_table(r, 6, 6),
        lambda r: gen.eoml_table(r, 7, True),
        lambda r: gen.contraction_spec(r, gen.Fraction(15, 16), 3, "1"),
        lambda r: gen.norm_sample(r, 2, 36, "inf"),
    ],
)
def test_generators_repeat_for_a_seed_and_differ_across_seeds(make):
    first = make(gen.item_rng("w", 5, "timed", 3))
    assert make(gen.item_rng("w", 5, "timed", 3)) == first
    assert make(gen.item_rng("w", 6, "timed", 3)) != first


def test_lcp_q_entries_never_tie():
    for k in range(50):
        data = gen.dd_lcp(gen.item_rng("t", 0, "q", k), 12)
        assert len(set(data.q)) == len(data.q)


def test_nonp_family_pivots_before_its_witness():
    lab = workloads.Lab()
    for d in (4, 6, 8):
        inst = lab.lcp_instance(gen.nonp_lcp(gen.item_rng("t", 0, "nonp", d), d))
        result = lab.lcp.lemke_solve(inst)
        assert isinstance(result.outcome, lab.lcp.Q2)
        assert len(result.trace) >= 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_items_are_pairwise_distinct_and_disjoint_from_warm_up(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reps = 2
    _, _, workload, first = run.set_up(workloads.WORKLOADS[name], workloads.Lab(), 1, reps)
    assert [item.cls for item in first] == workload.round
    later = run.rounds(workload, 1, first)
    timed = [item for _, items in zip(range(2), later) for item in items]
    keys = [item.key for item in timed]
    assert len(set(keys)) == len(keys) == 2 * len(workload.round)
    # ``seen`` holds every timed and warm-up key; no two of them are equal
    assert len(workload.seen) == len(keys) + reps * len(workload.warm)


def test_trace_metrics_without_a_replay_are_absent_with_the_reason():
    fake = type("FakeRun", (), {"latencies": [0.1], "hadamard_bits": 0, "stdout_bytes": 0})()
    fake.scaled_item_seconds = lambda: 0.1
    got = layers.per_layer(spans.Tracer(), fake, {}, {}, None, "untraced replay timed out")
    assert got["trace.overhead_s"] == {"value": None, "unit": "s", "absent": "untraced replay timed out"}
    assert got["trace.untraced_wall_s"]["absent"] == "untraced replay timed out"
    assert got["trace.items"]["value"] == 1
    assert "not memoised" in got["memo.successor.hits"]["absent"]


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
