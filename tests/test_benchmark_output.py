"""The benchmark's stdout contract: a run ends with its result line.

``perfbench/run.py`` prints one line per metric, a JSON report line, and last
the result line ``{"correct", "attempted", "failed", "metrics"}``; whatever
reads a run takes only that last line.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _strict_json(line: str):
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(line, parse_constant=reject)


def _round_len(workload: str) -> int:
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        return json.load(fh)[workload]["items"]


def _run(workload: str, items: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--items", str(items), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def _one_round(workload: str, *extra: str):
    return _run(workload, _round_len(workload), *extra)


@pytest.mark.parametrize("workload", ["lcp-direct", "plcp-pipeline", "line-tables", "circuits"])
def test_one_round_ends_with_a_strict_json_result_line(workload):
    round_len = _round_len(workload)
    done = _one_round(workload)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = _strict_json(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (round_len, 0)
    reports = [line for line in lines if line.startswith('{"report": ')]
    assert len(reports) == 1
    assert _strict_json(reports[0])["report"]["digest"]["status"] == "match"


def _assert_complete_trace(done):
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = _strict_json(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    nulls = [name for name, metric in result["metrics"].items() if metric["value"] is None]
    assert nulls == []
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
    reports = [line for line in lines if line.startswith('{"report": ')]
    assert len(reports) == 1
    assert _strict_json(reports[0])["report"]["trace"]["missing_wraps"] == {}


def test_a_traced_round_reports_every_metric_and_wraps_every_span():
    # a renamed or moved wrapped name, or a dropped memo, turns metrics null
    _assert_complete_trace(_one_round("lcp-direct", "--trace", "1"))


def test_a_traced_line_tables_run_reports_every_metric_and_wraps_every_span():
    # the same contract over the lines layer: table I/O, the line reductions
    # and their oracles
    _assert_complete_trace(_run("line-tables", 12, "--trace", "1"))
