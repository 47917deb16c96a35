"""clslab benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a clslab checkout::

    python3 perfbench/run.py --workload lcp-direct --seed 1 --seconds 20 --trace 0

The benchmark imports clslab from ``src/`` of the checkout it sits in and
refuses to run without it.  One process, one item in flight (closed loop,
one client, no threads).  A run:

1. sets up several times and reports the median as ``setup_s``: the import
   (once), generating the first round of seeded items, writing their files,
   and a warm-up on a disjoint seed;
2. runs whole rounds of items, at least ``MIN_ITEMS`` items, stopping at the
   round boundary closest to ``--seconds``; each later round is generated
   just before it runs, with the clock paused;
3. times a fixed reference computation after every item and scales each
   latency (and the set-up) to a nominal machine speed, so drift in the
   machine's speed cancels; unscaled figures stay in the report line;
4. checks every item's outputs, and at the default seed compares a digest
   of the first round's outcomes with ``digests.json``;
5. prints one line per metric, a JSON report line, and last the result line
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
items with spans around every call into clslab's layers, then replays the
same items untraced in a child process to measure the tracing overhead
(both sides scaled by the reference), and reports the per-layer metrics.
The exit code is 1 when any item fails (in either process) or the digest
changes, 2 when clslab cannot be found.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
MIN_ITEMS = 100  # so that at least 10 samples lie beyond p90
SETUP_REPS = 5
WARM_START = 1_000_000  # item indices of the warm-up, apart from the timed ones
HARD_CAP_S = 60.0  # a run stops here even below MIN_ITEMS
# Times are scaled to a machine on which reference() takes REF_NOMINAL_S.
# Each latency is divided by the median reference time of the REF_WINDOW
# items on either side of it, so drift in machine speed cancels.
REF_NOMINAL_S = 0.0012
REF_WINDOW = 5
REF_SETUP = 5  # reference timings on each side of a set-up

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "retained_kblocks": "kblocks",
}


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (p in [0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def beyond(values, p: float) -> int:
    """Samples strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def reference() -> None:
    """Fixed exact arithmetic in the style of clslab's: a Fraction sum and big-integer products."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    x = 3**2000
    for _ in range(200):
        x = x * 12345678901 // 987654321


def time_reference(count: int) -> list[float]:
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


def normalised(latencies: list[float], refs: list[float], window: int = REF_WINDOW) -> list[float]:
    """Each latency times REF_NOMINAL_S over the median reference time near it."""
    return [
        lat * REF_NOMINAL_S / statistics.median(refs[max(0, i - window) : i + window + 1])
        for i, lat in enumerate(latencies)
    ]


def should_stop(done: int, elapsed: float, seconds: float, limit: int | None, round_len: int) -> bool:
    """Stop only after whole rounds, at the round boundary closest to ``seconds``.

    Whole rounds keep the item mix, and so the metrics, the same on every run.
    """
    if limit is not None:
        return done >= limit
    if elapsed >= HARD_CAP_S:
        return True
    if done < MIN_ITEMS or done % round_len:
        return False
    per_round = elapsed / (done // round_len)
    return elapsed + per_round / 2 >= seconds


def git_commit(root: str) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": usable,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def import_clslab() -> None:
    """Import clslab from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "clslab", "__init__.py")):
        print(f"error: no clslab sources under {SRC}; run from a clslab checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import clslab

    if os.path.dirname(os.path.dirname(os.path.abspath(clslab.__file__))) != SRC:
        print(f"error: imported clslab from {clslab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------------


class Run:
    """The timed pass over rounds of items, with its samples and checks.

    ``rounds`` yields the items round by round; see :func:`rounds`.
    """

    def __init__(self, workload, rounds, seconds: float, limit: int | None, tracer=None):
        self.workload = workload
        self.rounds = rounds
        self.round_len = len(workload.round)
        self.classes: list[str] = []
        self.seconds = seconds
        self.limit = limit
        self.tracer = tracer
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.failures: list[str] = []
        self.stdout_bytes = 0
        self.pivots: list[int] = []
        self.iterations: list[int] = []
        self.hadamard_bits = 0
        self.digest = hashlib.sha256()
        self.memory: dict = {}
        self.wall = 0.0

    def _item(self, item) -> None:
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(item)
        except workloads.ItemFailure as exc:
            outcome = None
            self.failures.append(f"{item.index} {item.cls}: {exc}")
        except Exception:  # an item that raises counts as failed; the run goes on
            outcome = None
            last = traceback.format_exc().strip().splitlines()[-1]
            self.failures.append(f"{item.index} {item.cls}: {last}")
        self.latencies.append(time.perf_counter() - t0)
        self.classes.append(item.cls)
        if len(self.latencies) <= self.round_len:
            text = outcome.summary if outcome is not None else "FAILED"
            self.digest.update(f"{item.index} {item.cls}\n{text}\n".encode())
        if outcome is not None:
            self.stdout_bytes += outcome.stdout_bytes
            if outcome.pivots is not None:
                self.pivots.append(outcome.pivots)
            if outcome.iterations is not None:
                self.iterations.append(outcome.iterations)
        self.hadamard_bits = max(self.hadamard_bits, item.data.get("hadamard_bits", 0))

    def _checkpoint(self, blocks0: int) -> None:
        gc.collect()
        self.memory = {
            "retained_kblocks": (sys.getallocatedblocks() - blocks0) / 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "items": len(self.latencies),
        }

    def go(self) -> None:
        """Run items until the stop rule holds; the reference is timed after each item.

        The memory metrics are read at the end of the first round, so they do
        not depend on how many rounds fit in the time.
        """
        tracer = self.tracer
        gc.collect()
        blocks0 = sys.getallocatedblocks()
        paused = 0.0
        pending = iter(())
        start = time.perf_counter()
        while not should_stop(
            len(self.latencies), time.perf_counter() - start - paused, self.seconds, self.limit, self.round_len
        ):
            item = next(pending, None)
            if item is None:
                t = time.perf_counter()
                pending = iter(next(self.rounds))
                item = next(pending)
                paused += time.perf_counter() - t
            if tracer:
                tracer.item = item.index
                with tracer.span(spans.ITEM):
                    self._item(item)
            else:
                self._item(item)
            t = time.perf_counter()
            self.refs += time_reference(1)
            if tracer is None and len(self.latencies) == self.round_len:
                self._checkpoint(blocks0)
            paused += time.perf_counter() - t
        self.wall = time.perf_counter() - start - paused
        if not self.memory:
            self._checkpoint(blocks0)

    def scaled_item_seconds(self) -> float:
        """Total item time scaled by the reference, as the latencies are."""
        return sum(normalised(self.latencies, self.refs))


def set_up(workload_cls, lab, seed: int, reps: int):
    """Build the first round of timed items and warm up, ``reps`` times.

    Returns (set-up times, reference times, workload, first round).

    Each repetition regenerates the same first round, rewrites its files,
    and warms up on its own disjoint stream.  Warm-up instances stay in the
    workload's ``seen`` set, so no warm-up and no later timed item repeats
    one of them, and memos never answer one from another.  The reference is
    timed before and after every repetition.
    """
    times = []
    refs = []
    warm_keys: set[str] = set()
    for rep in range(reps):
        refs.append(time_reference(REF_SETUP))
        t0 = time.perf_counter()
        workload = workload_cls(lab)
        first = workload.generate(seed, "timed", workload.round)
        workload.seen |= warm_keys
        warm = workload.generate(seed, f"warm{rep}", workload.warm, start=WARM_START + rep * len(workload.warm))
        for item in warm:
            workload.run(item)
        times.append(time.perf_counter() - t0)
        warm_keys.update(item.key for item in warm)
    refs.append(time_reference(REF_SETUP))
    return times, refs, workload, first


def rounds(workload, seed: int, first):
    """Yield ``first``, then each later round of timed items as it is asked for."""
    yield first
    start = len(first)
    while True:
        yield workload.generate(seed, "timed", workload.round, start=start)
        start += len(workload.round)


def setup_seconds(import_s: float, times: list[float], refs: list[list[float]], scale: bool) -> float:
    """Import time plus the median set-up, each scaled by the reference timed next to it."""
    if not scale:
        return import_s + statistics.median(times)
    ratio = [REF_NOMINAL_S / statistics.median(before + after) for before, after in zip(refs, refs[1:])]
    return import_s * ratio[0] + statistics.median(t * k for t, k in zip(times, ratio))


def class_medians(run: Run) -> dict:
    by_class: dict[str, list[float]] = {}
    for cls, latency in zip(run.classes, run.latencies):
        by_class.setdefault(cls, []).append(latency * 1000)
    return {c: round(statistics.median(v), 3) for c, v in sorted(by_class.items())}


def end_to_end(run: Run, setup_s: float, scale: bool = True) -> dict:
    """The end-to-end metrics; with ``scale``, times are scaled by the reference."""
    latencies = normalised(run.latencies, run.refs) if scale else run.latencies
    lat_ms = [x * 1000 for x in latencies]
    done = len(run.latencies) - len(run.failures)
    return {
        "instances_per_s": done / sum(latencies),
        "latency_ms.p50": percentile(lat_ms, 0.5),
        "latency_ms.p90": percentile(lat_ms, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": run.memory["peak_rss_mb"],
        "retained_kblocks": run.memory["retained_kblocks"],
    }


def replay_untraced(args, count: int) -> tuple[dict | None, str]:
    """Run the same ``count`` items untraced in a fresh process.

    Returns (its report, "") or (None, why there is none).  Exit code 1 with
    a full report means some item failed there; the report says how many.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--trace", "0", "--items", str(count),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return None, "untraced replay timed out"
    reports = [json.loads(line)["report"] for line in done.stdout.splitlines() if line.startswith('{"report"')]
    if done.returncode not in (0, 1) or not reports or reports[-1]["items"] != count:
        return None, f"untraced replay gave no report of {count} items (exit {done.returncode}): {done.stderr[-300:]}"
    return reports[-1], ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clslab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None, help="run exactly this many items")
    parser.add_argument("--record-digest", action="store_true", help="store this run's digest")
    args = parser.parse_args(argv)

    import_clslab()
    import_s = time.perf_counter() - PROCESS_T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    lab = workloads.Lab()

    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    os.chdir(workdir)
    replay = (None, "")
    try:
        setup_times, setup_refs, workload, first = set_up(workload_cls, lab, args.seed, SETUP_REPS)
        setup_s = setup_seconds(import_s, setup_times, setup_refs, scale=True)
        setup_raw = setup_seconds(import_s, setup_times, setup_refs, scale=False)
        memo_before = layers.memo_counters()
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            run = Run(workload, rounds(workload, args.seed, first), args.seconds, args.items, tracer)
            run.go()
        finally:
            if tracer:
                tracer.restore()
        memo_after = layers.memo_counters()
        if tracer:
            replay = replay_untraced(args, len(run.latencies))
            tracer.write(os.path.join(work_root, f"spans-{args.workload}-{args.seed}.json"))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    return report(args, workload, run, (setup_s, setup_raw), memo_before, memo_after, tracer, replay)


def digest_status(args, run: Run) -> str:
    if args.seed != DEFAULT_SEED or len(run.latencies) < run.round_len:
        return "unchecked"
    path = os.path.join(HERE, "digests.json")
    with open(path) as fh:
        stored = json.load(fh)
    value = run.digest.hexdigest()
    if args.record_digest:
        stored[args.workload] = {"seed": DEFAULT_SEED, "items": run.round_len, "sha256": value}
        with open(path, "w") as fh:
            json.dump(stored, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return "recorded"
    want = stored.get(args.workload, {}).get("sha256")
    if want is None:
        return "no stored digest"
    return "match" if want == value else "CHANGED"


def report(args, workload, run, setup, memo_before, memo_after, tracer, replay) -> int:
    digest = digest_status(args, run)
    attempted = len(run.latencies)
    failed = len(run.failures)
    correct = failed == 0 and digest != "CHANGED"
    replay, replay_missing = replay
    if tracer:
        # the replay runs the same items: its failures are this run's too
        failed = max(failed, replay["failed"]) if replay else failed
        correct = correct and replay is not None and replay["failed"] == 0
    info = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "timed_wall_s": run.wall,
        "item_seconds": sum(run.latencies),
        "item_seconds_scaled": run.scaled_item_seconds(),
        "items": attempted,
        "classes": {c: workload.round.count(c) for c in dict.fromkeys(workload.round)},
        "class_median_ms": class_medians(run),
        "latency_samples": attempted,
        "latency_beyond_p90": beyond(run.latencies, 0.9),
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": run.failures[:20],
        "digest": {"sha256": run.digest.hexdigest(), "items": min(attempted, run.round_len), "status": digest},
        "cli_stdout_bytes": run.stdout_bytes,
        "pivots_per_item": statistics.mean(run.pivots) if run.pivots else None,
        "iterations_per_item": statistics.mean(run.iterations) if run.iterations else None,
        "hadamard_bits_max": run.hadamard_bits or None,
        "memos": {"before": memo_before, "after": memo_after},
        "memory_checkpoint": run.memory,
        "layer_map": layers.LAYER_MAP,
    }
    if tracer:
        metrics = layers.per_layer(tracer, run, memo_before, memo_after, replay, replay_missing)
        info["trace"] = {
            "traced_item_seconds": tracer.total_s.get(spans.ITEM, 0.0),
            "untraced_item_seconds": replay["item_seconds"] if replay else None,
            "untraced_failed": replay["failed"] if replay else None,
            "replay_missing": replay_missing or None,
            "spans_kept": len(tracer.records),
            "spans_dropped": tracer.dropped,
            "missing_wraps": tracer.missing,
        }
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(run, setup[0]).items()}
        info["unscaled"] = end_to_end(run, setup[1], scale=False)
        info["reference"] = {
            "nominal_ms": REF_NOMINAL_S * 1000,
            "median_ms": statistics.median(run.refs) * 1000,
            "samples": len(run.refs),
        }
    for name, m in metrics.items():
        shown = "absent (" + m["absent"] + ")" if "absent" in m else f"{m['value']:.6g}"
        print(f"{name:34s} {shown} {m['unit']}")
    print(f"{'failed_frac':34s} {failed / attempted:.6g} (failed {failed} of {attempted})")
    print(f"{'latency samples':34s} {attempted} ({info['latency_beyond_p90']} beyond p90)")
    print(f"{'digest':34s} {digest}")
    for line in run.failures[:5]:
        print(f"FAILED {line}")
    print(json.dumps({"report": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
