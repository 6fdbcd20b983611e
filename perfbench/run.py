"""Run one prepost benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_run --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` is the separate traced run
that reports per-layer metrics. ``--workload all`` runs every workload, each
in its own process. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and the machine fingerprint.

In the untraced loop a fixed reference kernel that does not touch the
program runs before every op and after the last. The gated op metrics are
op times in units of the kernel's time on either side of the op (``ref``):
the host this was written on changes speed by about 30% in phases of 10 to
60 seconds, which moves both alike, so the ratio stays put where raw
milliseconds do not. Raw milliseconds are printed as well.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cli_run", "verify_all", "burst_large")
SETUP_RUNS = 5
WARMUP_OPS = 2
REF_REPS = 2000

_REF_A = np.array([[0.6, 0.8j], [0.1, 0.3]])
_REF_B = _REF_A.conj().T
_svd = np.linalg.svd  # bound before any tracer wraps numpy.linalg.svd


def reference_s() -> float:
    """Duration of the reference kernel: small numpy calls and Python arithmetic."""
    start = time.perf_counter()
    for _ in range(REF_REPS):
        _svd(_REF_A @ _REF_B - _REF_B @ _REF_A, compute_uv=False)
        sum(range(20))
    return time.perf_counter() - start


class OpLog:
    """Latencies of timed ops, and failures and check results of all ops."""

    def __init__(self):
        self.latencies = []
        self.refs = []  # reference-kernel seconds around the timed ops, if measured
        self.attempted = 0
        self.failed = 0
        self.worst_dev_share = 0.0
        self.counts = defaultdict(int)

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def mean_ms(self) -> float:
        return 1000.0 * statistics.fmean(self.latencies)

    def costs(self) -> list:
        """Each op's time over the mean reference time just before and after it."""
        return [t / ((a + b) / 2) for t, a, b in zip(self.latencies, self.refs, self.refs[1:])]


def run_op(w, i: int, log: OpLog, timed: bool = True, tracer=None) -> float:
    """One op: inputs and check untimed, the call into the program timed.

    A ``tracer`` is installed for the call only, so program calls a check
    makes are not counted.
    """
    from workloads import CheckResult

    inp = w.make_input(i)
    result = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out = w.op(inp)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        result = CheckResult(False, math.inf, f"op raised {type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if result is None:
        try:
            result = w.check(inp, out)
        except Exception as exc:
            result = CheckResult(False, math.inf, f"check raised {type(exc).__name__}: {exc}")
    log.attempted += 1
    if not result.ok:
        log.failed += 1
        print(f"op {i} failed: {result.detail}", file=sys.stderr)
    elif result.detail:
        print(f"op {i}: {result.detail}", file=sys.stderr)
    log.worst_dev_share = max(log.worst_dev_share, result.worst_dev_share)
    for key, value in result.counts.items():
        log.counts[key] += value
    if timed:
        log.latencies.append(elapsed)
    return elapsed


def run_loop(w, seconds: float, log: OpLog, first_index: int, between):
    """Closed loop, one client, until ``seconds`` of op time.

    ``between(busy)`` and the reference kernel run between consecutive ops,
    outside their timed intervals; the kernel runs once more after the last.
    """
    i, busy = first_index, 0.0
    while busy < seconds:
        between(busy)
        log.refs.append(reference_s())
        busy += run_op(w, i, log)
        i += 1
    log.refs.append(reference_s())


def tail(latencies: list):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With 20 samples or fewer that percentile is not above the median, and
    the median stands in.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def setup_time_s(workload: str, seed: int) -> float:
    """Seconds from process start to first op ready, in a fresh interpreter."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux: KiB


def untraced(name: str, w, seed: int, seconds: float, first_op_s: float, log: OpLog, next_i: int):
    setup = []

    def setup_probes(busy):
        # spread over the run, so the median sees the host as the ops do
        if len(setup) < SETUP_RUNS and busy >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_time_s(name, seed))

    run_loop(w, seconds, log, next_i, setup_probes)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time_s(name, seed))
    n = len(log.latencies)
    tail_ms, tail_pct = tail(log.latencies)
    tail_ms *= 1000.0
    p50_ms = 1000.0 * statistics.median(log.latencies)
    ref_ms = 1000.0 * statistics.median(log.refs)
    costs = log.costs()
    metrics = {
        "ops_per_ref": (len(costs) / sum(costs), "1/ref"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        "op_tail_ref": (tail(costs)[0], "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    failed_ratio = log.failed / log.attempted
    v = {k: val for k, (val, _unit) in metrics.items()}
    print(
        f"{name}: ops_per_s {log.ops_per_s():.4g} 1/s | op_p50_ms {p50_ms:.4g} ms (n={n}) | "
        f"op_tail_ms {tail_ms:.4g} ms (p{tail_pct:.1f}, n={n}) | setup_s {v['setup_s']:.4g} s "
        f"(n={len(setup)}) | peak_rss_mb {v['peak_rss_mb']:.4g} MB | failed_ratio {failed_ratio:.4g} "
        f"({log.failed}/{log.attempted})"
    )
    print(
        f"{name} in reference-kernel units (1 ref = {ref_ms:.4g} ms, median): "
        f"ops_per_ref {v['ops_per_ref']:.4g} 1/ref | op_p50_ref {v['op_p50_ref']:.4g} ref | "
        f"op_tail_ref {v['op_tail_ref']:.4g} ref"
    )
    diagnostics = {
        "ops_per_s": log.ops_per_s(),
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "timed_ops": n,
        "ref_ms": ref_ms,
        "failed_ratio": failed_ratio,
        "first_op_s": first_op_s,
        "worst_dev_share": log.worst_dev_share,
        "verify_false_alarms": log.counts["verify_false_alarms"],
        "setup_samples_s": setup,
    }
    return metrics, diagnostics


def traced(name: str, w, seed: int, seconds: float, first_op_s: float, log: OpLog, next_i: int):
    from layers import SPAN_NAMES, Tracer, import_times_ms, scaling_ms

    metrics = {k: (v, "ms") for k, v in import_times_ms(str(SRC)).items()}
    plain, spans, tracer = OpLog(), OpLog(), Tracer()
    i = next_i
    # untraced and traced ops alternate, so machine drift does not enter the overhead
    while sum(plain.latencies) < seconds / 2 or sum(spans.latencies) < seconds / 2:
        run_op(w, i, plain)
        run_op(w, i + 1, spans, tracer=tracer)
        i += 2
    for part in (plain, spans):
        log.attempted += part.attempted
        log.failed += part.failed
        log.worst_dev_share = max(log.worst_dev_share, part.worst_dev_share)
    ops = len(spans.latencies)

    for span in SPAN_NAMES:
        metrics[f"{span}.calls_per_op"] = (tracer.calls[span] / ops, "count")
        metrics[f"{span}.self_ms_per_op"] = (1000.0 * tracer.self_s[span] / ops, "ms")
    rows = spans.counts["csv_rows_integrated"]
    metrics["cli.csv_bytes_per_op"] = (spans.counts["csv_bytes"] / ops, "bytes")
    metrics["liouville.states_per_csv_row"] = (tracer.trajectory_states / rows if rows else 0.0, "ratio")

    op_ms = spans.mean_ms()
    self_ms = 1000.0 * tracer.total_self_s() / ops
    overhead_ms = op_ms - plain.mean_ms()
    metrics.update({
        "trace.untraced_ops_per_s": (plain.ops_per_s(), "1/s"),
        "trace.traced_ops_per_s": (spans.ops_per_s(), "1/s"),
        "trace.overhead_ops_per_s": (plain.ops_per_s() - spans.ops_per_s(), "1/s"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.layer_self_ms": (self_ms, "ms"),
        "trace.unattributed_ms": (op_ms - self_ms, "ms"),
        "check.failed_ratio": (log.failed / log.attempted, "ratio"),
        "check.worst_dev_share": (log.worst_dev_share, "ratio"),
        "check.golden_fields_changed_per_op": (spans.counts["golden_fields_changed"] / ops, "count"),
        "first_op_s": (first_op_s, "s"),
    })
    metrics.update({k: (v, "ms") for k, v in scaling_ms(np.random.default_rng(seed)).items()})

    busy = sorted(SPAN_NAMES, key=lambda s: -tracer.self_s[s])
    print(f"{name} traced: {ops} ops, {op_ms:.4g} ms per op; self time per op by layer function:")
    for span in busy:
        if tracer.calls[span]:
            print(f"  {span:42s} {tracer.calls[span] / ops:10.1f} calls {1000 * tracer.self_s[span] / ops:10.3f} ms")
    # a negative overhead means the op-to-op noise exceeds it
    within = "within" if abs(op_ms - self_ms) <= abs(overhead_ms) else "outside"
    print(
        f"self times sum to {self_ms:.4g} ms of {op_ms:.4g} ms per op; the gap of {op_ms - self_ms:.3g} ms "
        f"is {within} the tracing overhead of {overhead_ms:.3g} ms per op "
        f"({plain.ops_per_s():.4g} ops/s untraced, {spans.ops_per_s():.4g} traced)"
    )
    if tracer.missing:
        print(f"not in the program, reported as 0: {', '.join(tracer.missing)}")
    return metrics, {"first_op_s": first_op_s, "untraced_ops": len(plain.latencies), "traced_ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run(cmd, check=True)
        return 0

    if not (SRC / "prepost" / "__init__.py").is_file():
        print(f"error: no prepost sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from fingerprint import fingerprint

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        w = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(workdir))
        log = OpLog()
        # the first op of a fresh process pays lazy set-up (BLAS thread start,
        # first-use paths); it is reported, then the process is warmed up
        first_op_s = run_op(w, 0, log, timed=False)
        for i in range(1, WARMUP_OPS):
            run_op(w, i, log, timed=False)
        if args.trace:
            metrics, diagnostics = traced(args.workload, w, args.seed, args.seconds, first_op_s, log, WARMUP_OPS)
        else:
            metrics, diagnostics = untraced(args.workload, w, args.seed, args.seconds, first_op_s, log, WARMUP_OPS)

    print(json.dumps({"fingerprint": fingerprint(ROOT, args.seed), "diagnostics": diagnostics}))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
