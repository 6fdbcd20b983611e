"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload briefly in both modes and checks that every metric of
BENCHMARK.json is printed with its unit, that a deliberately corrupted
output is counted as a failed op, that the two `verify` windows the
benchmark re-judges pass correct results and fail a wrong closed form, and
that the benchmark refuses to run without the program's sources. Takes
about a minute on 2 vCPUs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        summary = "\n".join(proc.stdout.splitlines()[:2])
        stopwatch = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
                     ("setup_s", "s"), ("peak_rss_mb", "MB")]
        for name, unit in stopwatch + [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]:
            assert f"{name} " in summary and f" {unit}" in summary, name
        assert "failed_ratio" in summary
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_csv(w, output):
    path = w.outs[2]
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return output


def _corrupt_report(_w, output):
    code, out, err = output
    return code, out.replace("result: PASS", "result: FAIL", 1), err


def _corrupt_trajectory(w, traj):
    per_window = (len(traj.times) - 1) // w.N
    traj.coherence = traj.coherence.copy()
    traj.coherence[3 * per_window] += 0.1
    return traj


CORRUPT = {"cli_run": _corrupt_csv, "verify_all": _corrupt_report, "burst_large": _corrupt_trajectory}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, tmp_path):
    w = workloads.WORKLOADS[workload](ROOT, 3, tmp_path)
    log = run.OpLog()
    run.run_op(w, 0, log)
    clean_op = w.op
    w.op = lambda inp: CORRUPT[workload](w, clean_op(inp))
    run.run_op(w, 1, log)
    assert (log.attempted, log.failed) == (2, 1)


# verify seeds whose report says FAIL although the results are right (see VerifyAll.check)
FALSE_ALARM_SEEDS = {
    1754200671000067: "exact-vs-brute-force",  # absolute 1e-11 on entries near 374
    1754200671000081: "order-ratio-max",  # ratio 15.4: small third-order coefficient
}


@pytest.mark.parametrize("verify_seed", sorted(FALSE_ALARM_SEEDS))
def test_verify_false_alarm_is_rejudged(verify_seed, tmp_path):
    w = workloads.VerifyAll(ROOT, 0, tmp_path)
    code, out, err = output = w.op(verify_seed)
    assert code == 1 and FALSE_ALARM_SEEDS[verify_seed] in err
    result = w.check(verify_seed, output)
    assert result.ok, result.detail
    assert result.counts == {"verify_false_alarms": 1}


def test_wrong_closed_form_fails_the_rejudged_check(tmp_path):
    from layers import replace_everywhere, undo_replacements
    from prepost import spinbath

    exact = spinbath.exact_reduced_two_state

    def off_by_1e9(p, t):
        ts = exact(p, t)
        ts.mat = ts.mat * (1 + 1e-9)
        return ts

    w = workloads.VerifyAll(ROOT, 0, tmp_path)
    undo = replace_everywhere(exact, off_by_1e9, [workloads])
    try:
        log = run.OpLog()
        run.run_op(w, 1754200671000067, log)
    finally:
        undo_replacements(undo)
    assert (log.attempted, log.failed) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("cli_run", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
