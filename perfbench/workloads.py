"""The benchmark's three workloads: one op each, with its inputs and output check.

Each workload is a closed loop with one client: the next op is sent only
after the previous one has returned and been checked. An op is a fixed
bundle of work, so op latencies are homogeneous and the median does not fall
between op classes. ``make_input`` derives the op's inputs from the workload
seed outside the timed interval; ``op`` is the timed call into the program;
``check`` compares the op's output with an independent reference, again
outside the timed interval.

The caller puts the repository's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prepost import cli
from prepost import liouville as lv
from prepost import spinbath as sb
from prepost.config import load_config
from prepost.qcore import SIGMA_Z, qubits
from prepost.twostate import TwoState
from prepost.verify import VERIFY_TOLERANCES

from layers import replace_everywhere


@dataclass
class CheckResult:
    """Outcome of one op's output check.

    ``worst_dev_share`` is the worst deviation from the reference as a share
    of its tolerance (below 1 passes); ``counts`` are per-op tallies the
    traced run reports as per-layer metrics.
    """

    ok: bool
    worst_dev_share: float
    detail: str = ""
    counts: dict = field(default_factory=dict)


def _captured(fn):
    """Run ``fn`` with stdout and stderr captured; (result, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn()
    return result, out.getvalue(), err.getvalue()


def _read_csv(path: Path) -> list:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _compare_csv(got: list, want: list, rtol: float):
    """(worst deviation share, fields not byte-identical, first problem or "").

    A field passes when |got - want| <= rtol * scale, where scale is the
    largest magnitude of that column in the reference (the whole file's
    largest magnitude for an all-zero column), so entries that are zero up
    to rounding are not judged relative to themselves.
    """
    if not want or got[:1] != want[:1]:
        return math.inf, 0, "header differs"
    if len(got) != len(want):
        return math.inf, 0, f"{len(got) - 1} rows, reference has {len(want) - 1}"
    rows = want[1:]
    mags = [[abs(float(x)) if x else 0.0 for x in row] for row in rows]
    file_scale = max((max(m) for m in mags), default=0.0)
    col_scale = [max(m[j] for m in mags) or file_scale for j in range(len(want[0]))]
    worst, changed = 0.0, 0
    for r, (g_row, w_row) in enumerate(zip(got[1:], rows)):
        if len(g_row) != len(w_row):
            return math.inf, changed, f"row {r} has {len(g_row)} fields"
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if g == w:
                continue
            changed += 1
            if not g or not w:
                return math.inf, changed, f"row {r} column {want[0][j]}: {g!r} vs {w!r}"
            worst = max(worst, abs(float(g) - float(w)) / (rtol * col_scale[j]))
    return worst, changed, ""


class CliRun:
    """`prepost run` over the four shipped configs, in fixed order.

    What a CLI user runs. Dominated by `liouville.integrate` (the
    perturbative_spin and burst configs) and its per-step diagnostics; the
    burst environment has only 10 particles, so its weak moments are cheap.
    The configs are fixed, so the seed does not change the inputs.
    """

    CONFIGS = ("spinbath_exact", "spinbath_env_post", "perturbative_spin", "burst")
    # scenarios whose rows are sampled from an integrated trajectory
    INTEGRATED = ("perturbative_spin", "burst")
    RTOL = 1e-12

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.config_paths = [root / "configs" / f"{name}.json" for name in self.CONFIGS]
        # program-side preparation, timed by setup_s: parse and validate every config
        for path in self.config_paths:
            load_config(str(path))
        self.goldens = [_read_csv(root / "tests" / "goldens" / f"{name}.csv") for name in self.CONFIGS]
        self.outs = [workdir / f"{name}.csv" for name in self.CONFIGS]

    def make_input(self, i: int):
        return None

    def op(self, _inp):
        def run_all():
            return [
                cli.main(["run", "--config", str(cfg), "--out", str(out)])
                for cfg, out in zip(self.config_paths, self.outs)
            ]

        return _captured(run_all)

    def check(self, _inp, output) -> CheckResult:
        codes, _out, err = output
        if any(codes):
            return CheckResult(False, math.inf, f"exit codes {codes}: {err.strip()}")
        worst, changed, csv_bytes, rows_integrated = 0.0, 0, 0, 0
        for name, out, golden in zip(self.CONFIGS, self.outs, self.goldens):
            got = _read_csv(out)
            share, n_changed, problem = _compare_csv(got, golden, self.RTOL)
            if problem:
                return CheckResult(False, share, f"{name}: {problem}")
            worst = max(worst, share)
            changed += n_changed
            csv_bytes += out.stat().st_size
            if name in self.INTEGRATED:
                rows_integrated += len(got) - 1
        counts = {
            "golden_fields_changed": changed,
            "csv_bytes": csv_bytes,
            "csv_rows_integrated": rows_integrated,
        }
        detail = "" if worst <= 1.0 else f"deviation {worst:.3g} x tolerance {self.RTOL:g}"
        return CheckResult(worst <= 1.0, worst, detail, counts)


def _parse_verify(out: str) -> dict:
    """{scenario: (result line says PASS, {check: (ok, value, tolerance or None)})}."""
    reports, checks = {}, None
    for line in out.splitlines():
        if line.startswith("verify "):
            checks = {}
            reports[line.split()[1].rstrip(":")] = [None, checks]
        elif line.startswith("result: ") and checks is not None:
            reports[list(reports)[-1]][0] = line == "result: PASS"
        elif line.startswith("  ") and checks is not None:
            # "  <check>: max deviation <v> (tolerance <tol>) ok" or
            # "  <check>: value <v> (allowed [<lo>, <hi>]) ok"
            name, rest = line.strip().split(": ", 1)
            words = rest.replace("(", " ").replace(")", " ").split()
            value = float(words[2] if words[0] == "max" else words[1])
            tol = float(words[words.index("tolerance") + 1]) if "tolerance" in words else None
            checks[name] = (words[-1] == "ok", value, tol)
    return {name: tuple(rep) for name, rep in reports.items()}


def spinbath_relative_dev(verify_seed: int, trials: int) -> float:
    """Worst exact-vs-brute-force deviation of the spinbath_exact draws, scale-aware.

    Replays the scenario's draws (the same generator calls as `verify`) and
    divides each draw's deviation by max(1, largest brute-force entry), so a
    two-state with entries in the hundreds is judged at the same relative
    precision as one with entries of order 1.
    """
    rng = np.random.default_rng(verify_seed)
    worst = 0.0
    for i in range(trials):
        p = sb.random_params(rng, 1 + (i % 8))
        for t in np.linspace(0.0, p.t_final, 20):
            brute = sb.brute_force_reduced(p, t).mat
            dev = np.max(np.abs(sb.exact_reduced_two_state(p, t).mat - brute))
            worst = max(worst, float(dev / max(1.0, np.max(np.abs(brute)))))
    return worst


class VerifyAll:
    """`prepost verify --scenario all` with a fresh seed per op.

    The oracle side: spin-bath closed form against brute force, the
    probability rules, dense `expm` evolution and continuous weak moments.
    No integrator runs here.
    """

    TRIALS = 20
    SCENARIOS = ("spinbath_exact", "probability", "parsel", "perturbative")

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def op(self, verify_seed: int):
        argv = ["verify", "--scenario", "all", "--seed", str(verify_seed), "--trials", str(self.TRIALS)]
        return _captured(lambda: cli.main(argv))

    def check(self, verify_seed: int, output) -> CheckResult:
        """Every check of every scenario passes; two fixed windows are re-judged.

        `verify` compares with fixed windows. Two of them flag results that
        are right, on about 1% of seeds each:

        - exact-vs-brute-force uses an absolute 1e-11, which a two-state with
          entries in the hundreds exceeds by rounding alone. The benchmark
          replays the draws and requires 1e-11 relative to
          max(1, largest entry) instead.
        - order-ratio-max requires the residual to shrink by at most 12 when
          the coupling halves. A draw whose third-order coefficient is small
          shrinks faster, towards 16, and is still correct. The closed form
          is judged by order-ratio-min (at least 5 on every draw: the residual
          is third order), which is kept.

        Each re-judged verdict is counted in ``verify_false_alarms``.
        """
        code, out, err = output
        reports = _parse_verify(out)
        if tuple(reports) != self.SCENARIOS:
            return CheckResult(False, math.inf, f"seed {verify_seed}: scenarios {list(reports)}")
        worst, problems, rejudged = 0.0, [], []
        for scenario, (passed, checks) in reports.items():
            if passed != all(ok for ok, _v, _t in checks.values()):
                problems.append(f"{scenario}: result line disagrees with its checks")
            for name, (ok, value, tol) in checks.items():
                if name == "exact-vs-brute-force" and not ok:
                    tol = VERIFY_TOLERANCES["spinbath_exact"]
                    value = spinbath_relative_dev(verify_seed, self.TRIALS)
                    ok = value <= tol
                    rejudged.append(f"{name} relative deviation {value:.3g}")
                elif name == "order-ratio-max" and not ok:
                    ok = checks["order-ratio-min"][0]
                    rejudged.append(f"{name} {value:.3g}, order-ratio-min {checks['order-ratio-min'][1]:.3g}")
                if tol is not None:
                    worst = max(worst, value / tol)
                if not ok:
                    problems.append(f"{scenario} {name} {value:.6g}")
        all_passed = all(passed for passed, _c in reports.values())
        if code != (0 if all_passed else 1):
            problems.append(f"exit {code}")
        if problems:
            detail = f"seed {verify_seed}: {'; '.join(problems)} {err.strip()}"
        elif rejudged:
            detail = f"seed {verify_seed}: verify FAIL re-judged correct: {'; '.join(rejudged)}"
        else:
            detail = ""
        return CheckResult(not problems, worst, detail, {"verify_false_alarms": len(rejudged)})


def product_conditions(rng: np.random.Generator, n: int, min_overlap: float = 0.3):
    """Real per-particle pre/post kets with pair overlap >= ``min_overlap``."""
    pre, post = [], []
    for _ in range(n):
        while True:
            th1, th2 = rng.uniform(0.0, 2.0 * np.pi, 2)
            if abs(math.cos(th1 - th2)) >= min_overlap:
                break
        pre.append(np.array([math.cos(th1), math.sin(th1)]))
        post.append(np.array([math.cos(th2), math.sin(th2)]))
    return pre, post


class BurstLarge:
    """A 16-particle burst schedule through the public library calls.

    Fresh product conditions per op. The dense weak moments cost
    O(n^2 2^n) and hold n arrays of 2^n amplitudes, so this op is
    moment-bound where `cli_run` is step-bound.
    """

    N = 16
    LAM = 0.5
    TAU = 0.04
    STEPS_PER_WINDOW = 100
    SYS_PRE = np.array([0.6, 0.8j])
    SYS_POST = np.array([1.0, 1.0]) / math.sqrt(2.0)
    CROSS_RTOL = 1e-13
    MOMENT_RTOL = 1e-10

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        # integrate computes the weak moments internally; keep them for the
        # check instead of recomputing them outside the op
        self.last_moments = None
        self._weak_moments = lv.weak_moments
        replace_everywhere(lv.weak_moments, self._recording_weak_moments)

    def _recording_weak_moments(self, spec):
        self.last_moments = self._weak_moments(spec)
        return self.last_moments

    def make_input(self, i: int):
        return product_conditions(self.rng, self.N)

    def op(self, conditions):
        pre, post = conditions
        spec = lv.burst_interaction(
            self.LAM, self.TAU, [SIGMA_Z] * self.N, lv.product_env_ket(pre), lv.product_env_ket(post)
        )
        rs0 = TwoState(qubits(1), np.outer(self.SYS_PRE, self.SYS_POST.conj()), 0.0, spec.t_final, 0.0)
        self.last_moments = None
        return lv.integrate(rs0, spec, steps=self.STEPS_PER_WINDOW * self.N)

    def check(self, conditions, traj) -> CheckResult:
        """Criterion 09 on every op, plus the moments against their product form.

        For product conditions (L_k)_w = <e2_k|Z|e1_k>/<e2_k|e1_k>,
        Delta_kk = 1 - (L_k)_w^2 and Delta_km = 0 for k != m, one particle
        at a time; the program computes them from the full 2^n kets. Delta
        is a difference of products of weak values, which reach |L_w| ~ 3 at
        pair overlap 0.3, so the cross-correlation tolerance is relative to
        max(1, max_k |(L_k)_w|^2).
        """
        pre, post = conditions
        bound = 5 * self.LAM**2 * self.TAU**2
        per_window = (len(traj.times) - 1) // self.N
        c0 = traj.coherence[0]
        drift = max(abs(traj.coherence[k * per_window] - c0) for k in range(self.N + 1))

        m = self.last_moments
        lw_ref = np.array([np.vdot(b, SIGMA_Z @ a) / np.vdot(b, a) for a, b in zip(pre, post)])
        delta_diag = np.diagonal(m.delta)
        cross_scale = max(1.0, float(np.max(np.abs(m.l_w))) ** 2)
        cross = float(np.max(np.abs(m.delta - np.diag(delta_diag)))) / cross_scale
        lw_dev = float(np.max(np.abs(m.l_w - lw_ref)) / np.max(np.abs(lw_ref)))
        diag_ref = 1.0 - lw_ref**2
        diag_dev = float(np.max(np.abs(delta_diag - diag_ref)) / np.max(np.abs(diag_ref)))

        shares = {
            "boundary coherence drift": drift / bound,
            "cross-correlation": cross / self.CROSS_RTOL,
            "first moments": lw_dev / self.MOMENT_RTOL,
            "weak uncertainties": diag_dev / self.MOMENT_RTOL,
        }
        name, worst = max(shares.items(), key=lambda kv: kv[1])
        detail = "" if worst <= 1.0 else f"{name} at {worst:.3g} x tolerance"
        return CheckResult(worst <= 1.0, worst, detail)


WORKLOADS = {"cli_run": CliRun, "verify_all": VerifyAll, "burst_large": BurstLarge}
