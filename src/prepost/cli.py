"""Command line runner: scenario trajectories to CSV, randomized verification.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 formalism
error. Every error path emits one machine-parsable line prefixed ``error:``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import VERIFY_SCENARIOS, ConfigError, ScenarioConfig, load_config
from .detmath import hypot
from .qcore import SIGMA_Z, Operator, qubits
from .twostate import (
    FormalismError, ProjectorSet, _effective_densities, _purities, _scores, _singular_values,
)
from . import liouville as lv
from . import spinbath as sb
from .verify import run_verify

__all__ = ["main", "entry"]

CSV_COLUMNS = [
    "t",
    "ts_00_re", "ts_00_im", "ts_01_re", "ts_01_im",
    "ts_10_re", "ts_10_im", "ts_11_re", "ts_11_im",
    "sv1", "sv2", "coh_mag", "purity_eff", "a_indep_score",
]

_SZ_PROJECTORS = np.stack(
    [p.entries for p in ProjectorSet.from_observable(Operator(qubits(1), SIGMA_Z)).projectors])


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


def _rows(times, mats, family, purity_eff) -> list:
    """CSV rows of the two-states ``mats`` sampled at ``times``, each column in one batched pass.

    A row holds the two-state's entries, its Schmidt values and coherence,
    ``purity_eff`` (None leaves the column empty) and the a-independence
    score of the sigma_z effective density of its ``family`` of two-states.
    """
    n = len(mats)
    table = np.column_stack([
        times, mats.reshape(n, 4).view(np.float64), _singular_values(mats),
        hypot(mats[:, 0, 1].real, mats[:, 0, 1].imag),
        _scores(_effective_densities(family, _SZ_PROJECTORS)),
    ]).tolist()
    purities = [None] * n if purity_eff is None else purity_eff.tolist()
    return [row[:12] + [pur, row[12]] for row, pur in zip(table, purities)]


def _samples_spinbath_exact(cfg: ScenarioConfig) -> tuple:
    p = cfg.model
    times = np.linspace(0.0, p.t_final, cfg.samples)
    mats = np.array([sb.exact_reduced_two_state(p, t).mat for t in times])
    return times, mats, mats[:, None], None


def _samples_spinbath_env_post(cfg: ScenarioConfig) -> tuple:
    p = cfg.model
    times = np.linspace(0.0, p.t_final, cfg.samples)
    family = np.array([[ts.mat for ts in sb.env_postselected_two_states(p, t)] for t in times])
    purity_eff = _purities(np.array([sb.effective_density_xy(p, t).entries for t in times]))
    # the recorded two-state is the spin-up bath branch
    return times, family[:, 0], family, purity_eff


def _samples_integrated(cfg: ScenarioConfig) -> tuple:
    run = cfg.model
    traj = lv.integrate(run.rs0, run.spec, steps=run.steps)
    last = len(traj.times) - 1
    idx = [round(j * last / (cfg.samples - 1)) for j in range(cfg.samples)]
    mats = traj.mats[idx]
    return traj.times[idx], mats, mats[:, None], None


_SAMPLERS = {
    "spinbath_exact": _samples_spinbath_exact,
    "spinbath_env_post": _samples_spinbath_env_post,
    "perturbative_spin": _samples_integrated,
    "burst": _samples_integrated,
}


def _write_csv(path: str, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def _print_summary(rows: list, path: str):
    ratios = [r[10] / r[9] if r[9] > 0 else 0.0 for r in rows]
    interior = ratios[1:-1]
    best = max(range(len(interior)), key=interior.__getitem__) if interior else 0
    print(f"wrote {len(rows)} rows to {path}")
    print(f"boundary sv2/sv1: {ratios[0]:.3g} (t1), {ratios[-1]:.3g} (t2)")
    if interior:
        print(f"max interior sv2/sv1: {interior[best]:.3g} at t={rows[best + 1][0]:.6g}")
    print(f"max a-independence score: {max(r[13] for r in rows):.3g}")


def _verify(scenario: str, seed: int, trials: int) -> int:
    reports = run_verify(scenario, seed, trials)
    for rep in reports:
        print("\n".join(rep.lines()))
    failing = [r for r in reports if not r.ok]
    if failing:
        rep = failing[0]
        check = next(c for c in rep.checks if not c.ok)
        draw = json.dumps(rep.failure_draw, separators=(",", ":")) if rep.failure_draw else "{}"
        print(
            f"error: verify {rep.scenario} check {check.name} value {check.value:.6g} "
            f"outside [{check.low:g}, {check.high:g}]; draw={draw}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_run(config_path: str, out_override) -> int:
    cfg = load_config(config_path)
    if cfg.scenario == "verify":
        return _verify(cfg.model.scenario, cfg.seed, cfg.model.trials)
    out = out_override or cfg.output_path
    if not out:
        raise ConfigError("no output path: set 'output_path' in the config or pass --out")
    rows = _rows(*_SAMPLERS[cfg.scenario](cfg))
    _write_csv(out, rows)
    _print_summary(rows, out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _integer_at_least(minimum: int):
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return integer


def main(argv=None) -> int:
    parser = _Parser(
        prog="prepost",
        description="pre- and post-selected quantum dynamics: scenario trajectories and oracle verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured scenario and write its trajectory CSV")
    p_run.add_argument("--config", required=True, help="path to a JSON scenario config")
    p_run.add_argument("--out", help="output CSV path (overrides the config's output_path)")
    p_ver = sub.add_parser("verify", help="randomized cross-checks against independent oracles")
    p_ver.add_argument("--scenario", required=True, choices=VERIFY_SCENARIOS)
    p_ver.add_argument(
        "--seed", type=_integer_at_least(0), default=0, help="PCG64 seed for the parameter draws"
    )
    p_ver.add_argument("--trials", type=_integer_at_least(1), default=20)
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args.config, args.out)
        return _verify(args.scenario, args.seed, args.trials)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormalismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
