"""Command line runner: scenario trajectories to CSV, randomized verification.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 formalism
error. Every error path emits one machine-parsable line prefixed ``error:``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .config import VERIFY_SCENARIOS, ConfigError, ScenarioConfig, load_config, parse_config
from .detmath import cabs, cmul
from .qcore import SIGMA_Z, HilbertSpace, Ket, Operator, qubits
from .twostate import (
    FormalismError,
    ProjectorSet,
    TwoState,
    effective_density,
    purity,
    singular_values,
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

_QUBIT = qubits(1)
_SZ_SET = ProjectorSet.from_observable(Operator(_QUBIT, SIGMA_Z))


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


def _row(t: float, mat: np.ndarray, purity_eff, a_indep) -> list:
    sv = singular_values(mat)
    return [
        float(t),
        mat[0, 0].real, mat[0, 0].imag, mat[0, 1].real, mat[0, 1].imag,
        mat[1, 0].real, mat[1, 0].imag, mat[1, 1].real, mat[1, 1].imag,
        float(sv[0]), float(sv[1]), cabs(mat[0, 1]),
        purity_eff, a_indep,
    ]


def _score(states) -> float:
    return effective_density(list(states), _SZ_SET).a_independence_score()


def _rows_spinbath_exact(cfg: ScenarioConfig) -> list:
    p = cfg.spinbath
    rows = []
    for t in np.linspace(cfg.t1, cfg.t2, cfg.samples):
        ts = sb.exact_reduced_two_state(p, t)
        rows.append(_row(t, ts.mat, None, _score([ts])))
    return rows


def _rows_spinbath_env_post(cfg: ScenarioConfig) -> list:
    p = cfg.spinbath
    rows = []
    for t in np.linspace(cfg.t1, cfg.t2, cfg.samples):
        pair = sb.env_postselected_two_states(p, t)
        pur = purity(sb.effective_density_xy(p, t))
        # the recorded two-state is the spin-up bath branch
        rows.append(_row(t, pair[0].mat, pur, _score(pair)))
    return rows


def _initial_two_state(sys_pre: np.ndarray, sys_post: np.ndarray, t_final: float) -> TwoState:
    mat = np.array([[cmul(u, complex(v).conjugate()) for v in sys_post] for u in sys_pre])
    return TwoState(
        _QUBIT, mat, 0.0, t_final, 0.0,
        boundary_overlap=complex(np.vdot(sys_post, sys_pre)),
    )


def _sampled_indices(n_grid_steps: int, samples: int) -> list:
    return [round(j * n_grid_steps / (samples - 1)) for j in range(samples)]


def _rows_from_trajectory(traj: lv.Trajectory, samples: int) -> list:
    rows = []
    for i in _sampled_indices(len(traj.times) - 1, samples):
        st = traj.state(i)
        rows.append(_row(traj.times[i], st.mat, None, _score([st])))
    return rows


def _rows_perturbative(cfg: ScenarioConfig) -> list:
    s = cfg.perturbative
    dim = s.l_op.shape[0]
    env_space = HilbertSpace((dim,))
    h_e = None if s.h_e is None else Operator(env_space, s.h_e)
    try:
        spec = lv.continuous_interaction(
            s.lam,
            [Operator(_QUBIT, SIGMA_Z)],
            [Operator(env_space, s.l_op)],
            Ket(env_space, s.e1),
            Ket(env_space, s.e2),
            h_e=h_e,
            t_final=cfg.t2,
        )
    except ValueError as exc:
        raise ConfigError(f"config field 'perturbative': {exc}") from exc
    # snap the grid so the sampled times land exactly on grid points
    steps = math.ceil(s.steps / (cfg.samples - 1)) * (cfg.samples - 1)
    traj = lv.integrate(_initial_two_state(s.sys_pre, s.sys_post, cfg.t2), spec, steps=steps)
    return _rows_from_trajectory(traj, cfg.samples)


def _rows_burst(cfg: ScenarioConfig) -> list:
    b = cfg.burst
    e1 = lv.product_env_ket([p[1] for p in b.particles])
    e2 = lv.product_env_ket([p[2] for p in b.particles])
    try:
        spec = lv.burst_interaction(b.lam, b.tau, [p[0] for p in b.particles], e1, e2)
    except ValueError as exc:
        raise ConfigError(f"config field 'burst': {exc}") from exc
    n = len(b.particles)
    traj = lv.integrate(
        _initial_two_state(b.sys_pre, b.sys_post, spec.t_final), spec, steps=b.steps_per_burst * n
    )
    return _rows_from_trajectory(traj, cfg.samples)


_ROW_BUILDERS = {
    "spinbath_exact": _rows_spinbath_exact,
    "spinbath_env_post": _rows_spinbath_env_post,
    "perturbative_spin": _rows_perturbative,
    "burst": _rows_burst,
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
    scores = [r[13] for r in rows if r[13] is not None]
    print(f"wrote {len(rows)} rows to {path}")
    print(f"boundary sv2/sv1: {ratios[0]:.3g} (t1), {ratios[-1]:.3g} (t2)")
    if interior:
        print(f"max interior sv2/sv1: {interior[best]:.3g} at t={rows[best + 1][0]:.6g}")
    if scores:
        print(f"max a-independence score: {max(scores):.3g}")


def _finish_verify(reports) -> int:
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


def _cmd_verify(cfg: ScenarioConfig) -> int:
    return _finish_verify(run_verify(cfg.verify.scenario, cfg.seed, cfg.verify.trials))


def _cmd_run(config_path: str, out_override) -> int:
    cfg = load_config(config_path)
    if cfg.scenario == "verify":
        return _cmd_verify(cfg)
    out = out_override or cfg.output_path
    if not out:
        raise ConfigError("no output path: set 'output_path' in the config or pass --out")
    rows = _ROW_BUILDERS[cfg.scenario](cfg)
    _write_csv(out, rows)
    _print_summary(rows, out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prepost",
        description="pre- and post-selected quantum dynamics: scenario trajectories and oracle verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured scenario and write its trajectory CSV")
    p_run.add_argument("--config", required=True, help="path to a JSON scenario config")
    p_run.add_argument("--out", help="output CSV path (overrides the config's output_path)")
    p_ver = sub.add_parser("verify", help="randomized cross-checks against independent oracles")
    p_ver.add_argument("--scenario", required=True, choices=VERIFY_SCENARIOS)
    p_ver.add_argument("--seed", type=int, default=0, help="PCG64 seed for the parameter draws")
    p_ver.add_argument("--trials", type=int, default=20)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config, args.out)
        # the flags take the same validation as a verify config
        block = {"scenario": args.scenario, "trials": args.trials}
        return _cmd_verify(parse_config({"scenario": "verify", "seed": args.seed, "verify": block}))
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
