"""Scenario configuration: JSON schema with complex numbers as [re, im] pairs.

The parser returns the objects that run a scenario, built and validated
here once: :class:`~prepost.spinbath.SpinBathParams` for the spin-bath
scenarios, a :class:`LiouvilleRun` (spec, initial two-state, step count)
for the integrated ones, :class:`VerifySettings` for ``verify``.
Validation is strict: unknown keys are rejected and every error, including
a library constructor's, names the offending field or block, so a config
failure is always actionable from the message alone.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import liouville as lv
from .detmath import cmul
from .qcore import HERMITIAN_TOL, SIGMA_Z, HilbertSpace, Ket, Operator, qubits
from .spinbath import NORM_TOL, SpinBathParams
from .twostate import TwoState

__all__ = ["ConfigError", "LiouvilleRun", "ScenarioConfig", "load_config", "parse_config"]

SCENARIOS = ("spinbath_exact", "spinbath_env_post", "perturbative_spin", "burst", "verify")
VERIFY_SCENARIOS = ("spinbath_exact", "probability", "parsel", "perturbative", "all")

_QUBIT = qubits(1)


class ConfigError(Exception):
    """Invalid or malformed scenario configuration."""


def _check_keys(d, path, required, optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"config field '{path}' must be an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"config field '{path}' has unknown keys: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"config field '{path}' is missing keys: {sorted(missing)}")


def _finite(x) -> bool:
    """A JSON number, excluding the NaN and Infinity that Python's json accepts."""
    return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)


def _number(x, path) -> float:
    if not _finite(x):
        raise ConfigError(f"config field '{path}' must be a finite number")
    return float(x)


def _integer(x, path, minimum=None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"config field '{path}' must be an integer")
    if minimum is not None and x < minimum:
        raise ConfigError(f"config field '{path}' must be >= {minimum}")
    return x


def _string(x, path) -> str:
    if not isinstance(x, str):
        raise ConfigError(f"config field '{path}' must be a string")
    return x


def _complex(x, path) -> complex:
    if not isinstance(x, (list, tuple)) or len(x) != 2 or not all(_finite(v) for v in x):
        raise ConfigError(f"config field '{path}' must be a [re, im] pair of finite numbers")
    return complex(x[0], x[1])


def _cvector(x, path, length) -> np.ndarray:
    if not isinstance(x, list) or len(x) != length:
        raise ConfigError(f"config field '{path}' must be a list of length {length} of [re, im] pairs")
    return np.array([_complex(v, f"{path}[{i}]") for i, v in enumerate(x)])


def _cmatrix(x, path, dim=None) -> np.ndarray:
    if not isinstance(x, list) or not x:
        raise ConfigError(f"config field '{path}' must be a nonempty list of rows")
    n = len(x) if dim is None else dim
    if len(x) != n:
        raise ConfigError(f"config field '{path}' must have {n} rows")
    rows = [_cvector(row, f"{path}[{i}]", n) for i, row in enumerate(x)]
    return np.array(rows)


def _unit_cvector(x, path, length) -> np.ndarray:
    vec = _cvector(x, path, length)
    if abs(float(np.sum(np.abs(vec) ** 2)) - 1.0) > NORM_TOL:
        raise ConfigError(f"config field '{path}' is not normalized within 1e-12")
    return vec


def _hermitian(mat: np.ndarray, path):
    if float(np.max(np.abs(mat - mat.conj().T))) > HERMITIAN_TOL:
        raise ConfigError(f"config field '{path}' must be Hermitian within {HERMITIAN_TOL:g}")


@dataclass(eq=False)
class LiouvilleRun:
    """An integrated scenario ready to run: ``integrate(rs0, spec, steps)``."""

    spec: Union[lv.ContinuousSpec, lv.BurstSpec]
    rs0: TwoState
    steps: int


@dataclass(eq=False)
class VerifySettings:
    scenario: str
    trials: int


@dataclass(eq=False)
class ScenarioConfig:
    """A parsed scenario: ``model`` is the object that runs it.

    :class:`SpinBathParams` for the spin-bath scenarios, :class:`LiouvilleRun`
    for ``perturbative_spin`` and ``burst``, :class:`VerifySettings` for
    ``verify``. Every trajectory starts at t = 0 and ends at the model's
    ``t_final``.
    """

    scenario: str
    seed: int
    samples: int
    output_path: Optional[str]
    model: Union[SpinBathParams, LiouvilleRun, VerifySettings]


@contextmanager
def _named(block: str):
    """Report a library constructor's ValueError as a ConfigError naming ``block``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config field '{block}': {exc}") from exc


def _parse_time(d) -> tuple[float, int]:
    """(t2, samples); every scenario starts at t1 = 0."""
    _check_keys(d, "time", required=("t1", "t2", "samples"))
    t1 = _number(d["t1"], "time.t1")
    t2 = _number(d["t2"], "time.t2")
    samples = _integer(d["samples"], "time.samples", minimum=2)
    if abs(t1) > 1e-12:
        raise ConfigError("config field 'time.t1' must be 0")
    if t2 <= t1:
        raise ConfigError("config field 'time.t2' must exceed 'time.t1'")
    return t2, samples


def _initial_two_state(d, block: str, t_final: float) -> TwoState:
    """|system_pre><system_post| at t = 0, from the block's system conditions."""
    pre = _unit_cvector(d["system_pre"], f"{block}.system_pre", 2)
    post = _unit_cvector(d["system_post"], f"{block}.system_post", 2)
    mat = np.array([[cmul(u, complex(v).conjugate()) for v in post] for u in pre])
    return TwoState(_QUBIT, mat, 0.0, t_final, 0.0)


def _parse_spinbath(d, scenario, t2) -> SpinBathParams:
    # only spinbath_exact post-selects the system; elsewhere system_post is an unknown key
    want_post = scenario == "spinbath_exact"
    required = ["n", "g", "system_pre", "env_pre", "env_post"] + (["system_post"] if want_post else [])
    _check_keys(d, "spinbath", required=required)
    n = _integer(d["n"], "spinbath.n", minimum=1)
    if not isinstance(d["g"], list) or len(d["g"]) != n:
        raise ConfigError(f"config field 'spinbath.g' must be a list of {n} numbers")
    g = np.array([_number(v, f"spinbath.g[{i}]") for i, v in enumerate(d["g"])])

    sys_pre = _unit_cvector(d["system_pre"], "spinbath.system_pre", 2)
    sys_post = _unit_cvector(d["system_post"], "spinbath.system_post", 2) if want_post else None

    def env_block(key):
        block = d[key]
        if not isinstance(block, list) or len(block) != n:
            raise ConfigError(f"config field 'spinbath.{key}' must list {n} amplitude pairs")
        return np.array(
            [_unit_cvector(entry, f"spinbath.{key}[{k}]", 2) for k, entry in enumerate(block)]
        )

    env_pre = env_block("env_pre")
    env_post = env_block("env_post")
    with _named("spinbath"):
        return SpinBathParams(
            n=n,
            g=g,
            a=sys_pre[0],
            b=sys_pre[1],
            alpha=env_pre[:, 0],
            beta=env_pre[:, 1],
            alpha_post=env_post[:, 0],
            beta_post=env_post[:, 1],
            t_final=t2,
            a_post=None if sys_post is None else sys_post[0],
            b_post=None if sys_post is None else sys_post[1],
        )


def _parse_perturbative(d, t2, samples) -> LiouvilleRun:
    _check_keys(
        d,
        "perturbative",
        required=("lambda", "system_pre", "system_post", "env"),
        optional=("steps",),
    )
    lam = _number(d["lambda"], "perturbative.lambda")
    steps = _integer(d.get("steps", 2000), "perturbative.steps", minimum=lv.MIN_STEPS)
    env = d["env"]
    _check_keys(env, "perturbative.env", required=("l_op", "e1", "e2"), optional=("h_e",))
    l_op = _cmatrix(env["l_op"], "perturbative.env.l_op")
    _hermitian(l_op, "perturbative.env.l_op")
    dim = l_op.shape[0]
    e1 = _unit_cvector(env["e1"], "perturbative.env.e1", dim)
    e2 = _unit_cvector(env["e2"], "perturbative.env.e2", dim)
    h_e = None
    if "h_e" in env:
        h_e = _cmatrix(env["h_e"], "perturbative.env.h_e", dim=dim)
    space = HilbertSpace((dim,))
    with _named("perturbative"):
        spec = lv.continuous_interaction(
            lam,
            [Operator(_QUBIT, SIGMA_Z)],
            [Operator(space, l_op)],
            Ket(space, e1),
            Ket(space, e2),
            h_e=None if h_e is None else Operator(space, h_e),
            t_final=t2,
        )
    # snap the grid so the sampled times land exactly on grid points
    steps = math.ceil(steps / (samples - 1)) * (samples - 1)
    return LiouvilleRun(spec, _initial_two_state(d, "perturbative", t2), steps)


def _parse_burst(d, t2) -> LiouvilleRun:
    _check_keys(
        d,
        "burst",
        required=("lambda", "tau", "system_pre", "system_post", "particles"),
        optional=("steps_per_burst",),
    )
    lam = _number(d["lambda"], "burst.lambda")
    tau = _number(d["tau"], "burst.tau")
    steps_per_burst = _integer(d.get("steps_per_burst", 100), "burst.steps_per_burst", minimum=1)
    if not isinstance(d["particles"], list) or not d["particles"]:
        raise ConfigError("config field 'burst.particles' must be a nonempty list")
    ops, e1s, e2s = [], [], []
    for k, entry in enumerate(d["particles"]):
        path = f"burst.particles[{k}]"
        _check_keys(entry, path, required=("e1", "e2"), optional=("l_op",))
        if "l_op" in entry:
            l_op = _cmatrix(entry["l_op"], f"{path}.l_op")
            _hermitian(l_op, f"{path}.l_op")
        else:
            l_op = SIGMA_Z.copy()
        dim = l_op.shape[0]
        ops.append(l_op)
        e1s.append(_unit_cvector(entry["e1"], f"{path}.e1", dim))
        e2s.append(_unit_cvector(entry["e2"], f"{path}.e2", dim))
    with _named("burst"):
        spec = lv.burst_interaction(lam, tau, ops, lv.product_env_ket(e1s), lv.product_env_ket(e2s))
    if abs(t2 - spec.t_final) > 1e-9 * max(1.0, spec.t_final):
        raise ConfigError(
            f"config field 'time.t2' must equal n_particles*tau = {spec.t_final!r} for the burst scenario"
        )
    steps = steps_per_burst * len(ops)
    if steps < lv.MIN_STEPS:
        raise ConfigError(
            f"config field 'burst.steps_per_burst' gives {steps} integration steps over "
            f"{len(ops)} particles; need at least {lv.MIN_STEPS}"
        )
    return LiouvilleRun(spec, _initial_two_state(d, "burst", spec.t_final), steps)


def _parse_verify(d) -> VerifySettings:
    _check_keys(d, "verify", required=("scenario", "trials"))
    scen = _string(d["scenario"], "verify.scenario")
    if scen not in VERIFY_SCENARIOS:
        raise ConfigError(
            f"config field 'verify.scenario' must be one of {list(VERIFY_SCENARIOS)}"
        )
    trials = _integer(d["trials"], "verify.trials", minimum=1)
    return VerifySettings(scenario=scen, trials=trials)


def parse_config(data) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    scenario = _string(data.get("scenario", ""), "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"config field 'scenario' must be one of {list(SCENARIOS)}")

    block_key = {
        "spinbath_exact": "spinbath",
        "spinbath_env_post": "spinbath",
        "perturbative_spin": "perturbative",
        "burst": "burst",
        "verify": "verify",
    }[scenario]
    required = ["scenario", block_key] + ([] if scenario == "verify" else ["time"])
    optional = ["seed", "output_path"] + (["time"] if scenario == "verify" else [])
    _check_keys(data, "<root>", required=required, optional=optional)

    seed = _integer(data.get("seed", 0), "seed", minimum=0)
    output_path = None
    if "output_path" in data:
        output_path = _string(data["output_path"], "output_path")

    t2, samples = _parse_time(data["time"]) if "time" in data else (1.0, 2)
    block = data[block_key]
    if block_key == "verify":
        model = _parse_verify(block)
    elif block_key == "spinbath":
        model = _parse_spinbath(block, scenario, t2)
    elif block_key == "perturbative":
        model = _parse_perturbative(block, t2, samples)
    else:
        model = _parse_burst(block, t2)
    return ScenarioConfig(
        scenario=scenario, seed=seed, samples=samples, output_path=output_path, model=model
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
