"""Scenario configuration: JSON schema with complex numbers as [re, im] pairs.

Validation is strict: unknown keys are rejected and every error names the
offending field, so a config failure is always actionable from the message
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qcore import SIGMA_Z
from .spinbath import NORM_TOL, SpinBathParams

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "parse_config"]

SCENARIOS = ("spinbath_exact", "spinbath_env_post", "perturbative_spin", "burst", "verify")
VERIFY_SCENARIOS = ("spinbath_exact", "probability", "parsel", "perturbative", "all")


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


def _number(x, path) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"config field '{path}' must be a number")
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
    if (
        not isinstance(x, (list, tuple))
        or len(x) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in x)
    ):
        raise ConfigError(f"config field '{path}' must be a [re, im] pair")
    return complex(x[0], x[1])


def _cvector(x, path, length=None) -> np.ndarray:
    if not isinstance(x, list) or (length is not None and len(x) != length):
        want = f" of length {length}" if length is not None else ""
        raise ConfigError(f"config field '{path}' must be a list{want} of [re, im] pairs")
    return np.array([_complex(v, f"{path}[{i}]") for i, v in enumerate(x)])


def _cmatrix(x, path, dim=None) -> np.ndarray:
    if not isinstance(x, list) or not x:
        raise ConfigError(f"config field '{path}' must be a nonempty list of rows")
    n = len(x) if dim is None else dim
    if len(x) != n:
        raise ConfigError(f"config field '{path}' must have {n} rows")
    rows = [_cvector(row, f"{path}[{i}]", length=n) for i, row in enumerate(x)]
    return np.array(rows)


def _normalized(vec: np.ndarray, path):
    if abs(float(np.sum(np.abs(vec) ** 2)) - 1.0) > NORM_TOL:
        raise ConfigError(f"config field '{path}' is not normalized within 1e-12")


def _hermitian(mat: np.ndarray, path):
    if float(np.max(np.abs(mat - mat.conj().T))) > 1e-10:
        raise ConfigError(f"config field '{path}' must be Hermitian within 1e-10")


@dataclass(eq=False)
class PerturbativeSettings:
    lam: float
    steps: int
    sys_pre: np.ndarray
    sys_post: np.ndarray
    l_op: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    h_e: Optional[np.ndarray]


@dataclass(eq=False)
class BurstSettings:
    lam: float
    tau: float
    steps_per_burst: int
    sys_pre: np.ndarray
    sys_post: np.ndarray
    particles: list  # (l_op, e1, e2) triples


@dataclass(eq=False)
class VerifySettings:
    scenario: str
    trials: int


@dataclass(eq=False)
class ScenarioConfig:
    scenario: str
    seed: int
    t1: float
    t2: float
    samples: int
    output_path: Optional[str]
    spinbath: Optional[SpinBathParams] = None
    perturbative: Optional[PerturbativeSettings] = None
    burst: Optional[BurstSettings] = None
    verify: Optional[VerifySettings] = None


def _parse_time(d) -> tuple[float, float, int]:
    _check_keys(d, "time", required=("t1", "t2", "samples"))
    t1 = _number(d["t1"], "time.t1")
    t2 = _number(d["t2"], "time.t2")
    samples = _integer(d["samples"], "time.samples", minimum=2)
    if t2 <= t1:
        raise ConfigError("config field 'time.t2' must exceed 'time.t1'")
    return t1, t2, samples


def _parse_spinbath(d, scenario, t1, t2) -> SpinBathParams:
    want_post = scenario == "spinbath_exact"
    required = ["n", "g", "system_pre", "env_pre", "env_post"]
    optional = []
    (required if want_post else optional).append("system_post")
    _check_keys(d, "spinbath", required=required, optional=optional)
    if not want_post and "system_post" in d:
        raise ConfigError(
            "config field 'spinbath.system_post' is not allowed for spinbath_env_post"
        )
    n = _integer(d["n"], "spinbath.n", minimum=1)
    if not isinstance(d["g"], list) or len(d["g"]) != n:
        raise ConfigError(f"config field 'spinbath.g' must be a list of {n} numbers")
    g = np.array([_number(v, f"spinbath.g[{i}]") for i, v in enumerate(d["g"])])
    if abs(t1) > 1e-12:
        raise ConfigError("config field 'time.t1' must be 0 for spin-bath scenarios")

    sys_pre = _cvector(d["system_pre"], "spinbath.system_pre", length=2)
    _normalized(sys_pre, "spinbath.system_pre")
    sys_post = None
    if want_post:
        sys_post = _cvector(d["system_post"], "spinbath.system_post", length=2)
        _normalized(sys_post, "spinbath.system_post")

    def env_block(key):
        block = d[key]
        if not isinstance(block, list) or len(block) != n:
            raise ConfigError(f"config field 'spinbath.{key}' must list {n} amplitude pairs")
        pairs = []
        for k, entry in enumerate(block):
            pair = _cvector(entry, f"spinbath.{key}[{k}]", length=2)
            _normalized(pair, f"spinbath.{key}[{k}]")
            pairs.append(pair)
        return np.array(pairs)

    env_pre = env_block("env_pre")
    env_post = env_block("env_post")
    try:
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
    except ValueError as exc:
        raise ConfigError(f"config field 'spinbath': {exc}") from exc


def _parse_perturbative(d) -> PerturbativeSettings:
    _check_keys(
        d,
        "perturbative",
        required=("lambda", "system_pre", "system_post", "env"),
        optional=("steps",),
    )
    lam = _number(d["lambda"], "perturbative.lambda")
    steps = _integer(d.get("steps", 2000), "perturbative.steps", minimum=10)
    sys_pre = _cvector(d["system_pre"], "perturbative.system_pre", length=2)
    sys_post = _cvector(d["system_post"], "perturbative.system_post", length=2)
    _normalized(sys_pre, "perturbative.system_pre")
    _normalized(sys_post, "perturbative.system_post")
    env = d["env"]
    _check_keys(env, "perturbative.env", required=("l_op", "e1", "e2"), optional=("h_e",))
    l_op = _cmatrix(env["l_op"], "perturbative.env.l_op")
    _hermitian(l_op, "perturbative.env.l_op")
    dim = l_op.shape[0]
    e1 = _cvector(env["e1"], "perturbative.env.e1", length=dim)
    e2 = _cvector(env["e2"], "perturbative.env.e2", length=dim)
    _normalized(e1, "perturbative.env.e1")
    _normalized(e2, "perturbative.env.e2")
    h_e = None
    if "h_e" in env:
        h_e = _cmatrix(env["h_e"], "perturbative.env.h_e", dim=dim)
        _hermitian(h_e, "perturbative.env.h_e")
    return PerturbativeSettings(
        lam=lam, steps=steps, sys_pre=sys_pre, sys_post=sys_post,
        l_op=l_op, e1=e1, e2=e2, h_e=h_e,
    )


def _parse_burst(d, t1, t2) -> BurstSettings:
    _check_keys(
        d,
        "burst",
        required=("lambda", "tau", "system_pre", "system_post", "particles"),
        optional=("steps_per_burst",),
    )
    lam = _number(d["lambda"], "burst.lambda")
    tau = _number(d["tau"], "burst.tau")
    if tau <= 0:
        raise ConfigError("config field 'burst.tau' must be positive")
    steps_per_burst = _integer(d.get("steps_per_burst", 100), "burst.steps_per_burst", minimum=1)
    sys_pre = _cvector(d["system_pre"], "burst.system_pre", length=2)
    sys_post = _cvector(d["system_post"], "burst.system_post", length=2)
    _normalized(sys_pre, "burst.system_pre")
    _normalized(sys_post, "burst.system_post")
    if not isinstance(d["particles"], list) or not d["particles"]:
        raise ConfigError("config field 'burst.particles' must be a nonempty list")
    particles = []
    for k, entry in enumerate(d["particles"]):
        path = f"burst.particles[{k}]"
        _check_keys(entry, path, required=("e1", "e2"), optional=("l_op",))
        if "l_op" in entry:
            l_op = _cmatrix(entry["l_op"], f"{path}.l_op")
            _hermitian(l_op, f"{path}.l_op")
        else:
            l_op = SIGMA_Z.copy()
        dim = l_op.shape[0]
        e1 = _cvector(entry["e1"], f"{path}.e1", length=dim)
        e2 = _cvector(entry["e2"], f"{path}.e2", length=dim)
        _normalized(e1, f"{path}.e1")
        _normalized(e2, f"{path}.e2")
        particles.append((l_op, e1, e2))
    if abs(t1) > 1e-12:
        raise ConfigError("config field 'time.t1' must be 0 for the burst scenario")
    expected_t2 = len(particles) * tau
    if abs(t2 - expected_t2) > 1e-9 * max(1.0, expected_t2):
        raise ConfigError(
            f"config field 'time.t2' must equal n_particles*tau = {expected_t2!r} for the burst scenario"
        )
    return BurstSettings(
        lam=lam, tau=tau, steps_per_burst=steps_per_burst,
        sys_pre=sys_pre, sys_post=sys_post, particles=particles,
    )


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

    if scenario == "verify":
        t1, t2, samples = 0.0, 1.0, 2
        if "time" in data:
            t1, t2, samples = _parse_time(data["time"])
        return ScenarioConfig(
            scenario=scenario, seed=seed, t1=t1, t2=t2, samples=samples,
            output_path=output_path, verify=_parse_verify(data["verify"]),
        )

    t1, t2, samples = _parse_time(data["time"])
    cfg = ScenarioConfig(
        scenario=scenario, seed=seed, t1=t1, t2=t2, samples=samples, output_path=output_path
    )
    if block_key == "spinbath":
        cfg.spinbath = _parse_spinbath(data["spinbath"], scenario, t1, t2)
    elif block_key == "perturbative":
        if abs(t1) > 1e-12:
            raise ConfigError("config field 'time.t1' must be 0 for perturbative_spin")
        cfg.perturbative = _parse_perturbative(data["perturbative"])
    else:
        cfg.burst = _parse_burst(data["burst"], t1, t2)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
