"""Randomized cross-checks of closed forms against independent oracles.

Every check draws scenarios from a seeded PCG64 generator, evaluates two
independent routes to the same quantity, and reports the worst deviation
against a fixed tolerance. A failing draw is serialized so it can be
reproduced directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .qcore import (
    SIGMA_Z,
    HilbertSpace,
    Ket,
    Operator,
    evolve,
    qubits,
    random_hermitian,
    random_ket,
    random_unitary,
    tensor,
)
from .twostate import (
    ProjectorSet,
    TwoState,
    from_conditions,
    prob_env_post_only,
    prob_pre_only,
    prob_pre_post,
)
from . import liouville as lv
from . import spinbath as sb

__all__ = ["CheckResult", "VerifyReport", "run_verify", "VERIFY_TOLERANCES"]

VERIFY_TOLERANCES = {
    "spinbath_exact": 1e-11,
    "probability": 1e-12,
    "parsel": 1e-10,
    "perturbative": (5.0, 12.0),
}

_QUBIT = qubits(1)


@dataclass
class CheckResult:
    """One named check: pass iff low <= value <= high."""

    name: str
    value: float
    low: float
    high: float

    @property
    def ok(self) -> bool:
        return self.low <= self.value <= self.high


@dataclass
class VerifyReport:
    scenario: str
    seed: int
    trials: int
    checks: list = field(default_factory=list)
    failure_draw: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list:
        out = [f"verify {self.scenario}: seed={self.seed} trials={self.trials}"]
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            if c.low == 0.0:
                out.append(
                    f"  {c.name}: max deviation {c.value:.3g} (tolerance {c.high:.3g}) {status}"
                )
            else:
                out.append(
                    f"  {c.name}: value {c.value:.3g} (allowed [{c.low:g}, {c.high:g}]) {status}"
                )
        out.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return out


def _c2l(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _carr(arr) -> list:
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return [_c2l(z) for z in arr]
    return [_carr(row) for row in arr]


def _spinbath_draw_json(p: sb.SpinBathParams, **extra) -> dict:
    out = {
        "n": p.n,
        "g": [float(x) for x in p.g],
        "system_pre": _carr([p.a, p.b]),
        "env_pre": [_carr([p.alpha[k], p.beta[k]]) for k in range(p.n)],
        "env_post": [_carr([p.alpha_post[k], p.beta_post[k]]) for k in range(p.n)],
        "t_final": p.t_final,
    }
    if p.has_system_post:
        out["system_post"] = _carr([p.a_post, p.b_post])
    out.update(extra)
    return out


def verify_spinbath_exact(seed: int, trials: int) -> VerifyReport:
    """Closed-form reduced two-state vs brute-force joint evolution.

    Each draw's deviation is judged relative to max(1, largest brute-force
    entry): reduced two-states with entries in the hundreds carry rounding
    errors in proportion, which an absolute window would flag.
    """
    rng = np.random.default_rng(seed)
    tol = VERIFY_TOLERANCES["spinbath_exact"]
    report = VerifyReport("spinbath_exact", seed, trials)
    worst = 0.0
    for i in range(trials):
        n = 1 + (i % 8)
        p = sb.random_params(rng, n)
        for t in np.linspace(0.0, p.t_final, 20):
            brute = sb.brute_force_reduced(p, t).mat
            dev = float(
                np.max(np.abs(sb.exact_reduced_two_state(p, t).mat - brute))
                / max(1.0, float(np.max(np.abs(brute))))
            )
            if dev > worst:
                worst = dev
                if dev > tol and report.failure_draw is None:
                    report.failure_draw = _spinbath_draw_json(p, trial=i, t=float(t))
    report.checks.append(CheckResult("exact-vs-brute-force", worst, 0.0, tol))
    return report


def verify_probability(seed: int, trials: int) -> VerifyReport:
    """Amplitude-squared rule vs its density form, plus the Born-rule limit."""
    rng = np.random.default_rng(seed)
    tol = VERIFY_TOLERANCES["probability"]
    report = VerifyReport("probability", seed, trials)
    worst_dual = worst_born = worst_sum = 0.0
    for i in range(trials):
        dim = int(rng.integers(2, 5))
        space = HilbertSpace((dim,))
        basis = random_unitary(dim, rng)
        ps = ProjectorSet.from_basis([Ket(space, basis[:, k]) for k in range(dim)])
        t = float(rng.uniform(0.0, 1.0))

        if i % 2 == 0:
            h = random_hermitian(space, rng)
            pin, pout = random_ket(space, rng), random_ket(space, rng)
            ts = from_conditions(pin, pout, h, 0.0, 1.0, t)
            born = {
                k: abs(np.vdot(basis[:, k], evolve(h, t, pin).amps)) ** 2 for k in range(dim)
            }
            pre_only = prob_pre_only(ts, ps)
            dev_born = max(abs(pre_only[k] - born[k]) for k in range(dim))
            if dev_born > worst_born:
                worst_born = dev_born
                if dev_born > tol and report.failure_draw is None:
                    report.failure_draw = {
                        "trial": i, "kind": "generic", "dim": dim, "t": t,
                        "h": _carr(h.entries), "psi_in": _carr(pin.amps),
                        "psi_out": _carr(pout.amps), "basis": _carr(basis),
                    }
        else:
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ts = TwoState(space, mat, 0.0, 1.0, t)

        probs = prob_pre_post(ts, ps)
        # independent route: per-outcome density matrices rho(a) = rho P_a rho†
        weights = {}
        for lab, proj in zip(ps.labels, ps.projectors):
            rho_a = ts.mat @ proj.entries @ ts.mat.conj().T
            weights[lab] = float(np.real(np.trace(proj.entries @ rho_a)))
        total = sum(weights.values())
        dev_dual = max(abs(probs[lab] - weights[lab] / total) for lab in probs)
        dev_sum = abs(sum(probs.values()) - 1.0)
        if dev_dual > worst_dual:
            worst_dual = dev_dual
            if dev_dual > tol and report.failure_draw is None:
                report.failure_draw = {"trial": i, "kind": "dual", "dim": dim, "t": t, "mat": _carr(ts.mat)}
        worst_sum = max(worst_sum, dev_sum)
    report.checks.append(CheckResult("two-probability-forms", worst_dual, 0.0, tol))
    report.checks.append(CheckResult("born-rule-generic", worst_born, 0.0, tol))
    report.checks.append(CheckResult("distribution-normalization", worst_sum, 0.0, tol))
    return report


def verify_parsel(seed: int, trials: int, n_bases: int = 20) -> VerifyReport:
    """Basis independence of the environment-only post-selection rule."""
    rng = np.random.default_rng(seed)
    tol = VERIFY_TOLERANCES["parsel"]
    report = VerifyReport("parsel", seed, trials)
    worst = 0.0
    for i in range(trials):
        n = 2 + (i % 4)
        p = sb.random_params(rng, n, system_post=False)
        s1, _ = sb.system_kets(p)
        e1, e2 = sb.env_kets(p)
        psi_in = tensor(s1, e1)
        h = sb.joint_hamiltonian(p)
        t = float(rng.uniform(0.0, p.t_final))
        u_meas = random_unitary(2, rng)
        ps = ProjectorSet.from_basis([Ket(_QUBIT, u_meas[:, k]) for k in range(2)])
        z_basis = [Ket(_QUBIT, np.array([1.0, 0.0])), Ket(_QUBIT, np.array([0.0, 1.0]))]
        base = prob_env_post_only(psi_in, h, e2, z_basis, ps, 0.0, p.t_final, t)
        for _ in range(n_bases):
            u = random_unitary(2, rng)
            rot = [Ket(_QUBIT, u[:, k]) for k in range(2)]
            probs = prob_env_post_only(psi_in, h, e2, rot, ps, 0.0, p.t_final, t)
            dev = max(abs(probs[lab] - base[lab]) for lab in base)
            if dev > worst:
                worst = dev
                if dev > tol and report.failure_draw is None:
                    report.failure_draw = _spinbath_draw_json(p, trial=i, t=t, rotated_basis=_carr(u))
    report.checks.append(CheckResult("basis-independence", worst, 0.0, tol))
    return report


def verify_perturbative(seed: int, trials: int) -> VerifyReport:
    """Coupling-halving ratio of the closed-form-vs-exact residual.

    The perturbative solution drops third-order terms, so the residual
    against the solvable bath should shrink by about 2^3 when the coupling
    halves; ratios are required to stay in the configured window.
    """
    rng = np.random.default_rng(seed)
    low, high = VERIFY_TOLERANCES["perturbative"]
    report = VerifyReport("perturbative", seed, trials)
    ratio_min, ratio_max = np.inf, -np.inf
    for i in range(trials):
        n = 5
        gamma = rng.uniform(0.3, 1.5, n)
        gamma /= gamma.sum()  # unit bath-operator scale keeps lam*T the true expansion parameter
        base = sb.random_params(rng, n, min_pair_overlap=0.3)
        lam = float(rng.uniform(0.02, 0.2))  # t_final = 1
        l_env = Operator(qubits(n), np.diag(sb.env_energies(gamma)).astype(complex))
        e1, e2 = sb.env_kets(base)  # the bath kets do not depend on the couplings

        def residual(lam_val):
            p = replace(base, g=lam_val * gamma)
            spec = lv.continuous_interaction(
                lam_val, [Operator(_QUBIT, SIGMA_Z)], [l_env], e1, e2, t_final=1.0
            )
            m = lv.weak_moments(spec)
            rs0 = sb.exact_reduced_two_state(p, 0.0)
            err = 0.0
            for t in np.linspace(0.0, 1.0, 41):
                exact = sb.exact_reduced_two_state(p, t).mat
                pert = lv.closed_form_spin(rs0, m.l_w[0], m.delta[0, 0], lam_val, 1.0, t).mat
                err = max(err, float(np.max(np.abs(exact - pert))))
            return err

        ratio = residual(lam) / residual(lam / 2.0)
        ratio_min = min(ratio_min, ratio)
        ratio_max = max(ratio_max, ratio)
        if not (low <= ratio <= high) and report.failure_draw is None:
            report.failure_draw = _spinbath_draw_json(
                base, trial=i, lam=lam, gamma=[float(x) for x in gamma], ratio=float(ratio)
            )
    report.checks.append(CheckResult("order-ratio-min", float(ratio_min), low, np.inf))
    report.checks.append(CheckResult("order-ratio-max", float(ratio_max), -np.inf, high))
    return report


_RUNNERS = {
    "spinbath_exact": verify_spinbath_exact,
    "probability": verify_probability,
    "parsel": verify_parsel,
    "perturbative": verify_perturbative,
}


def run_verify(scenario: str, seed: int, trials: int) -> list:
    """Run one named verification scenario (or all of them); list of reports."""
    if scenario == "all":
        return [fn(seed, trials) for fn in _RUNNERS.values()]
    if scenario not in _RUNNERS:
        raise ValueError(f"unknown verify scenario {scenario!r}; choose from {sorted(_RUNNERS)} or 'all'")
    return [_RUNNERS[scenario](seed, trials)]
