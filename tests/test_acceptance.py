"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from prepost.cli import CSV_COLUMNS, main
from prepost.qcore import SIGMA_Z, Ket, Operator, qubits, random_unitary
from prepost.twostate import (
    ProjectorSet,
    effective_density,
    purity,
    schmidt_spectrum,
    weak_evolution_operator,
)
from prepost import liouville as lv
from prepost import spinbath as sb
from prepost.verify import (
    verify_parsel,
    verify_perturbative,
    verify_probability,
    verify_spinbath_exact,
)

REPO = Path(__file__).resolve().parents[1]
QUBIT = qubits(1)
SEED = 20260810


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_model_oracle_equivalence():
    start = time.perf_counter()
    report = verify_spinbath_exact(seed=SEED, trials=100)
    elapsed = time.perf_counter() - start
    dev = report.checks[0].value
    ok = report.ok and elapsed < 30.0
    _report(
        1,
        ok,
        "100 draws, max |exact - brute force| / max(1, max |brute force|) = "
        f"{dev:.3g} (tol 1e-11), {elapsed:.1f}s",
    )


def test_criterion_02_recoherence_invariant():
    rng = np.random.default_rng(SEED)
    entangled_hits = 0
    boundary_worst = 0.0
    trials = 100
    for i in range(trials):
        n = 1 + (i % 8)
        p = sb.random_params(rng, n)
        times = np.linspace(0.0, p.t_final, 20)
        ratios = []
        for t in times:
            sv = schmidt_spectrum(sb.exact_reduced_two_state(p, t))
            ratios.append(sv[1] / sv[0])
        boundary_worst = max(boundary_worst, ratios[0], ratios[-1])
        if max(ratios[1:-1]) > 1e-3:
            entangled_hits += 1
    rate = entangled_hits / trials
    ok = boundary_worst < 1e-9 and rate >= 0.90
    _report(
        2,
        ok,
        f"boundary sv2/sv1 worst {boundary_worst:.3g} (tol 1e-9); "
        f"interior entanglement rate {rate:.0%} (need >= 90%)",
    )


def test_criterion_03_probability_rule_consistency():
    report = verify_probability(seed=SEED, trials=200)
    devs = {c.name: c.value for c in report.checks}
    _report(
        3,
        report.ok,
        "200 draws, max gaps: "
        f"dual-form {devs['two-probability-forms']:.3g}, "
        f"born {devs['born-rule-generic']:.3g}, "
        f"sum {devs['distribution-normalization']:.3g} (tol 1e-12)",
    )


def test_criterion_04_basis_independence():
    report = verify_parsel(seed=SEED, trials=5, n_bases=20)
    _report(
        4,
        report.ok,
        f"5 draws x 20 rotated bases, max deviation {report.checks[0].value:.3g} (tol 1e-10)",
    )


def test_criterion_05_boundary_effective_purity():
    rng = np.random.default_rng(SEED + 1)
    worst_score = worst_purity = worst_xy = 0.0
    for i in range(10):
        p = sb.random_params(rng, 2 + (i % 5), system_post=False)
        pair = sb.env_postselected_two_states(p, p.t_final)
        u = random_unitary(2, rng)
        ps = ProjectorSet.from_basis([Ket(QUBIT, u[:, k]) for k in range(2)])
        eff = effective_density(list(pair), ps)
        worst_score = max(worst_score, eff.a_independence_score())
        for lab in eff.labels():
            worst_purity = max(worst_purity, abs(purity(eff.matrix(lab)) - 1.0))
        for t in (0.0, p.t_final):
            worst_xy = max(worst_xy, abs(purity(sb.effective_density_xy(p, t)) - 1.0))
    ok = worst_score < 1e-10 and worst_purity < 1e-10 and worst_xy < 1e-10
    _report(
        5,
        ok,
        f"final-time a-independence {worst_score:.3g}, |purity-1| {worst_purity:.3g}, "
        f"xy-density boundary |purity-1| {worst_xy:.3g} (tol 1e-10)",
    )


def test_criterion_06_decoherence_suppression():
    rng = np.random.default_rng(SEED + 2)
    worst_unitarity = worst_score = 0.0
    for i in range(5):
        n = 2 + i
        p = sb.suppression_scenario(n, rng.uniform(0.2, 1.8, n), 1.0)
        e1, e2 = sb.env_kets(p)
        h_e = Operator(e1.space, np.zeros((e1.space.total_dim,) * 2))
        w = weak_evolution_operator(sb.joint_hamiltonian(p), h_e, e1, e2, 0.0, p.t_final)
        gram = w.entries @ w.entries.conj().T
        scale = gram[0, 0].real
        worst_unitarity = max(worst_unitarity, float(np.max(np.abs(gram - scale * np.eye(2)))))
        pair = sb.env_postselected_two_states(p, 0.0)
        for k in range(5):
            u = random_unitary(2, rng)
            ps = ProjectorSet.from_basis([Ket(QUBIT, u[:, j]) for j in range(2)])
            worst_score = max(worst_score, effective_density(list(pair), ps).a_independence_score())
    ok = worst_unitarity < 1e-10 and worst_score < 1e-10
    _report(
        6,
        ok,
        f"|WW† - scale*I| worst {worst_unitarity:.3g}, initial-time a-independence "
        f"over random observables {worst_score:.3g} (tol 1e-10)",
    )


def test_criterion_07_perturbative_order():
    start = time.perf_counter()
    report = verify_perturbative(seed=SEED, trials=20)
    elapsed = time.perf_counter() - start
    lo = report.checks[0].value
    hi = report.checks[1].value
    ok = report.ok and elapsed < 10.0
    _report(
        7,
        ok,
        f"20 trials, residual halving ratios in [{lo:.2f}, {hi:.2f}] (need [5, 12]), {elapsed:.1f}s",
    )


def test_criterion_08_integrator_fidelity():
    env = qubits(1)
    e1 = Ket(env, np.array([np.cos(0.3), np.sin(0.3)], dtype=complex))
    e2 = Ket(env, np.array([np.cos(1.1), np.sin(1.1)], dtype=complex))
    spec = lv.continuous_interaction(
        0.1, [Operator(QUBIT, SIGMA_Z)], [Operator(env, SIGMA_Z)], e1, e2, t_final=1.0
    )
    m = lv.weak_moments(spec)
    s1 = np.array([0.6, 0.8j])
    s2 = np.array([1.0, 1.0]) / np.sqrt(2)
    from prepost.twostate import TwoState

    rs0 = TwoState(QUBIT, np.outer(s1, s2.conj()), 0.0, 1.0, 0.0)
    traj = lv.integrate(rs0, spec, steps=2000)
    dev = max(
        float(np.max(np.abs(st.mat - lv.closed_form_spin(rs0, m.l_w[0], m.delta[0, 0], 0.1, 1.0, t).mat)))
        for t, st in zip(traj.times, traj.states)
    )
    diag_drift = max(
        abs(traj.states[-1].mat[0, 0] - rs0.mat[0, 0]),
        abs(traj.states[-1].mat[1, 1] - rs0.mat[1, 1]),
    )
    mag_return = abs(abs(traj.states[-1].mat[0, 1]) - abs(rs0.mat[0, 1]))
    ok = dev < 1e-9 and diag_drift < 1e-12 and mag_return < 1e-12
    _report(
        8,
        ok,
        f"grid deviation {dev:.3g} (tol 1e-9), diagonal drift {diag_drift:.3g} (tol 1e-12), "
        f"coherence magnitude return {mag_return:.3g} (tol 1e-12)",
    )


def test_criterion_09_burst_recoherence():
    rng = np.random.default_rng(SEED + 3)
    lam, tau, n = 0.5, 0.04, 20
    parts1, parts2 = [], []
    for _ in range(n):
        while True:
            a1, b1 = np.cos(th1 := rng.uniform(0, 2 * np.pi)), np.sin(th1)
            a2, b2 = np.cos(th2 := rng.uniform(0, 2 * np.pi)), np.sin(th2)
            if abs(a1 * a2 + b1 * b2) >= 0.3:
                break
        parts1.append(np.array([a1, b1]))
        parts2.append(np.array([a2, b2]))
    spec = lv.burst_interaction(
        lam, tau, [SIGMA_Z] * n, lv.product_env_ket(parts1), lv.product_env_ket(parts2)
    )
    m = lv.weak_moments(spec)
    cross = float(np.max(np.abs(m.delta - np.diag(np.diagonal(m.delta)))))
    from prepost.twostate import TwoState

    s1 = np.array([0.6, 0.8j])
    s2 = np.array([1.0, 1.0]) / np.sqrt(2)
    rs0 = TwoState(QUBIT, np.outer(s1, s2.conj()), 0.0, spec.t_final, 0.0)
    traj = lv.integrate(rs0, spec, steps=100 * n)
    per_window = (len(traj.times) - 1) // n
    bound = 5 * lam**2 * tau**2
    c0 = traj.coherence[0]
    worst = max(abs(traj.coherence[k * per_window] - c0) for k in range(n + 1))
    ok = worst < bound and cross < 1e-13
    _report(
        9,
        ok,
        f"20 bursts, worst boundary coherence drift {worst:.3g} (bound {bound:.3g}), "
        f"cross-correlations {cross:.3g} (tol 1e-13)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    worst = "byte-identical"
    ok = True
    for name in ("spinbath_exact", "spinbath_env_post", "perturbative_spin", "burst"):
        cfg = str(REPO / "configs" / f"{name}.json")
        out1, out2 = tmp_path / f"{name}_1.csv", tmp_path / f"{name}_2.csv"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        golden = (REPO / "tests" / "goldens" / f"{name}.csv").read_bytes()
        if out1.read_bytes() != out2.read_bytes() or out1.read_bytes() != golden:
            ok = False
            worst = f"{name} differs"
            break
    _report(10, ok, f"4 scenarios, repeat runs and goldens {worst}")
