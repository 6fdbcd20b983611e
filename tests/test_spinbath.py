"""Solvable spin-bath model: closed forms against the brute-force oracle."""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepost.qcore import SIGMA_X, SIGMA_Y, SIGMA_Z, Operator, ProductKet, qubits
from prepost.twostate import (
    FormalismError,
    ProjectorSet,
    effective_density,
    is_generic,
    prob_pre_post,
    purity,
    schmidt_spectrum,
)
from prepost import spinbath as sb

QUBIT = qubits(1)
SX_SET = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_X))
SY_SET = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_Y))
SZ_SET = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_Z))


def sigma_x_bath(n, g, t_final, a, b, a_post=None, b_post=None):
    amp = np.full(n, 1 / np.sqrt(2), dtype=complex)
    return sb.SpinBathParams(
        n=n, g=np.asarray(g, float), a=a, b=b,
        alpha=amp.copy(), beta=amp.copy(),
        alpha_post=amp.copy(), beta_post=amp.copy(),
        t_final=t_final, a_post=a_post, b_post=b_post,
    )


# ---------------------------------------------------------------- dephasing product


def test_decoherence_factor_at_zero():
    rng = np.random.default_rng(0)
    p = sb.random_params(rng, 5)
    expected = np.prod(p.alpha * np.conj(p.alpha_post) + p.beta * np.conj(p.beta_post))
    assert sb.decoherence_factor(p, 0.0) == pytest.approx(complex(expected))


def test_decoherence_factor_identical_conditions():
    rng = np.random.default_rng(1)
    p = sb.random_params(rng, 4)
    q = sb.SpinBathParams(
        n=p.n, g=p.g, a=p.a, b=p.b,
        alpha=p.alpha, beta=p.beta, alpha_post=p.alpha, beta_post=p.beta,
        t_final=p.t_final, a_post=p.a_post, b_post=p.b_post,
    )
    assert sb.decoherence_factor(q, 0.0) == pytest.approx(1.0)


@given(st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_decoherence_factor_x_selection_is_cosine_product(tprime):
    g = np.array([0.4, 1.1, 0.7])
    p = sigma_x_bath(3, g, 1.0, 0.6, 0.8)
    val = sb.decoherence_factor(p, tprime)
    assert val == pytest.approx(np.prod(np.cos(g * tprime)), abs=1e-12)
    assert val == pytest.approx(sb.decoherence_factor(p, -tprime), abs=1e-12)


# ---------------------------------------------------------------- exact vs oracle


@pytest.mark.parametrize("seed,n", [(10, 1), (11, 2), (12, 4), (13, 6), (14, 8)])
def test_exact_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    p = sb.random_params(rng, n)
    for t in np.linspace(0.0, p.t_final, 9):
        ex = sb.exact_reduced_two_state(p, t)
        bf = sb.brute_force_reduced(p, t)
        np.testing.assert_allclose(ex.mat, bf.mat, atol=1e-12)


def test_brute_force_builds_env_amplitudes_once(monkeypatch):
    built = []
    build = ProductKet.amps.func

    def counted(ket):
        built.append(ket)
        return build(ket)

    amps = cached_property(counted)
    amps.__set_name__(ProductKet, "amps")
    monkeypatch.setattr(ProductKet, "amps", amps)
    p = sb.random_params(np.random.default_rng(9), 6)
    for t in np.linspace(0.0, p.t_final, 20):
        sb.brute_force_reduced(p, t)
    # one build per boundary ket (pre and post), none per call
    assert len(built) == 2
    assert set(map(id, built)) == set(map(id, sb.env_kets(p)))


def test_brute_force_free_bath_is_static_generic():
    rng = np.random.default_rng(15)
    p = sb.random_params(rng, 3)
    q = sb.SpinBathParams(
        n=p.n, g=np.zeros(p.n), a=p.a, b=p.b,
        alpha=p.alpha, beta=p.beta, alpha_post=p.alpha_post, beta_post=p.beta_post,
        t_final=p.t_final, a_post=p.a_post, b_post=p.b_post,
    )
    s1s2 = np.outer([q.a, q.b], np.conj([q.a_post, q.b_post]))
    for t in (0.0, 0.3, 0.9):
        ts = sb.brute_force_reduced(q, t)
        np.testing.assert_allclose(ts.mat, s1s2, atol=1e-13)
        assert is_generic(ts)


def test_single_spin_hand_computation():
    # one bath spin along +x before and after, g T = pi/2: the dephasing
    # product is cos(g t'), so at t = T/2 the diagonal dies and the
    # coherences survive untouched
    big_t = 2.0
    g1 = np.pi / (2 * big_t)
    a, b = 0.6, 0.8j
    ap, bp = 1 / np.sqrt(2), 1j / np.sqrt(2)
    p = sigma_x_bath(1, [g1], big_t, a, b, a_post=ap, b_post=bp)
    expected = np.array(
        [
            [0.0, a * np.conj(bp)],
            [b * np.conj(ap), 0.0],
        ]
    )
    for ts in (sb.exact_reduced_two_state(p, big_t / 2), sb.brute_force_reduced(p, big_t / 2)):
        np.testing.assert_allclose(ts.mat, expected, atol=1e-14)


def test_diagonal_coefficients_time_independent():
    rng = np.random.default_rng(16)
    p = sb.random_params(rng, 5)
    base = sb.exact_reduced_two_state(p, 0.0).mat
    for t in np.linspace(0.0, p.t_final, 11):
        m = sb.exact_reduced_two_state(p, t).mat
        assert abs(m[0, 0] - base[0, 0]) < 1e-13
        assert abs(m[1, 1] - base[1, 1]) < 1e-13


def test_boundary_slot_structure():
    rng = np.random.default_rng(17)
    p = sb.random_params(rng, 4)
    w = sb.weak_evolution_closed_form(p).entries
    s1 = np.array([p.a, p.b])
    s2 = np.array([p.a_post, p.b_post])
    start = sb.exact_reduced_two_state(p, 0.0)
    end = sb.exact_reduced_two_state(p, p.t_final)
    np.testing.assert_allclose(start.mat, np.outer(s1, s2.conj()) @ w, atol=1e-13)
    np.testing.assert_allclose(end.mat, w @ np.outer(s1, s2.conj()), atol=1e-13)
    assert is_generic(start) and is_generic(end)


def test_exact_requires_system_post():
    rng = np.random.default_rng(18)
    p = sb.random_params(rng, 2, system_post=False)
    with pytest.raises(ValueError):
        sb.exact_reduced_two_state(p, 0.1)


# ---------------------------------------------------------------- environment-only post-selection


def test_env_post_free_bath():
    rng = np.random.default_rng(19)
    p = sb.random_params(rng, 3, system_post=False)
    q = sb.SpinBathParams(
        n=p.n, g=np.zeros(p.n), a=p.a, b=p.b,
        alpha=p.alpha, beta=p.beta, alpha_post=p.alpha_post, beta_post=p.beta_post,
        t_final=p.t_final,
    )
    up, down = sb.env_postselected_two_states(q, 0.4)
    np.testing.assert_allclose(up.mat, [[q.a, 0], [q.b, 0]], atol=1e-13)
    np.testing.assert_allclose(down.mat, [[0, q.a], [0, q.b]], atol=1e-13)


@pytest.mark.parametrize("n", range(1, 9))
def test_env_post_matches_brute_force(n):
    # the environment-only pair is the reduced two-state at the system posts
    # |up> and |down>, which the brute force computes from the joint kets
    p = sb.random_params(np.random.default_rng(40 + n), n, system_post=False)
    for t in np.linspace(0.0, p.t_final, 7):
        pair = sb.env_postselected_two_states(p, t)
        for ts, post, zero_col in zip(pair, ((1.0, 0.0), (0.0, 1.0)), (1, 0)):
            brute = sb.brute_force_reduced(replace(p, a_post=post[0], b_post=post[1]), t).mat
            scale = float(np.max(np.abs(brute)))
            assert float(np.max(np.abs(ts.mat - brute))) <= 1e-11 * scale
            col = ts.mat[:, zero_col]
            assert np.all(col == 0)
            assert not np.any(np.signbit(col.real)) and not np.any(np.signbit(col.imag))


def test_env_post_midpoint_coherence_factor():
    rng = np.random.default_rng(20)
    p = sb.random_params(rng, 4, system_post=False)
    _, down = sb.env_postselected_two_states(p, p.t_final / 2)
    assert down.mat[0, 1] == pytest.approx(p.a)  # chi cancels against chi(0)


def test_env_post_final_time_effective_density_pure():
    rng = np.random.default_rng(21)
    p = sb.random_params(rng, 4, system_post=False)
    pair = sb.env_postselected_two_states(p, p.t_final)
    eff = effective_density(list(pair), SZ_SET)
    assert eff.a_independence_score() < 1e-10
    for lab in eff.labels():
        assert purity(eff.matrix(lab)) == pytest.approx(1.0, abs=1e-10)


def test_env_post_requires_no_system_post():
    rng = np.random.default_rng(22)
    p = sb.random_params(rng, 2, system_post=True)
    with pytest.raises(ValueError):
        sb.env_postselected_two_states(p, 0.1)


# ---------------------------------------------------------------- xy effective density


def test_xy_density_matches_two_state_average():
    # dual route: sum_s2 rho(s2) P_a rho(s2)† collapses to the single average
    # for equatorial projectors, whose sigma_z diagonal is constant 1/2
    rng = np.random.default_rng(23)
    p = sb.random_params(rng, 4, system_post=False)
    for t in (0.0, 0.3 * p.t_final, 0.71 * p.t_final, p.t_final):
        closed = sb.effective_density_xy(p, t).entries
        pair = sb.env_postselected_two_states(p, t)
        for ps in (SX_SET, SY_SET):
            eff = effective_density(list(pair), ps)
            assert eff.a_independence_score() < 1e-10
            for lab in eff.labels():
                np.testing.assert_allclose(eff.matrix(lab), closed, atol=1e-12)


def test_xy_density_final_time_rank_one():
    rng = np.random.default_rng(24)
    p = sb.random_params(rng, 3, system_post=False)
    big_t = p.t_final
    c = lambda x: sb.decoherence_factor(p, x)
    v = np.array([p.a * c(-big_t), p.b * c(big_t)]) / abs(c(0.0))
    np.testing.assert_allclose(
        sb.effective_density_xy(p, big_t).entries, np.outer(v, v.conj()), atol=1e-13
    )


def test_xy_density_initial_time_scaled_projector():
    rng = np.random.default_rng(25)
    p = sb.random_params(rng, 3, system_post=False)
    big_t = p.t_final
    c = lambda x: sb.decoherence_factor(p, x)
    scale = (abs(c(big_t)) ** 2 + abs(c(-big_t)) ** 2) / (2 * abs(c(0.0)) ** 2)
    s1 = np.array([p.a, p.b])
    np.testing.assert_allclose(
        sb.effective_density_xy(p, 0.0).entries, scale * np.outer(s1, s1.conj()), atol=1e-13
    )


def test_xy_density_purity_dips_then_recovers():
    rng = np.random.default_rng(26)
    p = sb.random_params(rng, 4, system_post=False)
    ts = np.linspace(0.0, p.t_final, 21)
    purities = [purity(sb.effective_density_xy(p, t)) for t in ts]
    assert purities[0] == pytest.approx(1.0, abs=1e-10)
    assert purities[-1] == pytest.approx(1.0, abs=1e-10)
    assert min(purities) < 1.0 - 1e-6


def test_xy_density_purity_symmetric_for_x_selection():
    g = np.array([0.5, 1.3, 0.8, 1.9])
    p = sigma_x_bath(4, g, 1.0, 0.6, 0.8j)
    for t in np.linspace(0.0, 1.0, 9):
        pu = purity(sb.effective_density_xy(p, t))
        pu_mirror = purity(sb.effective_density_xy(p, 1.0 - t))
        assert pu == pytest.approx(pu_mirror, abs=1e-10)


# ---------------------------------------------------------------- suppression scenario


def test_suppression_weak_evolution_proportional_to_identity():
    p = sb.suppression_scenario(5, np.array([0.3, 0.8, 1.4, 0.5, 1.0]), 1.0)
    w = sb.weak_evolution_closed_form(p).entries
    gram = w @ w.conj().T
    assert np.max(np.abs(gram - gram[0, 0] * np.eye(2))) < 1e-12


def test_suppression_initial_density_observable_independent():
    rng = np.random.default_rng(27)
    p = sb.suppression_scenario(4, rng.uniform(0.2, 1.8, 4), 1.0)
    pair = sb.env_postselected_two_states(p, 0.0)
    from prepost.qcore import random_unitary, Ket

    for k in range(6):
        u = random_unitary(2, np.random.default_rng(300 + k))
        ps = ProjectorSet.from_basis([Ket(QUBIT, u[:, i]) for i in range(2)])
        eff = effective_density(list(pair), ps)
        assert eff.a_independence_score() < 1e-10


def test_suppression_intermediate_z_measurement_has_no_density():
    rng = np.random.default_rng(28)
    p = sb.suppression_scenario(4, rng.uniform(0.2, 1.8, 4), 1.0)
    pair = sb.env_postselected_two_states(p, 0.41)
    eff = effective_density(list(pair), SZ_SET)
    assert eff.a_independence_score() > 1e-3


# ---------------------------------------------------------------- joint-space consistency


def test_reduced_probabilities_match_joint_space():
    rng = np.random.default_rng(29)
    p = sb.random_params(rng, 4)
    psi1, psi2 = sb.joint_conditions(p)
    h = sb.joint_hamiltonian(p)
    from prepost.qcore import identity, tensor
    from prepost.twostate import from_conditions

    env_id = identity(qubits(p.n))
    t = 0.44 * p.t_final
    reduced = sb.exact_reduced_two_state(p, t)
    probs = prob_pre_post(reduced, SX_SET)
    joint = from_conditions(psi1, psi2, h, 0.0, p.t_final, t)
    lifted = ProjectorSet(
        SX_SET.labels, tuple(tensor(pr, env_id) for pr in SX_SET.projectors)
    )
    joint_probs = prob_pre_post(joint, lifted)
    for lab in probs:
        assert probs[lab] == pytest.approx(joint_probs[lab], abs=1e-10)


# ---------------------------------------------------------------- parameter validation


def test_params_validation():
    with pytest.raises(ValueError, match="normalized"):
        sb.SpinBathParams(
            n=1, g=np.array([1.0]), a=1.0, b=1.0,
            alpha=np.array([1.0]), beta=np.array([0.0]),
            alpha_post=np.array([1.0]), beta_post=np.array([0.0]),
        )
    with pytest.raises(ValueError, match="bath size"):
        sb.SpinBathParams(
            n=13, g=np.ones(13), a=1.0, b=0.0,
            alpha=np.ones(13), beta=np.zeros(13),
            alpha_post=np.ones(13), beta_post=np.zeros(13),
        )
    with pytest.raises(FormalismError):  # orthogonal free conditions
        sb.SpinBathParams(
            n=1, g=np.array([1.0]), a=1.0, b=0.0,
            alpha=np.array([1.0]), beta=np.array([0.0]),
            alpha_post=np.array([0.0]), beta_post=np.array([1.0]),
        )


def test_random_params_are_valid_and_reproducible():
    p1 = sb.random_params(np.random.default_rng(77), 6)
    p2 = sb.random_params(np.random.default_rng(77), 6)
    np.testing.assert_array_equal(p1.g, p2.g)
    np.testing.assert_array_equal(p1.alpha, p2.alpha)
    assert abs(abs(p1.a) ** 2 + abs(p1.b) ** 2 - 1) < 1e-12
