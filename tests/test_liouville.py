"""Perturbative modified dynamics: weak moments, compiled RK4 stepping, closed forms, bursts."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm
from hypothesis import strategies as st

from prepost.qcore import (
    SIGMA_X,
    SIGMA_Z,
    HilbertSpace,
    Ket,
    Operator,
    basis_ket,
    qubits,
    random_hermitian,
    random_ket,
    tensor,
)
from prepost.twostate import FormalismError, TwoState, purity
from prepost import liouville as lv
from prepost import spinbath as sb

QUBIT = qubits(1)


def _sz_env_operator(n, gamma):
    """sum_k gamma_k sigma_z^(k) on an n-spin environment, dense diagonal."""
    z = np.array([1.0, -1.0])
    diag = np.zeros(1)
    for gk in gamma:
        diag = np.add.outer(diag, gk * z).reshape(-1)
    return Operator(qubits(n), np.diag(diag).astype(complex))


def _real_bath_pair(rng):
    th = rng.uniform(0, 2 * np.pi)
    return np.cos(th), np.sin(th)


def _guarded_env(rng, n, min_overlap=0.3):
    while True:
        alpha = np.empty(n, complex)
        beta = np.empty(n, complex)
        alpha_p = np.empty(n, complex)
        beta_p = np.empty(n, complex)
        for k in range(n):
            while True:
                a1, b1 = sb._bloch_pair(rng)
                a2, b2 = sb._bloch_pair(rng)
                if abs(a1 * np.conj(a2) + b1 * np.conj(b2)) >= min_overlap:
                    alpha[k], beta[k], alpha_p[k], beta_p[k] = a1, b1, a2, b2
                    break
        return alpha, beta, alpha_p, beta_p


def _single_channel_spec(lam=0.1, t_final=1.0, e_pair=None, l_op=None):
    env = qubits(1)
    if e_pair is None:
        e1 = Ket(env, np.array([0.8, 0.6]))
        e2 = Ket(env, np.array([0.6, 0.8]))
    else:
        e1, e2 = e_pair
    l = Operator(env, SIGMA_Z if l_op is None else l_op)
    q = Operator(QUBIT, SIGMA_Z)
    return lv.continuous_interaction(lam, [q], [l], e1, e2, t_final=t_final)


def _generic_initial(rng=None):
    rng = rng or np.random.default_rng(42)
    u, v = random_ket(QUBIT, rng), random_ket(QUBIT, rng)
    return TwoState(QUBIT, np.outer(u.amps, v.amps.conj()), 0.0, 1.0, 0.0)


def _comm(a, b):
    return a @ b - b @ a


def _written_rhs(spec, moments, t, rho, window=None):
    """The right-hand side written out with commutators, in plain complex numpy.

    Continuous spec (``window`` None):

        -i lam (L_i)_w [Q_i, rho] - lam^2 Delta_ij [Q_i, t Q_j rho + (T - t) rho Q_j]

    Burst window n:

        -i lam (L_n)_w [S, rho] - lam^2 sum_m Delta_nm [S, x_m]

    with x_m = tau S rho for past partners (m < n), tau rho S for future
    ones (m > n) and (t - n tau) S rho + ((n+1) tau - t) rho S for m = n.
    Nothing here reads the spec's compiled generators.
    """
    lam, l_w, delta = spec.lam, moments.l_w, moments.delta
    if window is None:
        qs = [q.entries for q in spec.q_ops]
        big_t = spec.t_final
        out = np.zeros(rho.shape, dtype=complex)
        for i, qi in enumerate(qs):
            out -= 1j * lam * l_w[i] * _comm(qi, rho)
            for j, qj in enumerate(qs):
                x = t * (qj @ rho) + (big_t - t) * (rho @ qj)
                out -= lam**2 * delta[i, j] * _comm(qi, x)
        return out
    n, tau, s = window, spec.tau, spec.sys_op
    past = delta[n, :n].sum() * tau * (s @ rho)
    future = delta[n, n + 1 :].sum() * tau * (rho @ s)
    own = delta[n, n] * ((t - n * tau) * (s @ rho) + ((n + 1) * tau - t) * (rho @ s))
    return -1j * lam * l_w[n] * _comm(s, rho) - lam**2 * _comm(s, past + future + own)


def _generated(spec, moments, t, rho, window=None):
    """The spec's compiled (G0 + t G1) applied to vec(rho), as a matrix."""
    args = (moments,) if window is None else (moments, window)
    g0, g1 = spec.generators(*args)
    vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1).view(np.float64)
    return ((g0 + t * g1) @ vec).view(complex).reshape(rho.shape)


# ---------------------------------------------------------------- weak moments


def test_moments_coinciding_conditions_are_ordinary_statistics():
    rng = np.random.default_rng(0)
    env = qubits(1)
    e = random_ket(env, rng)
    spec = _single_channel_spec(e_pair=(e, e))
    m = lv.weak_moments(spec)
    expectation = np.vdot(e.amps, SIGMA_Z @ e.amps).real
    variance = 1.0 - expectation**2  # sigma_z^2 = 1
    assert m.l_w[0] == pytest.approx(expectation, abs=1e-13)
    assert m.delta[0, 0] == pytest.approx(variance, abs=1e-13)


def test_moments_single_spin_weak_value_one():
    up = basis_ket(qubits(1), 0)
    plus = Ket(qubits(1), np.array([1.0, 1.0]) / np.sqrt(2))
    spec = _single_channel_spec(e_pair=(up, plus))
    m = lv.weak_moments(spec)
    assert m.l_w[0] == pytest.approx(1.0)


def test_moments_independent_of_the_kets_scale():
    # orthogonality is judged relative to |e1||e2|: kets scaled by 1e-7 have
    # an overlap near 1e-14 but the same weak moments; at 1e-170 and 1e160
    # the overlap and the squared norms under- and overflow
    rng = np.random.default_rng(4)
    env = qubits(2)
    e1, e2 = random_ket(env, rng), random_ket(env, rng)
    l_op = random_hermitian(env, rng)
    q = Operator(QUBIT, SIGMA_Z)
    unit = lv.weak_moments(lv.continuous_interaction(0.1, [q], [l_op], e1, e2))
    assert abs(np.vdot(e2.amps, e1.amps)) > 0.1
    for scale in (1e-7, 1e-170, 1e160):
        kets = [Ket(env, scale * e.amps) for e in (e1, e2)]
        scaled = lv.weak_moments(lv.continuous_interaction(0.1, [q], [l_op], *kets))
        np.testing.assert_allclose(scaled.l_w, unit.l_w, rtol=1e-12)
        np.testing.assert_allclose(scaled.delta, unit.delta, rtol=1e-12)


def test_moments_match_per_spin_products():
    # dual route: full-space trace vs the per-spin factorized formulas
    rng = np.random.default_rng(1)
    n = 4
    gamma = rng.uniform(0.2, 1.5, n)
    alpha, beta, alpha_p, beta_p = _guarded_env(rng, n)
    e1 = lv.product_env_ket([np.array([alpha[k], beta[k]]) for k in range(n)])
    e2 = lv.product_env_ket([np.array([alpha_p[k], beta_p[k]]) for k in range(n)])
    l = _sz_env_operator(n, gamma)
    q = Operator(QUBIT, SIGMA_Z)
    spec = lv.continuous_interaction(0.1, [q], [l], e1, e2, t_final=1.0)
    m = lv.weak_moments(spec)
    w = (alpha * np.conj(alpha_p) - beta * np.conj(beta_p)) / (
        alpha * np.conj(alpha_p) + beta * np.conj(beta_p)
    )
    assert m.l_w[0] == pytest.approx(complex(np.sum(gamma * w)), abs=1e-12)
    assert m.delta[0, 0] == pytest.approx(complex(np.sum(gamma**2 * (1 - w**2))), abs=1e-12)


def test_burst_moments_product_conditions_diagonal():
    rng = np.random.default_rng(2)
    n = 8
    parts1, parts2, ops = [], [], []
    for _ in range(n):
        a1, b1 = _real_bath_pair(rng)
        a2, b2 = _real_bath_pair(rng)
        if abs(a1 * a2 + b1 * b2) < 0.3:
            a2, b2 = a1, b1
        parts1.append(np.array([a1, b1]))
        parts2.append(np.array([a2, b2]))
        ops.append(SIGMA_Z)
    spec = lv.burst_interaction(0.5, 0.04, ops, lv.product_env_ket(parts1), lv.product_env_ket(parts2))
    m = lv.weak_moments(spec)
    off = m.delta - np.diag(np.diagonal(m.delta))
    assert np.max(np.abs(off)) < 1e-13
    # single-particle weak values
    for k in range(n):
        w = np.vdot(parts2[k], SIGMA_Z @ parts1[k]) / np.vdot(parts2[k], parts1[k])
        assert m.l_w[k] == pytest.approx(w, abs=1e-13)


@pytest.mark.parametrize("hermitian", [True, False])
def test_factorized_burst_moments_match_dense_route(hermitian):
    # plain Ket copies of the same product states force the dense route,
    # which is the oracle for the per-particle one
    rng = np.random.default_rng(30 + hermitian)
    dims = (2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 2)
    n = len(dims)
    e1 = lv.product_env_ket([rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
    e2 = lv.product_env_ket([rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
    ops = []
    for d in dims:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops.append((a + a.conj().T) / 2.0 if hermitian else a)
    fact = lv.weak_moments(lv.burst_interaction(0.05, 0.1, ops, e1, e2))
    dense = lv.weak_moments(
        lv.burst_interaction(0.05, 0.1, ops, Ket(e1.space, e1.amps), Ket(e2.space, e2.amps))
    )
    assert fact.l_w.shape == (n,) and fact.delta.shape == (n, n)
    scale = np.max(np.abs(dense.delta + np.outer(dense.l_w, dense.l_w)))
    np.testing.assert_allclose(fact.l_w, dense.l_w, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(fact.delta, dense.delta, rtol=0, atol=1e-13 * scale)
    assert np.all(fact.delta[~np.eye(n, dtype=bool)] == 0.0)


def test_burst_moments_detect_correlations():
    # entangled final environment condition produces off-diagonal delta
    space = qubits(2)
    e1 = Ket(space, np.array([0.5, 0.5, 0.5, 0.5]))
    e2 = Ket(space, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    spec = lv.burst_interaction(0.1, 0.1, [SIGMA_Z, SIGMA_Z], e1, e2)
    m = lv.weak_moments(spec)
    assert abs(m.delta[0, 1]) > 0.1


# ---------------------------------------------------------------- continuous generators


def test_rhs_zero_coupling():
    spec = _single_channel_spec(lam=0.0)
    m = lv.weak_moments(spec)
    mat = _generic_initial().mat
    np.testing.assert_array_equal(_generated(spec, m, 0.3, mat), np.zeros((2, 2)))
    np.testing.assert_array_equal(_written_rhs(spec, m, 0.3, mat), np.zeros((2, 2)))


def test_rhs_dispersion_free_is_first_order_flow():
    # eigenstate conditions: L_w is the eigenvalue and the weak uncertainty vanishes
    up = basis_ket(qubits(1), 0)
    spec = _single_channel_spec(e_pair=(up, up))
    m = lv.weak_moments(spec)
    assert abs(m.delta[0, 0]) < 1e-14
    mat = _generic_initial().mat
    rhs = _generated(spec, m, 0.7, mat)
    first_order = -1j * spec.lam * m.l_w[0] * (SIGMA_Z @ mat - mat @ SIGMA_Z)
    np.testing.assert_allclose(rhs, first_order, atol=1e-15)


def test_rhs_single_channel_reduces_to_spin_form():
    spec = _single_channel_spec(lam=0.2, t_final=1.3)
    m = lv.weak_moments(spec)
    mat = _generic_initial().mat
    for t in (0.0, 0.4, 1.0, 1.3):
        rhs = _generated(spec, m, t, mat)
        spin_form = -1j * spec.lam * m.l_w[0] * (SIGMA_Z @ mat - mat @ SIGMA_Z) - spec.lam**2 * m.delta[
            0, 0
        ] * (2 * t - spec.t_final) * (mat - SIGMA_Z @ mat @ SIGMA_Z)
        np.testing.assert_allclose(rhs, spin_form, atol=1e-13)


def test_rhs_two_noncommuting_channels_match_written_equation():
    # Q = (sigma_z, sigma_x) coupled to L = (sigma_z, sigma_x): the weak value
    # of [L_1, L_2] = 2i sigma_y is nonzero, so Delta is not symmetric and
    # its index order matters
    env = qubits(1)
    e1 = Ket(env, np.array([0.8, 0.6]))
    e2 = Ket(env, np.array([0.6, 0.8j]))
    qs = [SIGMA_Z, SIGMA_X]
    spec = lv.continuous_interaction(
        0.3,
        [Operator(QUBIT, q) for q in qs],
        [Operator(env, SIGMA_Z), Operator(env, SIGMA_X)],
        e1,
        e2,
        t_final=1.3,
    )
    m = lv.weak_moments(spec)
    assert abs(m.delta[0, 1] - m.delta[1, 0]) > 0.1
    mat = _generic_initial().mat
    swapped = lv.WeakMoments(l_w=m.l_w, delta=m.delta.T)
    no_cross = lv.WeakMoments(l_w=m.l_w, delta=np.diag(np.diagonal(m.delta)))
    for t in (0.0, 0.4, 1.3):
        rhs = _generated(spec, m, t, mat)
        np.testing.assert_allclose(rhs, _written_rhs(spec, m, t, mat), rtol=0, atol=1e-14)
        # swapped indices and dropped cross terms are far outside that tolerance
        assert np.max(np.abs(rhs - _written_rhs(spec, swapped, t, mat))) > 1e-3
        assert np.max(np.abs(rhs - _written_rhs(spec, no_cross, t, mat))) > 1e-3


def test_commutation_requirement_enforced():
    env = qubits(1)
    e1 = Ket(env, np.array([0.8, 0.6]))
    e2 = Ket(env, np.array([0.6, 0.8]))
    h_e = Operator(env, SIGMA_X)
    with pytest.raises(ValueError, match="commute"):
        lv.continuous_interaction(
            0.1, [Operator(QUBIT, SIGMA_Z)], [Operator(env, SIGMA_Z)], e1, e2, h_e=h_e
        )


def test_free_hamiltonian_carries_e2_back():
    # a diagonal h_e acts by sincos phases, a non-diagonal one through
    # propagate; both must give exp(i h_e T) e2
    rng = np.random.default_rng(6)
    env = HilbertSpace((3,))
    e1, e2 = random_ket(env, rng), random_ket(env, rng)
    q = Operator(QUBIT, SIGMA_Z)
    l_op = Operator(env, np.diag([1.0, 1.0, -0.5]).astype(complex))
    diagonal = np.diag([0.3, -1.7, 2.2])
    block = np.array([[0.3, 0.4, 0.0], [0.4, -1.7, 0.0], [0.0, 0.0, 2.2]])
    for h in (diagonal, block):
        h_e = Operator(env, h.astype(complex))
        spec = lv.continuous_interaction(0.1, [q], [l_op], e1, e2, h_e=h_e, t_final=1.3)
        want = expm(1.3j * h) @ e2.amps
        np.testing.assert_allclose(spec.env_out.amps, want, rtol=0, atol=1e-14)
    huge = Operator(env, np.diag([0.0, 0.0, 1e7]).astype(complex))
    with pytest.raises(ValueError, match="phases"):
        lv.continuous_interaction(0.1, [q], [l_op], e1, e2, h_e=huge)


# ---------------------------------------------------------------- closed form


def test_closed_form_diagonals_and_boundary_magnitude():
    rs0 = _generic_initial()
    l_w, delta_l, lam, big_t = 0.7, 0.9, 0.1, 1.0
    end = lv.closed_form_spin(rs0, l_w, delta_l, lam, big_t, big_t)
    assert end.mat[0, 0] == rs0.mat[0, 0]
    assert end.mat[1, 1] == rs0.mat[1, 1]
    assert abs(end.mat[0, 1]) == pytest.approx(abs(rs0.mat[0, 1]), abs=1e-12)
    assert abs(end.mat[1, 0]) == pytest.approx(abs(rs0.mat[1, 0]), abs=1e-12)


@given(st.floats(-2.0, 2.0), st.floats(0.01, 0.5), st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_closed_form_recoherence_real_weak_value(l_w, lam, delta_l):
    rs0 = _generic_initial()
    big_t = 1.0
    end = lv.closed_form_spin(rs0, l_w, delta_l, lam, big_t, big_t)
    assert abs(abs(end.mat[0, 1]) - abs(rs0.mat[0, 1])) < 1e-12
    mid = lv.closed_form_spin(rs0, l_w, delta_l, lam, big_t, big_t / 2)
    # midpoint envelope exp(+lam^2 delta T^2 / 2), amplification or damping by sign
    expected = abs(rs0.mat[0, 1]) * np.exp(lam**2 * delta_l * big_t**2 / 2)
    assert abs(mid.mat[0, 1]) == pytest.approx(expected, rel=1e-10)


def test_closed_form_complex_weak_value_magnitude_shift():
    # an imaginary part in L_w rescales the final coherence by exp(2 lam T Im L_w)
    rs0 = _generic_initial()
    lam, big_t = 0.2, 1.0
    l_w = 0.4 + 0.3j
    end = lv.closed_form_spin(rs0, l_w, 0.5, lam, big_t, big_t)
    factor = np.exp(2 * lam * big_t * l_w.imag)
    assert abs(end.mat[0, 1]) == pytest.approx(abs(rs0.mat[0, 1]) * factor, rel=1e-12)


# ---------------------------------------------------------------- integration


def test_integrate_zero_interaction_constant():
    spec = _single_channel_spec(lam=0.0)
    rs0 = _generic_initial()
    traj = lv.integrate(rs0, spec, steps=50)
    for m in (traj.states[0].mat, traj.states[25].mat, traj.states[-1].mat):
        np.testing.assert_array_equal(m, rs0.mat)


def test_integrate_matches_closed_form_everywhere():
    spec = _single_channel_spec(lam=0.1, t_final=1.0)
    m = lv.weak_moments(spec)
    rs0 = _generic_initial()
    traj = lv.integrate(rs0, spec, steps=2000)
    for t, state in zip(traj.times[::100], traj.states[::100]):
        ref = lv.closed_form_spin(rs0, m.l_w[0], m.delta[0, 0], spec.lam, spec.t_final, t)
        np.testing.assert_allclose(state.mat, ref.mat, atol=1e-9)
    # diagonals are constants of motion
    assert abs(traj.states[-1].mat[0, 0] - rs0.mat[0, 0]) < 1e-12
    assert abs(traj.states[-1].mat[1, 1] - rs0.mat[1, 1]) < 1e-12


def test_trajectory_states_are_the_stored_matrices():
    spec = _single_channel_spec(lam=0.1)
    traj = lv.integrate(_generic_initial(), spec, steps=50)
    assert traj.times.shape == (51,) and traj.mats.shape == (51, 2, 2)
    assert len(traj.states) == 51
    for i in (0, 17, 50):
        np.testing.assert_array_equal(traj.states[i].mat, traj.mats[i])
        assert traj.states[i].t == traj.times[i]
    np.testing.assert_array_equal(traj.coherence, np.abs(traj.mats[:, 0, 1]))


def test_integrate_keeps_the_boundary_overlap():
    # every term of both equations is a commutator, so tr rho, the boundary
    # overlap, is the same at every step; an orthogonal start stays flagged
    env = qubits(1)
    channels = lv.continuous_interaction(
        0.3,
        [Operator(QUBIT, SIGMA_Z), Operator(QUBIT, SIGMA_X)],
        [Operator(env, SIGMA_Z), Operator(env, SIGMA_X)],
        Ket(env, np.array([0.8, 0.6])),
        Ket(env, np.array([0.6, 0.8j])),
        t_final=1.3,
    )
    space = qubits(2)
    burst = lv.burst_interaction(
        0.3, 0.3, [SIGMA_Z, SIGMA_Z], Ket(space, np.array([0.5, 0.5, 0.5, 0.5])),
        Ket(space, np.array([0.6, 0.0, 0.0, 0.8j])), sys_op=SIGMA_X,
    )
    u = np.array([0.6, 0.8j])
    orthogonal = TwoState(QUBIT, np.outer(u, np.array([0.8j, 0.6]).conj()), 0.0, 1.3, 0.0)
    for spec in (channels, burst):
        for rs0 in (_generic_initial(), orthogonal):
            traj = lv.integrate(rs0, spec, steps=200)
            traces = np.trace(traj.mats, axis1=1, axis2=2)
            norms = np.linalg.norm(traj.mats, axis=(1, 2))
            assert np.max(np.abs(traces - rs0.trace) / norms) <= 1e-13
            assert traj.states[-1].is_flagged_orthogonal() == rs0.is_flagged_orthogonal()


def test_integrate_step_halving_convergence():
    spec = _single_channel_spec(lam=0.1)
    rs0 = _generic_initial()
    end_full = lv.integrate(rs0, spec, steps=2000).states[-1].mat
    end_half = lv.integrate(rs0, spec, steps=1000).states[-1].mat
    assert np.max(np.abs(end_full - end_half)) < 1e-8


def test_integrate_rejects_tiny_step_count():
    spec = _single_channel_spec()
    with pytest.raises(ValueError):
        lv.integrate(_generic_initial(), spec, steps=5)


def test_integrate_rejects_a_two_state_off_the_system_space():
    # a qutrit two-state against qubit specs: the error names both dimensions
    sys3 = HilbertSpace((3,))
    rs0 = TwoState(sys3, np.outer(np.ones(3), np.ones(3)), 0.0, 1.0, 0.0)
    space = qubits(2)
    burst = lv.burst_interaction(
        0.1, 0.1, [SIGMA_Z, SIGMA_Z], Ket(space, np.full(4, 0.5)), Ket(space, np.full(4, 0.5))
    )
    for spec in (_single_channel_spec(), burst):
        with pytest.raises(ValueError, match="dimension 3.*dimension 2"):
            lv.integrate(rs0, spec, steps=50)


def test_integrate_warns_outside_validity():
    spec = _single_channel_spec(lam=2.0, t_final=1.0)
    with pytest.warns(RuntimeWarning, match="weak-coupling"):
        lv.integrate(_generic_initial(), spec, steps=50)


def test_order_of_accuracy_against_exact_model():
    # closed form vs the solvable bath: halving the coupling shrinks the
    # residual by ~8, the third-order signature
    rng = np.random.default_rng(3)
    n = 4
    gamma = rng.uniform(0.3, 1.5, n)
    gamma /= gamma.sum()
    alpha, beta, alpha_p, beta_p = _guarded_env(rng, n)
    a, b = sb._bloch_pair(rng)
    ap, bp = sb._bloch_pair(rng)

    def residual(lam):
        p = sb.SpinBathParams(
            n=n, g=lam * gamma, a=a, b=b,
            alpha=alpha, beta=beta, alpha_post=alpha_p, beta_post=beta_p,
            t_final=1.0, a_post=ap, b_post=bp,
        )
        e1 = lv.product_env_ket([np.array([alpha[k], beta[k]]) for k in range(n)])
        e2 = lv.product_env_ket([np.array([alpha_p[k], beta_p[k]]) for k in range(n)])
        spec = lv.continuous_interaction(
            lam, [Operator(QUBIT, SIGMA_Z)], [_sz_env_operator(n, gamma)], e1, e2, t_final=1.0
        )
        m = lv.weak_moments(spec)
        rs0 = sb.exact_reduced_two_state(p, 0.0)
        err = 0.0
        for t in np.linspace(0.0, 1.0, 41):
            exact = sb.exact_reduced_two_state(p, t).mat
            pert = lv.closed_form_spin(rs0, m.l_w[0], m.delta[0, 0], lam, 1.0, t).mat
            err = max(err, float(np.max(np.abs(exact - pert))))
        return err

    for lam_t in (0.05, 0.15):
        ratio = residual(lam_t) / residual(lam_t / 2)
        assert 5.0 <= ratio <= 12.0


# ---------------------------------------------------------------- burst schedule


def _product_burst(rng, n, lam=0.5, tau=0.04):
    parts1, parts2 = [], []
    for _ in range(n):
        while True:
            a1, b1 = _real_bath_pair(rng)
            a2, b2 = _real_bath_pair(rng)
            if abs(a1 * a2 + b1 * b2) >= 0.3:
                break
        parts1.append(np.array([a1, b1]))
        parts2.append(np.array([a2, b2]))
    return lv.burst_interaction(
        lam, tau, [SIGMA_Z] * n, lv.product_env_ket(parts1), lv.product_env_ket(parts2)
    )


def test_burst_generators_midpoint_null():
    # at the window midpoint only the first-order term survives (product env)
    rng = np.random.default_rng(4)
    spec = _product_burst(rng, 6)
    m = lv.weak_moments(spec)
    mat = _generic_initial().mat
    for n in range(6):
        t_mid = (n + 0.5) * spec.tau
        rhs = _generated(spec, m, t_mid, mat, window=n)
        first = -1j * spec.lam * m.l_w[n] * (SIGMA_Z @ mat - mat @ SIGMA_Z)
        np.testing.assert_allclose(rhs, first, atol=1e-13)


def test_burst_generators_cross_terms_for_correlated_conditions():
    # an entangled final condition makes Delta_01 nonzero: window 0 carries
    # the future cross term, window 1 the past one
    space = qubits(2)
    e1 = Ket(space, np.array([0.5, 0.5, 0.5, 0.5]))
    e2 = Ket(space, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    spec = lv.burst_interaction(0.1, 0.1, [SIGMA_Z, SIGMA_Z], e1, e2)
    m = lv.weak_moments(spec)
    lam, tau, z = spec.lam, spec.tau, SIGMA_Z
    mat = _generic_initial().mat
    for n, t in ((0, 0.03), (1, 0.17)):
        want = -1j * lam * m.l_w[n] * (z @ mat - mat @ z)
        want -= lam**2 * m.delta[n, n] * (2 * t - (2 * n + 1) * tau) * (mat - z @ mat @ z)
        if n == 1:
            want -= lam**2 * m.delta[1, 0] * tau * (z @ z @ mat - z @ mat @ z)
        else:
            want -= lam**2 * m.delta[0, 1] * tau * (z @ mat @ z - mat @ z @ z)
        got = _generated(spec, m, t, mat, window=n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_written_rhs(spec, m, t, mat, window=n), want, rtol=0, atol=1e-15)


def test_burst_generators_match_written_equation_for_any_system_operator():
    # S S != 1: the window's own second-order term keeps S S rho and rho S S,
    # which the sigma_z form (rho - S rho S) would lose; with three correlated
    # particles the first window has two future partners and the last two
    # past ones, each weighted by the single window tau it met the system in
    rng = np.random.default_rng(23)
    space = qubits(3)
    s = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, 0.5]])
    spec = lv.burst_interaction(
        0.3, 0.3, [SIGMA_Z, SIGMA_X, SIGMA_Z], random_ket(space, rng), random_ket(space, rng),
        sys_op=s,
    )
    m = lv.weak_moments(spec)
    assert np.min(np.abs(m.delta)) > 1e-2
    mat = _generic_initial().mat
    for n in range(3):
        for t in (n * spec.tau, (n + 0.3) * spec.tau, (n + 1) * spec.tau):
            want = _written_rhs(spec, m, t, mat, window=n)
            got = _generated(spec, m, t, mat, window=n)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_one_particle_burst_compiles_to_the_continuous_equation():
    # one particle met over [0, tau] is the continuous coupling with T = tau:
    # both specs list the same entries, so the generators agree to the bit
    rng = np.random.default_rng(24)
    env = qubits(1)
    for _ in range(50):
        while True:
            s = random_hermitian(QUBIT, rng).entries
            if np.max(np.abs(s @ s - np.eye(2))) > 0.1:
                break
        l_op = random_hermitian(env, rng)
        e1, e2 = random_ket(env, rng), random_ket(env, rng)
        lam, tau = rng.uniform(0.01, 0.5), rng.uniform(0.01, 2.0)
        burst = lv.burst_interaction(lam, tau, [l_op.entries], e1, e2, sys_op=s)
        cont = lv.continuous_interaction(lam, [Operator(QUBIT, s)], [l_op], e1, e2, t_final=tau)
        m = lv.weak_moments(cont)
        for got, want in zip(burst.generators(m, 0), cont.generators(m)):
            assert np.array_equal(got, want)


def test_burst_integration_matches_windowed_closed_form():
    rng = np.random.default_rng(6)
    n = 10
    spec = _product_burst(rng, n, lam=0.5, tau=0.04)
    m = lv.weak_moments(spec)
    rs0 = _generic_initial()
    traj = lv.integrate(rs0, spec, steps=100 * n)

    def oracle_ud(t):
        k = min(int(np.floor(t / spec.tau + 1e-12)), n - 1)
        val = rs0.mat[0, 1]
        for j in range(k):
            val *= np.exp(-2j * spec.lam * m.l_w[j] * spec.tau)
        s = t - k * spec.tau
        val *= np.exp(-2j * spec.lam * m.l_w[k] * s - 2 * spec.lam**2 * m.delta[k, k] * s * (s - spec.tau))
        return val

    for idx in range(0, len(traj.times), 37):
        t = traj.times[idx]
        assert traj.states[idx].mat[0, 1] == pytest.approx(oracle_ud(t), abs=1e-10)


def test_burst_boundary_recoherence():
    rng = np.random.default_rng(7)
    n = 12
    lam, tau = 0.5, 0.04
    spec = _product_burst(rng, n, lam=lam, tau=tau)
    rs0 = _generic_initial()
    traj = lv.integrate(rs0, spec, steps=100 * n)
    bound = 5 * lam**2 * tau**2
    c0 = traj.coherence[0]
    per_window = len(traj.times) // n
    for k in range(n + 1):
        idx = k * per_window
        assert abs(traj.coherence[idx] - c0) < bound
        assert abs(traj.purity[idx] - 1.0) < bound


def test_product_burst_of_64_particles_stays_factorized():
    # 2^64 amplitudes cannot be allocated: the moments and the integration
    # must work from the per-particle factors alone
    # every pair overlap is cos(pi/3) = 0.5, their product 0.5^64 = 5e-20
    rng = np.random.default_rng(8)
    n, lam, tau = 64, 0.5, 0.04
    theta = rng.uniform(0, 2 * np.pi, n)
    pre = [np.array([np.cos(th), np.sin(th)]) for th in theta]
    post = [np.array([np.cos(th + np.pi / 3), np.sin(th + np.pi / 3)]) for th in theta]
    spec = lv.burst_interaction(
        lam, tau, [SIGMA_Z] * n, lv.product_env_ket(pre), lv.product_env_ket(post)
    )
    s1 = np.array([0.6, 0.8j])
    s2 = np.array([1.0, 1.0]) / np.sqrt(2)
    rs0 = TwoState(QUBIT, np.outer(s1, s2.conj()), 0.0, spec.t_final, 0.0)
    start = time.perf_counter()
    m = lv.weak_moments(spec)
    traj = lv.integrate(rs0, spec, steps=10 * n)
    assert time.perf_counter() - start < 1.0
    assert "amps" not in vars(spec.env_in) and "amps" not in vars(spec.env_out)
    assert np.all(m.delta[~np.eye(n, dtype=bool)] == 0.0)
    bound = 5 * lam**2 * tau**2
    c0 = traj.coherence[0]
    assert max(abs(traj.coherence[10 * k] - c0) for k in range(n + 1)) < bound

    a, b = pre[5]
    orthogonal = list(post)
    orthogonal[5] = np.array([-b, a])
    bad = lv.burst_interaction(lam, tau, [SIGMA_Z] * n, spec.env_in, lv.product_env_ket(orthogonal))
    with pytest.raises(FormalismError, match="particle 5"):
        lv.weak_moments(bad)


# ---------------------------------------------------------------- RK4 oracle


def _rk4_oracle(spec, moments, y0, windows):
    """Classical RK4 on :func:`_written_rhs`, one (t0, h, n, window) after another."""
    y = np.array(y0, dtype=complex)
    out = [y]
    for t0, h, n, window in windows:

        def rhs(t, rho):
            return _written_rhs(spec, moments, t, rho, window)

        for k in range(n):
            t = t0 + k * h
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            out.append(y)
    return np.array(out)


def _assert_matches_oracle(spec, rs0, steps):
    m = lv.weak_moments(spec)
    traj = lv.integrate(rs0, spec, steps=steps)
    if isinstance(spec, lv.BurstSpec):
        n = len(spec.particle_ops)
        per = steps // n
        windows = [(k * spec.tau, spec.tau / per, per, k) for k in range(n)]
    else:
        windows = [(0.0, spec.t_final / steps, steps, None)]
    want = _rk4_oracle(spec, m, rs0.mat, windows)
    assert traj.mats.shape == want.shape
    scale = np.max(np.abs(want))
    assert np.max(np.abs(traj.mats - want)) <= 1e-13 * scale
    # the dynamics is not trivial on the compared stretch
    assert np.max(np.abs(want[-1] - want[0])) > 1e-3 * scale


def test_integrate_matches_rk4_oracle_two_noncommuting_channels():
    env = qubits(1)
    spec = lv.continuous_interaction(
        0.3,
        [Operator(QUBIT, SIGMA_Z), Operator(QUBIT, SIGMA_X)],
        [Operator(env, SIGMA_Z), Operator(env, SIGMA_X)],
        Ket(env, np.array([0.8, 0.6])),
        Ket(env, np.array([0.6, 0.8j])),
        t_final=1.3,
    )
    _assert_matches_oracle(spec, _generic_initial(), 200)


def test_integrate_matches_rk4_oracle_qutrit_system():
    # d = 3: vec(rho) has 18 real entries, the generators are 18 x 18
    rng = np.random.default_rng(21)
    sys3, env3 = HilbertSpace((3,)), HilbertSpace((3,))
    qs = [Operator(sys3, random_hermitian(sys3, rng).entries) for _ in range(2)]
    ls = [random_hermitian(env3, rng) for _ in range(2)]
    spec = lv.continuous_interaction(0.2, qs, ls, random_ket(env3, rng), random_ket(env3, rng))
    m = lv.weak_moments(spec)
    g0, g1 = spec.generators(m)
    assert g0.shape == g1.shape == (18, 18)
    u, v = random_ket(sys3, rng), random_ket(sys3, rng)
    rs0 = TwoState(sys3, np.outer(u.amps, v.amps.conj()), 0.0, 1.0, 0.0)
    # the compiled generators against the written-out equation
    for t in (0.0, 0.37, 1.0):
        want = _written_rhs(spec, m, t, rs0.mat)
        got = _generated(spec, m, t, rs0.mat)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
    _assert_matches_oracle(spec, rs0, 300)


def test_integrate_matches_rk4_oracle_correlated_burst():
    # an entangled complex final condition: window 0 has a future cross term,
    # window 1 a past one, both complex; sigma_x on the system mixes the entries
    space = qubits(2)
    e1 = Ket(space, np.array([0.5, 0.5, 0.5, 0.5]))
    e2 = Ket(space, np.array([0.6, 0.0, 0.0, 0.8j]))
    spec = lv.burst_interaction(0.3, 0.3, [SIGMA_Z, SIGMA_Z], e1, e2, sys_op=SIGMA_X)
    m = lv.weak_moments(spec)
    assert abs(m.delta[0, 1]) > 0.1 and abs(m.delta[1, 0]) > 0.1
    _assert_matches_oracle(spec, _generic_initial(), 2 * 150)


def test_integrate_matches_rk4_oracle_64_particle_product_burst():
    rng = np.random.default_rng(22)
    spec = _product_burst(rng, 64)
    _assert_matches_oracle(spec, _generic_initial(), 64 * 10)
