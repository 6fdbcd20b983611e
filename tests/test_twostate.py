"""Two-state construction, probability rules, reduction, weak values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from prepost.qcore import (
    SIGMA_X,
    SIGMA_Z,
    HilbertSpace,
    Ket,
    Operator,
    basis_ket,
    evolve,
    identity,
    qubits,
    random_hermitian,
    random_ket,
    random_unitary,
    tensor,
    two_state_inner,
)
from prepost.twostate import (
    FormalismError,
    ProjectorSet,
    TwoState,
    effective_density,
    from_conditions,
    is_generic,
    prob_env_post_only,
    prob_pre_only,
    prob_pre_post,
    purity,
    reduce_over_environment,
    schmidt_spectrum,
    weak_evolution_operator,
    weak_value,
)
from prepost import liouville as lv
from prepost import spinbath as sb

QUBIT = qubits(1)
UP = basis_ket(QUBIT, 0)
DOWN = basis_ket(QUBIT, 1)
PLUS_X = Ket(QUBIT, np.array([1.0, 1.0]) / np.sqrt(2))
SZ_SET = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_Z))


def zero_h(space):
    return Operator(space, np.zeros((space.total_dim,) * 2))


# ---------------------------------------------------------------- construction


def test_free_static_case():
    ts = from_conditions(UP, PLUS_X, zero_h(QUBIT), 0.0, 1.0, 0.3)
    np.testing.assert_allclose(ts.mat, np.outer(UP.amps, PLUS_X.amps.conj()), atol=1e-15)


def test_boundary_slot_evolved_back():
    rng = np.random.default_rng(0)
    h = random_hermitian(HilbertSpace((3,)), rng)
    pin = random_ket(h.space, rng)
    pout = random_ket(h.space, rng)
    t1, t2 = 0.0, 1.7
    ts = from_conditions(pin, pout, h, t1, t2, t1)
    back = expm(-1j * h.entries * (t1 - t2)) @ pout.amps
    np.testing.assert_allclose(ts.mat, np.outer(pin.amps, back.conj()), atol=1e-12)


def test_liouville_equation_finite_difference():
    rng = np.random.default_rng(1)
    h = random_hermitian(HilbertSpace((4,)), rng)
    pin = random_ket(h.space, rng)
    pout = random_ket(h.space, rng)
    t1, t2, t = 0.0, 2.0, 0.7

    def resid(dt):
        plus = from_conditions(pin, pout, h, t1, t2, t + dt).mat
        minus = from_conditions(pin, pout, h, t1, t2, t - dt).mat
        mid = from_conditions(pin, pout, h, t1, t2, t).mat
        lhs = 1j * (plus - minus) / (2 * dt)
        rhs = h.entries @ mid - mid @ h.entries
        return np.max(np.abs(lhs - rhs))

    r4, r5 = resid(1e-4), resid(1e-5)
    assert r4 < 1e-6
    assert 30 < r4 / r5 < 300  # second-order accurate difference


def test_zero_two_state_rejected():
    with pytest.raises(FormalismError):
        TwoState(QUBIT, np.zeros((2, 2)), 0.0, 1.0, 0.5)


def test_time_window_checked():
    with pytest.raises(ValueError):
        TwoState(QUBIT, np.eye(2), 0.0, 1.0, 1.5)


# ---------------------------------------------------------------- projector sets


def test_projector_set_validation():
    good = SZ_SET
    assert good.labels == (-1.0, 1.0)
    bad = Operator(QUBIT, np.array([[1.0, 0.1], [0.1, 0.0]]))
    with pytest.raises(ValueError):
        ProjectorSet(("a", "b"), (bad, identity(QUBIT)))
    with pytest.raises(ValueError):  # does not sum to identity
        p0 = Operator(QUBIT, np.diag([1.0, 0.0]).astype(complex))
        ProjectorSet(("a",), (p0,))


def test_projector_set_from_degenerate_observable():
    space = qubits(2)
    zz = Operator(space, np.kron(SIGMA_Z, SIGMA_Z))
    ps = ProjectorSet.from_observable(zz)
    assert sorted(ps.labels) == [-1.0, 1.0]
    ranks = sorted(int(round(np.trace(p.entries).real)) for p in ps.projectors)
    assert ranks == [2, 2]


# ---------------------------------------------------------------- probability rules


def test_consistent_boundaries_give_certainty():
    ts = from_conditions(UP, UP, zero_h(QUBIT), 0.0, 1.0, 0.4)
    probs = prob_pre_post(ts, SZ_SET)
    assert probs[1.0] == pytest.approx(1.0)
    assert probs[-1.0] == pytest.approx(0.0)


def test_pre_up_post_x_sigma_z():
    # amplitude through the down projector vanishes, so the up outcome is certain
    ts = from_conditions(UP, PLUS_X, zero_h(QUBIT), 0.0, 1.0, 0.5)
    probs = prob_pre_post(ts, SZ_SET)
    assert probs[1.0] == pytest.approx(1.0, abs=1e-14)
    assert probs[-1.0] == pytest.approx(0.0, abs=1e-14)


def _dual_form_probs(ts, ps):
    # independent route: tr(P_a rho(a)) / sum, rho(a) = rho P_a rho†
    weights = {}
    for lab, p in zip(ps.labels, ps.projectors):
        rho_a = ts.mat @ p.entries @ ts.mat.conj().T
        weights[lab] = float(np.real(np.trace(p.entries @ rho_a)))
    total = sum(weights.values())
    return {lab: w / total for lab, w in weights.items()}


@pytest.mark.parametrize("seed", range(8))
def test_prob_rule_dual_form(seed):
    rng = np.random.default_rng(100 + seed)
    space = HilbertSpace((3,))
    h = random_hermitian(space, rng)
    ts = from_conditions(random_ket(space, rng), random_ket(space, rng), h, 0.0, 1.0, rng.uniform(0, 1))
    basis = random_unitary(3, rng)
    ps = ProjectorSet.from_basis([Ket(space, basis[:, i]) for i in range(3)])
    probs = prob_pre_post(ts, ps)
    dual = _dual_form_probs(ts, ps)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    for lab in probs:
        assert probs[lab] == pytest.approx(dual[lab], abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_prob_rule_rescaling_invariance(seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace((3,))
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = complex(rng.normal(), rng.normal()) or 1.0
    basis = random_unitary(3, rng)
    ps = ProjectorSet.from_basis([Ket(space, basis[:, i]) for i in range(3)])
    p1 = prob_pre_post(TwoState(space, mat, 0, 1, 0.5), ps)
    p2 = prob_pre_post(TwoState(space, c * mat, 0, 1, 0.5), ps)
    for lab in p1:
        assert p1[lab] == pytest.approx(p2[lab], abs=1e-12)


def test_pre_only_is_born_rule_for_generic():
    rng = np.random.default_rng(4)
    space = HilbertSpace((3,))
    h = random_hermitian(space, rng)
    pin = random_ket(space, rng)
    t = 0.6
    basis = random_unitary(3, rng)
    ps = ProjectorSet.from_basis([Ket(space, basis[:, i]) for i in range(3)])
    born = {
        i: abs(np.vdot(basis[:, i], evolve(h, t, pin).amps)) ** 2 for i in range(3)
    }
    for pout_seed in range(3):  # independent of the final slot
        pout = random_ket(space, np.random.default_rng(50 + pout_seed))
        ts = from_conditions(pin, pout, h, 0.0, 1.0, t)
        probs = prob_pre_only(ts, ps)
        for lab in probs:
            assert probs[lab] == pytest.approx(born[lab], abs=1e-12)


def test_pre_only_uniform_for_identity():
    ts = TwoState(QUBIT, np.eye(2), 0.0, 1.0, 0.5)
    probs = prob_pre_only(ts, SZ_SET)
    assert probs[1.0] == pytest.approx(0.5)
    assert probs[-1.0] == pytest.approx(0.5)


def test_pre_only_entangled_against_elementwise_oracle():
    rng = np.random.default_rng(5)
    space = HilbertSpace((4,))
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ts = TwoState(space, mat, 0.0, 1.0, 0.2)
    basis = random_unitary(4, rng)
    ps = ProjectorSet.from_basis([Ket(space, basis[:, i]) for i in range(4)])
    probs = prob_pre_only(ts, ps)
    rho_in = mat @ mat.conj().T
    for i in range(4):
        oracle = np.real(np.vdot(basis[:, i], rho_in @ basis[:, i])) / np.real(np.trace(rho_in))
        assert probs[i] == pytest.approx(oracle, abs=1e-12)


def test_orthogonal_conditions_flagged_and_blocked():
    ts = from_conditions(UP, DOWN, zero_h(QUBIT), 0.0, 1.0, 0.5)
    assert ts.is_flagged_orthogonal()
    with pytest.raises(FormalismError):
        prob_pre_post(ts, SZ_SET)
    # pre-only ignores the final slot and stays well defined
    probs = prob_pre_only(ts, SZ_SET)
    assert probs[1.0] == pytest.approx(1.0)


def test_forbidden_intermediate_measurement():
    ts = TwoState(QUBIT, np.outer(UP.amps, DOWN.amps.conj()), 0.0, 1.0, 0.5)
    with pytest.raises(FormalismError, match="forbidden"):
        prob_pre_post(ts, SZ_SET)


def test_raw_and_constructed_orthogonal_two_states_share_one_verdict():
    # the boundary overlap is the trace, so a raw |up><down| is flagged just as
    # from_conditions is; sigma_x amplitudes do not vanish, the overlap does
    ps_x = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_X))
    raw = TwoState(QUBIT, np.outer(UP.amps, DOWN.amps.conj()), 0.0, 1.0, 0.0)
    built = from_conditions(UP, DOWN, zero_h(QUBIT), 0.0, 1.0, 0.0)
    for ts in (raw, built):
        assert ts.is_flagged_orthogonal()
        with pytest.raises(FormalismError, match="orthogonal boundary conditions"):
            prob_pre_post(ts, ps_x)


# ---------------------------------------------------------------- reduction


def _random_product_joint(rng, ds=2, de=4):
    sys_space = HilbertSpace((ds,))
    env_space = HilbertSpace((de,))
    joint_space = HilbertSpace((ds, de))
    s1, s2 = random_ket(sys_space, rng), random_ket(sys_space, rng)
    e1, e2 = random_ket(env_space, rng), random_ket(env_space, rng)
    psi1 = tensor(s1, e1)
    psi2 = tensor(s2, e2)
    return sys_space, env_space, joint_space, s1, s2, e1, e2, psi1, psi2


def test_reduce_decoupled_environment():
    rng = np.random.default_rng(6)
    sys_space, env_space, joint_space, s1, s2, e1, e2, psi1, psi2 = _random_product_joint(rng)
    hs = random_hermitian(sys_space, rng)
    he = random_hermitian(env_space, rng)
    h = Operator(
        joint_space,
        np.kron(hs.entries, np.eye(4)) + np.kron(np.eye(2), he.entries),
    )
    t1, t2 = 0.0, 1.0
    for t in np.linspace(t1, t2, 7):
        joint = from_conditions(psi1, psi2, h, t1, t2, t)
        red = reduce_over_environment(joint, he, e1, e2)
        expected = from_conditions(s1, s2, hs, t1, t2, t)
        np.testing.assert_allclose(red.mat, expected.mat, atol=1e-11)
        assert is_generic(red)


def test_reduce_matches_spinbath_closed_form():
    rng = np.random.default_rng(7)
    p = sb.random_params(rng, 2)
    psi1, psi2 = sb.joint_conditions(p)
    h = sb.joint_hamiltonian(p)
    e1, e2 = sb.env_kets(p)
    h_e = zero_h(e1.space)
    for t in (0.0, 0.31 * p.t_final, 0.77 * p.t_final, p.t_final):
        joint = from_conditions(psi1, psi2, h, 0.0, p.t_final, t)
        red = reduce_over_environment(joint, h_e, e1, e2)
        expected = sb.exact_reduced_two_state(p, t)
        np.testing.assert_allclose(red.mat, expected.mat, atol=1e-12)


def test_reduce_orthogonal_environment_rejected():
    rng = np.random.default_rng(8)
    sys_space, env_space, joint_space, s1, s2, e1, _, psi1, psi2 = _random_product_joint(rng)
    e2 = Ket(env_space, np.conj(e1.amps))  # not orthogonal; build a truly orthogonal one
    v = np.zeros(4, dtype=complex)
    v[0] = -np.conj(e1.amps[1])
    v[1] = np.conj(e1.amps[0])
    e2 = Ket(env_space, v / np.linalg.norm(v))
    assert abs(np.vdot(e2.amps, e1.amps)) < 1e-12
    h = zero_h(joint_space)
    joint = from_conditions(psi1, tensor(s2, e2), h, 0.0, 1.0, 0.5)
    with pytest.raises(FormalismError, match="orthogonal free environment"):
        reduce_over_environment(joint, zero_h(env_space), e1, e2)


def test_boundary_forms_with_general_hamiltonian():
    # at t2 the reduced two-state is W |s1><s2|, at t1 it is |s1><s2| W,
    # with W the environment-sandwiched joint evolution; rank one at both ends
    rng = np.random.default_rng(9)
    sys_space, env_space, joint_space, s1, s2, e1, e2, psi1, psi2 = _random_product_joint(rng)
    h = random_hermitian(joint_space, rng)
    he = zero_h(env_space)
    t1, t2 = 0.0, 1.2
    w = weak_evolution_operator(h, he, e1, e2, t1, t2)
    s1s2 = np.outer(s1.amps, s2.amps.conj())

    joint_end = from_conditions(psi1, psi2, h, t1, t2, t2)
    red_end = reduce_over_environment(joint_end, he, e1, e2)
    np.testing.assert_allclose(red_end.mat, w.entries @ s1s2, atol=1e-11)
    assert is_generic(red_end)

    joint_start = from_conditions(psi1, psi2, h, t1, t2, t1)
    red_start = reduce_over_environment(joint_start, he, e1, e2)
    np.testing.assert_allclose(red_start.mat, s1s2 @ w.entries, atol=1e-11)
    assert is_generic(red_start)


# ---------------------------------------------------------------- weak values


def test_weak_value_coinciding_conditions_is_expectation():
    rng = np.random.default_rng(10)
    space = HilbertSpace((3,))
    e = random_ket(space, rng)
    o = random_hermitian(space, rng)
    wv = weak_value(o, e, e, zero_h(space), 0.0, 1.0)
    assert wv == pytest.approx(np.vdot(e.amps, o.entries @ e.amps))
    assert abs(wv.imag) < 1e-12


def test_weak_value_identity_is_one():
    rng = np.random.default_rng(11)
    space = HilbertSpace((4,))
    e1, e2 = random_ket(space, rng), random_ket(space, rng)
    wv = weak_value(identity(space), e1, e2, zero_h(space), 0.0, 1.0)
    assert wv == pytest.approx(1.0)


def test_weak_value_anomalous_beyond_spectrum():
    # nearly orthogonal post-selection amplifies the weak value far outside [-1, 1]
    eps = 1e-3
    post = Ket(QUBIT, np.array([np.sin(eps / 2), np.cos(eps / 2)], dtype=complex))
    wv = weak_value(Operator(QUBIT, SIGMA_X), UP, post, zero_h(QUBIT), 0.0, 1.0)
    assert abs(wv) > 100.0


def test_weak_value_with_free_evolution():
    rng = np.random.default_rng(12)
    space = HilbertSpace((3,))
    h_e = random_hermitian(space, rng)
    e1, e2 = random_ket(space, rng), random_ket(space, rng)
    o = random_hermitian(space, rng)
    t1, t2 = 0.0, 0.8
    u = expm(-1j * h_e.entries * (t2 - t1))
    oracle = np.vdot(e2.amps, u @ o.entries @ e1.amps) / np.vdot(e2.amps, u @ e1.amps)
    assert weak_value(o, e1, e2, h_e, t1, t2) == pytest.approx(oracle)


def test_weak_value_matches_continuous_moments():
    # for an h_e that commutes with L the interaction-picture L is L itself,
    # so the Liouville route's first weak moment is the weak value
    rng = np.random.default_rng(30)
    space = HilbertSpace((3,))
    l_op = Operator(space, np.diag(rng.normal(size=3)))
    h_e = Operator(space, np.diag(rng.normal(size=3)))
    e1, e2 = random_ket(space, rng), random_ket(space, rng)
    spec = lv.continuous_interaction(
        0.1, [Operator(QUBIT, SIGMA_Z)], [l_op], e1, e2, h_e=h_e, t_final=0.9
    )
    expected = spec.moments().l_w[0]
    assert weak_value(l_op, e1, e2, h_e, 0.0, 0.9) == pytest.approx(expected, rel=1e-12)


def test_environment_rules_independent_of_the_kets_scale():
    # orthogonality is judged relative to |e1||e2|: kets scaled by 1e-7 have a
    # free overlap near 1e-14 yet the same reduced two-state and weak values
    rng = np.random.default_rng(31)
    sys_space, env_space, joint_space, s1, s2, e1, e2, psi1, psi2 = _random_product_joint(rng)
    h = random_hermitian(joint_space, rng)
    h_e = random_hermitian(env_space, rng)
    o = random_hermitian(env_space, rng)
    f1, f2 = Ket(env_space, 1e-7 * e1.amps), Ket(env_space, 1e-7 * e2.amps)

    joint = from_conditions(psi1, psi2, h, 0.0, 1.0, 0.4)
    small = from_conditions(tensor(s1, f1), tensor(s2, f2), h, 0.0, 1.0, 0.4)
    np.testing.assert_allclose(
        reduce_over_environment(small, h_e, f1, f2).mat,
        reduce_over_environment(joint, h_e, e1, e2).mat,
        rtol=1e-12,
    )
    assert weak_value(o, f1, f2, h_e, 0.0, 1.0) == pytest.approx(
        weak_value(o, e1, e2, h_e, 0.0, 1.0), rel=1e-12
    )
    np.testing.assert_allclose(
        weak_evolution_operator(h, h_e, f1, f2, 0.0, 1.0).entries,
        weak_evolution_operator(h, h_e, e1, e2, 0.0, 1.0).entries,
        rtol=1e-12,
    )


def test_weak_evolution_operator_free_case_identity():
    rng = np.random.default_rng(13)
    env_space = HilbertSpace((4,))
    joint_space = HilbertSpace((2, 4))
    h_e = random_hermitian(env_space, rng)
    h_tot = Operator(joint_space, np.kron(np.eye(2), h_e.entries))
    e1, e2 = random_ket(env_space, rng), random_ket(env_space, rng)
    w = weak_evolution_operator(h_tot, h_e, e1, e2, 0.0, 1.0)
    np.testing.assert_allclose(w.entries, np.eye(2), atol=1e-11)


def test_weak_evolution_operator_spinbath_closed_form():
    rng = np.random.default_rng(14)
    p = sb.random_params(rng, 3)
    e1, e2 = sb.env_kets(p)
    w = weak_evolution_operator(
        sb.joint_hamiltonian(p), zero_h(e1.space), e1, e2, 0.0, p.t_final
    )
    np.testing.assert_allclose(w.entries, sb.weak_evolution_closed_form(p).entries, atol=1e-12)


def test_weak_evolution_operator_suppression_is_identity_like():
    p = sb.suppression_scenario(4, np.array([0.4, 0.9, 1.3, 0.6]), 1.0)
    e1, e2 = sb.env_kets(p)
    w = weak_evolution_operator(
        sb.joint_hamiltonian(p), zero_h(e1.space), e1, e2, 0.0, p.t_final
    )
    c = np.prod(np.cos(p.g * p.t_final))
    np.testing.assert_allclose(w.entries, c * np.eye(2), atol=1e-12)


# ---------------------------------------------------------------- effective densities


def test_effective_density_single_generic_two_state():
    rng = np.random.default_rng(15)
    u, v = random_ket(QUBIT, rng), random_ket(QUBIT, rng)
    ts = TwoState(QUBIT, np.outer(u.amps, v.amps.conj()), 0.0, 1.0, 0.5)
    eff = effective_density([ts], SZ_SET)
    for lab, a_ket in ((1.0, UP), (-1.0, DOWN)):
        expected = abs(np.vdot(v.amps, a_ket.amps)) ** 2 * np.outer(u.amps, u.amps.conj())
        np.testing.assert_allclose(eff.matrix(lab), expected, atol=1e-13)
    assert eff.a_independence_score() < 1e-10


def test_effective_density_pure_at_final_condition():
    rng = np.random.default_rng(16)
    p = sb.random_params(rng, 3, system_post=False)
    pair = sb.env_postselected_two_states(p, p.t_final)
    for ps in (SZ_SET, ProjectorSet.from_observable(Operator(QUBIT, SIGMA_X))):
        eff = effective_density(list(pair), ps)
        assert eff.a_independence_score() < 1e-10
        for lab in eff.labels():
            assert purity(eff.matrix(lab)) == pytest.approx(1.0, abs=1e-10)


def test_effective_density_outcomes_positive_semidefinite():
    rng = np.random.default_rng(30)
    space = HilbertSpace((3,))
    states = [
        TwoState(space, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 0.0, 1.0, 0.5)
        for _ in range(3)
    ]
    basis = random_unitary(3, rng)
    ps = ProjectorSet.from_basis([Ket(space, basis[:, i]) for i in range(3)])
    eff = effective_density(states, ps)
    for lab in eff.labels():
        m = eff.matrix(lab)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(m)) > -1e-10


def test_effective_density_initial_condition_weights():
    # rho(a, t1) = tr(P_a W† W) |s1><s1| with W the weak evolution operator
    rng = np.random.default_rng(17)
    p = sb.random_params(rng, 3, system_post=False)
    pair = sb.env_postselected_two_states(p, 0.0)
    eff = effective_density(list(pair), SZ_SET)
    w = sb.weak_evolution_closed_form(p).entries
    s1 = np.array([p.a, p.b])
    gram = w.conj().T @ w
    for lab, idx in ((1.0, 0), (-1.0, 1)):
        c_a = gram[idx, idx].real
        np.testing.assert_allclose(eff.matrix(lab), c_a * np.outer(s1, s1.conj()), atol=1e-12)


# ---------------------------------------------------------------- environment-only post-selection


def test_env_post_only_reduces_to_born_without_interaction():
    rng = np.random.default_rng(18)
    env_space = HilbertSpace((4,))
    joint_space = HilbertSpace((2, 4))
    s1, e1 = random_ket(QUBIT, rng), random_ket(env_space, rng)
    e2 = random_ket(env_space, rng)
    psi_in = tensor(s1, e1)
    h = zero_h(joint_space)
    t = 0.4
    for basis_seed in range(2):
        u = random_unitary(2, np.random.default_rng(70 + basis_seed))
        s2_basis = [Ket(QUBIT, u[:, i]) for i in range(2)]
        probs = prob_env_post_only(psi_in, h, e2, s2_basis, SZ_SET, 0.0, 1.0, t)
        assert probs[1.0] == pytest.approx(abs(s1.amps[0]) ** 2, abs=1e-12)
        assert probs[-1.0] == pytest.approx(abs(s1.amps[1]) ** 2, abs=1e-12)


def test_env_post_only_basis_independence_spinbath():
    rng = np.random.default_rng(19)
    p = sb.random_params(rng, 3, system_post=False)
    s1, _ = sb.system_kets(p)
    e1, e2 = sb.env_kets(p)
    psi_in = tensor(s1, e1)
    h = sb.joint_hamiltonian(p)
    t = 0.37 * p.t_final
    base_basis = [UP, DOWN]
    base = prob_env_post_only(psi_in, h, e2, base_basis, SZ_SET, 0.0, p.t_final, t)
    for k in range(5):
        u = random_unitary(2, np.random.default_rng(200 + k))
        rot = [Ket(QUBIT, u[:, i]) for i in range(2)]
        probs = prob_env_post_only(psi_in, h, e2, rot, SZ_SET, 0.0, p.t_final, t)
        for lab in base:
            assert probs[lab] == pytest.approx(base[lab], abs=1e-10)


def test_env_post_only_against_joint_space_oracle():
    # oracle: same rule evaluated on dense joint two-states, one per final
    # system basis ket, with the projectors lifted to the joint space
    rng = np.random.default_rng(20)
    p = sb.random_params(rng, 3, system_post=False)
    s1, _ = sb.system_kets(p)
    e1, e2 = sb.env_kets(p)
    psi_in = tensor(s1, e1)
    h = sb.joint_hamiltonian(p)
    t = 0.52 * p.t_final
    ps_x = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_X))
    probs = prob_env_post_only(psi_in, h, e2, [UP, DOWN], ps_x, 0.0, p.t_final, t)

    env_id = identity(e1.space)
    weights = {lab: 0.0 for lab in ps_x.labels}
    for s2 in (UP, DOWN):
        joint = from_conditions(psi_in, tensor(s2, e2), h, 0.0, p.t_final, t)
        for lab, proj in zip(ps_x.labels, ps_x.projectors):
            lifted = tensor(proj, env_id)
            amp = two_state_inner(lifted, Operator(joint.space, joint.mat))
            weights[lab] += abs(amp) ** 2
    total = sum(weights.values())
    for lab in probs:
        assert probs[lab] == pytest.approx(weights[lab] / total, abs=1e-11)


@pytest.mark.parametrize("scale", [1e-85, 1e-7, 1e5, 1e7, 1e80])
def test_conditioned_rules_independent_of_the_kets_scale(scale):
    # every overlap and amplitude is judged relative to the norms it is built
    # from, so scaled kets give the unit kets' distribution; at 1e-85 and 1e80
    # the two-state's entries (near 1e-170 and 1e160) have squares that
    # under- and overflow
    rng = np.random.default_rng(41)
    pin, pout = random_ket(QUBIT, rng), random_ket(QUBIT, rng)
    h = random_hermitian(QUBIT, rng)
    ps = ProjectorSet.from_basis([Ket(QUBIT, c) for c in random_unitary(2, rng).T])
    unit_ts = from_conditions(pin, pout, h, 0.0, 1.0, 0.3)
    scaled_ts = from_conditions(
        Ket(QUBIT, scale * pin.amps), Ket(QUBIT, scale * pout.amps), h, 0.0, 1.0, 0.3
    )
    assert not scaled_ts.is_flagged_orthogonal()
    for rule in (prob_pre_post, prob_pre_only):
        unit, scaled = rule(unit_ts, ps), rule(scaled_ts, ps)
        for lab in unit:
            assert scaled[lab] == pytest.approx(unit[lab], abs=1e-12)

    p = sb.random_params(rng, 3, system_post=False)
    s1, _ = sb.system_kets(p)
    e1, e2 = sb.env_kets(p)
    psi_in = tensor(s1, e1)
    h_joint = sb.joint_hamiltonian(p)
    args = ([UP, DOWN], ps, 0.0, p.t_final, 0.4 * p.t_final)
    unit = prob_env_post_only(psi_in, h_joint, e2, *args)
    scaled = prob_env_post_only(
        Ket(psi_in.space, scale * psi_in.amps), h_joint, Ket(e2.space, scale * e2.amps), *args
    )
    for lab in unit:
        assert scaled[lab] == pytest.approx(unit[lab], abs=1e-12)


# ---------------------------------------------------------------- diagnostics


def test_schmidt_spectrum_rank_one():
    rng = np.random.default_rng(21)
    u, v = random_ket(QUBIT, rng), random_ket(QUBIT, rng)
    ts = TwoState(QUBIT, np.outer(u.amps, v.amps.conj()), 0.0, 1.0, 0.1)
    sv = schmidt_spectrum(ts)
    assert sv[1] < 1e-15
    assert is_generic(ts)


def test_schmidt_spectrum_maximally_entangled():
    ts = TwoState(QUBIT, np.eye(2) / np.sqrt(2), 0.0, 1.0, 0.5)
    np.testing.assert_allclose(schmidt_spectrum(ts), [1 / np.sqrt(2)] * 2, atol=1e-14)
    assert not is_generic(ts)


def test_schmidt_spectrum_spinbath_midpoint_entangled():
    rng = np.random.default_rng(22)
    p = sb.random_params(rng, 4)
    sv = schmidt_spectrum(sb.exact_reduced_two_state(p, p.t_final / 2))
    assert sv[1] > 1e-3 * sv[0]


def test_purity_values():
    assert purity(np.outer([1, 0], [1, 0])) == pytest.approx(1.0)
    assert purity(np.eye(2) / 2) == pytest.approx(0.5)
    with pytest.raises(FormalismError):
        purity(np.zeros((2, 2)))


def test_purity_of_xy_effective_density_at_boundaries():
    rng = np.random.default_rng(23)
    p = sb.random_params(rng, 4, system_post=False)
    for t in (0.0, p.t_final):
        assert purity(sb.effective_density_xy(p, t)) == pytest.approx(1.0, abs=1e-10)
