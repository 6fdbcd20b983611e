"""Platform-independent kernels against the numpy/LAPACK/libm routes they replace."""

import math

import numpy as np
import pytest

from prepost import detmath
from prepost import liouville as lv
from prepost import spinbath as sb
from prepost.qcore import (
    SIGMA_Z,
    HilbertSpace,
    Ket,
    Operator,
    qubits,
    random_hermitian,
    random_unitary,
)
from prepost.twostate import (
    EffectiveDensity,
    ProjectorSet,
    TwoState,
    _effective_densities,
    _purities,
    _scores,
    _singular_values,
    effective_density,
    purity,
    singular_values,
)

QUBIT = qubits(1)
EPS = np.finfo(float).eps


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want) if want != 0.0 else abs(got) / math.ulp(0.0)


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------- scalar kernels


def test_sincos_within_two_ulp_of_libm():
    rng = np.random.default_rng(0)
    xs = np.concatenate(
        [
            rng.uniform(-100.0, 100.0, 20000),
            np.arange(-63, 64) * (np.pi / 2),  # nearest doubles to multiples of pi/2
            np.arange(-63, 64) * (np.pi / 4),
            [0.0, 1e-300, -1e-20, 1e-9, 0.3, 0.78125, -100.0, 100.0],
        ]
    )
    worst_s = worst_c = 0.0
    for x in xs.tolist():
        s, c = detmath.sincos(x)
        worst_s = max(worst_s, _ulps(s, math.sin(x)))
        worst_c = max(worst_c, _ulps(c, math.cos(x)))
    assert worst_s <= 2.0
    assert worst_c <= 2.0


def test_sincos_exact_symmetry():
    for x in np.random.default_rng(1).uniform(-1e5, 1e5, 2000).tolist():
        s, c = detmath.sincos(x)
        assert detmath.sincos(-x) == (-s, c)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0e6])
def test_sincos_rejects_arguments_outside_its_range(bad):
    with pytest.raises(ValueError, match="sincos"):
        detmath.sincos(bad)


def test_hypot_against_math_hypot():
    rng = np.random.default_rng(2)
    pairs = [tuple(p) for p in rng.normal(size=(2000, 2)) * 10.0 ** rng.integers(-300, 300, (2000, 1))]
    pairs += [(0.0, 0.0), (0.0, -3.0), (1e308, 1e308), (5e-324, 5e-324), (3.0, 4.0)]
    for x, y in pairs:
        assert _ulps(detmath.hypot(x, y), math.hypot(x, y)) <= 1.0
    assert detmath.hypot(math.inf, math.nan) == math.inf
    assert math.isnan(detmath.hypot(1.0, math.nan))


def test_cmul_cdiv_against_python_complex():
    rng = np.random.default_rng(3)
    for a, b in _random_complex(rng, (500, 2)).tolist():
        assert detmath.cmul(a, b) == pytest.approx(a * b, rel=4 * EPS)
        assert detmath.cdiv(a, b) == pytest.approx(a / b, rel=8 * EPS)
    with pytest.raises(ZeroDivisionError):
        detmath.cdiv(1.0, 0j)


def test_split_vdots_against_vdot():
    rng = np.random.default_rng(4)
    u = _random_complex(rng, 1000)
    vs = [_random_complex(rng, 1000) for _ in range(3)]
    got = detmath.split_vdots(u, vs)
    for g, v in zip(got, vs):
        want = np.vdot(u, v)
        assert abs(g - want) <= 1e-13 * np.sum(np.abs(u) * np.abs(v))


def test_matmul_against_numpy_batched_and_broadcast():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(5, 4, 6))
    b = rng.normal(size=(5, 6, 3))
    got = detmath.matmul(a, b)
    assert got.shape == (5, 4, 3)
    scale = np.matmul(np.abs(a), np.abs(b))
    assert np.all(np.abs(got - np.matmul(a, b)) <= 1e-14 * scale)
    # one matrix against a batch, as the increment maps use it
    c = rng.normal(size=(6, 6))
    np.testing.assert_allclose(detmath.matmul(c, a.transpose(0, 2, 1)), c @ a.transpose(0, 2, 1), rtol=1e-13)


def test_matmul_exact_for_zero_and_identity_factors():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 8, 8)) * 10.0 ** rng.integers(-20, 20, size=(3, 8, 8))
    eye = np.broadcast_to(np.eye(8), a.shape)
    np.testing.assert_array_equal(detmath.matmul(a, eye), a)
    np.testing.assert_array_equal(detmath.matmul(eye, a), a)
    np.testing.assert_array_equal(detmath.matmul(a, np.zeros_like(a)), np.zeros_like(a))
    np.testing.assert_array_equal(detmath.matmul(np.zeros_like(a), a), np.zeros_like(a))


def test_complex_products_against_numpy():
    rng = np.random.default_rng(14)
    a = _random_complex(rng, (5, 5))
    b = _random_complex(rng, (5, 5))
    v = _random_complex(rng, 5)
    np.testing.assert_allclose(detmath.cmatmul(a, b), a @ b, rtol=0, atol=1e-14 * np.max(np.abs(a @ b)))
    # csplit(a) acts on interleaved (re, im) parts as a acts on v
    got = detmath.split_matvec(detmath.csplit(a), v.view(np.float64)).view(complex)
    np.testing.assert_allclose(got, a @ v, rtol=0, atol=1e-14 * np.max(np.abs(a @ v)))
    np.testing.assert_array_equal(detmath.csplit(np.eye(3, dtype=complex)), np.eye(6))


# ---------------------------------------------------------------- two-state kernels


def _check_singular_values(m):
    got = singular_values(m)
    want = np.linalg.svd(m, compute_uv=False)
    assert got.shape == (2,)
    assert got[0] >= got[1] >= 0.0
    # both routes are backward stable: absolute error a few ulp of s1
    assert np.max(np.abs(got - want)) <= 8 * EPS * want[0], (m, got, want)


def test_singular_values_2x2_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(500):
        _check_singular_values(_random_complex(rng, (2, 2)))


def test_singular_values_2x2_rank_one_and_maximally_entangled():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u, v = _random_complex(rng, 2), _random_complex(rng, 2)
        rank_one = np.outer(u, v.conj())
        _check_singular_values(rank_one)
        assert singular_values(rank_one)[1] <= 8 * EPS * singular_values(rank_one)[0]
        # a unitary over sqrt(2) is a maximally entangled two-state: s1 = s2
        ent = random_unitary(2, rng) / np.sqrt(2.0)
        _check_singular_values(ent)
        assert singular_values(ent) == pytest.approx([2**-0.5, 2**-0.5], abs=8 * EPS)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_singular_values_2x2_extreme_scales(scale):
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = _random_complex(rng, (2, 2))
        got = singular_values(m * scale)
        assert np.all(np.isfinite(got)) and got[1] > 0.0
        _check_singular_values(m * scale)


def test_singular_values_2x2_edge_cases():
    assert np.array_equal(singular_values(np.zeros((2, 2), complex)), [0.0, 0.0])
    assert np.array_equal(singular_values(np.diag([0.0, 3.0])), [3.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    m3 = _random_complex(np.random.default_rng(8), (3, 3))
    assert np.array_equal(singular_values(m3), np.linalg.svd(m3, compute_uv=False))


def test_purity_against_matrix_route():
    rng = np.random.default_rng(9)
    for trial in range(300):
        dim = 2 + trial % 3
        half = _random_complex(rng, (dim, dim))
        rho = half @ half.conj().T
        want = float(np.real(np.trace(rho @ rho))) / float(np.real(np.trace(rho))) ** 2
        assert purity(rho) == pytest.approx(want, abs=8 * EPS)
    v = _random_complex(rng, 2)
    assert purity(np.outer(v, v.conj())) == pytest.approx(1.0, abs=4 * EPS)


def _matrix_route(two_states, ps):
    """effective_density and a_independence_score through numpy matrix products."""
    out = {}
    for lab, p in zip(ps.labels, ps.projectors):
        rho = sum(ts.mat @ p.entries @ ts.mat.conj().T for ts in two_states)
        out[lab] = (rho + rho.conj().T) / 2.0
    normed = [m / np.real(np.trace(m)) for m in out.values()]
    score = max(
        (np.linalg.norm(normed[i] - normed[j]) for i in range(len(normed)) for j in range(i + 1, len(normed))),
        default=0.0,
    )
    return out, score


def test_effective_density_and_score_against_matrix_route():
    rng = np.random.default_rng(10)
    for trial in range(200):
        dim = 2 if trial % 4 else 3
        space = qubits(1) if dim == 2 else HilbertSpace((3,))
        basis = random_unitary(dim, rng)
        ps = ProjectorSet.from_basis([Ket(space, basis[:, k]) for k in range(dim)])
        states = [
            TwoState(space, _random_complex(rng, (dim, dim)), 0.0, 1.0, 0.5)
            for _ in range(1 + trial % 3)
        ]
        eff = effective_density(states, ps)
        want, want_score = _matrix_route(states, ps)
        for lab in ps.labels:
            got = eff.matrix(lab)
            scale = np.max(np.abs(want[lab]))
            assert np.max(np.abs(got - want[lab])) <= 16 * EPS * scale
            assert np.array_equal(got, got.conj().T)
        assert eff.a_independence_score() == pytest.approx(want_score, abs=16 * EPS)


def test_a_independence_score_skips_traceless_outcomes():
    eff = EffectiveDensity({0: np.diag([1.0, 0.0]).astype(complex), 1: np.zeros((2, 2), complex)})
    assert eff.a_independence_score() == 0.0
    assert EffectiveDensity({}).a_independence_score() == 0.0


def test_batched_kernels_match_one_row_calls():
    # the CLI takes each diagnostic column in one pass over its rows; every
    # row must keep the bits of the one-matrix call, signs of zero included
    rng = np.random.default_rng(11)
    mats = _random_complex(rng, (10, 2, 2))
    mats[1] = np.diag([1.0, 0.0])  # its sigma_z outcome -1 is traceless
    mats[2] = np.outer(mats[2, 0], mats[2, 1].conj())
    mats[3] *= 1e-85  # effective densities near 1e-170
    mats[4] *= 1e80  # and near 1e160

    rows = np.concatenate([mats, np.zeros((1, 2, 2)), 1e-170 * mats[5:7], 1e160 * mats[7:9]])
    for row, got in zip(rows, _singular_values(rows)):
        assert got.tobytes() == singular_values(row).tobytes()

    sz = ProjectorSet.from_observable(Operator(QUBIT, SIGMA_Z))
    family = np.stack([mats, np.roll(mats, 1, axis=0)], axis=1)
    outcomes = _effective_densities(family, np.stack([p.entries for p in sz.projectors]))
    for pair, got in zip(family, outcomes):
        eff = effective_density([TwoState(QUBIT, m, 0.0, 1.0, 0.5) for m in pair], sz)
        for a, lab in enumerate(sz.labels):
            assert got[a].tobytes() == eff.matrix(lab).tobytes()

    # d = 3: positive outcomes, one of them zero, and rows near 1e-170 and 1e160
    halves = _random_complex(rng, (4, 3, 3, 3))
    cubes = np.einsum("npij,npkj->npik", halves, halves.conj())
    cubes[0, 1] = 0.0
    cubes[1] *= 1e-170
    cubes[2] *= 1e160
    for outs in (np.concatenate([outcomes, np.zeros((1, 2, 2, 2))]), cubes):
        for row, got in zip(outs, _scores(outs)):
            want = EffectiveDensity(dict(enumerate(row))).a_independence_score()
            assert got.tobytes() == np.float64(want).tobytes()
        # purity needs a positive trace
        rhos = outs[np.trace(outs, axis1=2, axis2=3).real > 0.0]
        for rho, got in zip(rhos, _purities(rhos)):
            assert got.tobytes() == np.float64(purity(rho)).tobytes()

    rows[5, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _singular_values(rows)


# ---------------------------------------------------------------- spin bath and burst moments


def _chi_exp_route(p, x):
    terms = p.alpha * np.conj(p.alpha_post) * np.exp(1j * p.g * x) + p.beta * np.conj(
        p.beta_post
    ) * np.exp(-1j * p.g * x)
    return complex(np.prod(terms))


def test_decoherence_factor_against_exp_product():
    """rtol 1e-14 on the scale prod_k (|A_k| + |B_k|), the size of the terms
    the product is built from: where they cancel, |chi| is smaller and the exp
    route itself loses relative digits (by 2.4e-14 on these draws)."""
    rng = np.random.default_rng(11)
    for trial in range(120):
        p = sb.random_params(rng, 1 + trial % 12, t_final=float(rng.uniform(0.5, 5.0)))
        scale = float(
            np.prod(np.abs(p.alpha * np.conj(p.alpha_post)) + np.abs(p.beta * np.conj(p.beta_post)))
        )
        for x in rng.uniform(-p.t_final, p.t_final, 5):
            assert abs(sb.decoherence_factor(p, x) - _chi_exp_route(p, x)) <= 1e-14 * scale


def test_spinbath_rejects_phases_outside_the_sincos_range():
    with pytest.raises(ValueError, match="coupling phases"):
        sb.suppression_scenario(2, [1.0, 3.0e6], t_final=1.0)


def test_product_env_ket_matches_kron():
    rng = np.random.default_rng(12)
    parts = [_random_complex(rng, d) for d in (2, 3, 2, 4)]
    want = parts[0]
    for part in parts[1:]:
        want = np.kron(want, part)
    got = lv.product_env_ket(parts)
    assert got.space.factor_dims == (2, 3, 2, 4)
    np.testing.assert_allclose(got.amps, want, rtol=4 * EPS, atol=0)


@pytest.mark.parametrize("correlated", [False, True])
def test_burst_weak_moments_against_dense_operators(correlated):
    rng = np.random.default_rng(13)
    n = 5
    e1 = lv.product_env_ket([_random_complex(rng, 2) for _ in range(n)])
    e2 = lv.product_env_ket([_random_complex(rng, 2) for _ in range(n)])
    if correlated:
        e2 = Ket(e2.space, _random_complex(rng, 2**n))
    ops = [random_hermitian(QUBIT, rng).entries for _ in range(n)]
    m = lv.weak_moments(lv.burst_interaction(0.05, 0.1, ops, e1, e2))

    def dense(k):
        out = np.ones((1, 1))
        for j in range(n):
            out = np.kron(out, ops[j] if j == k else np.eye(2))
        return out

    full = [dense(k) for k in range(n)]
    den = np.vdot(e2.amps, e1.amps)
    l_w = np.array([np.vdot(e2.amps, f @ e1.amps) / den for f in full])
    second = np.array([[np.vdot(e2.amps, fi @ fj @ e1.amps) / den for fj in full] for fi in full])
    scale = np.max(np.abs(second))
    np.testing.assert_allclose(m.l_w, l_w, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(m.delta, second - np.outer(l_w, l_w), rtol=0, atol=1e-13 * scale)
    off = np.max(np.abs(m.delta - np.diag(np.diag(m.delta))))
    if correlated:
        assert off > 1e-3
    else:  # product conditions: no cross-particle weak correlations
        assert off <= 1e-13 * scale
