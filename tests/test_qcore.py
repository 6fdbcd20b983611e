"""Core linear algebra: tensor products, partial traces, inner product, evolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from prepost.qcore import (
    SIGMA_Z,
    HilbertSpace,
    Ket,
    Operator,
    basis_ket,
    evolve,
    identity,
    partial_trace,
    qubits,
    random_hermitian,
    random_ket,
    random_unitary,
    tensor,
    two_state_inner,
)


def test_space_rejects_trivial_factors():
    with pytest.raises(ValueError):
        HilbertSpace((2, 1))
    with pytest.raises(ValueError):
        HilbertSpace(())
    assert HilbertSpace((2, 3, 4)).total_dim == 24


def test_ket_shape_checked():
    with pytest.raises(ValueError):
        Ket(qubits(2), np.ones(3))


def test_tensor_identity():
    i2 = identity(qubits(1))
    i4 = tensor(i2, i2)
    np.testing.assert_array_equal(i4.entries, np.eye(4))
    assert i4.space.factor_dims == (2, 2)


def test_tensor_sigma_z_pair():
    sz = Operator(qubits(1), SIGMA_Z)
    zz = tensor(sz, sz)
    np.testing.assert_array_equal(np.diagonal(zz.entries), [1, -1, -1, 1])


def test_tensor_acts_factorwise():
    # oracle: direct per-index multiplication
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    big = tensor(Operator(HilbertSpace((2,)), a), Operator(HilbertSpace((3,)), b))
    uv = tensor(Ket(HilbertSpace((2,)), u), Ket(HilbertSpace((3,)), v))
    applied = big.entries @ uv.amps
    oracle = np.empty(6, dtype=complex)
    for i in range(2):
        for j in range(3):
            oracle[i * 3 + j] = sum(
                a[i, k] * b[j, l] * u[k] * v[l] for k in range(2) for l in range(3)
            )
    np.testing.assert_allclose(applied, oracle, atol=1e-12)


def test_tensor_associative_exactly_on_integers():
    rng = np.random.default_rng(5)
    mats = [
        Operator(HilbertSpace((d,)), rng.integers(-3, 4, size=(d, d)).astype(complex))
        for d in (2, 3, 2)
    ]
    left = tensor(tensor(mats[0], mats[1]), mats[2])
    right = tensor(mats[0], tensor(mats[1], mats[2]))
    np.testing.assert_array_equal(left.entries, right.entries)
    assert left.space == right.space


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(identity(qubits(1)), basis_ket(qubits(1), 0))


def test_partial_trace_product_operator():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prod = tensor(Operator(HilbertSpace((3,)), a), Operator(HilbertSpace((2,)), b))
    reduced = partial_trace(prod, keep=[0])
    np.testing.assert_allclose(reduced.entries, np.trace(b) * a, atol=1e-12)


def test_partial_trace_bell_state():
    bell = Ket(qubits(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho = Operator(qubits(2), np.outer(bell.amps, bell.amps.conj()))
    for keep in ([0], [1]):
        reduced = partial_trace(rho, keep)
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_against_index_sum():
    rng = np.random.default_rng(3)
    space = HilbertSpace((4, 2))
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = Operator(space, m)
    reduced = partial_trace(op, keep=[0])
    oracle = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            for k in range(2):
                oracle[i, j] += m[i * 2 + k, j * 2 + k]
    np.testing.assert_allclose(reduced.entries, oracle, atol=1e-13)


def test_partial_trace_invalid_factor():
    with pytest.raises(ValueError):
        partial_trace(identity(qubits(2)), keep=[2])
    with pytest.raises(ValueError):
        partial_trace(identity(qubits(2)), keep=[])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace((2, 3, 2))
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    op = Operator(space, m)
    keep = [[0], [1], [2], [0, 2], [1, 2]][seed % 5]
    reduced = partial_trace(op, keep)
    assert abs(np.trace(reduced.entries) - np.trace(m)) < 1e-12 * max(1.0, abs(np.trace(m)))


def test_inner_orthonormal_basis_elements():
    space = HilbertSpace((3,))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    e_ab = Operator(space, np.outer(basis_ket(space, a).amps, basis_ket(space, b).amps.conj()))
                    e_cd = Operator(space, np.outer(basis_ket(space, c).amps, basis_ket(space, d).amps.conj()))
                    expected = 1.0 if (a == c and b == d) else 0.0
                    assert two_state_inner(e_ab, e_cd) == pytest.approx(expected)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_inner_positive_definite(seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace((3,))
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    r = Operator(space, m)
    val = two_state_inner(r, r)
    assert abs(val.imag) < 1e-13 * val.real
    assert val.real > 0


def test_inner_against_matrix_trace():
    rng = np.random.default_rng(6)
    space = HilbertSpace((4,))
    r1 = Operator(space, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    r2 = Operator(space, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    oracle = np.trace(r1.entries.conj().T @ r2.entries)
    assert abs(two_state_inner(r1, r2) - oracle) < 1e-13 * abs(oracle)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        two_state_inner(identity(qubits(1)), identity(qubits(2)))


def test_evolve_time_zero_is_identity():
    rng = np.random.default_rng(7)
    space = HilbertSpace((4,))
    h = random_hermitian(space, rng)
    psi = random_ket(space, rng)
    np.testing.assert_allclose(evolve(h, 0.0, psi).amps, psi.amps, atol=1e-14)


def test_evolve_diagonal_phases():
    space = HilbertSpace((3,))
    h = Operator(space, np.diag([1.0, 2.0, -0.5]))
    psi = Ket(space, np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    out = evolve(h, 0.7, psi)
    expected = np.exp(-1j * np.array([1.0, 2.0, -0.5]) * 0.7) / np.sqrt(3)
    np.testing.assert_allclose(out.amps, expected, atol=1e-14)


def test_evolve_unitarity_and_eig_oracle():
    rng = np.random.default_rng(8)
    space = HilbertSpace((4,))
    h = random_hermitian(space, rng)
    v = random_unitary(4, rng)
    # a doubly degenerate spectrum leaves the eigenvectors free within each pair
    degenerate = Operator(space, (v * np.array([1.0, 1.0, -0.5, -0.5])) @ v.conj().T)
    long_t = 1e3 / np.linalg.norm(h.entries, 2)
    for gen, t in ((h, 1.3), (degenerate, 1.3), (h, long_t)):
        u = evolve(gen, t, identity(space), side="left")
        assert u.is_unitary(1e-11)
        # independent route: scaling-and-squaring, not the program's eigh
        np.testing.assert_allclose(u.entries, expm(-1j * gen.entries * t), atol=1e-11)


def test_evolve_right_action():
    rng = np.random.default_rng(9)
    space = HilbertSpace((3,))
    h = random_hermitian(space, rng)
    m = Operator(space, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    t = 0.42
    u = expm(-1j * h.entries * t)
    np.testing.assert_allclose(evolve(h, t, m, side="right").entries, m.entries @ u.conj().T, atol=1e-12)
    np.testing.assert_allclose(evolve(h, t, m, side="left").entries, u @ m.entries, atol=1e-12)


def test_evolve_rejects_non_hermitian():
    space = HilbertSpace((2,))
    h = Operator(space, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        evolve(h, 1.0, basis_ket(space, 0))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_evolve_norm_preserving(seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace((5,))
    h = random_hermitian(space, rng)
    psi = random_ket(space, rng)
    out = evolve(h, rng.uniform(-3, 3), psi)
    assert abs(out.norm - psi.norm) < 1e-11
