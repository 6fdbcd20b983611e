"""Dense complex linear algebra over explicitly dimensioned tensor-product spaces.

Every ket and operator carries a :class:`HilbertSpace` recording the ordered
factor dimensions, so tensor products, partial traces and one-sided time
evolution can validate shapes instead of trusting callers. Everything is
plain numpy complex128; values are treated as immutable after construction
(backing arrays are write-locked) and all operations are pure functions.
A :class:`ProductKet` keeps its tensor factors and builds its amplitudes
only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .detmath import join

__all__ = [
    "HilbertSpace",
    "Ket",
    "ProductKet",
    "Operator",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "qubits",
    "basis_ket",
    "identity",
    "tensor",
    "partial_trace",
    "two_state_inner",
    "propagate",
    "evolve",
    "random_ket",
    "random_hermitian",
    "random_unitary",
]

# the one tolerance of the matrix identities the package checks: Hermiticity,
# projector algebra, commutation and basis orthonormality
HERMITIAN_TOL = 1e-10

# below this off-diagonal magnitude a generator is evolved by pure phases
DIAGONAL_TOL = 1e-14

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X.setflags(write=False)
SIGMA_Y.setflags(write=False)
SIGMA_Z.setflags(write=False)


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor factors of a finite-dimensional Hilbert space."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims:
            raise ValueError("HilbertSpace needs at least one tensor factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"every factor dimension must be >= 2, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)


def qubits(n: int) -> HilbertSpace:
    """Space of n two-level factors."""
    return HilbertSpace((2,) * n)


@dataclass(eq=False)
class Ket:
    """State vector on an explicitly dimensioned space."""

    space: HilbertSpace
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != self.space.total_dim:
            raise ValueError(
                f"ket has {amps.size} amplitudes, space has dimension {self.space.total_dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("ket amplitudes must be finite")
        amps.setflags(write=False)
        self.amps = amps

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


class ProductKet(Ket):
    """Product ket that keeps one amplitude vector per tensor factor.

    ``factors[k]`` holds the amplitudes of factor k. Consumers of one-factor
    quantities read the factors and never pay for the prod(dims) amplitudes;
    dense consumers read ``amps``, which is built on first read as a
    Kronecker product in real arithmetic of fixed order (the same bits on
    every machine) and then kept.
    """

    def __init__(self, factors: Sequence[np.ndarray]):
        parts = []
        for f in factors:
            arr = np.array(f, dtype=complex).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise ValueError("ket amplitudes must be finite")
            arr.setflags(write=False)
            parts.append(arr)
        self.space = HilbertSpace(tuple(arr.size for arr in parts))
        self.factors = tuple(parts)

    def __repr__(self) -> str:
        return f"ProductKet(factor_dims={self.space.factor_dims})"

    @cached_property
    def amps(self) -> np.ndarray:
        re, im = np.ones(1), np.zeros(1)
        for arr in self.factors:
            re, im = (
                (np.multiply.outer(re, arr.real) - np.multiply.outer(im, arr.imag)).reshape(-1),
                (np.multiply.outer(re, arr.imag) + np.multiply.outer(im, arr.real)).reshape(-1),
            )
        out = join(re, im)
        out.setflags(write=False)
        return out


@dataclass(eq=False)
class Operator:
    """Square matrix acting on an explicitly dimensioned space."""

    space: HilbertSpace
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"operator shape {m.shape} does not match space dimension {d}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        self.entries = m

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return float(np.max(np.abs(self.entries - self.entries.conj().T))) <= tol

    def is_unitary(self, tol: float = HERMITIAN_TOL) -> bool:
        d = self.space.total_dim
        return float(np.max(np.abs(self.entries @ self.entries.conj().T - np.eye(d)))) <= tol


def require_hermitian(op: Operator, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``op`` is Hermitian within ``HERMITIAN_TOL``."""
    if not op.is_hermitian():
        raise ValueError(f"{what} must be Hermitian within {HERMITIAN_TOL:g}")


def basis_ket(space: HilbertSpace, index: int) -> Ket:
    if not 0 <= index < space.total_dim:
        raise ValueError(f"basis index {index} out of range for dimension {space.total_dim}")
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[index] = 1.0
    return Ket(space, amps)


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.total_dim, dtype=complex))


def tensor(a: Union[Ket, Operator], b: Union[Ket, Operator]) -> Union[Ket, Operator]:
    """Kronecker product of two kets or two operators.

    Row-major factor ordering: the factor dimensions of the result are the
    concatenation of the operands' factor dimensions.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        space = HilbertSpace(a.space.factor_dims + b.space.factor_dims)
        return Ket(space, np.kron(a.amps, b.amps))
    if isinstance(a, Operator) and isinstance(b, Operator):
        space = HilbertSpace(a.space.factor_dims + b.space.factor_dims)
        return Operator(space, np.kron(a.entries, b.entries))
    raise TypeError("tensor operands must be two kets or two operators")


def partial_trace(m: Operator, keep: Sequence[int]) -> Operator:
    """Trace out every tensor factor not listed in ``keep``.

    Kept factors retain their original relative order. Linear in ``m`` and
    trace preserving.
    """
    dims = m.space.factor_dims
    n = len(dims)
    keep_idx = sorted(set(int(k) for k in keep))
    if not keep_idx:
        raise ValueError("keep must name at least one factor")
    if keep_idx[0] < 0 or keep_idx[-1] >= n:
        raise ValueError(f"factor index out of range: keep={keep_idx}, space has {n} factors")

    a = m.entries.reshape(dims + dims)
    row_labels = list(range(n))
    col_labels = [n + i for i in range(n)]
    for i in range(n):
        if i not in keep_idx:
            col_labels[i] = i  # same label on row and column contracts the factor
    out_labels = [i for i in keep_idx] + [n + i for i in keep_idx]
    reduced = np.einsum(a, row_labels + col_labels, out_labels)

    kept_dims = tuple(dims[i] for i in keep_idx)
    d = math.prod(kept_dims)
    return Operator(HilbertSpace(kept_dims), reduced.reshape(d, d))


def two_state_inner(r1: Operator, r2: Operator) -> complex:
    """Trace inner product tr(r1† r2) on the space of operators."""
    if r1.space != r2.space:
        raise ValueError("two_state_inner requires operators on the same space")
    return complex(np.vdot(r1.entries.ravel(), r2.entries.ravel()))


def propagate(h: Operator, t: float, vecs: np.ndarray) -> np.ndarray:
    """exp(-i h t) applied to a vector, or to each column of a matrix.

    ``h`` must already be known to be Hermitian; it is not checked here, so
    a caller scans it once however many propagations it needs. A numerically
    diagonal generator acts by phases, without building U; any other is
    exponentiated as V exp(-i w t) V† from its eigendecomposition.
    """
    entries = h.entries
    diag = np.diagonal(entries)
    off = entries - np.diag(diag)
    if entries.shape[0] == 1 or float(np.max(np.abs(off))) < DIAGONAL_TOL:
        phases = np.exp(-1j * diag.real * t)
        return phases[:, None] * vecs if vecs.ndim == 2 else phases * vecs
    w, v = np.linalg.eigh(entries)
    return (v * np.exp(-1j * w * t)) @ (v.conj().T @ vecs)


def evolve(h: Operator, t: float, target: Union[Ket, Operator], side: str = "left"):
    """Apply the unitary U = exp(-i h t) generated by a Hermitian ``h``.

    Kets map to U|psi>. Operators map to U M for side="left" or M U† for
    side="right"; both one-sided actions are exposed because the two slots of
    a two-state evolve with different time arguments.
    """
    require_hermitian(h, "evolution generator")
    t = float(t)

    if isinstance(target, Ket):
        if target.space != h.space:
            raise ValueError("ket and generator live on different spaces")
        return Ket(target.space, propagate(h, t, target.amps))

    if isinstance(target, Operator):
        if target.space != h.space:
            raise ValueError("operator and generator live on different spaces")
        m = target.entries
        if side == "left":
            out = propagate(h, t, m)
        elif side == "right":
            # M U† = (U M†)†
            out = propagate(h, t, m.conj().T).conj().T
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return Operator(target.space, out)

    raise TypeError("evolve target must be a Ket or an Operator")


def random_ket(space: HilbertSpace, rng: np.random.Generator) -> Ket:
    """Haar-uniform normalized ket."""
    d = space.total_dim
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return Ket(space, v / np.linalg.norm(v))


def random_hermitian(space: HilbertSpace, rng: np.random.Generator, scale: float = 1.0) -> Operator:
    d = space.total_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(space, scale * (a + a.conj().T) / 2.0)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix (QR of a complex Gaussian, phase-fixed)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]
