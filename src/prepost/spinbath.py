"""Exactly solvable dephasing model: one spin-1/2 coupled to a bath of spins.

The joint Hamiltonian is pure coupling,

    H = sum_k g_k sigma_z (x) sigma_z^(k),      (free parts zero)

with product pre-selection (a|up> + b|down>) prod_k (alpha_k|up_k> + beta_k|down_k>)
at t=0 and product post-selection at t=T. Basis index 0 is the sigma_z = +1
eigenstate throughout.

Tracing the bath out of the joint two-state gives a closed form whose
coefficients are values of the bath dephasing product

    chi(x) = prod_k ( alpha_k alpha'_k* e^{+i g_k x} + beta_k beta'_k* e^{-i g_k x} ).

The diagonal coefficients are time independent, the off-diagonal ones carry
chi(T-2t) and chi(2t-T), so the reduced two-state is rank one at both
boundaries and generically entangled in between: the post-selection forces
recoherence. When only the bath is post-selected, the same formula at the
system posts |up> and |down> gives the two reduced two-states of the
environment-only rule. `brute_force_reduced` re-derives the reduced
two-state from the full 2^(n+1)-dimensional joint evolution with exact
per-basis-state phases and is the oracle everything else is tested against;
it reads the bath's product kets, which :class:`SpinBathParams` holds as
:class:`~prepost.qcore.ProductKet` values whose amplitudes are built once,
on first read. The closed forms never touch kets.

The closed forms write their numbers to the CLI's CSV, so they are computed
with :mod:`prepost.detmath` only: the same bits on every IEEE-754 machine.
The brute-force oracle keeps numpy's complex routes, independent of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detmath import SINCOS_MAX_ARG, cdiv, cmul, sincos
from .qcore import Ket, Operator, ProductKet, qubits, tensor
from .twostate import OVERLAP_TOL, FormalismError, TwoState

__all__ = [
    "SpinBathParams",
    "decoherence_factor",
    "exact_reduced_two_state",
    "brute_force_reduced",
    "env_postselected_two_states",
    "effective_density_xy",
    "suppression_scenario",
    "random_params",
    "joint_hamiltonian",
    "joint_conditions",
    "env_kets",
    "system_kets",
    "weak_evolution_closed_form",
    "env_energies",
]

NORM_TOL = 1e-12
MAX_BATH_SPINS = 12

_QUBIT = qubits(1)


@dataclass(eq=False)
class SpinBathParams:
    """Couplings and boundary amplitudes of the spin-bath model.

    Per-spin amplitude pairs are (alpha_k, beta_k) before and
    (alpha_post_k, beta_post_k) after; the system pair (a_post, b_post) is
    optional, absent meaning only the environment is post-selected.
    """

    n: int
    g: np.ndarray
    a: complex
    b: complex
    alpha: np.ndarray
    beta: np.ndarray
    alpha_post: np.ndarray
    beta_post: np.ndarray
    t_final: float = 1.0
    a_post: Optional[complex] = None
    b_post: Optional[complex] = None

    def __post_init__(self):
        self.n = int(self.n)
        if not 1 <= self.n <= MAX_BATH_SPINS:
            raise ValueError(f"bath size must be in [1, {MAX_BATH_SPINS}], got {self.n}")
        self.g = np.asarray(self.g, dtype=float)
        for name in ("alpha", "beta", "alpha_post", "beta_post"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (self.n,):
                raise ValueError(f"{name} must have one entry per bath spin")
            setattr(self, name, arr)
        if self.g.shape != (self.n,):
            raise ValueError("g must have one coupling per bath spin")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if (self.a_post is None) != (self.b_post is None):
            raise ValueError("a_post and b_post must be given together")

        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > NORM_TOL:
            raise ValueError("system pre-selection amplitudes are not normalized")
        if self.a_post is not None:
            if abs(abs(self.a_post) ** 2 + abs(self.b_post) ** 2 - 1.0) > NORM_TOL:
                raise ValueError("system post-selection amplitudes are not normalized")
        pre_norm = np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2
        post_norm = np.abs(self.alpha_post) ** 2 + np.abs(self.beta_post) ** 2
        if np.max(np.abs(pre_norm - 1.0)) > NORM_TOL:
            raise ValueError("environment pre-selection amplitudes are not normalized")
        if np.max(np.abs(post_norm - 1.0)) > NORM_TOL:
            raise ValueError("environment post-selection amplitudes are not normalized")
        if not float(np.max(np.abs(self.g))) * self.t_final <= SINCOS_MAX_ARG:
            raise ValueError(
                f"coupling phases |g_k| t_final must be finite and at most {SINCOS_MAX_ARG:.6g}"
            )

        # Per spin, chi's factor A e^{igx} + B e^{-igx} with A = alpha conj(alpha_post)
        # and B = beta conj(beta_post) is (P cos + Q sin) + i (R cos + S sin);
        # (g, P, Q, R, S) are derived once, as are the time-independent chi(0)
        # and chi(+-T) and the bath's product kets. The parameters are not
        # meant to change after construction.
        ar, ai = _conj_product(self.alpha, self.alpha_post)
        br, bi = _conj_product(self.beta, self.beta_post)
        terms = (self.g, ar + br, bi - ai, ai + bi, ar - br)
        self._chi_spins = list(zip(*(x.tolist() for x in terms)))
        self._chi0 = _chi_pair(self, 0.0)[0]
        self._chi_t = _chi_pair(self, self.t_final)
        self._env_kets = (
            ProductKet(np.column_stack([self.alpha, self.beta])),
            ProductKet(np.column_stack([self.alpha_post, self.beta_post])),
        )

        # chi(0) = <e2|e1>, judged relative to |e1||e2| = sqrt(prod_k pre_k post_k)
        if abs(self._chi0) <= OVERLAP_TOL * math.sqrt(float(np.prod(pre_norm * post_norm))):
            raise FormalismError(
                "orthogonal free environment conditions: the reduction normalization vanishes"
            )

    @property
    def has_system_post(self) -> bool:
        return self.a_post is not None


def _conj_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of x * conj(y), elementwise."""
    return x.real * y.real + x.imag * y.imag, x.imag * y.real - x.real * y.imag


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _chi_pair(p: SpinBathParams, x: float) -> tuple[complex, complex]:
    """(chi(x), chi(-x)) from one sincos per spin, product in spin order.

    sincos(-g x) = (-sin, cos) exactly, so chi(-x) is the same bits as a
    separate evaluation at -x.
    """
    x = float(x)
    zr, zi, wr, wi = 1.0, 0.0, 1.0, 0.0
    for g, pc, qc, rc, sc in p._chi_spins:
        s, c = sincos(g * x)
        xr, xi = pc * c + qc * s, rc * c + sc * s
        yr, yi = pc * c - qc * s, rc * c - sc * s
        zr, zi = zr * xr - zi * xi, zr * xi + zi * xr
        wr, wi = wr * yr - wi * yi, wr * yi + wi * yr
    return complex(zr, zi), complex(wr, wi)


def decoherence_factor(p: SpinBathParams, tprime: float) -> complex:
    """Bath interference product chi(t').

    Computed from basic floating-point operations only (see
    :mod:`prepost.detmath`), so the value is the same bits on every machine.
    """
    return _chi_pair(p, tprime)[0]


def _conj(z) -> complex:
    return complex(z).conjugate()


def _scaled(amp: complex, chi: complex, chi0: complex) -> complex:
    """amp * chi / chi0, in that order; +0.0 for a zero amplitude."""
    if amp == 0:
        return 0j
    return cdiv(cmul(amp, chi), chi0)


def _check_time(p: SpinBathParams, t: float):
    slack = 1e-9 * max(1.0, p.t_final)
    if not -slack <= t <= p.t_final + slack:
        raise ValueError(f"time {t} outside [0, {p.t_final}]")


def _closed_form_chis(p: SpinBathParams, t: float) -> tuple:
    """The chi values the closed forms read at time t, checked against [0, T].

    Returns chi(0), chi(T), chi(-T), chi(T-2t) and chi(2t-T). Only the last
    two are computed here; the others were fixed at construction.
    """
    _check_time(p, t)
    c_p, c_m = p._chi_t
    c_back, c_fwd = _chi_pair(p, p.t_final - 2 * t)
    return p._chi0, c_p, c_m, c_back, c_fwd


def _reduced(p: SpinBathParams, chis: tuple, a_post: complex, b_post: complex, t: float) -> TwoState:
    """The closed-form reduced two-state for the system post (a_post, b_post).

    Entry (i, j) is s1_i conj(s2_j) chi(.) / chi(0), where (s1_0, s1_1) =
    (a, b), (s2_0, s2_1) = (a_post, b_post) and chi(.) is chi(-T), chi(T-2t),
    chi(2t-T) and chi(T) in row-major order; ``chis`` is
    :func:`_closed_form_chis` at t.
    """
    chi0, c_p, c_m, c_back, c_fwd = chis
    a, b, a2, b2 = p.a, p.b, _conj(a_post), _conj(b_post)
    mat = np.array(
        [[_scaled(cmul(a, a2), c_m, chi0), _scaled(cmul(a, b2), c_back, chi0)],
         [_scaled(cmul(b, a2), c_fwd, chi0), _scaled(cmul(b, b2), c_p, chi0)]]
    )
    return TwoState(_QUBIT, mat, 0.0, p.t_final, float(t))


def exact_reduced_two_state(p: SpinBathParams, t: float) -> TwoState:
    """Closed-form reduced two-state of the system spin.

    Diagonal coefficients are constant in t; the coherences carry
    chi(T-2t) and chi(2t-T), so the state is rank one at t=0 and t=T.
    """
    if not p.has_system_post:
        raise ValueError("exact_reduced_two_state needs a system post-selection")
    return _reduced(p, _closed_form_chis(p, t), p.a_post, p.b_post, t)


def env_energies(g: np.ndarray) -> np.ndarray:
    """eps[m] = sum_k g_k z_k(m) over bath basis states, z = +/-1."""
    z = np.array([1.0, -1.0])
    eps = np.zeros(1)
    for gk in g:
        eps = np.add.outer(eps, gk * z).reshape(-1)
    return eps


def brute_force_reduced(p: SpinBathParams, t: float) -> TwoState:
    """Independent oracle: full joint evolution, traced and normalized.

    Reads the 2^n bath amplitudes of the product kets held by ``p`` (built
    on the first call, then reused), applies the exact per-basis-state
    phases e^{-i E t} (left slot) and e^{-i E (t-T)} (right slot) with
    E(s, m) = sum_k g_k z_s z_k, contracts over the bath and divides by the
    free overlap <e2|e1>. No matrix is ever built, so the full n = 12 range
    stays cheap.
    """
    if not p.has_system_post:
        raise ValueError("brute_force_reduced needs a system post-selection")
    _check_time(p, t)
    big_t = p.t_final
    e1, e2 = (k.amps for k in p._env_kets)
    eps = env_energies(p.g)
    s1 = (p.a, p.b)
    s2 = (p.a_post, p.b_post)
    de = e1.size
    u = np.empty((2, de), dtype=complex)
    v = np.empty((2, de), dtype=complex)
    for i, sgn in enumerate((1.0, -1.0)):
        u[i] = s1[i] * np.exp(-1j * sgn * eps * t) * e1
        v[i] = s2[i] * np.exp(-1j * sgn * eps * (t - big_t)) * e2
    norm = complex(np.vdot(e2, e1))
    if abs(norm) <= OVERLAP_TOL * np.linalg.norm(e1) * np.linalg.norm(e2):
        raise FormalismError("orthogonal free environment conditions")
    mat = (u @ v.conj().T) / norm
    return TwoState(_QUBIT, mat, 0.0, big_t, float(t))


def env_postselected_two_states(p: SpinBathParams, t: float) -> tuple[TwoState, TwoState]:
    """The two reduced two-states when only the bath is post-selected.

    Summing the final system condition over the sigma_z eigenstates gives
    one generic two-state per outcome; feeding both into effective_density
    realizes the environment-only measurement rule.
    """
    if p.has_system_post:
        raise ValueError("env_postselected_two_states needs system post-selection absent")
    chis = _closed_form_chis(p, t)
    return _reduced(p, chis, 1.0, 0.0, t), _reduced(p, chis, 0.0, 1.0, t)


def effective_density_xy(p: SpinBathParams, t: float) -> Operator:
    """Effective density matrix for equatorial observables, closed form.

    Valid only for measurements whose projectors have constant diagonal in
    the sigma_z basis (sigma_x, sigma_y): for those the per-outcome matrices
    collapse to the single Hermitian average (1/2) sum_s2 rho(s2) rho†(s2).
    Pure at t=0 and t=T, mixed in between.
    """
    if p.has_system_post:
        raise ValueError("effective_density_xy needs system post-selection absent")
    chi0, c_p, c_m, c_back, c_fwd = _closed_form_chis(p, t)
    a, b = complex(p.a), complex(p.b)
    d_up = _abs2(a) * (_abs2(c_m) + _abs2(c_back))
    d_dn = _abs2(b) * (_abs2(c_p) + _abs2(c_fwd))
    off = cmul(cmul(a, _conj(b)), cmul(c_m, _conj(c_fwd)) + cmul(c_back, _conj(c_p)))
    scale = 2.0 * _abs2(chi0)
    off = complex(off.real / scale, off.imag / scale)
    mat = np.array([[d_up / scale, off], [off.conjugate(), d_dn / scale]], dtype=complex)
    return Operator(_QUBIT, mat)


def suppression_scenario(
    n: int,
    g: np.ndarray,
    t_final: float,
    a: complex = 0.6,
    b: complex = 0.8j,
) -> SpinBathParams:
    """Bath selected so post-selection suppresses decoherence entirely.

    Pre- and post-selecting every bath spin along +x makes the dephasing
    product real and even, chi(x) = prod_k cos(g_k x); the weak evolution
    operator becomes proportional to the identity and near t=0 the system is
    described by a pure state for any observable.
    """
    amp = np.full(int(n), 1.0 / np.sqrt(2.0), dtype=complex)
    return SpinBathParams(
        n=int(n),
        g=np.asarray(g, dtype=float),
        a=a,
        b=b,
        alpha=amp.copy(),
        beta=amp.copy(),
        alpha_post=amp.copy(),
        beta_post=amp.copy(),
        t_final=float(t_final),
    )


def _bloch_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    theta = np.arccos(1.0 - 2.0 * rng.random())
    phi = 2.0 * np.pi * rng.random()
    return complex(np.cos(theta / 2.0)), complex(np.exp(1j * phi) * np.sin(theta / 2.0))


def random_params(
    rng: np.random.Generator,
    n: int,
    t_final: float = 1.0,
    system_post: bool = True,
    min_pair_overlap: float = 1e-3,
) -> SpinBathParams:
    """Bloch-uniform boundary amplitudes, couplings uniform in [0.1, 2.0]/T.

    Per-spin pre/post pairs are redrawn while their free overlap is below
    ``min_pair_overlap``, avoiding accidental orthogonality without biasing
    the generic case.
    """
    g = rng.uniform(0.1, 2.0, int(n)) / t_final
    a, b = _bloch_pair(rng)
    post = _bloch_pair(rng) if system_post else (None, None)
    alpha = np.empty(n, dtype=complex)
    beta = np.empty(n, dtype=complex)
    alpha_p = np.empty(n, dtype=complex)
    beta_p = np.empty(n, dtype=complex)
    for k in range(int(n)):
        while True:
            alpha[k], beta[k] = _bloch_pair(rng)
            alpha_p[k], beta_p[k] = _bloch_pair(rng)
            overlap = alpha[k] * np.conj(alpha_p[k]) + beta[k] * np.conj(beta_p[k])
            if abs(overlap) >= min_pair_overlap:
                break
    return SpinBathParams(
        n=int(n),
        g=g,
        a=a,
        b=b,
        alpha=alpha,
        beta=beta,
        alpha_post=alpha_p,
        beta_post=beta_p,
        t_final=float(t_final),
        a_post=post[0],
        b_post=post[1],
    )


def joint_hamiltonian(p: SpinBathParams) -> Operator:
    """Dense diagonal joint Hamiltonian sum_k g_k sigma_z sigma_z^(k).

    Materializes a 2^(n+1) square matrix; meant for cross-checks at small n,
    the oracle path never needs it.
    """
    z = np.array([1.0, -1.0])
    diag = np.kron(z, env_energies(p.g))
    return Operator(qubits(p.n + 1), np.diag(diag).astype(complex))


def system_kets(p: SpinBathParams) -> tuple[Ket, Optional[Ket]]:
    pre = Ket(_QUBIT, np.array([p.a, p.b]))
    post = Ket(_QUBIT, np.array([p.a_post, p.b_post])) if p.has_system_post else None
    return pre, post


def env_kets(p: SpinBathParams) -> tuple[Ket, Ket]:
    """The bath's pre- and post-selected product kets, as held by ``p``."""
    return p._env_kets


def joint_conditions(p: SpinBathParams) -> tuple[Ket, Ket]:
    """Joint product boundary kets on the (n+1)-spin space."""
    if not p.has_system_post:
        raise ValueError("joint_conditions needs a system post-selection")
    s1, s2 = system_kets(p)
    e1, e2 = p._env_kets
    return tensor(s1, e1), tensor(s2, e2)


def weak_evolution_closed_form(p: SpinBathParams) -> Operator:
    """diag(chi(-T), chi(T)) / chi(0): the bath-sandwiched joint evolution."""
    c_p, c_m = p._chi_t
    return Operator(_QUBIT, np.diag([cdiv(c_m, p._chi0), cdiv(c_p, p._chi0)]))
