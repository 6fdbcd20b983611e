"""Perturbative reduced two-state dynamics under a post-selected environment.

Tracing a weakly coupled, pre- and post-selected environment out of the
Liouville equation gives, to second order in the coupling and in the free
case (H_s = H_e = 0, interaction picture otherwise):

    d rho_s / dt = -i lam (L_i)_w [Q_i, rho_s]
                   - lam^2 Delta_ij [Q_i, t Q_j rho_s + (T - t) rho_s Q_j]

with summation over repeated indices, (.)_w the weak value with respect to
the free environment two-state and Delta_ij = (L_i L_j)_w - (L_i)_w (L_j)_w
the weak uncertainty. The time-dependent weights t and T - t are what force
an initially rank-one two-state back to rank one at t = T.

For the single channel Q = sigma_z the equation solves in closed form: the
diagonal entries are constants and the coherences evolve as

    rho_ud(t) = exp(-i 2 lam L_w t - 2 lam^2 DL_w (t^2 - T t)) rho_ud(0),

with the opposite first-order sign on rho_du. Complex moments are allowed;
the coherence magnitude then follows the real part of the exponent only.

The burst variant couples the system to one environment particle per window
of duration tau. For product environment conditions the cross-correlations
Delta_nm (n != m) vanish and each window's second-order contribution
integrates to zero, so the two-state returns to rank one at every window
boundary. Product kets (:func:`product_env_ket`) keep their per-particle
factors, so their burst moments are one-particle quantities computed in
O(n), with cross-correlations exactly zero and no 2^n amplitudes built;
baths of many tens of particles are cheap. Correlated environment
conditions (plain kets) take the dense O(n^2 2^n) route, which is also the
oracle for the product route. They are integrated as written but have no
independent oracle for the dynamics here and should be treated as
unverified.

:class:`ContinuousSpec` (one window [0, T]) and :class:`BurstSpec` (one
window per particle) each own their weak moments, their weak-coupling
parameter and a per-window right-hand side with its constants bound once;
:func:`integrate` runs one RK4 loop over the windows of either. The burst
weak moments, the product kets and the particle operators' action are
computed in real arithmetic of fixed order (:mod:`prepost.detmath`), so
they are the same bits on every machine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .detmath import cabs, cdiv, join, split_vdots
from .qcore import SIGMA_Z, HilbertSpace, Ket, Operator, ProductKet
from .twostate import FormalismError, TwoState, from_conditions, purity

__all__ = [
    "ContinuousSpec",
    "BurstSpec",
    "WeakMoments",
    "Trajectory",
    "continuous_interaction",
    "burst_interaction",
    "product_env_ket",
    "weak_moments",
    "modified_liouville_rhs",
    "burst_rhs",
    "integrate",
    "closed_form_spin",
]

COMMUTATION_TOL = 1e-10


@dataclass(eq=False)
class WeakMoments:
    """First weak moments (L_i)_w and the weak uncertainty matrix Delta_ij."""

    l_w: np.ndarray
    delta: np.ndarray


def _with_delta(l_w: np.ndarray, second: np.ndarray) -> WeakMoments:
    """Moments with Delta = second - l_w l_w^T, the outer product in real parts."""
    lr, li = l_w.real, l_w.imag
    delta = join(
        second.real - (np.multiply.outer(lr, lr) - np.multiply.outer(li, li)),
        second.imag - (np.multiply.outer(lr, li) + np.multiply.outer(li, lr)),
    )
    return WeakMoments(l_w=l_w, delta=delta)


@dataclass(eq=False)
class ContinuousSpec:
    """Continuous coupling lam * sum_i Q_i (x) L_i over the single window [0, T].

    Built and validated by :func:`continuous_interaction`; ``env_rho0`` is the
    free environment two-state at t = 0.
    """

    lam: float
    t_final: float
    q_ops: list
    l_ops: list
    env_rho0: TwoState

    def validity(self) -> tuple:
        """Weak-coupling parameter: its name, its value, the limit it must stay below."""
        return "lam*T", self.lam * self.t_final, 1.0

    def moments(self) -> WeakMoments:
        mat = self.env_rho0.mat
        tr0 = complex(np.trace(mat))
        if abs(tr0) <= 1e-12:
            raise FormalismError("orthogonal environment conditions: weak moments undefined")
        ops = [l.entries for l in self.l_ops]
        l_w = np.array([np.trace(o @ mat) / tr0 for o in ops])
        second = np.array([[np.trace(oi @ oj @ mat) / tr0 for oj in ops] for oi in ops])
        return _with_delta(l_w, second)

    def window_rhs(self, moments: WeakMoments):
        """d rho / dt on [0, T] as a function of (t, rho).

        The weights -i lam (L_i)_w and lam^2 Delta_ij are bound once here,
        not at every evaluation.
        """
        lam = self.lam
        big_t = self.t_final
        qs = [q.entries for q in self.q_ops]
        first = [-1j * lam * moments.l_w[i] for i in range(len(qs))]
        second = [[lam**2 * moments.delta[i, j] for j in range(len(qs))] for i in range(len(qs))]

        def rhs(t: float, rs_mat: np.ndarray) -> np.ndarray:
            out = np.zeros_like(rs_mat)
            for f, q in zip(first, qs):
                out += f * (q @ rs_mat - rs_mat @ q)
            for j, qj in enumerate(qs):
                x_j = t * (qj @ rs_mat) + (big_t - t) * (rs_mat @ qj)
                for i, qi in enumerate(qs):
                    out -= second[i][j] * (qi @ x_j - x_j @ qi)
            return out

        return rhs

    def windows(self, moments: WeakMoments, steps: int) -> list:
        """(t0, h, steps, rhs) of each smooth stretch of [0, T]: here one."""
        return [(0.0, self.t_final / steps, steps, self.window_rhs(moments))]


@dataclass(eq=False)
class BurstSpec:
    """Sequential coupling: the system meets particle n during [n tau, (n+1) tau).

    Built and validated by :func:`burst_interaction`. ``particle_ops[n]``
    acts on factor n of the environment kets ``env_in``/``env_out``, and
    ``sys_op`` on the system in every window.
    """

    lam: float
    tau: float
    sys_op: np.ndarray
    particle_ops: list
    env_in: Ket
    env_out: Ket

    @property
    def t_final(self) -> float:
        return len(self.particle_ops) * self.tau

    def validity(self) -> tuple:
        """Weak-coupling parameter: its name, its value, the limit it must stay below."""
        return "lam*tau", self.lam * self.tau, 0.1

    def moments(self) -> WeakMoments:
        ops = self.particle_ops
        n = len(ops)
        if isinstance(self.env_in, ProductKet) and isinstance(self.env_out, ProductKet):
            l_w = np.empty(n, dtype=complex)
            delta = np.zeros((n, n), dtype=complex)
            pairs = zip(self.env_in.factors, self.env_out.factors)
            for k, (op, (a, b)) in enumerate(zip(ops, pairs)):
                l_w[k], delta[k, k] = _particle_moments(k, op, a, b)
            return WeakMoments(l_w=l_w, delta=delta)
        e1 = self.env_in.amps
        e2 = self.env_out.amps
        dims = self.env_in.space.factor_dims
        (den,) = split_vdots(e2, [e1])
        if cabs(den) <= 1e-12:
            raise FormalismError("orthogonal environment conditions: weak moments undefined")
        applied = [_apply_particle(ops[k], k, dims, e1) for k in range(n)]
        l_w = np.array([cdiv(x, den) for x in split_vdots(e2, applied)])
        second = np.empty((n, n), dtype=complex)
        for i in range(n):
            back = _apply_particle(ops[i].conj().T, i, dims, e2)
            second[i] = [cdiv(x, den) for x in split_vdots(back, applied)]
        return _with_delta(l_w, second)

    def window_rhs(self, moments: WeakMoments, window: int):
        """d rho / dt within one burst window, as a function of (t, rho).

        The window's constants (its first moment, its diagonal weak
        uncertainty and the cross-correlation sums over past and future
        partners) are computed once here, not at every evaluation.
        """
        tau = self.tau
        lam = self.lam
        sig = self.sys_op
        first = -1j * lam * moments.l_w[window]
        diag = lam**2 * moments.delta[window, window]
        mid = (2 * window + 1) * tau
        # the cross-correlation terms are exactly zero for product conditions,
        # and for the first (no past) and last (no future) windows
        past = lam**2 * complex(np.sum(moments.delta[window, :window])) * (window * tau)
        future = lam**2 * complex(np.sum(moments.delta[window, window + 1 :])) * (
            (len(self.particle_ops) - window - 1) * tau
        )

        def rhs(t: float, rs_mat: np.ndarray) -> np.ndarray:
            sm = sig @ rs_mat
            ms = rs_mat @ sig
            out = first * (sm - ms)
            out = out - diag * (2.0 * t - mid) * (rs_mat - sig @ ms)
            if past:
                out = out - past * (sig @ sm - sm @ sig)
            if future:
                out = out - future * (sig @ ms - ms @ sig)
            return out

        return rhs

    def windows(self, moments: WeakMoments, steps: int) -> list:
        """(t0, h, steps, rhs) of each window, with about steps/n steps each."""
        n_bursts = len(self.particle_ops)
        per_window = max(1, round(steps / n_bursts))
        h = self.tau / per_window
        return [(n * self.tau, h, per_window, self.window_rhs(moments, n)) for n in range(n_bursts)]


@dataclass(eq=False)
class Trajectory:
    """Two-state matrices ``mats[i]`` at ``times[i]`` of one integration.

    ``coherence`` (|rho_01| for a qubit, else the largest off-diagonal
    magnitude) covers every step; :class:`TwoState` objects (:meth:`state`,
    ``states``) and the purity of rho rho† are built only on request.
    """

    times: np.ndarray
    mats: np.ndarray
    space: HilbertSpace
    t_final: float
    boundary_overlap: Optional[complex]
    coherence: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.space.total_dim
        off = self.mats[:, 0, 1:] if d == 2 else self.mats[:, ~np.eye(d, dtype=bool)]
        self.coherence = np.abs(off).max(axis=1)

    def state(self, i: int) -> TwoState:
        """The two-state at step i."""
        return TwoState(
            self.space, self.mats[i], 0.0, self.t_final, float(self.times[i]),
            boundary_overlap=self.boundary_overlap,
        )

    @cached_property
    def states(self) -> list:
        return [self.state(i) for i in range(len(self.times))]

    @cached_property
    def purity(self) -> np.ndarray:
        return np.array([purity(m @ m.conj().T) for m in self.mats])


def continuous_interaction(
    lam: float,
    q_ops: Sequence[Operator],
    l_ops: Sequence[Operator],
    e1: Ket,
    e2: Ket,
    h_e: Optional[Operator] = None,
    t_final: float = 1.0,
) -> ContinuousSpec:
    """Continuous coupling lam * sum_i Q_i (x) L_i with free env conditions.

    The free environment Hamiltonian must commute with every L_i (the
    regime in which the interaction picture reduces to the free case).
    """
    if not q_ops or len(q_ops) != len(l_ops):
        raise ValueError("need matching, nonempty Q and L operator lists")
    sys_space = q_ops[0].space
    env_space = l_ops[0].space
    if any(q.space != sys_space for q in q_ops):
        raise ValueError("all system operators must share one space")
    if any(l.space != env_space for l in l_ops):
        raise ValueError("all environment operators must share one space")
    if e1.space != env_space or e2.space != env_space:
        raise ValueError("environment kets must live on the coupling operators' space")
    if h_e is None:
        h_e = Operator(env_space, np.zeros((env_space.total_dim,) * 2, dtype=complex))
    for i, l in enumerate(l_ops):
        comm = h_e.entries @ l.entries - l.entries @ h_e.entries
        if float(np.max(np.abs(comm))) > COMMUTATION_TOL:
            raise ValueError(
                f"free environment Hamiltonian does not commute with coupling operator {i}"
            )
    env_rho0 = from_conditions(e1, e2, h_e, 0.0, float(t_final), 0.0)
    return ContinuousSpec(
        lam=float(lam), t_final=float(t_final), q_ops=list(q_ops), l_ops=list(l_ops), env_rho0=env_rho0
    )


def product_env_ket(parts: Sequence[np.ndarray]) -> ProductKet:
    """Product ket over one factor per environment particle.

    The ket keeps its factors, so the burst weak moments are one-particle
    quantities; its 2^n amplitudes are built only if a dense consumer
    (:func:`continuous_interaction`, :func:`from_conditions`) reads them.
    """
    return ProductKet(parts)


def burst_interaction(
    lam: float,
    tau: float,
    particle_ops: Sequence[np.ndarray],
    e1: Ket,
    e2: Ket,
    sys_op: Optional[np.ndarray] = None,
) -> BurstSpec:
    """Sequential coupling: the system meets particle n during [n tau, (n+1) tau).

    ``particle_ops[n]`` acts on the n-th environment factor; the system side
    is a single fixed operator (sigma_z unless given). The environment is
    free (zero Hamiltonian) during the schedule.
    """
    n = len(particle_ops)
    if n == 0:
        raise ValueError("need at least one environment particle")
    if tau <= 0:
        raise ValueError("burst duration tau must be positive")
    if e1.space != e2.space or e1.space.n_factors != n:
        raise ValueError("environment kets must have one tensor factor per particle")
    ops = []
    for k, op in enumerate(particle_ops):
        arr = np.asarray(op, dtype=complex)
        dk = e1.space.factor_dims[k]
        if arr.shape != (dk, dk):
            raise ValueError(f"particle operator {k} shape {arr.shape} does not match factor dim {dk}")
        ops.append(arr)
    sys_arr = np.asarray(SIGMA_Z if sys_op is None else sys_op, dtype=complex)
    if sys_arr.shape != (2, 2):
        raise ValueError("burst system operator must be 2x2")
    if float(np.max(np.abs(sys_arr - sys_arr.conj().T))) > COMMUTATION_TOL:
        raise ValueError("burst system operator must be Hermitian")
    return BurstSpec(
        lam=float(lam), tau=float(tau), sys_op=sys_arr, particle_ops=ops, env_in=e1, env_out=e2
    )


def _apply_particle(op: np.ndarray, k: int, dims: tuple, vec: np.ndarray) -> np.ndarray:
    """``op`` acting on factor k of ``vec``, in real arithmetic of fixed order.

    Terms whose operator coefficient is exactly zero are skipped.
    """
    pre = math.prod(dims[:k]) if k else 1
    post = math.prod(dims[k + 1 :]) if k + 1 < len(dims) else 1
    v = vec.reshape(pre, dims[k], post)
    out = np.zeros(v.shape, dtype=complex)
    for a in range(dims[k]):
        re, im = out[:, a].real, out[:, a].imag
        for b in range(dims[k]):
            o = complex(op[a, b])
            if o.real != 0.0:
                re += o.real * v[:, b].real
                im += o.real * v[:, b].imag
            if o.imag != 0.0:
                re -= o.imag * v[:, b].imag
                im += o.imag * v[:, b].real
    return out.reshape(-1)


def _particle_moments(k: int, op: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """(L)_w and (L^2)_w - (L)_w^2 of one particle with conditions a, b.

    Orthogonality is judged on this particle's overlap relative to |a||b|,
    not on the product over all particles, which underflows for long
    environments whose every factor is well conditioned.
    """
    dims = (a.size,)
    applied = _apply_particle(op, 0, dims, a)
    back = _apply_particle(op.conj().T, 0, dims, b)
    den, first = split_vdots(b, [a, applied])
    (second,) = split_vdots(back, [applied])
    (aa,) = split_vdots(a, [a])
    (bb,) = split_vdots(b, [b])
    if cabs(den) <= 1e-12 * math.sqrt(aa.real) * math.sqrt(bb.real):
        raise FormalismError(
            f"orthogonal environment conditions on particle {k}: weak moments undefined"
        )
    lw = cdiv(first, den)
    sw = cdiv(second, den)
    # the same real-part order as the dense route's outer product
    dd = complex(
        sw.real - (lw.real * lw.real - lw.imag * lw.imag),
        sw.imag - (lw.real * lw.imag + lw.imag * lw.real),
    )
    return lw, dd


def weak_moments(spec: ContinuousSpec | BurstSpec) -> WeakMoments:
    """(L_i)_w and Delta_ij with respect to the free environment two-state.

    Continuous specs take traces against the free environment two-state.
    Burst specs take one of two routes, picked by the type of the boundary
    kets:

    - Product kets (:class:`~prepost.qcore.ProductKet`, as built by
      :func:`product_env_ket`) make every moment a one-particle quantity:
      (L_k)_w = <e2_k|L_k|e1_k>/<e2_k|e1_k> and
      Delta_kk = (L_k^2)_w - (L_k)_w^2, with Delta_km exactly 0.0 for
      k != m. The cost is O(n) and no 2^n amplitudes are built, and each
      particle's overlap is checked for orthogonality on its own.
    - Correlated kets (plain :class:`~prepost.qcore.Ket`) take the
      matrix-free dense route: second moments <L_i^dagger e2|L_j e1> from
      2n operator applications on the full kets, O(n^2 2^n). It is also the
      oracle for the product route.

    Both are real arithmetic of fixed order, the same bits on every machine.
    The arrays have shapes (n,) and (n, n) either way.
    """
    return spec.moments()


def modified_liouville_rhs(
    t: float,
    rs_mat: np.ndarray,
    spec: ContinuousSpec,
    moments: WeakMoments,
) -> np.ndarray:
    """Right-hand side of the second-order modified Liouville equation."""
    if not isinstance(spec, ContinuousSpec):
        raise ValueError("modified_liouville_rhs needs a continuous interaction spec")
    return spec.window_rhs(moments)(t, rs_mat)


def burst_rhs(
    t: float,
    rs_mat: np.ndarray,
    spec: BurstSpec,
    moments: WeakMoments,
) -> np.ndarray:
    """Right-hand side of the burst schedule equation, in the window holding t.

    Within window n: the gated first-order term, a diagonal second-order
    term with time weight 2t - (2n+1) tau (zero at the window midpoint,
    integrating to zero over the window), and the two cross-correlation
    terms weighted by Delta_nm over past (n tau) and future ((N-n-1) tau)
    partners.
    """
    if not isinstance(spec, BurstSpec):
        raise ValueError("burst_rhs needs a burst interaction spec")
    big_t = spec.t_final
    tol = 1e-9 * max(1.0, big_t)
    if t < -tol or t > big_t + tol:
        raise ValueError(f"time {t} outside the burst schedule [0, {big_t}]")
    window = min(max(int(np.floor(t / spec.tau + 1e-12)), 0), len(spec.particle_ops) - 1)
    return spec.window_rhs(moments, window)(t, rs_mat)


def integrate(rs0: TwoState, spec: ContinuousSpec | BurstSpec, steps: int = 2000) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta integration of a spec over [0, T].

    The spec splits [0, T] into windows on which its right-hand side is
    smooth, each with a whole number of steps: one window for a continuous
    coupling, one per particle for a burst schedule, so that no step
    straddles a gating discontinuity. Integrating outside the weak-coupling
    validity regime warns but proceeds.
    """
    steps = int(steps)
    if steps < 10:
        raise ValueError("need at least 10 integration steps")
    if abs(rs0.t - rs0.t1) > 1e-9 * max(1.0, rs0.duration):
        raise ValueError("initial two-state must be given at its own t1")
    name, value, limit = spec.validity()
    if not value < limit:
        warnings.warn(
            f"{name} = {value:.3g} >= {limit}: "
            "outside the weak-coupling validity regime",
            RuntimeWarning,
            stacklevel=2,
        )

    windows = spec.windows(weak_moments(spec), steps)
    total = sum(n for _, _, n, _ in windows)
    times = np.empty(total + 1)
    mats = np.empty((total + 1,) + rs0.mat.shape, dtype=complex)
    times[0] = 0.0
    y = mats[0] = rs0.mat
    i = 0
    for t0, h, n, rhs in windows:
        for k in range(n):
            t = t0 + k * h
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
            k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            i += 1
            times[i] = t0 + (k + 1) * h
            mats[i] = y
    return Trajectory(times, mats, rs0.space, spec.t_final, rs0.boundary_overlap)


def closed_form_spin(
    rs0: TwoState,
    l_w: complex,
    delta_l: complex,
    lam: float,
    big_t: float,
    t: float,
) -> TwoState:
    """Closed-form solution for the single sigma_z coupling channel.

    Diagonal entries are constants of motion; the coherences pick up
    exp(-/+ i 2 lam L_w t - 2 lam^2 DL_w (t^2 - T t)). The second-order
    exponent vanishes at t = 0 and t = T, which is the recoherence statement;
    for real L_w the coherence magnitude at T equals its initial value.
    """
    if rs0.space.total_dim != 2:
        raise ValueError("closed_form_spin is a single-spin solution")
    m0 = rs0.mat
    envelope = np.exp(-2.0 * lam**2 * delta_l * (t * t - big_t * t))
    up = np.exp(-2j * lam * l_w * t) * envelope
    dn = np.exp(+2j * lam * l_w * t) * envelope
    mat = np.array([[m0[0, 0], m0[0, 1] * up], [m0[1, 0] * dn, m0[1, 1]]])
    return TwoState(rs0.space, mat, 0.0, float(big_t), float(t), boundary_overlap=rs0.boundary_overlap)
