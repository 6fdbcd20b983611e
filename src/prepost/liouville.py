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

The burst weak moments, the product kets and the particle operators' action
are computed in real arithmetic of fixed order (:mod:`prepost.detmath`), so
they are the same bits on every machine. Each burst window's constants are
computed once per window, by the one kernel behind :func:`burst_rhs` and
:func:`integrate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detmath import cabs, cdiv, join, split_vdots
from .qcore import SIGMA_Z, Ket, Operator, ProductKet
from .twostate import FormalismError, TwoState, from_conditions, purity, schmidt_spectrum

__all__ = [
    "InteractionSpec",
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

# weak-coupling validity flags: lam*T for continuous, lam*tau for burst
CONTINUOUS_VALIDITY = 1.0
BURST_VALIDITY = 0.1


@dataclass(eq=False)
class InteractionSpec:
    """One interaction channel set, continuous or burst.

    Built through :func:`continuous_interaction` or :func:`burst_interaction`;
    the constructor itself performs no validation.
    """

    kind: str
    lam: float
    t_final: float
    # continuous
    q_ops: Optional[list] = None
    l_ops: Optional[list] = None
    env_rho0: Optional[TwoState] = None
    # burst
    tau: Optional[float] = None
    n_bursts: Optional[int] = None
    sys_op: Optional[np.ndarray] = None
    particle_ops: Optional[list] = None
    env_in: Optional[Ket] = None
    env_out: Optional[Ket] = None

    @property
    def weak_coupling_ok(self) -> bool:
        if self.kind == "continuous":
            return self.lam * self.t_final < CONTINUOUS_VALIDITY
        return self.lam * self.tau < BURST_VALIDITY


@dataclass(eq=False)
class WeakMoments:
    """First weak moments (L_i)_w and the weak uncertainty matrix Delta_ij."""

    l_w: np.ndarray
    delta: np.ndarray


@dataclass(eq=False)
class Trajectory:
    """Time grid, two-states, and per-time diagnostics of one integration."""

    times: np.ndarray
    states: list
    coherence: np.ndarray
    schmidt: np.ndarray
    purity: np.ndarray


def continuous_interaction(
    lam: float,
    q_ops: Sequence[Operator],
    l_ops: Sequence[Operator],
    e1: Ket,
    e2: Ket,
    h_e: Optional[Operator] = None,
    t_final: float = 1.0,
) -> InteractionSpec:
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
    return InteractionSpec(
        kind="continuous",
        lam=float(lam),
        t_final=float(t_final),
        q_ops=list(q_ops),
        l_ops=list(l_ops),
        env_rho0=env_rho0,
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
) -> InteractionSpec:
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
    return InteractionSpec(
        kind="burst",
        lam=float(lam),
        t_final=float(n * tau),
        tau=float(tau),
        n_bursts=n,
        sys_op=sys_arr,
        particle_ops=ops,
        env_in=e1,
        env_out=e2,
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


def weak_moments(spec: InteractionSpec) -> WeakMoments:
    """(L_i)_w and Delta_ij with respect to the free environment two-state.

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
    if spec.kind == "continuous":
        mat = spec.env_rho0.mat
        tr0 = complex(np.trace(mat))
        if abs(tr0) <= 1e-12:
            raise FormalismError("orthogonal environment conditions: weak moments undefined")
        ops = [l.entries for l in spec.l_ops]
        n = len(ops)
        l_w = np.array([np.trace(o @ mat) / tr0 for o in ops])
        second = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                second[i, j] = np.trace(ops[i] @ ops[j] @ mat) / tr0
    elif isinstance(spec.env_in, ProductKet) and isinstance(spec.env_out, ProductKet):
        n = spec.n_bursts
        l_w = np.empty(n, dtype=complex)
        delta = np.zeros((n, n), dtype=complex)
        pairs = zip(spec.env_in.factors, spec.env_out.factors)
        for k, (op, (a, b)) in enumerate(zip(spec.particle_ops, pairs)):
            l_w[k], delta[k, k] = _particle_moments(k, op, a, b)
        return WeakMoments(l_w=l_w, delta=delta)
    else:
        e1 = spec.env_in.amps
        e2 = spec.env_out.amps
        dims = spec.env_in.space.factor_dims
        (den,) = split_vdots(e2, [e1])
        if cabs(den) <= 1e-12:
            raise FormalismError("orthogonal environment conditions: weak moments undefined")
        n = spec.n_bursts
        ops = spec.particle_ops
        applied = [_apply_particle(ops[k], k, dims, e1) for k in range(n)]
        l_w = np.array([cdiv(x, den) for x in split_vdots(e2, applied)])
        second = np.empty((n, n), dtype=complex)
        for i in range(n):
            back = _apply_particle(ops[i].conj().T, i, dims, e2)
            second[i] = [cdiv(x, den) for x in split_vdots(back, applied)]
    # Delta = second - l_w l_w^T, the outer product in real parts
    lr, li = l_w.real, l_w.imag
    delta = join(
        second.real - (np.multiply.outer(lr, lr) - np.multiply.outer(li, li)),
        second.imag - (np.multiply.outer(lr, li) + np.multiply.outer(li, lr)),
    )
    return WeakMoments(l_w=l_w, delta=delta)


def modified_liouville_rhs(
    t: float,
    rs_mat: np.ndarray,
    spec: InteractionSpec,
    moments: WeakMoments,
) -> np.ndarray:
    """Right-hand side of the second-order modified Liouville equation."""
    if spec.kind != "continuous":
        raise ValueError("modified_liouville_rhs needs a continuous interaction spec")
    lam = spec.lam
    big_t = spec.t_final
    qs = [q.entries for q in spec.q_ops]
    out = np.zeros_like(rs_mat)
    for i, q in enumerate(qs):
        out += -1j * lam * moments.l_w[i] * (q @ rs_mat - rs_mat @ q)
    for j, qj in enumerate(qs):
        x_j = t * (qj @ rs_mat) + (big_t - t) * (rs_mat @ qj)
        for i, qi in enumerate(qs):
            out -= lam**2 * moments.delta[i, j] * (qi @ x_j - x_j @ qi)
    return out


def _burst_window_rhs(spec: InteractionSpec, moments: WeakMoments, window: int):
    """d rho / dt within one burst window, as a function of (t, rho).

    The window's constants (its first moment, its diagonal weak uncertainty
    and the cross-correlation sums over past and future partners) are
    computed once here, not at every evaluation.
    """
    n_total = spec.n_bursts
    tau = spec.tau
    lam = spec.lam
    sig = spec.sys_op
    first = -1j * lam * moments.l_w[window]
    diag = lam**2 * moments.delta[window, window]
    mid = (2 * window + 1) * tau
    # the cross-correlation terms are exactly zero for product conditions,
    # and for the first (no past) and last (no future) windows
    past = lam**2 * complex(np.sum(moments.delta[window, :window])) * (window * tau)
    future = lam**2 * complex(np.sum(moments.delta[window, window + 1 :])) * (
        (n_total - window - 1) * tau
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


def burst_rhs(
    t: float,
    rs_mat: np.ndarray,
    spec: InteractionSpec,
    moments: WeakMoments,
    window: Optional[int] = None,
) -> np.ndarray:
    """Right-hand side of the burst schedule equation.

    Within window n: the gated first-order term, a diagonal second-order
    term with time weight 2t - (2n+1) tau (zero at the window midpoint,
    integrating to zero over the window), and the two cross-correlation
    terms weighted by Delta_nm over past (n tau) and future ((N-n-1) tau)
    partners. ``window`` pins the active window for integrators stepping up
    to a shared boundary; otherwise it is derived from t.
    """
    if spec.kind != "burst":
        raise ValueError("burst_rhs needs a burst interaction spec")
    n_total = spec.n_bursts
    tau = spec.tau
    big_t = spec.t_final
    tol = 1e-9 * max(1.0, big_t)
    if t < -tol or t > big_t + tol:
        raise ValueError(f"time {t} outside the burst schedule [0, {big_t}]")
    if window is None:
        window = min(max(int(np.floor(t / tau + 1e-12)), 0), n_total - 1)
    return _burst_window_rhs(spec, moments, window)(t, rs_mat)


def _rk4_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
    k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rs0: TwoState, spec: InteractionSpec, steps: int = 2000) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta integration over [0, T].

    Burst schedules snap the grid to window boundaries (an integer number of
    steps per window) so no step straddles a gating discontinuity, and the
    right-hand side is evaluated with the window pinned. Integrating outside
    the weak-coupling validity regime warns but proceeds.
    """
    steps = int(steps)
    if steps < 10:
        raise ValueError("need at least 10 integration steps")
    if abs(rs0.t - rs0.t1) > 1e-9 * max(1.0, rs0.duration):
        raise ValueError("initial two-state must be given at its own t1")
    if not spec.weak_coupling_ok:
        if spec.kind == "continuous":
            warnings.warn(
                f"lam*T = {spec.lam * spec.t_final:.3g} >= {CONTINUOUS_VALIDITY}: "
                "outside the weak-coupling validity regime",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            warnings.warn(
                f"lam*tau = {spec.lam * spec.tau:.3g} >= {BURST_VALIDITY}: "
                "outside the weak-coupling validity regime",
                RuntimeWarning,
                stacklevel=2,
            )

    moments = weak_moments(spec)
    big_t = spec.t_final
    y = np.array(rs0.mat, dtype=complex)
    times = [0.0]
    mats = [y]

    if spec.kind == "continuous":
        rhs = lambda t, m: modified_liouville_rhs(t, m, spec, moments)
        h = big_t / steps
        for k in range(steps):
            y = _rk4_step(rhs, k * h, y, h)
            times.append((k + 1) * h)
            mats.append(y)
    else:
        per_window = max(1, round(steps / spec.n_bursts))
        h = spec.tau / per_window
        for n in range(spec.n_bursts):
            rhs = _burst_window_rhs(spec, moments, n)
            for k in range(per_window):
                t_here = n * spec.tau + k * h
                y = _rk4_step(rhs, t_here, y, h)
                times.append(t_here + h)
                mats.append(y)

    times_arr = np.array(times)
    states = [
        TwoState(rs0.space, m, 0.0, big_t, float(t), boundary_overlap=rs0.boundary_overlap)
        for t, m in zip(times_arr, mats)
    ]
    d = rs0.space.total_dim
    if d == 2:
        coherence = np.array([abs(m[0, 1]) for m in mats])
    else:
        coherence = np.array([np.max(np.abs(m - np.diag(np.diagonal(m)))) for m in mats])
    schmidt = np.array([schmidt_spectrum(s) for s in states])
    pur = np.array([purity(m @ m.conj().T) for m in mats])
    return Trajectory(times=times_arr, states=states, coherence=coherence, schmidt=schmidt, purity=pur)


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
