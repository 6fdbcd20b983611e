"""Perturbative reduced two-state dynamics under a post-selected environment.

Tracing a weakly coupled, pre- and post-selected environment out of the
Liouville equation gives, to second order in the coupling and in the free
case (H_s = H_e = 0, interaction picture otherwise), one scheduled equation:

    d rho_s / dt = sum_i f_i [Q_i, rho_s]
                   - sum_ij s_ij [Q_i, a_j(t) Q_j rho_s + b_j(t) rho_s Q_j]

with f_i = -i lam (L_i)_w, s_ij = lam^2 Delta_ij, (.)_w the weak value with
respect to the free environment two-state, Delta_ij = (L_i L_j)_w -
(L_i)_w (L_j)_w the weak uncertainty, and a_j(t), b_j(t) the time for which
coupling channel j is switched on before and after t. A continuous coupling
(:class:`ContinuousSpec`) keeps every channel on over [0, T], so a = t and
b = T - t: these weights force an initially rank-one two-state back to rank
one at t = T. A burst schedule (:class:`BurstSpec`) couples the system,
through one operator S, to environment particle n during the window
[n tau, (n+1) tau). In window n the particle's own channel has
a = t - n tau and b = (n+1) tau - t, its past partners m < n have a = tau
and b = 0, and its future partners a = 0 and b = tau. For product
environment conditions the cross-correlations Delta_nm (n != m) vanish,
and for S S = 1 each window's second-order contribution integrates to
zero, so the two-state returns to rank one at every window boundary.

For the single channel Q = sigma_z the equation solves in closed form: the
diagonal entries are constants and the coherences evolve as

    rho_ud(t) = exp(-i 2 lam L_w t - 2 lam^2 DL_w (t^2 - T t)) rho_ud(0),

with the opposite first-order sign on rho_du. Complex moments are allowed;
the coherence magnitude then follows the real part of the exponent only.

Product kets (:func:`product_env_ket`) keep their per-particle factors, so
their burst moments are one-particle quantities computed in O(n), with
cross-correlations exactly zero and no 2^n amplitudes built; baths of many
tens of particles are cheap. Correlated environment conditions (plain kets)
take the dense O(n^2 2^n) route, which is also the oracle for the product
route. They are integrated as written but have no exact oracle for the
dynamics here and should be treated as unverified.

Each spec owns its weak moments and its weak-coupling parameter, and lists
the entries (f_i, Q_i) and (s_ij, Q_i, Q_j, a_j, b_j) of each window: one
for a continuous coupling, one per particle for a burst. One compiler turns
a window's entries into real matrices (G0, G1) on vec(rho), with
d vec(rho)/dt = (G0 + t G1) vec(rho) there, since a and b are affine in t
within a window. vec(rho) holds rho's entries in row-major order with real
and imaginary parts interleaved, so each complex superoperator entry becomes
a real 2x2 block. :func:`integrate` steps every window with classical RK4
through increment maps: for a block of steps it builds each step's
D_k = P_k - I at once (RK4 applied to the identity, batched over the
block's step times) and advances y_{k+1} = y_k + D_k y_k. The weak moments,
the compiled generators, the increment maps and the steps use real
arithmetic of fixed order (:mod:`prepost.detmath`), so complex environment
conditions give the same bits on every machine. A diagonal free environment
Hamiltonian h_e enters through its phases exp(i h_kk T), taken from the
same fixed-order sine and cosine. A non-diagonal h_e is the one exception:
it is diagonalized by LAPACK and its phases come from numpy's complex
``exp``, either of which may differ in the last bit between machines.

The compiled generators are the only form of the equation in the package.
The tests check them, and the stepping, against an independent
transcription: both schedules written out with commutators in plain complex
arithmetic, and classical RK4 on that transcription, window by window, for
several channels, a qutrit system and correlated bursts; and a one-particle
burst against the continuous coupling over [0, tau], to the bit. This
catches a wrongly compiled generator or a stepping error, not a wrong
equation, which is checked against an exact model only for the single
sigma_z channel (:func:`closed_form_spin` against the spin bath).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .detmath import (
    SINCOS_MAX_ARG,
    cabs,
    cdiv,
    cmatmul,
    cmul,
    csplit,
    join,
    matmul,
    sincos,
    split_matvec,
    split_vdots,
)
from .qcore import (
    DIAGONAL_TOL, HERMITIAN_TOL, SIGMA_Z, HilbertSpace, Ket, Operator, ProductKet, propagate, qubits,
    require_hermitian,
)
from .twostate import OVERLAP_TOL, FormalismError, TwoState, purity

__all__ = [
    "ContinuousSpec",
    "BurstSpec",
    "WeakMoments",
    "Trajectory",
    "continuous_interaction",
    "burst_interaction",
    "product_env_ket",
    "weak_moments",
    "integrate",
    "closed_form_spin",
]

# the fewest steps :func:`integrate` takes
MIN_STEPS = 10

# steps whose increment maps are built in one batch: long windows are worked
# through in blocks, so the (block, m, m) temporaries stay small
_BLOCK = 128


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


def _dense_moments(e_in: np.ndarray, e_out: np.ndarray, applied: list, backs) -> WeakMoments:
    """Moments from <e_out|e_in>, <e_out|L_j e_in> and <L_i^dagger e_out|L_j e_in>.

    ``applied[j]`` is L_j e_in and ``backs`` yields L_i^dagger e_out in
    order; every dot is a real-split sum of fixed order. The conditions are
    orthogonal when |<e_out|e_in>| <= OVERLAP_TOL |e_in| |e_out|, judged
    relative to the kets so that their scale does not matter.
    """
    den, nout, *firsts = split_vdots(e_out, [e_in, e_out, *applied])
    (nin,) = split_vdots(e_in, [e_in])
    if cabs(den) <= OVERLAP_TOL * math.sqrt(nin.real) * math.sqrt(nout.real):
        raise FormalismError("orthogonal environment conditions: weak moments undefined")
    l_w = np.array([cdiv(x, den) for x in firsts])
    second = np.array([[cdiv(x, den) for x in split_vdots(back, applied)] for back in backs])
    return _with_delta(l_w, second)


def _rscale(x: float, z: complex) -> complex:
    """Real x times complex z, part by part."""
    return complex(x * z.real, x * z.imag)


def _fsum(z: np.ndarray) -> complex:
    """Correctly rounded sum of complex entries, real and imaginary parts apart."""
    return complex(math.fsum(z.real), math.fsum(z.imag))


def _superop(terms: list, d: int) -> np.ndarray:
    """Real-split matrix of rho -> sum_k w_k A_k rho B_k on vec(rho).

    The complex superoperator entry at row (p, q), column (r, s) is
    sum_k w_k A_k[p, r] B_k[s, q]; :func:`~prepost.detmath.csplit` turns it
    into the block acting on interleaved (re, im) parts. The terms are
    summed in their order, real and imaginary parts apart; a term whose
    weight is exactly zero is skipped.
    """
    re = np.zeros((d, d, d, d))
    im = np.zeros((d, d, d, d))
    for w, a, b in terms:
        if w == 0:
            continue
        war = w.real * a.real - w.imag * a.imag
        wai = w.real * a.imag + w.imag * a.real
        # axes (p, r, s, q)
        re += np.multiply.outer(war, b.real) - np.multiply.outer(wai, b.imag)
        im += np.multiply.outer(war, b.imag) + np.multiply.outer(wai, b.real)
    return csplit(join(re, im).transpose(0, 3, 1, 2).reshape(d * d, d * d))


def _compile(first: list, second: list) -> tuple:
    """(G0, G1) of one window: d vec(rho)/dt = (G0 + t G1) vec(rho) for

        d rho/dt = sum_i f_i [Q_i, rho] - sum_ij s_ij [Q_i, a_j(t) Q_j rho + b_j(t) rho Q_j],

    ``first`` listing the entries (f_i, Q_i) and ``second`` the entries
    (s_ij, Q_i, Q_j, a_j, b_j), with a_j and b_j pairs (c, k) for c + k t.
    Each second-order entry expands to -a s Q_i Q_j rho + a s Q_j rho Q_i
    - b s Q_i rho Q_j + b s rho Q_j Q_i; one whose s is exactly zero is
    skipped. When Q_i is Q_j (the same object), Q Q is formed once and the
    two Q rho Q terms are one, of weight (a - b) s.
    """
    d = first[0][1].shape[0]
    one = np.eye(d, dtype=complex)
    const, slope = [], []
    for f, q in first:
        const += [(f, q, one), (-f, one, q)]
    for s, qi, qj, a, b in second:
        if s == 0:
            continue
        same = qi is qj
        qij = cmatmul(qi, qj)
        qji = qij if same else cmatmul(qj, qi)
        for terms, ak, bk in ((const, a[0], b[0]), (slope, a[1], b[1])):
            if same:
                mid = [(_rscale(ak - bk, s), qi, qi)]
            else:
                mid = [(_rscale(ak, s), qj, qi), (_rscale(-bk, s), qi, qj)]
            terms += [(_rscale(-ak, s), qij, one), *mid, (_rscale(bk, s), one, qji)]
    return _superop(const, d), _superop(slope, d)


def _vec(rs_mat: np.ndarray) -> np.ndarray:
    """vec(rho): the entries in row-major order, real and imaginary parts interleaved."""
    return np.ascontiguousarray(rs_mat, dtype=complex).reshape(-1).view(np.float64)


def _apply(op: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex op @ v in real arithmetic of fixed order."""
    return split_matvec(csplit(op), _vec(v)).view(complex)


@dataclass(eq=False)
class ContinuousSpec:
    """Continuous coupling lam * sum_i Q_i (x) L_i over the single window [0, T].

    Built and validated by :func:`continuous_interaction`. ``env_in`` and
    ``env_out`` are the environment conditions at t = 0: e1, and e2 carried
    back from T under the free environment Hamiltonian, whose outer product
    |env_in><env_out| is the free environment two-state.
    """

    lam: float
    t_final: float
    q_ops: list
    l_ops: list
    env_in: Ket
    env_out: Ket

    def validity(self) -> tuple:
        """Weak-coupling parameter: its name, its value, the limit it must stay below."""
        return "lam*T", self.lam * self.t_final, 1.0

    def moments(self) -> WeakMoments:
        e_in, e_out = self.env_in.amps, self.env_out.amps
        ops = [l.entries for l in self.l_ops]
        applied = [_apply(o, e_in) for o in ops]
        backs = (_apply(o.conj().T, e_out) for o in ops)
        return _dense_moments(e_in, e_out, applied, backs)

    def generators(self, moments: WeakMoments) -> tuple:
        """(G0, G1) of [0, T]: every channel is on throughout, so a = t and b = T - t."""
        lam2 = self.lam * self.lam
        qs = [q.entries for q in self.q_ops]
        first = [(_rscale(self.lam, complex(lw.imag, -lw.real)), q) for lw, q in zip(moments.l_w, qs)]
        second = [
            (_rscale(lam2, complex(moments.delta[i, j])), qi, qj, (0.0, 1.0), (self.t_final, -1.0))
            for i, qi in enumerate(qs)
            for j, qj in enumerate(qs)
        ]
        return _compile(first, second)

    def windows(self, moments: WeakMoments, steps: int) -> list:
        """(t0, h, steps, (G0, G1)) of each smooth stretch of [0, T]: here one."""
        return [(0.0, self.t_final / steps, steps, self.generators(moments))]


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
            # one particle at a time, so orthogonality is judged per factor:
            # the product of all overlaps underflows for long environments
            # whose every factor is well conditioned
            for k, (op, (a, b)) in enumerate(zip(ops, pairs)):
                applied = [_apply_particle(op, 0, (a.size,), a)]
                back = [_apply_particle(op.conj().T, 0, (b.size,), b)]
                try:
                    m = _dense_moments(a, b, applied, back)
                except FormalismError as exc:
                    raise FormalismError(f"particle {k}: {exc}") from None
                l_w[k], delta[k, k] = m.l_w[0], m.delta[0, 0]
            return WeakMoments(l_w=l_w, delta=delta)
        e1 = self.env_in.amps
        e2 = self.env_out.amps
        dims = self.env_in.space.factor_dims
        applied = [_apply_particle(ops[k], k, dims, e1) for k in range(n)]
        backs = (_apply_particle(ops[i].conj().T, i, dims, e2) for i in range(n))
        return _dense_moments(e1, e2, applied, backs)

    def generators(self, moments: WeakMoments, window: int) -> tuple:
        """(G0, G1) of burst window n.

        Particle n's own channel has a = t - n tau and b = (n+1) tau - t; its
        past partners, summed, have a = tau and b = 0, and its future partners
        a = 0 and b = tau. The partner sums are exactly zero for product
        conditions.
        """
        n, tau, s = window, self.tau, self.sys_op
        lam2 = self.lam * self.lam
        lw, row = moments.l_w[n], moments.delta[n]
        second = [
            (_rscale(lam2, complex(row[n])), s, s, (-(n * tau), 1.0), ((n + 1) * tau, -1.0)),
            (_rscale(lam2, _fsum(row[:n])), s, s, (tau, 0.0), (0.0, 0.0)),
            (_rscale(lam2, _fsum(row[n + 1 :])), s, s, (0.0, 0.0), (tau, 0.0)),
        ]
        return _compile([(_rscale(self.lam, complex(lw.imag, -lw.real)), s)], second)

    def windows(self, moments: WeakMoments, steps: int) -> list:
        """(t0, h, steps, (G0, G1)) of each window, with about steps/n steps each."""
        n_bursts = len(self.particle_ops)
        per_window = max(1, round(steps / n_bursts))
        h = self.tau / per_window
        return [
            (n * self.tau, h, per_window, self.generators(moments, n)) for n in range(n_bursts)
        ]


@dataclass(eq=False)
class Trajectory:
    """Two-state matrices ``mats[i]`` at ``times[i]`` of one integration.

    ``coherence`` (|rho_01| for a qubit, else the largest off-diagonal
    magnitude) covers every step; :class:`TwoState` objects (:meth:`state`,
    ``states``) and the purity of rho rho† are built only on request. Every
    matrix has, to rounding, the initial two-state's trace, its boundary
    overlap, which the equation's commutators conserve.
    """

    times: np.ndarray
    mats: np.ndarray
    space: HilbertSpace
    t_final: float
    coherence: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.space.total_dim
        off = self.mats[:, 0, 1:] if d == 2 else self.mats[:, ~np.eye(d, dtype=bool)]
        self.coherence = np.abs(off).max(axis=1)

    def state(self, i: int) -> TwoState:
        """The two-state at step i."""
        return TwoState(self.space, self.mats[i], 0.0, self.t_final, float(self.times[i]))

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
    regime in which the interaction picture reduces to the free case); it
    carries e2 back to t = 0. Without one (``h_e=None``) or with a diagonal
    one, the weak moments are the same bits on every machine: a diagonal
    h_e acts by the phases exp(i h_kk T) from
    :func:`~prepost.detmath.sincos`, and |h_kk T| above ``SINCOS_MAX_ARG``
    raises ``ValueError``. A non-diagonal ``h_e`` is exponentiated through
    LAPACK and numpy's complex ``exp``, whose last bit may depend on the
    machine, and so may the trajectory's.
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
    env_out = e2
    if h_e is not None:
        if h_e.space != env_space:
            raise ValueError(
                "free environment Hamiltonian must live on the coupling operators' space"
            )
        require_hermitian(h_e, "free environment Hamiltonian")
        for i, l in enumerate(l_ops):
            comm = h_e.entries @ l.entries - l.entries @ h_e.entries
            if float(np.max(np.abs(comm))) > HERMITIAN_TOL:
                raise ValueError(
                    f"free environment Hamiltonian does not commute with coupling operator {i}"
                )
        env_out = Ket(env_space, _carry_back(h_e, float(t_final), e2.amps))
    return ContinuousSpec(
        lam=float(lam), t_final=float(t_final), q_ops=list(q_ops), l_ops=list(l_ops),
        env_in=e1, env_out=env_out,
    )


def _carry_back(h_e: Operator, t_final: float, e2: np.ndarray) -> np.ndarray:
    """exp(i h_e T) e2: e2 carried back from T to 0 under the free Hamiltonian.

    A diagonal h_e (off-diagonal magnitudes below ``qcore.DIAGONAL_TOL``, as
    in :func:`~prepost.qcore.propagate`) acts by the phases exp(i h_kk T),
    taken from :func:`~prepost.detmath.sincos` and multiplied in split
    parts: the same bits on every machine. Any other h_e goes through
    :func:`~prepost.qcore.propagate` and LAPACK.
    """
    entries = h_e.entries
    diag = np.diagonal(entries)
    if float(np.max(np.abs(entries - np.diag(diag)))) >= DIAGONAL_TOL:
        return propagate(h_e, -t_final, e2)
    out = []
    for h, z in zip(diag.real.tolist(), e2.tolist()):
        if not abs(h * t_final) <= SINCOS_MAX_ARG:
            raise ValueError(
                f"free environment phases |h_kk| T must be finite and at most {SINCOS_MAX_ARG:.6g}"
            )
        s, c = sincos(h * t_final)
        out.append(cmul(complex(c, s), z))
    return np.array(out)


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
    require_hermitian(Operator(qubits(1), sys_arr), "burst system operator")
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


def _increment_maps(generators: tuple, starts: np.ndarray, h: float) -> np.ndarray:
    """D_k = P_k - I of one RK4 step of length h from each of ``starts``.

    RK4 applied to the identity for dY/dt = A(t) Y, A(t) = G0 + t G1,
    batched over the steps: K1 = A(t), K2 = A(t + h/2) (I + h/2 K1),
    K3 = A(t + h/2) (I + h/2 K2), K4 = A(t + h) (I + h K3) and
    D = h/6 (K1 + 2 K2 + 2 K3 + K4). Each stage is formed as
    A + (h/2) A K, never through I + (h/2) K, and the caller applies D as
    y + D y, never as (I + D) y: adding the identity would round away the
    low bits of the small increments.
    """
    g0, g1 = generators
    a0 = g0 + starts[:, None, None] * g1
    am = g0 + (starts + h / 2.0)[:, None, None] * g1
    a1 = g0 + (starts + h)[:, None, None] * g1
    k2 = am + (h / 2.0) * matmul(am, a0)
    k3 = am + (h / 2.0) * matmul(am, k2)
    k4 = a1 + h * matmul(a1, k3)
    return (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rs0: TwoState, spec: ContinuousSpec | BurstSpec, steps: int = 2000) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta integration of a spec over [0, T].

    The spec splits [0, T] into windows on which its generators are smooth,
    each with a whole number of steps: one window for a continuous
    coupling, one per particle for a burst schedule, so that no step
    straddles a gating discontinuity. Each window is compiled once into its
    generator pair (G0, G1) and worked through in blocks of steps: the
    block's RK4 increment maps D_k are built in one batch, then
    vec(rho) advances as y_{k+1} = y_k + D_k y_k. No right-hand side is
    called per step, and every product and sum is real and of fixed order,
    so the trajectory is the same bits on every machine. Integrating
    outside the weak-coupling validity regime warns but proceeds.
    """
    steps = int(steps)
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} integration steps")
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
    d = math.isqrt(windows[0][3][0].shape[0] // 2)  # G0 acts on the 2 d^2 reals of vec(rho)
    if rs0.mat.shape != (d, d):
        raise ValueError(f"initial two-state dimension {rs0.space.total_dim} != system dimension {d}")
    total = sum(n for _, _, n, _ in windows)
    times = np.empty(total + 1)
    mats = np.empty((total + 1,) + rs0.mat.shape, dtype=complex)
    times[0] = 0.0
    mats[0] = rs0.mat
    ys = mats.reshape(total + 1, -1).view(np.float64)  # vec(rho) of every step
    i = 0
    for t0, h, n, generators in windows:
        times[i + 1 : i + n + 1] = t0 + np.arange(1, n + 1) * h
        for first in range(0, n, _BLOCK):
            starts = t0 + np.arange(first, min(first + _BLOCK, n)) * h
            for inc in _increment_maps(generators, starts, h):
                y = ys[i]
                np.add(y, split_matvec(inc, y), out=ys[i + 1])
                i += 1
    return Trajectory(times, mats, rs0.space, spec.t_final)


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
    return TwoState(rs0.space, mat, 0.0, float(big_t), float(t))
