"""Two-state objects and the pre/post-selected measurement rules.

A two-state generalizes the quantum state to ensembles conditioned on both an
initial ket at t1 and a final ket at t2. It is a generally non-Hermitian
operator

    rho(t) = U(t - t1) |psi_in><psi_out| U†(t - t2),

the left slot carrying the initial condition forward and the right slot the
final condition backward. A rank-one ("generic") two-state factors into its
slots; interaction with an environment drives it to higher rank at
intermediate times, and the reduction over a pre- and post-selected
environment forces it back to rank one at both boundaries.

Its trace is the boundary overlap <psi_out|U(t2 - t1)|psi_in>, the same at
every t (for a reduced two-state, the joint overlap over the free
environment overlap); the modified Liouville equation conserves it, every
term being a commutator. So no two-state carries a separate copy. One
relative rule judges every overlap and every set of amplitudes: it vanishes
when it is at most ``OVERLAP_TOL`` times the norms it is built from, so the
scale of the kets never matters.

Intermediate-time probabilities come from squared projections of the
two-state onto measurement projectors, not from the Born rule; the Born rule
is recovered when only the initial condition is imposed.

The numbers the CLI writes are the same bits on every machine: the purity
and the a-independence score use real float operations of fixed order in
any dimension, and for a single qubit (2x2 matrices) the singular values
and the effective densities have closed-form kernels built from
:mod:`prepost.detmath` operations; other dimensions use LAPACK/BLAS for
those two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .detmath import cmul, hypot, join
from .qcore import HERMITIAN_TOL, HilbertSpace, Ket, Operator, partial_trace, propagate, require_hermitian

__all__ = [
    "FormalismError",
    "TwoState",
    "ProjectorSet",
    "EffectiveDensity",
    "GENERIC_RTOL",
    "singular_values",
    "schmidt_spectrum",
    "is_generic",
    "from_conditions",
    "prob_pre_post",
    "prob_pre_only",
    "reduce_over_environment",
    "weak_value",
    "weak_evolution_operator",
    "effective_density",
    "prob_env_post_only",
    "purity",
]

# rank-one test: second singular value below this fraction of the first
GENERIC_RTOL = 1e-9

# an overlap vanishes when it is at most OVERLAP_TOL times the norms it is built
# from: |tr rho| <= OVERLAP_TOL ||rho||_F for a two-state's boundary overlap,
# |<e2|exp(-i h_e T)|e1>| <= OVERLAP_TOL |e1| |e2| for free environment
# conditions, and a two-state's projector amplitudes likewise; relative, so
# that the scale of the kets does not matter
OVERLAP_TOL = 1e-12


class FormalismError(Exception):
    """Raised where the pre/post-selected formalism is undefined."""


@dataclass(eq=False)
class TwoState:
    """Operator-valued state with independent boundary conditions.

    ``mat`` is the (generally non-Hermitian) operator at the current time
    ``t``, with ``t1 <= t <= t2``. Its trace is the boundary overlap;
    conditioned probability queries on a two-state whose overlap vanishes
    (:meth:`is_flagged_orthogonal`) fail loudly instead of returning
    ill-defined numbers.
    """

    space: HilbertSpace
    mat: np.ndarray
    t1: float
    t2: float
    t: float

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"two-state matrix shape {m.shape} does not match dimension {d}")
        if self.t2 < self.t1:
            raise ValueError("t2 must not precede t1")
        slack = 1e-9 * max(1.0, self.t2 - self.t1)
        if not (self.t1 - slack <= self.t <= self.t2 + slack):
            raise ValueError(f"current time {self.t} outside [{self.t1}, {self.t2}]")
        if not np.count_nonzero(m):
            raise FormalismError("two-state matrix is zero: boundary conditions are inconsistent")
        m.setflags(write=False)
        self.mat = m

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    @property
    def duration(self) -> float:
        return self.t2 - self.t1

    def is_flagged_orthogonal(self) -> bool:
        """The boundary overlap vanishes: |tr rho| <= OVERLAP_TOL ||rho||_F."""
        m, _ = _unit_scaled(self.mat)
        return abs(complex(np.trace(m))) <= OVERLAP_TOL * float(np.linalg.norm(m))


def _entries2(m) -> tuple[complex, complex, complex, complex]:
    (a, b), (c, d) = np.asarray(m).tolist()
    return complex(a), complex(b), complex(c), complex(d)


def _unit_scaled(m) -> tuple[np.ndarray, int]:
    """(m 2^-e, e), e putting m's largest real or imaginary part in [1/2, 1).

    The scaling is exact: squares and norms of the result neither over- nor
    underflow, and ratios of them keep the bits they have at unit scale.
    """
    parts = np.ascontiguousarray(m, dtype=complex).view(np.float64)
    e = math.frexp(np.abs(parts).max())[1]  # 0 for 0, inf and nan
    return (np.ldexp(parts, -e) if e else parts).view(complex), e


def _singular_values_2x2(m) -> tuple[float, float]:
    """(s1, s2) of a 2x2 matrix from its Gram matrix H = M^dagger M.

    s1^2 = (tr H + sqrt((h11 - h22)^2 + 4|h12|^2)) / 2, the discriminant
    tr(H)^2 - 4 det(H) = ||M||_F^4 - 4|det M|^2 written as a sum of squares so
    it never cancels, and s2 = |det M| / s1. The entries are first scaled by a
    power of two (:func:`_unit_scaled`) so the largest is in [1/2, 1): no
    square under- or overflows. Both values have absolute error of a few ulp
    of s1, as LAPACK's.
    """
    scaled, e = _unit_scaled(m)
    ar, ai, br, bi, cr, ci, dr, di = parts = scaled.view(np.float64).ravel().tolist()
    big = max(map(abs, parts))
    if big == 0.0:
        return 0.0, 0.0
    if not math.isfinite(big):
        raise ValueError("singular values of a matrix with non-finite entries")
    h11 = (ar * ar + ai * ai) + (cr * cr + ci * ci)
    h22 = (br * br + bi * bi) + (dr * dr + di * di)
    h12r = (ar * br + ai * bi) + (cr * dr + ci * di)
    h12i = (ar * bi - ai * br) + (cr * di - ci * dr)
    diff = h11 - h22
    gap = math.sqrt(diff * diff + 4.0 * (h12r * h12r + h12i * h12i))
    s1 = math.sqrt(0.5 * ((h11 + h22) + gap))
    det = hypot((ar * dr - ai * di) - (br * cr - bi * ci), (ar * di + ai * dr) - (br * ci + bi * cr))
    s2 = min(det / s1, s1)
    return math.ldexp(s1, e), math.ldexp(s2, e)


def singular_values(mat) -> np.ndarray:
    """Singular values of a square matrix, descending.

    2x2 matrices use a closed form of basic floating-point operations (the
    same bits on every machine); larger ones use LAPACK.
    """
    m = np.asarray(mat)
    if m.shape == (2, 2):
        return np.array(_singular_values_2x2(m))
    return np.linalg.svd(m, compute_uv=False)


def schmidt_spectrum(ts: TwoState) -> np.ndarray:
    """Singular values of the two-state matrix, descending.

    A single dominant value means the two-state factors into its slots.
    """
    return singular_values(ts.mat)


def is_generic(ts: TwoState, rtol: float = GENERIC_RTOL) -> bool:
    """Rank-one test at relative tolerance on the second singular value."""
    sv = schmidt_spectrum(ts)
    if sv.size < 2:
        return True
    return sv[1] < rtol * sv[0]


def from_conditions(
    psi_in: Ket,
    psi_out: Ket,
    h: Operator,
    t1: float,
    t2: float,
    t: float,
) -> TwoState:
    """Two-state of a closed system from its two boundary kets.

    The left slot is U(t-t1)|psi_in>, the right slot the final condition
    evolved backward, <psi_out|U(t2-t). Orthogonal boundary conditions
    (|<psi_out|U(t2-t1)|psi_in>| <= 1e-12 |psi_in| |psi_out|, the trace of
    the result against its norm) still construct, but the result is flagged
    and conditioned probability queries on it raise. The matrix is
    the outer product of the slots taken in real parts, with no complex
    multiply, so only the phases exp(-i h t) of a nonzero ``h`` can change
    its last bits between machines.
    """
    if psi_in.space != psi_out.space or psi_in.space != h.space:
        raise ValueError("boundary kets and Hamiltonian must share one space")
    require_hermitian(h, "Hamiltonian")
    left = propagate(h, t - t1, psi_in.amps)
    right = propagate(h, t - t2, psi_out.amps)
    mat = join(
        np.multiply.outer(left.real, right.real) + np.multiply.outer(left.imag, right.imag),
        np.multiply.outer(left.imag, right.real) - np.multiply.outer(left.real, right.imag),
    )
    return TwoState(psi_in.space, mat, float(t1), float(t2), float(t))


@dataclass(eq=False)
class ProjectorSet:
    """Complete family of mutually orthogonal Hermitian projectors."""

    labels: tuple
    projectors: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.projectors) or not self.projectors:
            raise ValueError("need one label per projector, at least one projector")
        space = self.projectors[0].space
        d = space.total_dim
        total = np.zeros((d, d), dtype=complex)
        for lab, p in zip(self.labels, self.projectors):
            if p.space != space:
                raise ValueError("all projectors must share one space")
            require_hermitian(p, f"projector {lab!r}")
            e = p.entries
            if float(np.max(np.abs(e @ e - e))) > HERMITIAN_TOL:
                raise ValueError(f"projector {lab!r} is not idempotent within 1e-10")
            total += e
        if float(np.max(np.abs(total - np.eye(d)))) > HERMITIAN_TOL:
            raise ValueError("projectors do not sum to the identity within 1e-10")
        ps = list(self.projectors)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if float(np.max(np.abs(ps[i].entries @ ps[j].entries))) > HERMITIAN_TOL:
                    raise ValueError(
                        f"projectors {self.labels[i]!r} and {self.labels[j]!r} are not orthogonal"
                    )
        self.labels = tuple(self.labels)
        self.projectors = tuple(self.projectors)

    @property
    def space(self) -> HilbertSpace:
        return self.projectors[0].space

    @classmethod
    def from_basis(cls, kets: Sequence[Ket], labels: Optional[Sequence[Any]] = None) -> "ProjectorSet":
        """Rank-one family |k><k| from an orthonormal basis."""
        if labels is None:
            labels = tuple(range(len(kets)))
        projs = tuple(
            Operator(k.space, np.outer(k.amps, np.conj(k.amps))) for k in kets
        )
        return cls(tuple(labels), projs)

    @classmethod
    def from_observable(cls, op: Operator, degeneracy_tol: float = 1e-8) -> "ProjectorSet":
        """Spectral family of a Hermitian operator, eigenvalues as labels.

        Eigenvalues closer than ``degeneracy_tol`` are merged into one
        projector.
        """
        require_hermitian(op, "observable")
        vals, vecs = np.linalg.eigh(op.entries)
        labels = []
        projs = []
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and vals[j + 1] - vals[i] < degeneracy_tol:
                j += 1
            block = vecs[:, i : j + 1]
            labels.append(float(np.mean(vals[i : j + 1])))
            projs.append(Operator(op.space, block @ block.conj().T))
            i = j + 1
        return cls(tuple(labels), tuple(projs))


def _normalized(weights: dict, scale: float, what: str) -> dict:
    """Squared amplitudes over their sum, raising when every amplitude vanishes:
    sqrt(sum) <= OVERLAP_TOL * ``scale``, the Frobenius norm of the two-states read."""
    total = sum(weights.values())
    if math.sqrt(total) <= OVERLAP_TOL * scale:
        raise FormalismError(f"{what}: every two-state amplitude vanishes")
    return {lab: w / total for lab, w in weights.items()}


def prob_pre_post(ts: TwoState, ps: ProjectorSet) -> dict:
    """Outcome distribution for a measurement between both conditions.

    Prob(a) = |<P_a, rho>|^2 / sum_a' |<P_a', rho>|^2, with <.,.> the trace
    inner product. Invariant under rescaling of the two-state. Raises
    :class:`FormalismError` when every amplitude vanishes (a forbidden
    measurement) and, failing that, when the boundary overlap does.
    """
    if ps.space != ts.space:
        raise ValueError("projectors and two-state live on different spaces")
    m, _ = _unit_scaled(ts.mat)
    weights = {
        lab: abs(complex(np.vdot(p.entries.ravel(), m.ravel()))) ** 2
        for lab, p in zip(ps.labels, ps.projectors)
    }
    probs = _normalized(weights, float(np.linalg.norm(m)), "forbidden intermediate measurement")
    if ts.is_flagged_orthogonal():
        raise FormalismError(
            "orthogonal boundary conditions: conditioned probabilities are undefined"
        )
    return probs


def prob_pre_only(ts: TwoState, ps: ProjectorSet) -> dict:
    """Outcome distribution when only the initial condition is imposed.

    Prob(a) = tr(P_a rho_in)/tr(rho_in) with rho_in = rho rho†; for a
    rank-one two-state |u><v| this is the Born rule from u, independent of
    the final slot.
    """
    if ps.space != ts.space:
        raise ValueError("projectors and two-state live on different spaces")
    m, _ = _unit_scaled(ts.mat)
    rho_in = m @ m.conj().T
    norm = float(np.real(np.trace(rho_in)))
    if norm <= 0.0:
        raise FormalismError("zero-norm two-state")
    return {
        lab: float(np.real(np.trace(p.entries @ rho_in))) / norm
        for lab, p in zip(ps.labels, ps.projectors)
    }


def _split_env(space: HilbertSpace, env_space: HilbertSpace) -> tuple[int, HilbertSpace]:
    """Dimension and space of the system: the leading factors, the environment trailing."""
    n = space.n_factors
    ne = env_space.n_factors
    if ne >= n or space.factor_dims[n - ne :] != env_space.factor_dims:
        raise ValueError(
            f"environment dims {env_space.factor_dims} are not the trailing factors of {space.factor_dims}"
        )
    sys_space = HilbertSpace(space.factor_dims[: n - ne])
    return sys_space.total_dim, sys_space


def _free_overlap(h_e: Operator, big_t: float, e1: Ket, e2: Ket) -> complex:
    """<e2| exp(-i h_e T) |e1>, the free environment overlap over T = ``big_t``.

    Raises :class:`FormalismError` when the conditions are orthogonal,
    judged relative to |e1| |e2| (``OVERLAP_TOL``).
    """
    if e1.space != e2.space or h_e.space != e1.space:
        raise ValueError("environment kets and Hamiltonian must share one space")
    require_hermitian(h_e, "free environment Hamiltonian")
    overlap = complex(np.vdot(e2.amps, propagate(h_e, float(big_t), e1.amps)))
    if abs(overlap) <= OVERLAP_TOL * e1.norm * e2.norm:
        raise FormalismError("orthogonal free environment conditions: the overlap vanishes")
    return overlap


def reduce_over_environment(joint: TwoState, h_e: Operator, e1: Ket, e2: Ket) -> TwoState:
    """Trace the environment out of a joint two-state and normalize.

    The normalization N = <e2| exp(-i h_e (t2-t1)) |e1> is the free
    environment overlap; it is time independent, so the reduced two-state
    obeys the same dynamics as the unnormalized trace.
    """
    n_amp = _free_overlap(h_e, joint.t2 - joint.t1, e1, e2)
    _, sys_space = _split_env(joint.space, e1.space)
    reduced = partial_trace(Operator(joint.space, joint.mat), range(sys_space.n_factors))
    return TwoState(sys_space, reduced.entries / n_amp, joint.t1, joint.t2, joint.t)


def weak_value(
    o: Operator,
    e1: Ket,
    e2: Ket,
    h_e: Operator,
    t1: float,
    t2: float,
) -> complex:
    """Weak value of ``o`` with respect to the free two-state |e1><e2(t1)|.

    tr(O rho_e0)/tr(rho_e0); equal to <e2|e^{-i h_e T} O|e1> / <e2|e^{-i h_e T}|e1>
    for pure conditions. May be complex and lie outside the spectrum of ``o``.
    """
    if o.space != e1.space:
        raise ValueError("operator and environment kets live on different spaces")
    big_t = float(t2) - float(t1)
    den = _free_overlap(h_e, big_t, e1, e2)
    num = complex(np.vdot(e2.amps, propagate(h_e, big_t, o.entries @ e1.amps)))
    return num / den


def weak_evolution_operator(
    h_tot: Operator,
    h_e: Operator,
    e1: Ket,
    e2: Ket,
    t1: float,
    t2: float,
) -> Operator:
    """Environment-sandwiched joint evolution, an operator on the system.

    W = <e2| U_tot(T) |e1> / <e2| exp(-i h_e T) |e1>. Generally non-unitary;
    it maps the initial system condition onto the left slot of the reduced
    two-state at t2, and multiplies its right slot at t1.
    """
    ds, sys_space = _split_env(h_tot.space, e1.space)
    de = e1.space.total_dim
    big_t = float(t2) - float(t1)

    require_hermitian(h_tot, "joint Hamiltonian")
    den = _free_overlap(h_e, big_t, e1, e2)

    # column b is U(T) (|b> (x) |e1>); W_ab contracts its environment part with <e2|
    cols = propagate(h_tot, big_t, np.kron(np.eye(ds), e1.amps[:, None]))
    num = np.einsum("m,amb->ab", np.conj(e2.amps), cols.reshape(ds, de, ds))
    return Operator(sys_space, num / den)


@dataclass(eq=False)
class EffectiveDensity:
    """Per-outcome positive matrices rho(a) = sum_s2 rho(s2) P_a rho†(s2).

    The family behaves as one ordinary density matrix only when the
    normalized rho(a) coincide across outcomes; ``a_independence_score``
    measures the worst pairwise deviation.
    """

    outcomes: dict

    def labels(self) -> tuple:
        return tuple(self.outcomes.keys())

    def matrix(self, label) -> np.ndarray:
        return self.outcomes[label]

    def a_independence_score(self) -> float:
        """Worst pairwise Frobenius distance between trace-normalized outcomes.

        Uses real float operations and numpy's pairwise sums only, so the
        score is the same bits on every machine.
        """
        mats = []
        traces = [float(m.trace().real) for m in self.outcomes.values()]
        floor = 1e-14 * max(traces) if traces else 0.0
        for m, tr in zip(self.outcomes.values(), traces):
            if tr > floor:
                mats.append(np.stack([m.real, m.imag]) / tr)
        score = 0.0
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                diff = mats[i] - mats[j]
                score = max(score, math.sqrt(float((diff * diff).sum())))
        return score


def _matmul2(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as row-major entry 4-tuples."""
    return (
        cmul(x[0], y[0]) + cmul(x[1], y[2]),
        cmul(x[0], y[1]) + cmul(x[1], y[3]),
        cmul(x[2], y[0]) + cmul(x[3], y[2]),
        cmul(x[2], y[1]) + cmul(x[3], y[3]),
    )


def _effective_density_2x2(two_states: Sequence[TwoState], ps: ProjectorSet) -> dict:
    """Per-outcome sum of M P M^dagger, Hermitian part, in real arithmetic."""
    mats = [_entries2(ts.mat) for ts in two_states]
    adjs = [(m[0].conjugate(), m[2].conjugate(), m[1].conjugate(), m[3].conjugate()) for m in mats]
    out = {}
    for lab, p in zip(ps.labels, ps.projectors):
        proj = _entries2(p.entries)
        acc = (0j, 0j, 0j, 0j)
        for m, m_adj in zip(mats, adjs):
            term = _matmul2(_matmul2(m, proj), m_adj)
            acc = tuple(x + y for x, y in zip(acc, term))
        off = complex(0.5 * (acc[1].real + acc[2].real), 0.5 * (acc[1].imag - acc[2].imag))
        out[lab] = np.array([[acc[0].real, off], [off.conjugate(), acc[3].real]], dtype=complex)
    return out


def effective_density(two_states: Sequence[TwoState], ps: ProjectorSet) -> EffectiveDensity:
    """Outcome-indexed effective density matrices from a family of two-states."""
    if not two_states:
        raise ValueError("effective_density needs at least one two-state")
    space = two_states[0].space
    t0 = two_states[0].t
    for ts in two_states:
        if ts.space != space:
            raise ValueError("all two-states must share one space")
        if abs(ts.t - t0) > 1e-9 * max(1.0, abs(t0)):
            raise ValueError("all two-states must be taken at the same time")
    if ps.space != space:
        raise ValueError("projectors and two-states live on different spaces")
    if space.total_dim == 2:
        return EffectiveDensity(_effective_density_2x2(two_states, ps))
    out = {}
    for lab, p in zip(ps.labels, ps.projectors):
        rho = np.zeros((space.total_dim,) * 2, dtype=complex)
        for ts in two_states:
            half = ts.mat @ p.entries
            rho += half @ ts.mat.conj().T
        out[lab] = (rho + rho.conj().T) / 2.0
    return EffectiveDensity(out)


def prob_env_post_only(
    psi_in: Ket,
    h_tot: Operator,
    e2: Ket,
    s2_basis: Sequence[Ket],
    ps: ProjectorSet,
    t1: float,
    t2: float,
    t: float,
) -> dict:
    """Outcome distribution when only the environment is post-selected.

    Prob(a) = sum_s2 |<P_a, rho_s(s2)>|^2 / sum_{s2,a'} |<P_a', rho_s(s2)>|^2,
    where rho_s(s2) is the reduced two-state with final system condition
    |s2>. The result is independent of the complete basis {|s2>}, which is
    what makes the rule well defined.
    """
    ds, _ = _split_env(h_tot.space, e2.space)
    de = e2.space.total_dim
    if any(k.space.total_dim != ds for k in s2_basis) or len(s2_basis) != ds:
        raise ValueError("s2_basis must be a complete basis of the system factor")
    b = np.column_stack([k.amps for k in s2_basis])
    if float(np.max(np.abs(b.conj().T @ b - np.eye(ds)))) > HERMITIAN_TOL:
        raise ValueError("s2_basis is not orthonormal/complete within 1e-10")
    if ps.space.total_dim != ds:
        raise ValueError("projectors must act on the system factor")
    require_hermitian(h_tot, "joint Hamiltonian")

    # the reduction normalization is common to every s2 and cancels in the ratio
    u_left = propagate(h_tot, t - t1, psi_in.amps).reshape(ds, de)
    # column j is U(t - t2) (|s2_j> (x) |e2>)
    outs = propagate(h_tot, t - t2, np.kron(b, e2.amps[:, None])).reshape(ds, de, ds)
    # reduced[j] = u_left v_j^dagger, v_j the system-by-environment matrix of column j
    reduced, _ = _unit_scaled(np.einsum("im,amj->jia", u_left, outs.conj()))
    amps = np.einsum("pia,jia->pj", np.array([p.entries for p in ps.projectors]).conj(), reduced)
    weights = dict(zip(ps.labels, (np.abs(amps) ** 2).sum(axis=1).tolist()))
    return _normalized(weights, float(np.linalg.norm(reduced)), "vanishing denominator")


def purity(rho) -> float:
    """tr(rho^2)/tr(rho)^2 for a positive matrix; 1 exactly on pure states.

    tr(rho^2) = sum_ij rho_ij rho_ji is summed from real products, so the
    value is the same bits on every machine; 2x2 matrices take the expanded
    sum in plain floats.
    """
    m = rho.entries if isinstance(rho, Operator) else np.asarray(rho, dtype=complex)
    if m.shape == (2, 2):
        a, b, c, d = _entries2(m)
        tr = a.real + d.real
        tr_sq = (a.real * a.real - a.imag * a.imag) + 2.0 * cmul(b, c).real + (
            d.real * d.real - d.imag * d.imag
        )
    else:
        tr = float(m.trace().real)
        tr_sq = float((m.real * m.real.T - m.imag * m.imag.T).sum())
    if tr <= 0.0:
        raise FormalismError("purity undefined for zero or negative trace")
    return tr_sq / (tr * tr)
