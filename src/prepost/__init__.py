"""Pre- and post-selected open quantum dynamics.

Two-state objects (states with independent initial and final conditions),
their probability rules and weak values, an exactly solvable spin-bath model
with forced recoherence, and the perturbative modified Liouville equation,
all cross-checked against brute-force joint evolution at desk scale.
"""

from .qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HilbertSpace,
    Ket,
    Operator,
    ProductKet,
    basis_ket,
    evolve,
    identity,
    partial_trace,
    qubits,
    tensor,
    two_state_inner,
)
from .twostate import (
    EffectiveDensity,
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
from .spinbath import (
    SpinBathParams,
    brute_force_reduced,
    decoherence_factor,
    env_postselected_two_states,
    effective_density_xy,
    exact_reduced_two_state,
    suppression_scenario,
)
from .liouville import (
    BurstSpec,
    ContinuousSpec,
    Trajectory,
    WeakMoments,
    burst_interaction,
    closed_form_spin,
    continuous_interaction,
    integrate,
    weak_moments,
)

__version__ = "0.1.0"
