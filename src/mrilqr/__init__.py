"""Sampled-data LQR synthesis for plants driven by mixed hold and impulsive inputs.

The package covers the full pipeline: exact discretization of the mixed
input class, controllability diagnosis including pathological sampling
periods, infinite-horizon LQR through a cross-term discrete Riccati
equation, preview control against a known future impulsive disturbance,
and a continuous-time simulation oracle that verifies every synthesis
result against the cost it claims.
"""

from .controllability import (
    ControllabilityReport,
    PathologicalCandidate,
    PeriodReport,
    candidate_pathological_periods,
    is_pathological,
    kalman_controllable,
    period_reports,
    reduced_hautus_mri,
    resonant_eigenvalues,
)
from .discretize import (
    ContinuousPlant,
    CostWeights,
    SampledCost,
    SampledModel,
    cost_matrices,
    restrict_input_mode,
    sample_plant,
    sample_plants,
)
from .errors import (
    DareDivergenceError,
    NumericalError,
    SimulationDivergence,
    UncontrollablePlantError,
)
from .numkernel import (
    eigenvalues,
    expm_block_integrals,
    expm_gram_integral,
    null_space_dim,
)
from .preview import (
    PreviewPlan,
    closed_loop_G,
    feedforward_sequence,
    gamma_and_cost,
    preview_plan,
)
from .riccati import (
    MriLqrDesign,
    RiccatiSolution,
    dare_residual,
    design,
    solve_dare,
)
from .simulate import (
    DisturbanceSpec,
    InputPolicy,
    Trajectory,
    certified_horizon,
    impulse_hold_matrix,
    simulate_closed_loop,
    simulate_inputs,
)

__version__ = "0.1.0"
