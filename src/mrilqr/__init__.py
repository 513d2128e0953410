"""Sampled-data LQR synthesis for plants driven by mixed hold and impulsive inputs.

The package covers the full pipeline: exact discretization of the mixed
input class, controllability diagnosis including pathological sampling
periods, infinite-horizon LQR through a cross-term discrete Riccati
equation, preview control against a known future impulsive disturbance,
and a continuous-time simulation oracle that verifies every synthesis
result against the cost it claims.
"""

from .controllability import (
    PathologicalCandidate,
    PeriodReport,
    candidate_pathological_periods,
    kalman_controllable,
    period_reports,
)
from .discretize import (
    ContinuousPlant,
    CostWeights,
    SampledCost,
    SampledModel,
    cost_matrices,
    sample_plant,
)
from .errors import (
    DareDivergenceError,
    NumericalError,
    SimulationDivergence,
    UncontrollablePlantError,
)
from .preview import (
    PreviewPlan,
    preview_plan,
)
from .riccati import (
    MriLqrDesign,
    RiccatiSolution,
    design,
)
from .simulate import (
    DisturbanceSpec,
    InputPolicy,
    Trajectory,
    certified_horizon,
    impulse_hold_matrix,
    simulate_closed_loop,
)

__version__ = "0.1.0"
