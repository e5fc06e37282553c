"""Critical coupling of the driven-dissipative Dicke model with single-atom baths.

The package computes the normal-to-superradiant phase boundary from
single-spin Lindblad correlation functions: the spin correlator feeds the
cavity self-energy, whose zero-frequency determinant condition yields the
critical coupling. Two independent oracles (mean-field stability and exact
small-N diagonalization) validate every closed form.
"""

__version__ = "0.1.0"

from .baths import (  # noqa: F401
    BathSpec,
    CavityParams,
    Custom,
    Dephasing,
    GcMode,
    Generalized,
    Thermal,
    closed_form_chi0,
    closed_form_gc,
    effective_rate,
    format_bath,
    parse_bath,
    spin_model,
    steady_sz,
)
from .critical import (  # noqa: F401
    CriticalResult,
    NoTransition,
    NoTransitionReason,
    SweepPlan,
    SweepTable,
    Transition,
    fully_polarized_gc,
    solve_gc,
    sweep,
)
from .errors import DickeCriticError  # noqa: F401
from .lindblad import (  # noqa: F401
    CorrelationSeries,
    SpinModel,
    SteadyState,
    steady_state,
    two_time_sx,
)
from .qops import LindbladChannel, lindblad_generator, sigma  # noqa: F401
from .response import (  # noqa: F401
    cavity_det,
    chi_from_correlator,
    polariton_roots,
    resolvent_chi,
)
