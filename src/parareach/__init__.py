"""Reachable sets of LTI systems under integral quadratic constraints.

The reachable set of ``xdot = A x + B w + B_u u``, with the disturbance w
limited by a running energy budget, is bounded by time-varying paraboloids in
the augmented (state, remaining-budget) space.  Their parameters solve an
initial value problem built around a matrix Riccati equation; intersecting a
family of scaled propagations tightens the bound, down to the reachable set
itself in the limit under boundedness and falling-budget hypotheses.
"""

from .errors import (AsymmetricMatrix, ConfigError, DimensionMismatch,
                     NonPositiveScale, NotNegativeDefinite, NotOnBoundary,
                     OutOfDomain, ParareachError, RejectionStarvation,
                     SingularMw, StepSizeUnderflow, UnboundedSlab)
from .family import (AssumptionReport, ParaboloidFamily, ReachSlice,
                     build_family, check_assumptions, gamma_bar,
                     membership_margins, reach_slice, rising_energy_violations,
                     xq_max_at)
from .model import (AugmentedState, IqcSystem, Paraboloid, make_system,
                    system_from_json, value_function)
from .oracle import (CoverageReport, OracleConfig, OracleSamples, coverage,
                     sample_admissible)
from .riccati import (IntegratorConfig, ParaboloidStack, TimeVaryingParaboloid,
                      propagate)
from .signals import SampledSignal, ZeroSignal, signal_from_json
from .touching import (AugmentedTrajectory, Rides, optimal_disturbance,
                       touching_trajectory, trace_back_to_seed)

__version__ = "0.1.0"
