import types

import parareach as pr

# The package's public names: what the CLI, the benchmark and library users
# call.  Helpers that only the tests call live in conftest.py instead.
PUBLIC = [
    "AssumptionReport", "AsymmetricMatrix", "AugmentedState", "AugmentedTrajectory",
    "ConfigError", "CoverageReport", "DimensionMismatch", "IntegratorConfig",
    "IqcSystem", "NonPositiveScale", "NotNegativeDefinite", "NotOnBoundary",
    "OracleConfig", "OracleSamples", "OutOfDomain", "Paraboloid", "ParaboloidFamily",
    "ParaboloidStack", "ParareachError", "ReachSlice", "RejectionStarvation", "Rides",
    "SampledSignal", "SingularMw", "StepSizeUnderflow", "TimeVaryingParaboloid",
    "UnboundedSlab", "ZeroSignal", "build_family", "check_assumptions", "coverage",
    "gamma_bar", "make_system", "membership_margins", "optimal_disturbance",
    "propagate", "reach_slice", "rising_energy_violations", "sample_admissible",
    "signal_from_json", "system_from_json", "touching_trajectory",
    "trace_back_to_seed", "value_function", "xq_max_at",
]


def test_public_names():
    names = sorted(name for name, value in vars(pr).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
    assert len(PUBLIC) == 45
