"""Monte Carlo simulator and analytic toolkit for multiuser-diversity
spectrum allocation in underlay cognitive networks."""

from .analytics import (
    build_threshold_table,
    cdf_exact,
    cdf_lower,
    cdf_upper,
    expected_log_max,
    harmonic_moments,
    order_stat_cdf,
)
from .centralized import (
    Assignment,
    event_d,
    favorites,
    optimal_assignment_matching,
)
from .channel import FadingRealization, SinrTable, compute_sinr, draw_realization
from .config import ConfigError, NetworkConfig
from .distributed import (
    AllocationOutcome,
    CandidateSets,
    allocate_distributed,
    build_candidate_sets,
    candidacy_probability,
)
from .harness import (
    ScalingReport,
    TrialAggregate,
    ValidationReport,
    run_schemes,
    run_trials,
    scaling_sweep,
    threshold_sweep,
    validate,
)

__version__ = "0.1.0"
