"""Extreme-value-law laboratory: deterministic simulation of chaotic interval
maps and classical time-series models, extremal-index estimation, clustering
condition diagnostics, and hitting/return time statistics."""

__version__ = "0.1.0"

from .processes import Ensemble, ProcessSpec
from .observables import (
    ExceedanceEvent,
    LevelSchedule,
    ObservableSpec,
    exceedance_event,
    level_for_tau,
    omega_for_cylinder,
    tail_probability,
)
from .escapes import (
    ConditionReport,
    EscapeOffsets,
    escape_statistics,
    periodicity_report,
)
from .estimators import (
    EIEstimate,
    ball_annulus_gap,
    cylinder_ei,
    ei_from_max,
    ei_rts_atom,
    ei_runs_nested,
    estimate_ei_bundle,
    estimate_escape_law,
)
from .hts_rts import (
    TargetSet,
    TimeSampleSet,
    check_integral_relation,
    ks_distance,
    sample_hts,
    sample_rts,
)
from .symbolic import (
    SymbolicWord,
    cylinder_measure,
    period_sequence,
    return_structure,
)
from .theory import TheoryResult, analytic_ei, dichotomy_ei, theoretical_cdf
