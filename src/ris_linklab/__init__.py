"""Analytic and Monte Carlo symbol-error evaluation of reflecting-surface links."""

from .analytic import (
    AnalyticModel,
    QuadratureSpec,
    Regime,
    SaturationLaw,
    WaterfallLaw,
    asymptote,
    average_snr,
    cpep,
    db_to_linear,
    linear_to_db,
    mgf,
    qfunc,
    required_snr_db,
    sep_mpsk,
    sep_mqam,
    sep_upper_bound,
)
from .modulation import Constellation, ConstellationKind, build_constellation, detect_ml
from .montecarlo import SweepPoint, SweepSpec, confidence_interval, run_sweep
from .rng import RngStream
from .schemes import Scheme, SchemeConfig

__version__ = "0.1.0"
