"""Analytic and Monte Carlo symbol-error evaluation of reflecting-surface links."""

from .analytic import (
    AnalyticModel,
    db_to_linear,
    mgf,
    required_snr_db,
    saturation_exponent,
    sep_mpsk,
    sep_mqam,
    sep_upper_bound,
    waterfall_rate,
)
from .modulation import Constellation, ConstellationKind, build_constellation, detect_ml
from .montecarlo import SweepPoint, SweepSpec, confidence_interval, run_sweep
from .schemes import Scheme, SchemeConfig

__version__ = "0.1.0"
