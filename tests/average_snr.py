"""Mean received SNR of the dual-hop intelligent model, for tests that check
the MGF and the sampled gains against it."""

from ris_linklab.analytic import AnalyticModel, _moments
from ris_linklab.schemes import Scheme


def average_snr(model: AnalyticModel) -> float:
    """Mean received SNR E[gain^2] * Es/N0 = (m2 + v/2) * Es/N0, with m2 and v
    from ``analytic._moments``; defined for the dual-hop intelligent scheme only."""
    if model.scheme is not Scheme.DH_INTELLIGENT:
        raise ValueError("average_snr is defined for DH_INTELLIGENT only")
    m2, v = _moments(model.scheme, model.n_reflectors)
    return (m2 + v / 2.0) * model.snr
