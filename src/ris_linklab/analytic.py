"""Closed-form and quadrature evaluation of average error probabilities.

For each scheme the instantaneous received SNR admits a moment generating
function under a Gaussian (large-N) model of the composite channel gain:

* DH intelligent:  gain A = sum(alpha_i beta_i), A ~ N(N*pi/4, N*(1 - pi^2/16)),
  so gamma = A^2 * Es/N0 is noncentral chi-square with one degree of freedom:

      M(s) = (1 - s*v*snr)^(-1/2) * exp(s*m2*snr / (1 - s*v*snr)),
      m2 = N^2 pi^2 / 16,   v = N (16 - pi^2) / 8.

* AP intelligent:  gain B = sum(beta_i), B ~ N(N*sqrt(pi)/2, N*(4 - pi)/4):
  same form with  m2 = N^2 pi / 4,  v = N (4 - pi) / 2.

* Blind (both):    gain ~ CN(0, N), so gamma is exponential:
  M(s) = (1 - s*N*snr)^(-1).
  This is exact for AP blind, G = sum(g_i).  For DH blind it is the
  large-N model only: the cascade H = sum(h_i g_i) is CN(0, X) with
  X ~ Gamma(N, 1), and the simulator draws that mixture.  At small N the
  physical error rate therefore sits above these curves (20-33 % for BPSK
  at N = 4 between 0 and 20 dB).

Average M-PSK/M-QAM symbol error probabilities follow from the standard
finite-range MGF integrals, evaluated by fixed-order Gauss-Legendre
quadrature (the integrands are smooth and bounded).  An adaptive Simpson
routine is provided purely as an independent cross-check for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .modulation import ConstellationKind
from .schemes import Scheme

PI = np.pi

__all__ = [
    "AnalyticModel",
    "QuadratureSpec",
    "WaterfallLaw",
    "SaturationLaw",
    "Regime",
    "mgf",
    "log_mgf",
    "sep_mpsk",
    "sep_mqam",
    "sep_upper_bound",
    "asymptote",
    "cpep",
    "average_snr",
    "required_snr_db",
    "qfunc",
    "adaptive_simpson",
    "db_to_linear",
    "linear_to_db",
]


def db_to_linear(db) -> float:
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x) -> float:
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def qfunc(x):
    """Gaussian tail probability Q(x) = P(Z > x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node count for production integrals.

    ``oracle_tol`` is the absolute tolerance the adaptive-Simpson
    cross-check uses in tests; it plays no role in production evaluation.
    """

    node_count: int = 256
    oracle_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.node_count < 16:
            raise ValueError(f"node_count must be >= 16, got {self.node_count}")


@dataclass(frozen=True)
class AnalyticModel:
    """MGF parameterization of one (scheme, N, snr) operating point."""

    scheme: Scheme
    n_reflectors: int
    snr: float  # linear Es/N0

    def __post_init__(self) -> None:
        if self.n_reflectors < 1:
            raise ValueError(f"n_reflectors must be >= 1, got {self.n_reflectors}")
        if not (np.isfinite(self.snr) and self.snr > 0):
            raise ValueError(f"snr must be finite and > 0, got {self.snr}")

    @property
    def mgf_params(self) -> tuple[float, ...]:
        """(mean-square term, variance term) for intelligent schemes;
        (exponential scale,) for blind schemes."""
        n = self.n_reflectors
        if self.scheme is Scheme.DH_INTELLIGENT:
            return (n * n * PI * PI / 16.0, n * (16.0 - PI * PI) / 8.0)
        if self.scheme is Scheme.AP_INTELLIGENT:
            return (n * n * PI / 4.0, n * (4.0 - PI) / 2.0)
        return (n * self.snr,)


def log_mgf(model: AnalyticModel, s):
    """log E[exp(s*gamma)] for s <= 0.

    Evaluated in log space so very large surfaces never overflow; the
    result underflows cleanly to -inf -> mgf 0 where the probability mass
    is negligible.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s > 0):
        raise ValueError("mgf is only evaluated for s <= 0")
    params = model.mgf_params
    if len(params) == 1:
        return -np.log1p(-s * params[0])
    m2, v = params
    den = 1.0 - s * v * model.snr
    return -0.5 * np.log(den) + s * m2 * model.snr / den


def mgf(model: AnalyticModel, s):
    """E[exp(s*gamma)] for s <= 0; equals 1 at s = 0."""
    return np.exp(log_mgf(model, s))


@lru_cache(maxsize=32)
def _leggauss(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(node_count)


def _gl_integral(func, a: float, b: float, node_count: int) -> float:
    x, w = _leggauss(node_count)
    half = 0.5 * (b - a)
    return float(half * np.dot(w, func(half * x + 0.5 * (a + b))))


def sep_mpsk(model: AnalyticModel, order: int, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Average M-ary phase-signaling SEP.

    (1/pi) * Integral_0^{(M-1)pi/M} M_gamma(-sin^2(pi/M) / sin^2 eta) d eta.
    Shared by the dual-hop PSK schemes and the AP phase books.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    c = np.sin(PI / order) ** 2

    def integrand(eta):
        return mgf(model, -c / np.sin(eta) ** 2)

    return _gl_integral(integrand, 0.0, (order - 1) * PI / order, quad.node_count) / PI


def sep_mqam(model: AnalyticModel, order: int, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Average square M-QAM SEP (dual-hop schemes only)."""
    _require_qam_ok(model, order)
    c = -3.0 / (2.0 * (order - 1))
    q = 1.0 - 1.0 / np.sqrt(order)

    def integrand(eta):
        return mgf(model, c / np.sin(eta) ** 2)

    first = _gl_integral(integrand, 0.0, PI / 2.0, quad.node_count)
    second = _gl_integral(integrand, 0.0, PI / 4.0, quad.node_count)
    return (4.0 * q / PI) * first - (4.0 * q * q / PI) * second


def _require_qam_ok(model: AnalyticModel, order: int) -> None:
    side = int(np.sqrt(order))
    if order < 4 or side * side != order:
        raise ValueError(f"QAM order must be a perfect square >= 4, got {order}")
    if model.scheme.is_access_point:
        raise ValueError("QAM applies to the dual-hop schemes only")


def sep_upper_bound(
    model: AnalyticModel,
    order: int,
    kind: ConstellationKind = ConstellationKind.PSK,
) -> float:
    """Closed-form SEP upper bound.

    Obtained by freezing the integrands at their maxima (eta = pi/2, and
    eta = pi/4 for the second QAM term); always dominates the exact
    integral because the integrands increase monotonically in sin^2(eta).
    """
    if kind is ConstellationKind.QAM:
        _require_qam_ok(model, order)
        q = 1.0 - 1.0 / np.sqrt(order)
        c = -3.0 / (2.0 * (order - 1))
        return float(2.0 * q * mgf(model, c) - q * q * mgf(model, 2.0 * c))
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    return float((order - 1) / order * mgf(model, -np.sin(PI / order) ** 2))


class Regime:
    WATERFALL = "waterfall"
    SATURATION = "saturation"


@dataclass(frozen=True)
class WaterfallLaw:
    """Low-SNR proportionality log P_e ~ -decay_rate * Es/N0 + const.

    Valid where v * Es/N0 << 1, v being the variance term of the exponent
    m2*snr / (1 + v*snr): v = N(16 - pi^2)/8 for DH and N(4 - pi)/2 for AP.
    The constant is unspecified, so only the decay rate is exposed.
    """

    decay_rate: float


@dataclass(frozen=True)
class SaturationLaw:
    """High-SNR behaviour P_e ~ (Es/N0)^snr_power * exp(constant_exponent).

    Valid where N * Es/N0 >> 1 (dual-hop intelligent, binary only).
    """

    snr_power: float
    constant_exponent: float


def asymptote(model: AnalyticModel, order: int, regime: str) -> WaterfallLaw | SaturationLaw:
    """Asymptotic error-probability law for one scheme/order/regime."""
    n = model.n_reflectors
    if regime == Regime.WATERFALL:
        if model.scheme is Scheme.DH_INTELLIGENT:
            if order == 2:
                return WaterfallLaw(decay_rate=n * n * PI * PI / 16.0)
            _require_qam_ok(model, order)
            return WaterfallLaw(decay_rate=3.0 * n * n * PI * PI / (32.0 * (order - 1)))
        if model.scheme is Scheme.AP_INTELLIGENT:
            if order < 2:
                raise ValueError(f"order must be >= 2, got {order}")
            return WaterfallLaw(decay_rate=np.sin(PI / order) ** 2 * n * n * PI / 4.0)
        raise ValueError(f"no waterfall law for {model.scheme.name}")
    if regime == Regime.SATURATION:
        if model.scheme is Scheme.DH_INTELLIGENT and order == 2:
            return SaturationLaw(
                snr_power=-0.5,
                constant_exponent=-n * PI * PI / (2.0 * (16.0 - PI * PI)),
            )
        raise ValueError("the saturation law is only available for binary dual-hop intelligent links")
    raise ValueError(f"unknown regime: {regime!r}")


def cpep(model: AnalyticModel, w_k: float, w_l: float, gain: float) -> float:
    """Pairwise message error probability conditioned on the channel gain.

    For the AP schemes with messages carried by phases w_k, w_l and a known
    composite gain magnitude:  Q( sqrt(snr * gain^2 * (1 - cos(w_l - w_k))) ).
    """
    g2 = float(np.abs(gain)) ** 2
    arg = model.snr * g2 * (1.0 - np.cos(w_l - w_k))
    return float(qfunc(np.sqrt(arg)))


def average_snr(model: AnalyticModel) -> float:
    """Mean received SNR: (N^2 pi^2 + N(16 - pi^2)) / 16 * Es/N0.

    Only the dual-hop intelligent scheme has this closed form.
    """
    if model.scheme is not Scheme.DH_INTELLIGENT:
        raise ValueError("average_snr is defined for DH_INTELLIGENT only")
    n = model.n_reflectors
    return (n * n * PI * PI + n * (16.0 - PI * PI)) / 16.0 * model.snr


def required_snr_db(
    curve,
    target: float,
    lo_db: float = -80.0,
    hi_db: float = 60.0,
) -> float:
    """Invert a monotone error-rate curve: the Es/N0 (dB) where it crosses target.

    ``curve`` maps linear snr -> probability and must be decreasing in snr.
    Raises ValueError when the target is outside the curve's range on
    [lo_db, hi_db].
    """
    from scipy.optimize import brentq

    if not 0.0 < target < 1.0:
        raise ValueError(f"target rate must be in (0, 1), got {target}")

    def gap(db: float) -> float:
        # Clamp so underflowed probabilities keep the bracket finite.
        p = max(float(curve(db_to_linear(db))), 1e-300)
        return np.log(p) - np.log(target)

    g_lo, g_hi = gap(lo_db), gap(hi_db)
    if not (g_lo > 0 >= g_hi or g_lo >= 0 > g_hi):
        raise ValueError(
            f"target {target} not bracketed by curve on [{lo_db}, {hi_db}] dB"
        )
    return float(brentq(gap, lo_db, hi_db, xtol=1e-9))


def adaptive_simpson(func, a: float, b: float, tol: float = 1e-12, max_depth: int = 60) -> float:
    """Adaptive Simpson integration to absolute tolerance ``tol``.

    Test oracle only; production integrals use Gauss-Legendre.
    """

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = func(lm), func(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth + 1) + recurse(
            m, b_, fm, frm, fb, right, tol_ / 2.0, depth + 1
        )

    fa, fb = func(a), func(b)
    mid = 0.5 * (a + b)
    fm = func(mid)
    whole = simpson(fa, fm, fb, a, b)
    return float(recurse(a, b, fa, fm, fb, whole, tol, 0))
