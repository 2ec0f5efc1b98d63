"""Closed-form and quadrature evaluation of average error probabilities.

For each scheme the instantaneous received SNR admits a moment generating
function under a Gaussian (large-N) model of the composite channel gain,
and every one of them is a member of the family

    M(s) = den^(-k) * exp(num/den),   den = 1 - a*s*snr,   num = b*s*snr,

stated once per scheme by :func:`_mgf_rows`:

* Intelligent (both):  the gain sums N i.i.d. element amplitudes, each the
  product of its Rayleigh legs (``schemes._LEGS``), so it is N(sqrt(m2), v/2)
  with m2 and v from :func:`_moments`, and gamma = gain^2 * Es/N0 is
  noncentral chi-square with one degree of freedom: k = 1/2, a = v, b = m2,

      M(s) = (1 - s*v*snr)^(-1/2) * exp(s*m2*snr / (1 - s*v*snr)).

* Blind (both):    gain ~ CN(0, N), so gamma is exponential: k = 1, a = N
  and num = 0, M(s) = 1 / (1 - s*N*snr).
  This is exact for AP blind, G = sum(g_i).  For DH blind it is the
  large-N model only: the cascade H = sum(h_i g_i) is CN(0, X) with
  X ~ Gamma(N, 1), and the simulator draws that mixture.  At small N the
  physical error rate therefore sits above these curves (20-33 % for BPSK
  at N = 4 between 0 and 20 dB).

Average M-PSK/M-QAM symbol error probabilities follow from the standard
finite-range MGF (Craig) integrals.  For the intelligent schemes they are
Gauss-Legendre quadratures of ``nodes`` points, at least 16 (the integrands
are smooth and bounded); for blind, whose gamma is exponential, they are
the Rayleigh closed forms of :func:`_blind_craig`, and ``nodes`` is only
checked.  The asymptotic laws are one number each: :func:`waterfall_rate`
(low SNR) and :func:`saturation_exponent` (high SNR, binary dual-hop).

``AnalyticModel.snr`` is a float or a 1-D array of linear Es/N0 values.
One call evaluates a whole grid: the quadratures take it _SNR_BLOCK points
at a time against the nodes, computing each slice in place in two
(points x nodes) arrays, and the blind closed forms take it at once; each
point's result equals, bit for bit, the call made with that point alone as
a float.  A float SNR gives a float, an array SNR an array.  Every SNR the
model accepts gives a finite value: an MGF term whose den overflows takes
its limit M(s) = 0.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modulation import ConstellationKind, check_order
from .schemes import _LEGS, Scheme, _link_kind, _require_surface

PI = np.pi

# SNR points per slice in _gl_integral, so a (points x nodes) temporary holds 128 kB:
# whole 601-point grids raise the peak RSS of analytic --bound over every scheme and M
# at N = 16..1024 from 32 to 36 MB, and a 4096-point sep_mqam traces 25 MB, not 0.6.
_SNR_BLOCK = 64

# Largest quadrature order: _leggauss solves a dense (nodes x nodes) eigenproblem, whose
# time grows as nodes^3 and memory as nodes^2: 0.9 s and 32 MiB at 2048 on a 2-vCPU Xeon.
_MAX_NODES = 4096

__all__ = [
    "AnalyticModel",
    "mgf",
    "sep_mpsk",
    "sep_mqam",
    "sep_upper_bound",
    "waterfall_rate",
    "saturation_exponent",
    "required_snr_db",
    "db_to_linear",
]


def db_to_linear(db) -> float:
    """10^(db/10) for one value, as a Python float.

    Python's scalar pow, not numpy's array pow, which differs in the last
    bit for a few per cent of inputs.
    """
    return 10.0 ** (float(db) / 10.0)


@dataclass(frozen=True)
class AnalyticModel:
    """MGF parameterization of (scheme, N) at one snr or a 1-D array of them."""

    scheme: Scheme
    n_reflectors: int
    snr: float | np.ndarray  # linear Es/N0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_reflectors", _require_surface(self.n_reflectors))
        snr = np.array(self.snr, dtype=float)
        if snr.ndim > 1:
            raise ValueError(f"snr must be a float or a 1-D array, got shape {snr.shape}")
        bad = np.flatnonzero(~(np.isfinite(snr) & (snr > 0)))
        if bad.size:
            where = f"[{bad[0]}]" if snr.ndim else ""
            raise ValueError(f"snr{where} must be finite and > 0, got {snr.reshape(-1)[bad[0]]}")
        snr.flags.writeable = False  # a private read-only copy, so the checked values stay checked
        object.__setattr__(self, "snr", snr if snr.ndim else float(snr))

    def __eq__(self, other: object) -> bool:  # an array snr compares by content
        same = isinstance(other, AnalyticModel) and self.scheme is other.scheme
        return same and self.n_reflectors == other.n_reflectors and np.array_equal(self.snr, other.snr)

    def __hash__(self) -> int:
        return hash((self.scheme, self.n_reflectors, np.asarray(self.snr, dtype=float).tobytes()))


def _scalar_or_array(x):
    """A float for the 0-d (scalar-SNR) case, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def mgf(model: AnalyticModel, s):
    """E[exp(s*gamma)] for finite s <= 0, of shape ``snr.shape + s.shape``; 1 at s = 0."""
    s = np.asarray(s, dtype=float)
    if not ((s <= 0) & np.isfinite(s)).all():
        raise ValueError("mgf is only evaluated for finite s <= 0")
    values = _mgf_rows(model.scheme, model.n_reflectors, s.reshape(-1), _top(model))(np.ravel(model.snr))
    return values.reshape(np.shape(model.snr) + s.shape)[()]


def _mgf_rows(scheme: Scheme, n: int, s: np.ndarray, top: float):
    """The MGF of (scheme, n) at the 1-D checked s, as a function of a 1-D snr
    (none of it above ``top``) giving the (len(snr), len(s)) values M(s) of the
    member of den^(-k) * exp(num/den), den = 1 - a*s*snr, num = b*s*snr, that
    states the scheme once.  The values are formed in place: blind M(s) is one
    reciprocal; intelligent keeps the order of exp(log(den)*(-k) + num/den), on
    which the curves' bytes depend.  Where a*s*snr overflows, den = inf and M(s)
    takes its limit 0 (num/den would read inf/inf); whether any term can
    overflow is decided once, from the largest |s| and ``top``, so ordinary
    grids keep the plain path."""
    if scheme.is_intelligent:  # k = 1/2
        m2, v = _moments(scheme, n)
        a, b, scale = s * v, s * m2, max(m2, v)
    else:  # exponential gamma with mean N * snr: k = 1, num = 0
        a, b, scale = s * n, None, n

    def values(snr: np.ndarray) -> np.ndarray:
        den = _outer(snr, a)
        np.subtract(1.0, den, out=den)
        if b is None:
            return np.reciprocal(den, out=den)
        num = _outer(snr, b)
        num /= den
        np.log(den, out=den)
        den *= -0.5
        den += num
        return np.exp(den, out=den)

    if -float(s.min(initial=0.0)) * scale * top < math.inf:  # s <= 0
        return values

    def limits(snr: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = values(snr)
            out[np.isinf(_outer(snr, a))] = 0.0
        return out

    return limits


def _top(model: AnalyticModel) -> float:
    """The model's largest snr."""
    return model.snr if isinstance(model.snr, float) else float(model.snr.max(initial=0.0))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The outer product of two 1-D arrays, each element one IEEE product
    (einsum adds it to +0, so a -0 product reads +0).  numpy's broadcast loop
    pays about 0.3 us per row of 256 values, einsum 0.13 us per row and 2 us
    per call, so einsum takes the products where both arrays hold 8 values
    or more: a slice of the integrand, not one point or one bound."""
    return np.einsum("i,j->ij", x, y) if min(len(x), len(y)) >= 8 else x[:, None] * y


def _moments(scheme: Scheme, n: int) -> tuple[float, float]:
    """m2 = E[gain]^2 and v = 2 Var[gain] of an intelligent n-element gain, from
    the element moments of ``schemes._LEGS``.  m2 is n*n, times pi once per
    leg, over 4**legs: the curves' bytes depend on that order."""
    legs = _LEGS[scheme]
    return math.prod((n * n, *(PI,) * legs)) / 4.0**legs, 2 * n * (1 - PI**legs / 4.0**legs)


def _check_nodes(nodes: int) -> int:
    """A quadrature order as a Python int, refusing anything but a Python or
    numpy integer from 16 to _MAX_NODES, for every scheme."""
    try:
        count = operator.index(nodes)
    except TypeError:
        raise ValueError(f"nodes must be an integer, got {nodes!r}") from None
    if count < 16:
        raise ValueError(f"nodes must be >= 16, got {count}")
    if count > _MAX_NODES:
        raise ValueError(f"nodes must be <= {_MAX_NODES}, got {count}")
    return count


@lru_cache(maxsize=32)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _gl_integral(func, snr, a: float, b: float, nodes: int):
    """Integral over eta in [a, b] of an integrand for each point of snr.
    ``func(eta)`` takes the quadrature nodes eta once and returns the
    integrand as a function of a slice ``rows`` of at most _SNR_BLOCK points
    of snr, giving its (len(rows), nodes) values (a float snr is one slice of
    one point).

    ``np.vecdot`` reduces each row with the same dot kernel as a one-row
    ``np.dot``, so every point's value equals its one-point result bit for
    bit; a matrix product sums in another order and differs in the last bits.
    """
    x, w = _leggauss(nodes)
    half = 0.5 * (b - a)
    integrand = func(half * x + 0.5 * (a + b))
    points = np.atleast_1d(snr)
    out = np.empty(points.shape)
    for start in range(0, points.size, _SNR_BLOCK):
        out[start : start + _SNR_BLOCK] = np.vecdot(integrand(points[start : start + _SNR_BLOCK]), w)
    return half * out.reshape(np.shape(snr))


def _craig(model: AnalyticModel, c: float, theta: float, nodes: int):
    """Integral over eta in [0, theta] of M_gamma(-c / sin^2 eta), c > 0, for
    each point of the model's snr: by :func:`_gl_integral` of ``nodes``
    points for the intelligent schemes, in closed form for blind."""
    nodes = _check_nodes(nodes)
    if not model.scheme.is_intelligent:
        return _blind_craig(theta, c * model.n_reflectors, model.snr)

    def integrand(eta):
        return _mgf_rows(model.scheme, model.n_reflectors, -c / np.sin(eta) ** 2, _top(model))

    return _gl_integral(integrand, model.snr, 0.0, theta, nodes)


def _blind_craig(theta: float, cn: float, snr):
    """Integral over eta in [0, theta] of sin^2 eta / (sin^2 eta + x), with
    x = cn * snr: the Craig integrand of a blind model, whose gamma is
    exponential with mean N * snr, at cn = c * N (Simon & Alouini, *Digital
    Communication over Fading Channels*, Sec. 8.2).

    With beta = sqrt(x / (1 + x)) and 1 - beta = 1 / ((1 + x)(1 + beta)), it
    is (1 - beta) * pi/2 at theta = pi/2 and, below pi/2,

        (1 - beta) * theta - beta * atan((1 - beta) tan(theta) / (beta + tan^2 theta)),

    which subtracts no near-equal terms, so the high-SNR tail keeps its
    digits; above pi/2 it is twice the value at pi/2 less the value at
    pi - theta.  beta and x come from 1/x = (1/snr) / cn, never from
    cn * snr: 1/x = inf (a subnormal snr) is the limit x = 0, where the
    integral is theta, and x = inf is the limit 0.
    """
    with np.errstate(over="ignore", divide="ignore"):
        inv_x = (1.0 / np.asarray(snr, dtype=float)) / cn
        x = 1.0 / inv_x
    beta = 1.0 / np.sqrt(1.0 + inv_x)
    one_minus_beta = 1.0 / (1.0 + x) / (1.0 + beta)
    if theta == PI / 2.0:
        return (PI / 2.0) * one_minus_beta
    low = min(theta, PI - theta)
    tan = math.tan(low)
    part = one_minus_beta * low - beta * np.arctan(one_minus_beta * tan / (beta + tan * tan))
    return part if theta < PI / 2.0 else PI * one_minus_beta - part


def sep_mpsk(model: AnalyticModel, order: int, nodes: int = 256):
    """Average M-PSK SEP, for dual-hop PSK and the access-point schemes.

    (1/pi) * Integral_0^{(M-1)pi/M} M_gamma(-sin^2(pi/M) / sin^2 eta) d eta.
    """
    check_order(ConstellationKind.PSK, order)
    c = np.sin(PI / order) ** 2
    return _scalar_or_array(_craig(model, c, (order - 1) * PI / order, nodes) / PI)


def sep_mqam(model: AnalyticModel, order: int, nodes: int = 256):
    """Average square M-QAM SEP (dual-hop schemes only)."""
    q, c = _qam_terms(model.scheme, order)
    first = _craig(model, -c, PI / 2.0, nodes)
    second = _craig(model, -c, PI / 4.0, nodes)
    return _scalar_or_array((4.0 * q / PI) * first - (4.0 * q * q / PI) * second)


def _qam_terms(scheme: Scheme, order: int) -> tuple[float, float]:
    """q = 1 - 1/sqrt(M) and c = -3 / (2 (M - 1)) of square M-QAM, once
    ``check_order`` accepts the order and the link carries QAM (schemes._link_kind)."""
    check_order(ConstellationKind.QAM, order)
    _link_kind(scheme, order, ConstellationKind.QAM)
    return 1.0 - 1.0 / np.sqrt(order), -3.0 / (2.0 * (order - 1))


def sep_upper_bound(
    model: AnalyticModel,
    order: int,
    kind: ConstellationKind = ConstellationKind.PSK,
):
    """Closed-form SEP upper bound.

    Obtained by freezing the integrands at their maxima (eta = pi/2, and
    eta = pi/4 for the second QAM term); always dominates the exact
    integral because the integrands increase monotonically in sin^2(eta).
    """
    if kind is ConstellationKind.QAM:
        q, c = _qam_terms(model.scheme, order)
        return _scalar_or_array(2.0 * q * mgf(model, c) - q * q * mgf(model, 2.0 * c))
    check_order(ConstellationKind.PSK, order)
    return _scalar_or_array((order - 1) / order * mgf(model, -np.sin(PI / order) ** 2))


def waterfall_rate(scheme: Scheme, n: int, order: int) -> float:
    """Decay rate c of the low-SNR law log P_e ~ -c * Es/N0 + const: m2 times
    the constellation's distance factor, with m2 and v from :func:`_moments`.

    Valid where v * Es/N0 << 1.  Only the intelligent schemes have the law:
    DH with BPSK or square QAM, AP with M-PSK.  The constant is unspecified.
    """
    n = _require_surface(n)
    if not scheme.is_intelligent:
        raise ValueError(f"no waterfall law for {scheme.name}")
    m2 = _moments(scheme, n)[0]
    if scheme.is_access_point:
        check_order(ConstellationKind.PSK, order)
        return np.sin(PI / order) ** 2 * m2
    if order == 2:
        return m2
    return -_qam_terms(scheme, order)[1] * m2


def saturation_exponent(n: int) -> float:
    """Constant exponent c of the high-SNR law P_e ~ (Es/N0)^(-1/2) * exp(c)
    of a binary dual-hop intelligent link with n elements.

    Valid where N * Es/N0 >> 1.
    """
    m2, v = _moments(Scheme.DH_INTELLIGENT, _require_surface(n))
    return -m2 / v


def required_snr_db(
    curve,
    target: float,
    lo_db: float = -80.0,
    hi_db: float = 60.0,
) -> float:
    """Invert a monotone error-rate curve: the Es/N0 (dB) where it crosses target.

    ``curve`` maps linear snr -> probability and must be decreasing in snr.
    The crossing is found by :func:`_brent` on log(curve) - log(target) and
    is a float, also when an int ``lo_db`` or ``hi_db`` is itself the
    crossing.  Raises ValueError when the target is outside the
    curve's range on [lo_db, hi_db], and ArithmeticError when the curve
    gives NaN or the root is not found in 100 iterations.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target rate must be in (0, 1), got {target}")

    def gap(db: float) -> float:
        p = float(curve(db_to_linear(db)))
        if math.isnan(p):
            raise ArithmeticError(f"error-rate curve is NaN at {db} dB")
        # Clamp so underflowed probabilities keep the bracket finite.
        return np.log(max(p, 1e-300)) - np.log(target)

    g_lo, g_hi = gap(lo_db), gap(hi_db)
    if not (g_lo > 0 >= g_hi or g_lo >= 0 > g_hi):
        raise ValueError(
            f"target {target} not bracketed by curve on [{lo_db}, {hi_db}] dB"
        )
    return _brent(gap, lo_db, hi_db, g_lo, g_hi)


def _brent(f, xa, xb, fa, fb) -> float:
    """A root of f in [xa, xb], whose ends fa = f(xa) and fb = f(xb) must
    have opposite signs or be zero; the caller has them already.

    A line-for-line port of scipy's ``brentq`` C routine at xtol = 1e-9,
    its default rtol = 4 eps and maxiter = 100: the same double operations
    in the same order, so it returns ``brentq(f, xa, xb, xtol=1e-9)`` bit
    for bit after as many evaluations of f (counting the two ends), without
    importing scipy.
    Python floats are C doubles, except that a division by zero raises; C's
    infinite or NaN step there fails the step test and bisects.  Raises
    ArithmeticError after 100 iterations (scipy: RuntimeError).
    """
    xtol, rtol, maxiter = 1e-9, 4 * sys.float_info.epsilon, 100
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(fa), float(fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise ArithmeticError(f"no root found in {maxiter} iterations; last estimate {xcur}")
