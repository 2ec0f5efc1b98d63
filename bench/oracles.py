"""Reference error rates computed apart from ris_linklab.

Every function here derives its value from the channel model stated in its
docstring, with scipy quadrature or a closed form; none calls the program.
The intelligent-scheme references average the conditional SER over a
Gaussian gain whose mean and variance come from the Rayleigh legs, which is
the large-N model the program's analytic engine uses, computed another way
(numerical averaging over the gain instead of the MGF integral).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special

PI = np.pi

# Gauss-Legendre nodes on [0, 1] for the Craig-form M-PSK conditional SER.
_CRAIG_X, _CRAIG_W = np.polynomial.legendre.leggauss(200)
_CRAIG_X = 0.5 * (_CRAIG_X + 1.0)
_CRAIG_W = 0.5 * _CRAIG_W


def qfunc(x):
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _one_minus_beta(a):
    """1 - sqrt(a / (1 + a)) without cancellation for large a."""
    return 1.0 / ((1.0 + a) * (1.0 + np.sqrt(a / (1.0 + a))))


def rayleigh_mpsk_ser(order: int, mean_snr):
    """M-PSK SER over Rayleigh fading (composite gain CN(0, 1) scaled to mean_snr).

    Closed form (Simon & Alouini): (M-1)/M - beta/pi (pi/2 + atan(beta cot(pi/M))),
    beta = sqrt(g r / (1 + g r)), g = sin^2(pi/M).  For M = 2 it is
    0.5 (1 - sqrt(r / (1 + r))).
    """
    r = np.asarray(mean_snr, dtype=float)
    if order == 2:
        return 0.5 * _one_minus_beta(r)
    g = np.sin(PI / order) ** 2
    beta = np.sqrt(g * r / (1.0 + g * r))
    return (order - 1) / order - beta / PI * (PI / 2 + np.arctan(beta / np.tan(PI / order)))


def rayleigh_mqam_ser(order: int, mean_snr):
    """Square M-QAM SER over Rayleigh fading.

    2q(1 - beta) - q^2 (1 - 4 beta/pi atan(1/beta)), q = 1 - 1/sqrt(M),
    beta = sqrt(a / (1 + a)), a = 3 r / (2 (M - 1)).
    """
    r = np.asarray(mean_snr, dtype=float)
    q = 1.0 - 1.0 / np.sqrt(order)
    a = 3.0 * r / (2.0 * (order - 1))
    beta = np.sqrt(a / (1.0 + a))
    return 2.0 * q * _one_minus_beta(a) - q * q * (1.0 - 4.0 * beta / PI * np.arctan(1.0 / beta))


def blind_ser(scheme: str, n: int, order: int, snr: float) -> float:
    """SER of the CN(0, N) gain model the program uses for both blind schemes.

    Dual-hop links carry BPSK at M = 2 and square QAM above; the access
    point carries an M-phase book, which detects as M-PSK.
    """
    if scheme == "dh_blind" and order > 2:
        return float(rayleigh_mqam_ser(order, n * snr))
    return float(rayleigh_mpsk_ser(order, n * snr))


@lru_cache(maxsize=None)
def dh_blind_physical_ber(n: int, snr: float) -> float:
    """BPSK BER of the physical dual-hop blind channel H = sum(h_i g_i).

    Given g, H ~ CN(0, |g|^2) and |g|^2 ~ Gamma(N, 1), so the BER is
    E_X[0.5 (1 - sqrt(X snr / (1 + X snr)))] over X ~ Gamma(N, 1).
    """
    log_norm = special.gammaln(n)

    def integrand(x):
        return 0.5 * _one_minus_beta(x * snr) * np.exp((n - 1) * np.log(x) - x - log_norm)

    hi = n + 40.0 * np.sqrt(n) + 40.0
    value, _ = integrate.quad(integrand, 0.0, hi, points=[n - 1.0], limit=200, epsabs=0, epsrel=1e-10)
    return float(value)


def rayleigh_gain_moments(scheme: str, n: int) -> tuple[float, float]:
    """Mean and variance of the intelligent composite gain of N unit-power Rayleigh legs.

    DH: A = sum(alpha_i beta_i), E[alpha beta] = pi/4, Var = 1 - pi^2/16.
    AP: B = sum(beta_i),         E[beta] = sqrt(pi)/2,  Var = 1 - pi/4.
    """
    if scheme == "dh_intelligent":
        return n * PI / 4.0, n * (1.0 - PI**2 / 16.0)
    if scheme == "ap_intelligent":
        return n * np.sqrt(PI) / 2.0, n * (1.0 - PI / 4.0)
    raise ValueError(f"no Gaussian gain law for {scheme}")


def conditional_ser(scheme: str, order: int, gamma: float) -> float:
    """SER given the instantaneous SNR gamma = gain^2 Es/N0.

    BPSK: Q(sqrt(2 gamma)).  Square QAM (dual-hop, M > 2):
    4qQ(x) - 4q^2 Q(x)^2 with x = sqrt(3 gamma / (M - 1)).  M-PSK and the AP
    phase book: Craig's integral (1/pi) int_0^{(M-1)pi/M}
    exp(-gamma sin^2(pi/M) / sin^2 t) dt.
    """
    if order == 2:
        return float(qfunc(np.sqrt(2.0 * gamma)))
    if scheme == "dh_intelligent":
        q = 1.0 - 1.0 / np.sqrt(order)
        qx = float(qfunc(np.sqrt(3.0 * gamma / (order - 1))))
        return 4.0 * q * qx - 4.0 * q * q * qx * qx
    upper = (order - 1) * PI / order
    t = upper * _CRAIG_X
    g = np.sin(PI / order) ** 2
    return float(upper * np.dot(_CRAIG_W, np.exp(-gamma * g / np.sin(t) ** 2)) / PI)


@lru_cache(maxsize=None)
def intelligent_ser(scheme: str, n: int, order: int, snr: float) -> float:
    """E[conditional SER] over the Gaussian gain A ~ N(mu, var), by quadrature in z.

    A = mu + sigma z with z standard normal.  The integrand peaks where the
    Gaussian weight meets the error tail, near z* = -2 snr mu sigma / (1 + 2 snr var);
    quad is told about that point and about A = 0.
    """
    mu, var = rayleigh_gain_moments(scheme, n)
    sigma = np.sqrt(var)
    peak = -2.0 * snr * mu * sigma / (1.0 + 2.0 * snr * var)

    def integrand(z):
        a = mu + sigma * z
        return np.exp(-0.5 * z * z) * conditional_ser(scheme, order, a * a * snr)

    value, _ = integrate.quad(
        integrand, -60.0, 60.0, points=[peak, -mu / sigma], limit=400, epsabs=0, epsrel=1e-10
    )
    return float(value / np.sqrt(2.0 * PI))


@lru_cache(maxsize=None)
def intelligent_crossing_db(scheme: str, n: int, target: float) -> float:
    """Es/N0 (dB) where the Gaussian-gain BEP of an intelligent binary link hits target."""

    def gap(db: float) -> float:
        p = intelligent_ser(scheme, n, 2, 10.0 ** (db / 10.0))
        return np.log(max(p, 1e-300) / target)

    return float(optimize.brentq(gap, -80.0, 20.0, xtol=1e-10))
