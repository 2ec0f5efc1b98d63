"""The four end-to-end transmission schemes over a reflecting surface.

Two topologies, each with an "intelligent" variant (the surface knows the
channel phases and cancels them) and a "blind" variant (it does not):

* Dual-hop (DH): a source transmits a PSK/QAM symbol, the surface reflects
  it toward the destination.  Intelligent reflection aligns every per-element
  product ``h_i * g_i`` onto the positive real axis, so the composite gain
  becomes ``A = sum(alpha_i * beta_i)``.  Blind reflection applies zero
  phases, leaving the cascaded gain ``H = sum(h_i * g_i)``.
* Access-point (AP): the surface is fed an unmodulated carrier and encodes
  ``log2(M)`` bits per interval by rotating all elements by a common phase
  ``w_m`` on top of (intelligent) or instead of (blind) channel-phase
  cancellation.  Composite gains are ``B = sum(beta_i)`` and
  ``G = sum(g_i)`` respectively.

The destination is assumed to know the composite scalar gain coherently in
all four schemes; "blind" refers to the surface's channel knowledge, not the
receiver's.  :func:`draw_gains` states the law of each composite gain once;
the Monte Carlo kernel samples through it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .modulation import Constellation, ConstellationKind
from .rng import RAYLEIGH_SCALE, ChannelRealization, standard_complex_normal

__all__ = [
    "Scheme",
    "SchemeConfig",
    "EffectiveGain",
    "draw_gains",
    "reflector_phases",
    "transmit",
    "instantaneous_snr",
]


class Scheme(enum.Enum):
    DH_INTELLIGENT = "dh_intelligent"
    DH_BLIND = "dh_blind"
    AP_INTELLIGENT = "ap_intelligent"
    AP_BLIND = "ap_blind"

    @property
    def is_access_point(self) -> bool:
        return self in (Scheme.AP_INTELLIGENT, Scheme.AP_BLIND)


@dataclass(frozen=True)
class SchemeConfig:
    """A fully specified link: scheme, surface size, constellation, energies."""

    scheme: Scheme
    n_reflectors: int
    constellation: Constellation
    es: float = 1.0
    n0: float = 1.0

    def __post_init__(self) -> None:
        if self.n_reflectors < 1:
            raise ValueError(f"n_reflectors must be >= 1, got {self.n_reflectors}")
        if self.es <= 0 or self.n0 <= 0:
            raise ValueError("es and n0 must be > 0")
        kind = self.constellation.kind
        if self.scheme.is_access_point and kind is not ConstellationKind.AP_PHASE:
            raise ValueError(f"{self.scheme.name} requires an AP_PHASE constellation, got {kind.name}")
        if not self.scheme.is_access_point and kind is ConstellationKind.AP_PHASE:
            raise ValueError(f"{self.scheme.name} requires a PSK or QAM constellation")

    @property
    def snr(self) -> float:
        """Linear Es/N0."""
        return self.es / self.n0


@dataclass(frozen=True)
class EffectiveGain:
    """The composite scalar channel the receiver coherently knows.

    A (DH intelligent) and B (AP intelligent) are real positive; H and G are
    general complex.
    """

    value: complex


def draw_gains(scheme: Scheme, n: int, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Composite gains of ``trials`` independent fast-fading realizations.

    Each branch draws the exact law of the scheme's gain over an N-element
    surface with i.i.d. CN(0, 1) legs, in this order:

    * DH intelligent: ``A = sum(alpha_i beta_i)``; alpha then beta, each a
      (trials, N) block of Rayleigh amplitudes by inverse CDF.
    * AP intelligent: ``B = sum(beta_i)``; one (trials, N) Rayleigh block.
    * DH blind: ``H = sqrt(X) * Z``; X ~ Gamma(N, 1), then Re Z and Im Z of
      Z ~ CN(0, 1), each a block of ``trials``.  Given g,
      ``sum(h_i g_i) ~ CN(0, |g|^2)`` and ``|g|^2 ~ Gamma(N, 1)``.
    * AP blind: ``G = sqrt(N) * Z``; Re Z then Im Z.  ``sum(g_i) ~ CN(0, N)``.

    Intelligent gains are real and positive; blind gains are complex.
    """
    if scheme is Scheme.DH_INTELLIGENT:
        alpha = rng.rayleigh(RAYLEIGH_SCALE, (trials, n))
        beta = rng.rayleigh(RAYLEIGH_SCALE, (trials, n))
        return np.einsum("ij,ij->i", alpha, beta)
    if scheme is Scheme.AP_INTELLIGENT:
        return rng.rayleigh(RAYLEIGH_SCALE, (trials, n)).sum(axis=1)
    if scheme is Scheme.DH_BLIND:
        scale = np.sqrt(rng.standard_gamma(n, trials))
    else:  # AP_BLIND
        scale = np.sqrt(n)
    return scale * standard_complex_normal(rng, trials)


def reflector_phases(
    config: SchemeConfig,
    channel: ChannelRealization,
    message_index: int | None = None,
) -> np.ndarray:
    """Per-element phase settings for one signaling interval.

    ``message_index`` is required for the AP schemes (it selects the common
    information phase ``w_m``) and must be omitted for the DH schemes.
    """
    ap = config.scheme.is_access_point
    if ap and message_index is None:
        raise ValueError(f"{config.scheme.name} requires a message_index")
    if not ap and message_index is not None:
        raise ValueError(f"{config.scheme.name} does not take a message_index")
    if ap and not 0 <= message_index < config.constellation.order:
        raise ValueError(f"message_index out of range 0..{config.constellation.order - 1}")

    n = channel.n_reflectors
    if config.scheme is Scheme.DH_INTELLIGENT:
        return channel.theta + channel.psi
    if config.scheme is Scheme.DH_BLIND:
        return np.zeros(n)
    w = config.constellation.phases[message_index]
    if config.scheme is Scheme.AP_INTELLIGENT:
        return channel.psi + w
    return np.full(n, w)  # AP_BLIND: data phase only, identical on every element


def transmit(
    config: SchemeConfig,
    channel: ChannelRealization,
    symbol_or_message: int,
    noise: complex,
) -> tuple[complex, EffectiveGain]:
    """Push one symbol (DH) or message (AP) through the link.

    Returns the received baseband sample and the composite gain the
    coherent receiver uses for detection.
    """
    if channel.n_reflectors != config.n_reflectors:
        raise ValueError("channel size does not match config.n_reflectors")

    if config.scheme.is_access_point:
        phases = reflector_phases(config, channel, symbol_or_message)
        bracket = np.sum(channel.g * np.exp(1j * phases))
        received = np.sqrt(config.es) * bracket + noise
        if config.scheme is Scheme.AP_INTELLIGENT:
            gain = EffectiveGain(complex(np.sum(channel.beta)))
        else:
            gain = EffectiveGain(complex(np.sum(channel.g)))
        return complex(received), gain

    index = int(symbol_or_message)
    if not 0 <= index < config.constellation.order:
        raise ValueError(f"symbol index out of range 0..{config.constellation.order - 1}")
    x = np.sqrt(config.es) * config.constellation.points[index]
    phases = reflector_phases(config, channel)
    bracket = np.sum(channel.h * np.exp(1j * phases) * channel.g)
    received = bracket * x + noise
    if config.scheme is Scheme.DH_INTELLIGENT:
        gain = EffectiveGain(complex(np.sum(channel.alpha * channel.beta)))
    else:
        gain = EffectiveGain(complex(bracket))
    return complex(received), gain


def instantaneous_snr(config: SchemeConfig, gain: EffectiveGain) -> float:
    """Received SNR for one realization: |gain|^2 * Es / N0."""
    return float(np.abs(gain.value) ** 2) * config.es / config.n0
