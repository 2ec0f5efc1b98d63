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
  ``w_m = 2*pi*m/M`` on top of (intelligent) or instead of (blind)
  channel-phase cancellation, so the message is M-PSK.  Composite gains
  are ``B = sum(beta_i)`` and ``G = sum(g_i)`` respectively.

The destination is assumed to know the composite scalar gain coherently in
all four schemes; "blind" refers to the surface's channel knowledge, not the
receiver's.  :func:`draw_gains` states the law of each composite gain once;
the Monte Carlo kernel samples through it.  ``tests/per_element.py`` builds
the same gains from explicit per-element channels and reflector phases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .modulation import Constellation, ConstellationKind
from .rng import standard_complex_normal

__all__ = ["Scheme", "SchemeConfig", "draw_gains"]

# Values per leg in one block of the intelligent draws (see draw_gains).
_BLOCK_VALUES = 65536


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
    """A fully specified link: scheme, surface size and constellation.

    Symbol energy is fixed at Es = 1; a sweep sets N0 from each Es/N0 point.
    """

    scheme: Scheme
    n_reflectors: int
    constellation: Constellation

    def __post_init__(self) -> None:
        if self.n_reflectors < 1:
            raise ValueError(f"n_reflectors must be >= 1, got {self.n_reflectors}")
        if self.scheme.is_access_point and self.constellation.kind is ConstellationKind.QAM:
            raise ValueError(f"{self.scheme.name} carries M-PSK (a common phase per message), not QAM")


def draw_gains(scheme: Scheme, n: int, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Composite gains of ``trials`` independent fast-fading realizations.

    Each branch draws the exact law of the scheme's gain over an N-element
    surface with i.i.d. CN(0, 1) legs, in this order:

    * DH intelligent: ``A = sum(alpha_i beta_i) = sum(sqrt(E_i F_i))``, since
      the amplitude |h| of h ~ CN(0, 1) is sqrt(E) with E ~ Exp(1).  Trials
      go in row blocks of ``max(1, 65536 // N)`` rows (the last may be
      shorter); each block draws E, then F, as (rows, N) standard
      exponentials.
    * AP intelligent: ``B = sum(beta_i) = sum(sqrt(E_i))``; the same row
      blocks, each one (rows, N) block of E.
    * DH blind: ``H = sqrt(X) * Z``; X ~ Gamma(N, 1), then Re Z and Im Z of
      Z ~ CN(0, 1), each a block of ``trials``.  Given g,
      ``sum(h_i g_i) ~ CN(0, |g|^2)`` and ``|g|^2 ~ Gamma(N, 1)``.
    * AP blind: ``G = sqrt(N) * Z``; Re Z then Im Z.  ``sum(g_i) ~ CN(0, N)``.

    Intelligent gains are real and positive; blind gains are complex.
    """
    if scheme is Scheme.DH_INTELLIGENT or scheme is Scheme.AP_INTELLIGENT:
        return _amplitude_sums(rng, n, trials, legs=2 if scheme is Scheme.DH_INTELLIGENT else 1)
    if scheme is Scheme.DH_BLIND:
        scale = np.sqrt(rng.standard_gamma(n, trials))
    else:  # AP_BLIND
        scale = np.sqrt(n)
    return scale * standard_complex_normal(rng, trials)


def _amplitude_sums(rng: np.random.Generator, n: int, trials: int, legs: int) -> np.ndarray:
    """Row sums of sqrt(E) (one leg) or sqrt(E * F) (two legs), drawn in the
    row blocks of ``draw_gains``.  The buffers stay a cache-sized
    ``_BLOCK_VALUES`` values each, whatever ``trials``."""
    rows = max(1, _BLOCK_VALUES // n)
    buffers = np.empty((legs, min(rows, trials) * n))
    gains = np.empty(trials)
    for start in range(0, trials, rows):
        block = buffers[:, : min(rows, trials - start) * n]
        for leg in block:
            rng.standard_exponential(out=leg)
        amplitudes = block[0]
        for other in block[1:]:
            amplitudes *= other
        np.sqrt(amplitudes, out=amplitudes)
        amplitudes.reshape(-1, n).sum(axis=1, out=gains[start : start + len(amplitudes) // n])
    return gains
