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
receiver's.  :func:`draw_gains` states the law of each composite gain's
amplitude once, and the Monte Carlo kernel samples through it: under
circularly-symmetric noise the receiver's errors depend on a gain only
through its amplitude.  ``tests/per_element.py`` builds
the same gains from explicit per-element channels and reflector phases.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from . import rng
from .modulation import Constellation, ConstellationKind

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

    @property
    def is_intelligent(self) -> bool:
        return self in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT)


# Rayleigh legs of an intelligent element's amplitude, alpha_i beta_i (DH) or beta_i (AP).
# A leg has mean sqrt(pi)/2 and mean square 1, so an element has mean^2 (pi/4)**legs and
# variance 1 - (pi/4)**legs.  draw_gains samples the legs; analytic's model takes their moments.
_LEGS = {Scheme.DH_INTELLIGENT: 2, Scheme.AP_INTELLIGENT: 1}


def _require_surface(n: int) -> int:
    """A surface size as a Python int, refusing anything but a Python or numpy integer >= 1."""
    try:
        size = operator.index(n)
    except TypeError:
        raise ValueError(f"n_reflectors must be an integer, got {n!r}") from None
    if size < 1:
        raise ValueError(f"n_reflectors must be >= 1, got {size}")
    return size


def _link_kind(scheme: Scheme, order: int, kind: ConstellationKind | None = None) -> ConstellationKind:
    """An access-point surface encodes each message as a common phase, so an AP
    link carries M-PSK; a dual-hop link carries ``kind``, by default BPSK at
    M = 2 and square QAM above (4-QAM is QPSK).  Raises ValueError for QAM on an AP link."""
    if not scheme.is_access_point:
        return (ConstellationKind.PSK if order == 2 else ConstellationKind.QAM) if kind is None else kind
    if kind is ConstellationKind.QAM:
        raise ValueError(f"{scheme.name} carries M-PSK (a common phase per message), not QAM")
    return ConstellationKind.PSK


@dataclass(frozen=True)
class SchemeConfig:
    """A fully specified link: scheme, surface size and constellation, checked
    by the surface and constellation rules above.

    Symbol energy is fixed at Es = 1; a sweep sets N0 from each Es/N0 point.
    """

    scheme: Scheme
    n_reflectors: int
    constellation: Constellation

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_reflectors", _require_surface(self.n_reflectors))
        _link_kind(self.scheme, self.constellation.order, self.constellation.kind)


def draw_gains(
    scheme: Scheme,
    n: int,
    rng: np.random.Generator,
    trials: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Composite gains of ``trials`` independent fast-fading realizations.

    Each branch draws the exact law of the scheme's gain over an N-element
    surface with i.i.d. CN(0, 1) legs, in this order:

    * DH intelligent: ``A = sum(alpha_i beta_i) = sum(sqrt(E_i F_i))``, since
      the amplitude |h| of h ~ CN(0, 1) is sqrt(E) with E ~ Exp(1).  Trials
      go in row blocks of ``max(1, 65536 // N)`` rows (the last may be
      shorter); each block reads 2 * rows * N uint32 values with
      :func:`~ris_linklab.rng.half_words`: the first rows * N give the
      (rows, N) block of E, the next ones F.
    * AP intelligent: ``B = sum(beta_i) = sum(sqrt(E_i))``; the same row
      blocks, each rows * N uint32 values for one (rows, N) block of E.
    * DH blind: ``|H| = sqrt(X * E)``; X ~ Gamma(N, 1), then E ~ Exp(1),
      each a block of ``trials``.  Given g, ``H = sum(h_i g_i) ~ CN(0, |g|^2)``
      with ``|g|^2 ~ Gamma(N, 1)``, and ``|H|^2 / |g|^2 ~ Exp(1)``.
    * AP blind: ``|G| = sqrt(N * E)``; one Exp(1) block.  ``G = sum(g_i) ~ CN(0, N)``.

    In the intelligent draws a uint32 value u gives the leg E = -log1p(-U),
    U = (u + 1/2) * 2**-32 in float32, the midpoint of one of 2**32 equal
    cells of (0, 1).  Up to E = 0.0039, E is within 2 ulp of the lattice
    value, so a deep fade sees the lattice law: at N = 1, P(E F < t) is
    within 1.3e-9 of 1 - 2 sqrt(t) K1(2 sqrt(t)) (relative) at t = 1e-8 and
    1.3e-5 at t = 1e-9, below which the smallest leg, 2**-33, sets the law.
    Above, rounding U moves E by up to about 2**-25 e**E: relative errors
    are about 4e-8 in the median, below 1.1e-5 for E < 8 and up to 2.5 % in
    the top atoms.  U is at most 1 - 2**-24 (see :func:`_negative_uniforms`),
    so the largest leg, 24 ln 2 = 16.64, carries 383 * 2**-32 = 8.9e-8 of
    mass, where Exp(1) has 6.0e-8 above it.  The float32 amplitudes are
    summed per row in float64, exactly unless a term is below about 2**-29
    of its row's total (probability below 1e-10 per leg at N = 1024), so
    the order of the additions does not matter.

    Every gain is a real amplitude, as float64.  The blind draws drop the
    phase of H or G: a coherent receiver with circularly-symmetric noise n
    decides on ``r = g s + n`` as it does on
    ``r exp(-j arg g) = |g| s + n exp(-j arg g)``, and ``n exp(-j arg g)``
    has the law of n and is independent of g, so the counted errors keep
    their law.  ``out``, if given, is a float64 array of length
    ``trials`` that receives them; ``work``, if given, is another that DH
    blind draws its Exp(1) block into.  Raises ValueError unless ``n`` is an integer >= 1.
    """
    n = _require_surface(n)
    if scheme.is_intelligent:
        return _amplitude_sums(rng, n, trials, _LEGS[scheme], out)
    if scheme is Scheme.DH_BLIND:
        gains = rng.standard_gamma(n, trials, out=out)
        gains *= rng.standard_exponential(trials, out=work)
    else:  # AP_BLIND
        gains = rng.standard_exponential(trials, out=out)
        gains *= n
    return np.sqrt(gains, out=gains)


def _amplitude_sums(
    generator: np.random.Generator, n: int, trials: int, legs: int, out: np.ndarray | None
) -> np.ndarray:
    """Row sums of sqrt(E) (one leg) or sqrt(E * F) (two legs), drawn in the
    row blocks of ``draw_gains`` from uint32 half-words (see :func:`_negative_uniforms`)
    and summed in float64 by ``einsum`` through numpy's fixed-size cast buffer,
    not a full-size float64 copy.  The float32 legs and one block of words
    stay within ``_BLOCK_VALUES`` float64 values per leg, whatever ``trials``."""
    rows = max(1, _BLOCK_VALUES // n)
    buffers = np.empty((legs, min(rows, trials) * n), np.float32)
    gains = np.empty(trials) if out is None else out
    for start in range(0, trials, rows):
        block = buffers[:, : min(rows, trials - start) * n]
        halves = rng.half_words(generator, block.size)
        np.log1p(_negative_uniforms(halves.reshape(block.shape), block), out=block)
        amplitudes = block[0]
        if legs == 2:
            amplitudes *= block[1]  # (-E) * (-F) = E * F
        else:
            np.negative(amplitudes, out=amplitudes)
        np.sqrt(amplitudes, out=amplitudes)
        sums = gains[start : start + len(amplitudes) // n]
        np.einsum("ij->i", amplitudes.reshape(-1, n), dtype=np.float64, out=sums)
    return gains


def _negative_uniforms(halves: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-U = -(u + 1/2) * 2**-32 in float32 from uint32 words u: a cast and an
    add, each rounded to nearest, then an exact scaling.  The 128 words from
    2**32 - 128 cast to 2**32, where U = 1: a block that holds one is clamped
    to U <= 1 - 2**-24, where the 255 words from 2**32 - 383 round."""
    np.copyto(out, halves.reshape(out.shape))
    out += np.float32(0.5)
    out *= np.float32(-(2.0**-32))
    if out.min() == -1.0:
        np.maximum(out, np.float32(2.0**-24 - 1.0), out=out)
    return out
