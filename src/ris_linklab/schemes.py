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
from dataclasses import dataclass

import numpy as np

from .modulation import Constellation, ConstellationKind

__all__ = ["Scheme", "SchemeConfig", "draw_gains"]

# Values per leg in one block of the intelligent draws (see draw_gains).
_BLOCK_VALUES = 65536
# The largest float32 below 1: the clamp on the legs' uniforms.
_U_MAX = np.float32(1.0 - 2.0**-24)


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
      shorter); each block takes rows * N raw 64-bit words from
      ``rng.bit_generator.random_raw`` and reads them as int32 values, the
      low half of each word first: the first rows * N values give the
      (rows, N) block of E, the next ones F.
    * AP intelligent: ``B = sum(beta_i) = sum(sqrt(E_i))``; the same row
      blocks, each ``ceil(rows * N / 2)`` words for one (rows, N) block of E.
    * DH blind: ``|H| = sqrt(X * E)``; X ~ Gamma(N, 1), then E ~ Exp(1),
      each a block of ``trials``.  Given g, ``H = sum(h_i g_i) ~ CN(0, |g|^2)``
      with ``|g|^2 ~ Gamma(N, 1)``, and ``|H|^2 / |g|^2 ~ Exp(1)``.
    * AP blind: ``|G| = sqrt(N * E)``; one Exp(1) block.  ``G = sum(g_i) ~ CN(0, N)``.

    In the intelligent draws an int32 value s gives the leg E = -log1p(-U),
    U = |s + 1/2| * 2**-31, computed in float32: U is the midpoint of one
    of 2**31 equal cells of (0, 1), each of mass 2**-31.  U rounds to
    float32 exactly below 2**-8 (E < 0.0039), so there E is within 2 ulp of
    the lattice value and a deep fade sees the lattice law: at N = 1,
    P(E F < t) is within 2e-9 of
    1 - 2 sqrt(t) K1(2 sqrt(t)) (relative) at t = 1e-8 and 3e-4 at t = 1e-9,
    below which the lattice's smallest leg, 2**-32, sets the law.  Above,
    rounding U moves E by up to about 2**-25 e**E: relative errors are
    about 4e-8 in the median, below 1.1e-5 for E < 8 and up to a few per
    cent only in the top atoms.  The 129 words with |s| >= 2**31 - 64 round
    to U = 1 and are clamped to 1 - 2**-24, where 254 more words round, so
    the largest leg, 24 ln 2 = 16.64, carries 383 * 2**-32 = 8.9e-8 of
    mass, where Exp(1) has 6.0e-8 above it.  The float32 amplitudes are
    summed per row in float64.

    Every gain is a real amplitude, as float64.  The blind draws drop the
    phase of H or G: a coherent receiver with circularly-symmetric noise n
    decides on ``r = g s + n`` as it does on
    ``r exp(-j arg g) = |g| s + n exp(-j arg g)``, and ``n exp(-j arg g)``
    has the law of n and is independent of g, so the counted errors keep
    their law.  ``out``, if given, is a float64 array of length
    ``trials`` that receives them; ``work``, if given, is another that DH
    blind draws its Exp(1) block into.  Raises ValueError for ``n < 1``.
    """
    if n < 1:
        raise ValueError(f"n_reflectors must be >= 1, got {n}")
    if scheme.is_intelligent:
        return _amplitude_sums(rng, n, trials, 2 if scheme is Scheme.DH_INTELLIGENT else 1, out)
    if scheme is Scheme.DH_BLIND:
        gains = rng.standard_gamma(n, trials, out=out)
        gains *= rng.standard_exponential(trials, out=work)
    else:  # AP_BLIND
        gains = rng.standard_exponential(trials, out=out)
        gains *= n
    return np.sqrt(gains, out=gains)


def _amplitude_sums(
    rng: np.random.Generator, n: int, trials: int, legs: int, out: np.ndarray | None
) -> np.ndarray:
    """Row sums of sqrt(E) (one leg) or sqrt(E * F) (two legs), drawn in the
    row blocks of ``draw_gains`` from raw words (see :func:`_negative_exponentials`).
    The float32 legs and one block of words stay within ``_BLOCK_VALUES``
    float64 values per leg, whatever ``trials``."""
    rows = max(1, _BLOCK_VALUES // n)
    buffers = np.empty((legs, min(rows, trials) * n), np.float32)
    gains = np.empty(trials) if out is None else out
    for start in range(0, trials, rows):
        block = buffers[:, : min(rows, trials - start) * n]
        values = block.size
        words = rng.bit_generator.random_raw((values + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<i4")[:values]
        _negative_exponentials(halves.reshape(block.shape), out=block)
        amplitudes = block[0]
        if legs == 2:
            amplitudes *= block[1]  # (-E) * (-F) = E * F
        else:
            np.negative(amplitudes, out=amplitudes)
        np.sqrt(amplitudes, out=amplitudes)
        amplitudes.reshape(-1, n).sum(axis=1, out=gains[start : start + len(amplitudes) // n])
    return gains


def _negative_exponentials(halves: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-E = log1p(-U) in float32 from int32 words s, U = |s + 1/2| * 2**-31
    clamped to at most 1 - 2**-24 (see ``draw_gains``)."""
    np.add(halves, np.float32(0.5), out=out, dtype=np.float32)
    np.absolute(out, out=out)
    out *= np.float32(-(2.0**-31))
    np.maximum(out, -_U_MAX, out=out)
    return np.log1p(out, out=out)
