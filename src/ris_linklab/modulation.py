"""Constellations, Gray bit labels, and maximum-likelihood detection.

Two constellation families are supported:

* ``PSK`` — unit-circle points ``exp(2j*pi*m/M)``; point m has the Gray
  label ``g(m)``, ``g(x) = x ^ (x >> 1)``, so neighbours around the circle
  differ in one bit.  The access-point schemes carry it too: their surface
  encodes message m by rotating every element by the common phase
  ``w_m = 2*pi*m/M``, which is M-PSK.
* ``QAM`` — square lattice ``{±1, ±3, ...}^2`` normalized to unit average
  energy; point ``row * side + col`` sits at level col on the real axis and
  row on the imaginary one, with the label ``(g(col) << log2(M)/2) | g(row)``,
  Gray along each axis.

The order of either family is a power of two >= 2, and a QAM order is also
a square (4, 16, 64, ...); :func:`check_order` states the rule once.

:func:`detect_ml` is coherent ML detection against a known gain g, and
:func:`detect_axes` the same at a real gain for samples given as their real
axes I and Q, the simulator's form.  As ``|r - g*s|**2 = |g|**2 * |r/g - s|**2``,
both slice ``z = r/g`` as two reals in O(1) per sample: square QAM rounds
each axis to the nearest lattice level (clipped to the edge levels), PSK
quantises ``arctan2(Im z, Re z)`` to M sectors.  BPSK needs neither the
quotient nor the angle: the sample lies nearer -g than g exactly when
``Re(r * conj(g)) < 0``, or ``I * g < 0`` at a real gain.  Exact ties go to
the lowest index: to the lower level on each QAM axis, to the lower of two
neighbouring phases, and to 0 between M - 1 and 0 (for BPSK,
``Re(r * conj(g)) == 0``); a zero gain, and for PSK a zero sample of either
sign, decides 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConstellationKind", "Constellation", "check_order", "build_constellation", "detect_ml", "detect_axes"]


class ConstellationKind(enum.Enum):
    PSK = "psk"
    QAM = "qam"


def _is_power_of_two(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Constellation:
    """An M-ary symbol set with unit average energy and Gray bit labels:
    ``bit_labels[m]`` is point m's log2(M)-bit label as an integer, so
    deciding r for s flips ``np.bitwise_count(bit_labels[s] ^ bit_labels[r])`` bits."""

    kind: ConstellationKind
    order: int
    points: np.ndarray
    bit_labels: np.ndarray

    def __post_init__(self) -> None:  # private read-only copies: a checked config cannot change
        for name in ("points", "bit_labels"):
            object.__setattr__(self, name, np.array(getattr(self, name)))
            getattr(self, name).flags.writeable = False

    def __eq__(self, other: object) -> bool:  # the arrays compare by content
        if not (isinstance(other, Constellation) and (self.kind, self.order) == (other.kind, other.order)):
            return False
        return np.array_equal(self.points, other.points) and np.array_equal(self.bit_labels, other.bit_labels)

    def __hash__(self) -> int:
        return hash((self.kind, self.order))

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def check_order(kind: ConstellationKind, order: int) -> None:
    """Raise ValueError unless ``order`` is a valid order of ``kind``: a power
    of two (>= 2), and for QAM also a square, i.e. in {4, 16, 64, 256, ...}."""
    if not _is_power_of_two(order):
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    if kind is ConstellationKind.QAM and math.isqrt(order) ** 2 != order:
        raise ValueError(f"QAM requires a square power-of-two order (4, 16, 64, ...), got {order}")


def build_constellation(kind: ConstellationKind, order: int) -> Constellation:
    """Construct a Gray-labelled constellation of the given kind and an order
    that :func:`check_order` accepts."""
    check_order(kind, order)
    index = np.arange(order)
    gray = lambda x: x ^ (x >> 1)
    if kind is ConstellationKind.PSK:
        points = np.exp(1j * (2.0 * np.pi * index / order))
        labels = gray(index)
    elif kind is ConstellationKind.QAM:
        side = math.isqrt(order)
        row, col = np.divmod(index, side)
        levels = 2.0 * np.arange(side) - (side - 1)
        # Unit average energy: mean of (i^2 + q^2) over the lattice is 2(M-1)/3.
        scale = 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
        points = scale * (levels[col] + 1j * levels[row])
        labels = (gray(col) << (order.bit_length() - 1) // 2) | gray(row)
    else:
        raise ValueError(f"unknown constellation kind: {kind!r}")
    return Constellation(kind=kind, order=order, points=points, bit_labels=labels)


def detect_ml(received, gain, constellation: Constellation) -> np.ndarray:
    """Coherent maximum-likelihood detection against known composite gains.

    For each sample returns the index minimizing
    ``|received - gain * point|**2`` over the constellation points; ties
    break toward the lowest symbol index.  ``received`` and ``gain`` are
    scalars or arrays that broadcast together; for a symbol energy Es
    other than 1, pass ``sqrt(Es) * gain``.

    The decision is the point nearest to ``r / g``, found by the slicers
    the module docstring describes.  A zero gain (blocked surface) makes
    every point equally likely and decides 0.  Neither input is modified.

    BPSK decides 1 exactly where ``d = Re(r) Re(g) + Im(r) Im(g)``, which
    is ``Re(r * conj(g))``, is negative, and 0 where ``d >= 0``: a zero gain
    of either sign, a zero sample and a sample on the quadrature axis all
    give ``d == 0`` and decide 0, the tie rule of the angle slicer.  The
    two rules can part only where rounding decides, each with a probability
    of order 1e-16 per trial under continuous draws: where
    ``|Re z| <~ 1e-16 |Im z|``, atan2 rounds the angle of ``z = r / g`` to
    exactly +-pi/2, which the angle slicer decides as 0, while the sign of
    ``d`` decides by which side the sample lies (``-1e-17 + 1j`` at gain 1
    decides 1); and where the two products of ``d`` nearly cancel for a
    complex gain.  Products outside the float64 range (``|r| |g|`` above
    about 1e308, or below about 1e-308, where they round to zero) can part
    them too.
    """
    received = np.asarray(received)
    gain = np.asarray(gain)
    if not (np.isfinite(received).all() and np.isfinite(gain).all()):
        raise ValueError("received samples and gains must be finite")
    shape = np.broadcast_shapes(received.shape, gain.shape)
    if constellation.kind is ConstellationKind.PSK and constellation.order == 2:
        d = received.real * gain.real
        if np.iscomplexobj(received) and np.iscomplexobj(gain):
            d += received.imag * gain.imag
        return np.atleast_1d(d < 0).astype(np.intp).reshape(shape)
    blocked = None if gain.all() else gain == 0
    z = np.atleast_1d(received / (gain if blocked is None else np.where(blocked, 1, gain)))
    index = _slice(z.real, z.imag, constellation).reshape(shape)
    return index if blocked is None else np.where(blocked, 0, index)


def detect_axes(i: np.ndarray, q: np.ndarray, gain: np.ndarray, constellation: Constellation) -> np.ndarray:
    """:func:`detect_ml` of the samples ``I + jQ`` at real gains, all finite
    1-D arrays of one length (BPSK reads no ``q``).  The slicers take
    ``I * (1/g)`` and ``Q * (1/g)``, the parts of numpy's complex quotient
    ``r / (g + 0j)`` bit for bit, so each decision is detect_ml's."""
    if constellation.kind is ConstellationKind.PSK and constellation.order == 2:
        return np.less(i * gain, 0).astype(np.intp)
    blocked = None if gain.all() else gain == 0
    scale = np.divide(1.0, gain if blocked is None else np.where(blocked, 1.0, gain))
    y = q * scale
    index = _slice(np.multiply(i, scale, out=scale), y, constellation)
    return index if blocked is None else np.where(blocked, 0, index)


def _slice(x: np.ndarray, y: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Index of the point nearest to ``x + jy``: by angle for PSK (see
    :func:`_slice_phase`), else the nearest square-lattice point, where a tie
    goes to the lower level on each axis, which is the lower index since
    index = row * side + col."""
    if constellation.kind is ConstellationKind.PSK:
        return _slice_phase(x, y, constellation.order)
    side = math.isqrt(constellation.order)
    # The levels are odd multiples of the half-step d, the smallest positive level.
    d = constellation.points[side // 2].real
    lowest = round(constellation.points[0].real / d)
    col = _nearest_level((x / d - lowest) / 2, side)
    row = _nearest_level((y / d - lowest) / 2, side)
    return row * side + col


def _nearest_level(u: np.ndarray, side: int) -> np.ndarray:
    """Level k sits at u = k; a tie at k + 1/2 goes to k, past the edges to the edge."""
    return np.clip(np.ceil(u - 0.5), 0, side - 1).astype(np.intp)


def _slice_phase(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """Nearest point exp(2j*pi*m/M) by the angle of ``x + jy``: point m sits
    at t = m, with t in [-M/2, M/2].  A tie goes to the lower index:
    t = m + 1/2 to m, and t = -1/2, the tie between M - 1 and 0, to 0.  A
    zero sample, whose angle is only the sign of its zeros, is equidistant
    from every point: it decides 0."""
    t = np.arctan2(y, x)
    t /= 2.0 * np.pi / order
    ties = t == -0.5
    if not x.all():
        ties |= (x == 0) & (y == 0)
    t -= 0.5
    index = np.ceil(t, out=t).astype(np.intp)
    index &= order - 1  # the order is a power of two
    if ties.any():
        index[ties] = 0
    return index
