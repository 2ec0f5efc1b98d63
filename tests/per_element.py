"""Per-element channel oracle for the four schemes.

The simulator draws each composite gain from its law
(``ris_linklab.schemes.draw_gains``).  These functions state the same link
the long way: explicit coefficients h_i = alpha_i exp(-j theta_i) (source to
surface) and g_i = beta_i exp(-j psi_i) (surface to destination), the phase
each element applies, and the sum that reaches the destination.  Tests check
the sampler and the chunk kernel against them.  Every function works on
(..., N) blocks, one row per trial.
"""

import numpy as np

from ris_linklab.rng import RAYLEIGH_SCALE
from ris_linklab.schemes import Scheme


def standard_complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly-symmetric unit-variance complex Gaussian draws, CN(0, 1):
    one block of ``size`` standard normals for the real parts, then one for
    the imaginary parts, each scaled by ``RAYLEIGH_SCALE``.  These are the
    values of the simulator's two real noise blocks before sqrt(N0)."""
    real = np.asarray(rng.standard_normal(size))
    out = np.empty(real.shape, np.complex128)
    out.real = real * RAYLEIGH_SCALE
    out.imag = np.asarray(rng.standard_normal(size)) * RAYLEIGH_SCALE
    return out if out.ndim else out[()]


def channel(n: int, rng: np.random.Generator, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, g): (trials, N) blocks of i.i.d. CN(0, 1) coefficients, h drawn first."""
    return standard_complex_normal(rng, (trials, n)), standard_complex_normal(rng, (trials, n))


def lattice_legs(u: np.ndarray) -> np.ndarray:
    """The intelligent sampler's Exp(1) legs at uint32 words u, in float64:
    E = -log1p(-U) with U = (u + 1/2) * 2**-32 clamped to 1 - 2**-24."""
    return -np.log1p(-np.minimum((u.astype(np.float64) + 0.5) * 2.0**-32, 1.0 - 2.0**-24))


def channel_phases(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, psi) in [0, 2 pi), so that h = |h| exp(-j theta), g = |g| exp(-j psi)."""
    return np.mod(-np.angle(h), 2.0 * np.pi), np.mod(-np.angle(g), 2.0 * np.pi)


def message_phases(tx, order: int) -> np.ndarray:
    """The common phase w_m = 2 pi m / M an access-point surface applies for message m."""
    return 2.0 * np.pi * np.asarray(tx) / order


def reflector_phases(scheme: Scheme, h: np.ndarray, g: np.ndarray, w=None) -> np.ndarray:
    """Element phases: theta + psi (DH intelligent), 0 (DH blind),
    psi + w_m (AP intelligent) and w_m (AP blind).

    ``w`` holds each trial's message phase w_m (AP schemes only).
    """
    theta, psi = channel_phases(h, g)
    if scheme is Scheme.DH_INTELLIGENT:
        return theta + psi
    if scheme is Scheme.DH_BLIND:
        return np.zeros(g.shape)
    w = np.asarray(w)[..., None]
    if scheme is Scheme.AP_INTELLIGENT:
        return psi + w
    return w + np.zeros(g.shape)  # the same phase on every element


def gain(scheme: Scheme, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The composite gain the coherent receiver knows: A, H, B or G."""
    if scheme is Scheme.DH_INTELLIGENT:
        return (np.abs(h) * np.abs(g)).sum(axis=-1)
    if scheme is Scheme.DH_BLIND:
        return (h * g).sum(axis=-1)
    if scheme is Scheme.AP_INTELLIGENT:
        return np.abs(g).sum(axis=-1)
    return g.sum(axis=-1)


def received(scheme: Scheme, h, g, constellation, tx, noise) -> np.ndarray:
    """The sample at the destination for symbol (DH) or message (AP) indices ``tx``.

    DH: sum(h_i exp(j phi_i) g_i) times the transmitted point.  AP: the
    surface is fed an unmodulated carrier and its phases carry the message,
    so the sample is sum(g_i exp(j phi_i)).
    """
    if scheme.is_access_point:
        phases = reflector_phases(scheme, h, g, message_phases(tx, constellation.order))
        return (g * np.exp(1j * phases)).sum(axis=-1) + noise
    cascade = (h * np.exp(1j * reflector_phases(scheme, h, g)) * g).sum(axis=-1)
    return cascade * constellation.points[tx] + noise
