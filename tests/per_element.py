"""Per-element channel oracle for the blind composite gains.

The simulator draws each blind gain from its exact low-dimensional law
(``ris_linklab.schemes.draw_gains``).  These functions build the same gains
the long way, from N explicit i.i.d. CN(0, 1) coefficients per leg, so that
tests can check the two agree in distribution.
"""

import numpy as np

from ris_linklab.rng import standard_complex_normal
from ris_linklab.schemes import Scheme


def cascade_gains(n: int, rng: np.random.Generator, trials: int) -> np.ndarray:
    """DH blind: zero reflector phases leave H = sum(h_i g_i)."""
    h = standard_complex_normal(rng, (trials, n))
    g = standard_complex_normal(rng, (trials, n))
    return np.einsum("ij,ij->i", h, g)


def direct_gains(n: int, rng: np.random.Generator, trials: int) -> np.ndarray:
    """AP blind: a common data phase on every element leaves G = sum(g_i)."""
    return standard_complex_normal(rng, (trials, n)).sum(axis=1)


PER_ELEMENT_GAINS = {Scheme.DH_BLIND: cascade_gains, Scheme.AP_BLIND: direct_gains}
