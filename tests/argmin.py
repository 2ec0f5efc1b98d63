"""Exhaustive maximum-likelihood detector: the oracle for the slicers.

Forms every hypothesis ``gain * point`` and takes the argmin of the squared
distance over the last axis, so it builds a (samples, M) array; feed it
blocks of samples.  ``numpy.argmin`` returns the first minimum, but the
points are rounded (the BPSK point -1 has an imaginary part of 1.2e-16), so
on a decision boundary rounding, not the tie rule, decides; boundary cases
are checked against the tie rule instead.
"""

import numpy as np


def detect_ml(received, gain, constellation) -> np.ndarray:
    """Index of the nearest hypothesis ``gain * point`` to each received sample."""
    hypotheses = np.asarray(gain)[..., None] * constellation.points
    return np.argmin(np.abs(np.asarray(received)[..., None] - hypotheses) ** 2, axis=-1)
