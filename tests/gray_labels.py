"""The Gray labelling as bit strings, stated apart from ``modulation``: the
reference that ``Constellation.bit_labels`` and the simulator's bit-error
counts are tested against.

PSK point m carries the Gray code of m; square-QAM point ``row * side + col``
carries the Gray code of col followed by that of row, each log2(M)/2 bits.
"""

import math
from functools import cache

import numpy as np

from ris_linklab.modulation import ConstellationKind


def _gray(index: int, width: int) -> str:
    return format(index ^ (index >> 1), f"0{width}b")


def string_labels(kind: ConstellationKind, order: int) -> tuple[str, ...]:
    """Each point's label as a string of log2(M) bits, most significant first."""
    bits = order.bit_length() - 1
    if kind is ConstellationKind.PSK:
        return tuple(_gray(m, bits) for m in range(order))
    side = math.isqrt(order)
    return tuple(_gray(col, bits // 2) + _gray(row, bits // 2) for row in range(side) for col in range(side))


@cache
def _distance_table(kind: ConstellationKind, order: int) -> np.ndarray:
    labels = np.array([[int(b) for b in label] for label in string_labels(kind, order)], dtype=np.uint8)
    table = (labels[:, None, :] != labels[None, :, :]).sum(axis=2).astype(np.int64)
    table.flags.writeable = False
    return table


def distance_table(constellation) -> np.ndarray:
    """(M, M) Hamming distances between the string labels of every pair of points."""
    return _distance_table(constellation.kind, constellation.order)
