"""Deterministic random streams for the fading channels and receiver noise.

Every random draw in this package flows through an SFC64 stream seeded by
``SeedSequence(seed, spawn_key=(stream_id,))``.  A chunk's stream depends
only on its key, not on which worker draws it or when, so any chunk of work
can be handed to any worker in any order and still produce the same numbers.
:func:`half_words` is the one reader of a stream's raw 64-bit words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rayleigh scale for |h| when h ~ CN(0, 1): each quadrature has variance 1/2.
RAYLEIGH_SCALE = 1.0 / np.sqrt(2.0)

__all__ = ["RAYLEIGH_SCALE", "RngStream", "half_words"]


@dataclass(frozen=True)
class RngStream:
    """Handle for one independent random substream.

    Identical ``(seed, stream_id)`` pairs always reproduce the same sample
    sequence, independent of worker count or scheduling order.  There is no
    mutable state here; call :meth:`generator` to obtain a fresh generator
    positioned at the start of the stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit int, got {value}")

    def generator(self) -> np.random.Generator:
        """Fresh generator at position zero of this (seed, stream_id) stream."""
        seeds = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.SFC64(seeds))


def half_words(generator: np.random.Generator, count: int) -> np.ndarray:
    """``count`` unsigned 32-bit values as a view of the next ``(count + 1) // 2``
    raw words: each word's low half, then its high half."""
    words = generator.bit_generator.random_raw((count + 1) // 2)
    return words.astype("<u8", copy=False).view("<u4")[:count]
