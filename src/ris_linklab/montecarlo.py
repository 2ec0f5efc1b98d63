"""Monte Carlo link simulation over an SNR grid.

Trials are fast-fading: every trial draws a fresh composite channel gain, a
uniform symbol (or message), and a noise sample, then runs coherent
maximum-likelihood detection against that gain.

Each chunk draws from its own stream in a fixed order: the gain block(s)
of :func:`~ris_linklab.schemes.draw_gains`, then the symbol indices, then
the real and the imaginary noise blocks.  Per scheme the gain blocks are

* ``dh_intelligent``: Rayleigh alpha (trials x N), then Rayleigh beta;
* ``ap_intelligent``: Rayleigh beta (trials x N);
* ``dh_blind``: Gamma(N, 1) (trials), then Re and Im of CN(0, 1);
* ``ap_blind``: Re and Im of CN(0, 1) (trials), scaled by sqrt(N).

The blind gains are drawn from their exact laws, not from N per-element
coefficients; ``tests/per_element.py`` holds the per-element channel they
are tested against.

Work is organized in fixed-size chunks.  Chunk ``k`` of grid point ``p``
always consumes the stream ``(seed, p * 2**32 + k)``, and a point stops at
the smallest chunk index whose cumulative (index-ordered) symbol-error
count reaches ``min_errors``.  Both rules depend only on per-chunk results,
so sweeps are bitwise reproducible for any worker count and any scheduling
order; extra speculatively-computed chunks are simply discarded.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rng import RAYLEIGH_SCALE, RngStream
from .schemes import SchemeConfig, draw_gains

WORKERS_ENV_VAR = "RIS_LINKLAB_THREADS"

# Stream ids are (point << 32) | chunk, so both indices must stay below 2**32.
STREAM_INDEX_LIMIT = 2**32

__all__ = [
    "WORKERS_ENV_VAR",
    "SweepSpec",
    "SweepPoint",
    "run_sweep",
    "confidence_interval",
]


@dataclass(frozen=True)
class SweepSpec:
    """One simulation campaign: a link config swept over an SNR grid.

    ``snr_grid_db`` holds Es/N0 values in dB, strictly increasing.  Each
    point runs until ``min_errors`` symbol errors are seen or ``max_trials``
    trials are exhausted, in chunks of ``chunk_size`` trials.  ``noiseless``
    is a test hook that runs the zero-noise limit of the receiver path.

    Grid values must be finite, and the grid and the chunk count per point
    must each stay below 2**32 so that every chunk has its own stream.
    """

    config: SchemeConfig
    snr_grid_db: tuple[float, ...]
    max_trials: int = 10_000_000
    min_errors: int = 200
    seed: int = 0
    chunk_size: int = 10_000
    noiseless: bool = False

    def __post_init__(self) -> None:
        # Checked before the grid is copied, so a huge grid is never built.
        if len(self.snr_grid_db) >= STREAM_INDEX_LIMIT:
            raise ValueError(
                f"snr_grid_db has {len(self.snr_grid_db)} points; "
                "it must have fewer than 2**32 so each point has its own streams"
            )
        grid = tuple(float(v) for v in self.snr_grid_db)
        object.__setattr__(self, "snr_grid_db", grid)
        if len(grid) == 0:
            raise ValueError("snr_grid_db must not be empty")
        bad = [v for v in grid if not math.isfinite(v)]
        if bad:
            raise ValueError(f"snr_grid_db values must be finite, got {bad[0]}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        if self.chunk_size < 1 or self.max_trials < self.chunk_size:
            raise ValueError("need max_trials >= chunk_size >= 1")
        chunks = math.ceil(self.max_trials / self.chunk_size)
        if chunks >= STREAM_INDEX_LIMIT:
            raise ValueError(
                f"max_trials / chunk_size gives {chunks} chunks per point; "
                "it must be fewer than 2**32 so each chunk has its own stream"
            )


@dataclass(frozen=True)
class SweepPoint:
    """Error statistics accumulated at one SNR grid point."""

    snr_db: float
    trials: int
    symbol_errors: int
    bit_errors: int
    bits_per_symbol: int = 1

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.trials

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.trials * self.bits_per_symbol)

    def stderr(self, metric: str = "ser") -> float:
        p = self.ser if metric == "ser" else self.ber
        n = self.trials if metric == "ser" else self.trials * self.bits_per_symbol
        return math.sqrt(p * (1.0 - p) / n)


def confidence_interval(
    point: SweepPoint, level: float = 0.95, metric: str = "ser"
) -> tuple[float, float]:
    """Normal-approximation binomial confidence interval, clamped to [0, 1]."""
    from scipy.stats import norm

    if point.trials <= 0:
        raise ValueError("confidence interval requires trials > 0")
    p = point.ser if metric == "ser" else point.ber
    z = norm.ppf(0.5 + level / 2.0)
    half = z * point.stderr(metric)
    return (max(0.0, p - half), min(1.0, p + half))


def _chunk_counts(
    config: SchemeConfig,
    snr_db: float,
    stream: RngStream,
    trials: int,
    noiseless: bool,
) -> tuple[int, int]:
    """Run one chunk of trials; return (symbol_errors, bit_errors).

    Draw order per chunk is fixed: the gain block(s) of ``draw_gains``
    (listed per scheme in the module docstring), then symbol indices, then
    the real and the imaginary noise blocks.  Only the composite gain
    enters the received sample and the detector, so each scheme draws the
    exact law of that gain: Rayleigh amplitudes (by inverse CDF) for the
    intelligent schemes, the low-dimensional Gaussian (mixture) law for the
    blind ones.
    """
    rng = stream.generator()
    const = config.constellation
    m = const.order
    # Es/N0 is swept by scaling noise at fixed unit symbol energy.
    es = 1.0
    n0 = 10.0 ** (-snr_db / 10.0)

    gain = draw_gains(config.scheme, config.n_reflectors, rng, trials)
    tx = rng.integers(0, m, size=trials)
    received = np.sqrt(es) * gain * const.points[tx]
    if not noiseless:
        noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) * (
            RAYLEIGH_SCALE * np.sqrt(n0)
        )
        received = received + noise

    # Coherent ML detection against the known composite gain.
    hypotheses = np.sqrt(es) * gain[:, None] * const.points[None, :]
    rx = np.argmin(np.abs(received[:, None] - hypotheses) ** 2, axis=1)

    symbol_errors = int(np.count_nonzero(rx != tx))
    bit_errors = int(const.bit_distance_table[tx, rx].sum())
    return symbol_errors, bit_errors


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        workers = int(env) if env else 1
    else:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env:
            workers = min(workers, int(env))
    return max(1, workers)


def _run_point(
    spec: SweepSpec,
    point_index: int,
    snr_db: float,
    pool: ThreadPoolExecutor | None,
    workers: int,
) -> SweepPoint:
    n_chunks = math.ceil(spec.max_trials / spec.chunk_size)

    def chunk_task(chunk_index: int) -> tuple[int, int, int]:
        start = chunk_index * spec.chunk_size
        trials = min(spec.chunk_size, spec.max_trials - start)
        stream = RngStream(spec.seed, (point_index << 32) | chunk_index)
        sym, bit = _chunk_counts(spec.config, snr_db, stream, trials, spec.noiseless)
        return trials, sym, bit

    if pool is None:
        results = map(chunk_task, range(n_chunks))
    else:
        results = _in_order(pool, workers, chunk_task, n_chunks)

    total_trials = total_sym = total_bit = 0
    for trials, sym, bit in results:
        total_trials += trials
        total_sym += sym
        total_bit += bit
        if total_sym >= spec.min_errors:
            break
    if pool is not None:
        results.close()  # cancels the speculative chunks not yet started

    return SweepPoint(
        snr_db=snr_db,
        trials=total_trials,
        symbol_errors=total_sym,
        bit_errors=total_bit,
        bits_per_symbol=spec.config.constellation.bits_per_symbol,
    )


def _in_order(pool: ThreadPoolExecutor, workers: int, task, count: int):
    """Yield ``task(0) ... task(count - 1)`` in index order, computed on ``pool``.

    At most ``workers`` chunks are in flight, the next one to consume among
    them, so a point that stops early discards at most ``workers - 1``.
    Results are consumed in index order, so the stopping decision never
    depends on the worker count.
    """
    pending = deque()
    submitted = 0
    try:
        while pending or submitted < count:
            while submitted < count and len(pending) < workers:
                pending.append(pool.submit(task, submitted))
                submitted += 1
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepPoint]:
    """Simulate every grid point of ``spec``; deterministic in ``spec.seed``.

    With more than one worker a single thread pool serves the whole sweep.
    """
    workers = _resolve_workers(workers)
    points = enumerate(spec.snr_grid_db)
    if workers == 1:
        return [_run_point(spec, i, snr_db, None, 1) for i, snr_db in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [_run_point(spec, i, snr_db, pool, workers) for i, snr_db in points]
