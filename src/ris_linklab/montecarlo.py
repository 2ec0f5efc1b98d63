"""Monte Carlo link simulation over an SNR grid.

Trials are fast-fading: every trial draws a fresh composite channel gain, a
uniform symbol (or message), and a noise sample, then runs coherent
maximum-likelihood detection against that gain through
:func:`~ris_linklab.modulation.detect_ml`, a slicer that costs O(1) per
trial at any M.  It breaks exact ties toward the lowest index, so a zero
(blocked) gain decides symbol 0; continuous draws land on a tie with
probability zero.

Each chunk draws from its own stream in a fixed order: the gain draws of
:func:`~ris_linklab.schemes.draw_gains` (its docstring states them per
scheme: blocked Exp(1) legs for the intelligent gains, made in float32 from
raw SFC64 words, the exact low-dimensional laws for the blind ones), then
the symbol indices, then the real and the imaginary noise blocks (one
:func:`~ris_linklab.rng.standard_complex_normal` draw, scaled by sqrt(N0)).
``tests/per_element.py`` holds the per-element channel the gains are tested
against.  An intelligent leg is the midpoint of one of 2**31 equal cells of
its uniform, so a deep fade is drawn from a lattice law: at N = 1 the
rate of E F < t is within 2e-9 of Exp(1)'s (relative) at t = 1e-8 and
3e-4 at t = 1e-9, and away from fades a float32 leg is within about
1.1e-5 of its lattice value for E < 8 (``draw_gains`` gives the bounds).

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

from .modulation import detect_ml
from .rng import RngStream, standard_complex_normal
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
    trials are exhausted, in chunks of ``chunk_size`` trials.

    Grid values must be finite and give a finite, non-zero float N0, and
    the grid and the chunk count per point must each stay below 2**32 so
    that every chunk has its own stream.
    """

    config: SchemeConfig
    snr_grid_db: tuple[float, ...]
    max_trials: int = 10_000_000
    min_errors: int = 200
    seed: int = 0
    chunk_size: int = 10_000

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
        # NaN and +-inf fail this too: they give an N0 of NaN, 0 or inf.
        bad = [v for v in grid if not 0.0 < _noise_density(v) < math.inf]
        if bad:
            raise ValueError(
                "snr_grid_db values must be finite and give a finite, non-zero "
                f"N0 = 10**(-snr/10), i.e. lie within about -3082 to +3236 dB; got {bad[0]}"
            )
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
        """Normal-approximation standard error of "ser" or "ber".  It is 0 at a
        zero-error point, which ran to max_trials: a censored rate, not an exact
        one, whose upper limit `confidence_interval` gives (about 3.7 / trials at 95 %)."""
        errors, n = _errors_and_count(self, metric)
        p = errors / n
        return math.sqrt(p * (1.0 - p) / n)


def _errors_and_count(point: SweepPoint, metric: str) -> tuple[int, int]:
    """(errors, trials) behind a point's SER, or (bit errors, bits) behind its BER."""
    if metric == "ser":
        return point.symbol_errors, point.trials
    if metric == "ber":
        return point.bit_errors, point.trials * point.bits_per_symbol
    raise ValueError(f"metric must be 'ser' or 'ber', got {metric!r}")


def confidence_interval(
    point: SweepPoint, level: float = 0.95, metric: str = "ser"
) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial confidence interval for "ser" or "ber".

    A point with zero errors gets a nonzero upper limit, about 3.7 / trials
    at the 95 % level, instead of the (0, 0) a normal approximation claims.
    """
    from scipy.stats import binomtest

    if point.trials <= 0:
        raise ValueError("confidence interval requires trials > 0")
    errors, n = _errors_and_count(point, metric)
    ci = binomtest(errors, n).proportion_ci(confidence_level=level, method="exact")
    return (float(ci.low), float(ci.high))


def _noise_density(snr_db: float) -> float:
    """N0 at unit symbol energy: Es/N0 is swept by scaling the noise."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def _chunk_counts(
    config: SchemeConfig, snr_db: float, stream: RngStream, trials: int
) -> tuple[int, int]:
    """Run one chunk of trials; return (symbol_errors, bit_errors).

    Draw order per chunk is fixed: the gain draws of ``draw_gains``, then
    symbol indices, then the real and the imaginary noise blocks.  Only the
    composite gain enters the received sample and the detector, so each
    scheme draws the exact law of that gain.
    """
    rng = stream.generator()
    const = config.constellation
    n0 = _noise_density(snr_db)

    gain = draw_gains(config.scheme, config.n_reflectors, rng, trials)
    tx = rng.integers(0, const.order, size=trials)
    noise = standard_complex_normal(rng, trials) * np.sqrt(n0)
    received = gain * const.points[tx] + noise
    rx = detect_ml(received, gain, const)

    symbol_errors = int(np.count_nonzero(rx != tx))
    bit_errors = int(const.bit_distance_table[tx, rx].sum())
    return symbol_errors, bit_errors


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer (the worker cap), got {env!r}")
        workers = min(workers, cap)
    return workers


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
        sym, bit = _chunk_counts(spec.config, snr_db, stream, trials)
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

    ``workers`` (>= 1) defaults to the usable cores; RIS_LINKLAB_THREADS caps it.
    With more than one worker a single thread pool serves the whole sweep.
    """
    workers = _resolve_workers(workers)
    # glibc hands a freed heap top back to the OS once it exceeds twice the
    # largest block it has unmapped.  Unmapping one 4 MiB block first keeps each
    # chunk's ~1 MB of temporaries mapped between chunks; without it a
    # fig7_blind benchmark round took about 15 000 more minor page faults.
    np.empty(1 << 19)
    points = enumerate(spec.snr_grid_db)
    # Serial, not a one-worker pool: a dh_intelligent N = 64 16-QAM chunk took
    # 15.1 ms here and 15.9 ms in a pool thread (medians, 2-core host).
    if workers == 1:
        return [_run_point(spec, i, snr_db, None, 1) for i, snr_db in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [_run_point(spec, i, snr_db, pool, workers) for i, snr_db in points]
