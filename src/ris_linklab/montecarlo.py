"""Monte Carlo link simulation over an SNR grid.

Trials are fast-fading: every trial draws a fresh composite channel gain, a
uniform symbol (or message), and a noise sample, then runs coherent
maximum-likelihood detection against that gain through
:func:`~ris_linklab.modulation.detect_axes`, a slicer that costs O(1) per
trial at any M.  It breaks exact ties toward the lowest index, so a zero
(blocked) gain decides symbol 0; continuous draws land on a tie with
probability zero.

Every gain is a real amplitude, so the kernel is real at every order: it
keeps the received sample as its two real axes, I and Q (I alone at
M = 2), and never forms a complex array.  Each chunk draws from its own
stream in the fixed order that :func:`_chunk_counts` states: the gains of
:func:`~ris_linklab.schemes.draw_gains`, which states each scheme's law
and the bounds of its float32 legs, then the symbols (raw half-words, see
:func:`~ris_linklab.rng.half_words`), then the noise, scaled by sqrt(N0).
``tests/per_element.py`` holds the per-element channel the gains are tested against.

Work is organized in fixed-size chunks.  Chunk ``k`` of grid point ``p``
always consumes the stream ``(seed, p * 2**32 + k)``, and a point stops at
the smallest chunk index whose cumulative (index-ordered) symbol-error
count reaches ``min_errors``.  Both rules depend only on per-chunk results,
so sweeps are bitwise reproducible for any worker count and any scheduling
order.  At every worker count one worker loop serves the whole sweep, and
the calling thread is one of its workers: a free worker takes a chunk that
is certainly needed, the next chunk of a live point with none in flight,
before it speculates on a point's later chunks, so only the last few live
points of a sweep can compute a chunk that is then discarded (``run_sweep``
states the rule).  Each worker thread draws and detects in one reused
workspace of four chunk-sized float64 arrays.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .modulation import detect_axes
from .schemes import SchemeConfig, draw_gains

WORKERS_ENV_VAR = "RIS_LINKLAB_THREADS"

# Stream ids are (point << 32) | chunk, so both indices must stay below 2**32.
STREAM_INDEX_LIMIT = 2**32

# Each thread's chunk buffers (see _workspace).
_local = threading.local()

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
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_trials < self.chunk_size:
            raise ValueError(
                f"max_trials ({self.max_trials}) must be at least chunk_size ({self.chunk_size})"
            )
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
    config: SchemeConfig, snr_db: float, stream: rng.RngStream, trials: int
) -> tuple[int, int]:
    """Run one chunk of trials; return (symbol_errors, bit_errors).

    Draw order per chunk is fixed: the gain draws of ``draw_gains``, then
    the symbol indices, then the noise's real block and, at M > 2 only, its
    imaginary block: CN(0, N0) noise w_I + j w_Q, each block ``trials``
    standard normals times ``RAYLEIGH_SCALE``, then times sqrt(N0).  A symbol
    is the low log2(M) bits of one ``rng.half_words`` value.  Each gain g is
    a real amplitude (see ``draw_gains``), so the chunk is real:
    :func:`~ris_linklab.modulation.detect_axes` slices the received axes
    I = g Re(s) + w_I and Q = g Im(s) + w_Q, where Q, which never enters a
    BPSK decision, is neither drawn nor formed at M = 2.  A symbol error
    costs the bits in which the sent and decided Gray labels differ.  Every
    array lives in this thread's workspace (see :func:`_workspace`).
    """
    generator = stream.generator()
    const = config.constellation
    gain, work, i, q = _workspace(trials)

    gain = draw_gains(config.scheme, config.n_reflectors, generator, trials, out=gain, work=work)
    halves = rng.half_words(generator, trials)
    tx = np.bitwise_and(halves, const.order - 1, dtype=np.intp)  # M is a power of two: uniform
    amplitude = np.sqrt(_noise_density(snr_db))
    axes = ((i, const.points.real), (q, const.points.imag))
    for axis, points in axes[: 1 if const.order == 2 else 2]:
        generator.standard_normal(trials, out=axis)
        axis *= rng.RAYLEIGH_SCALE
        axis *= amplitude
        np.take(points, tx, out=work, mode="clip")  # tx is in range; "clip" skips a buffer
        work *= gain
        axis += work
    rx = detect_axes(i, q, gain, const)

    wrong = np.flatnonzero(rx != tx)
    labels = const.bit_labels
    return len(wrong), int(np.bitwise_count(labels[tx[wrong]] ^ labels[rx[wrong]]).sum())


def _workspace(trials: int) -> np.ndarray:
    """This thread's chunk buffers, ``trials`` long, all float64: the gain;
    DH blind's Exp(1) block, then each symbol axis times the gain; the
    received I; the received Q (M > 2 only).

    Each thread keeps one set, sized by the longest chunk it has run
    (320 kB at 10 000 trials), and a chunk overwrites what it uses.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None or buffers.shape[1] < trials:
        buffers = _local.buffers = np.empty((4, trials))
    return buffers[:, :trials]


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


class _Point:
    """The chunks of one grid point: how many are handed out and consumed,
    the finished results waiting for an earlier chunk, keyed by chunk index,
    and the totals of those consumed in index order."""

    def __init__(self, spec: SweepSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        self.n_chunks = math.ceil(spec.max_trials / spec.chunk_size)
        self.submitted = self.consumed = 0
        self.results: dict[int, tuple[int, int, int]] = {}
        self.trials = self.symbol_errors = self.bit_errors = 0
        self.stopped = False

    def run_chunk(self, chunk_index: int) -> tuple[int, int, int]:
        """(trials, symbol errors, bit errors) of chunk ``chunk_index``."""
        spec = self.spec
        trials = min(spec.chunk_size, spec.max_trials - chunk_index * spec.chunk_size)
        stream = rng.RngStream(spec.seed, (self.index << 32) | chunk_index)
        return (trials, *_chunk_counts(spec.config, spec.snr_grid_db[self.index], stream, trials))

    def consume(self, result: tuple[int, int, int]) -> None:
        """Add the next chunk's counts; the point stops once it has
        ``min_errors`` symbol errors or after its last chunk."""
        trials, sym, bit = result
        self.trials += trials
        self.symbol_errors += sym
        self.bit_errors += bit
        self.consumed += 1
        self.stopped = self.symbol_errors >= self.spec.min_errors or self.consumed == self.n_chunks


def _next_chunk(live: list[_Point]) -> _Point | None:
    """The point whose next chunk a free worker takes: the first live point
    with no chunk in flight, whose next chunk is certainly needed, else the
    first live point with a chunk left, whose next chunk is speculative."""
    for point in live:
        if point.submitted == point.consumed:
            return point
    for point in live:
        if point.submitted < point.n_chunks:
            return point
    return None


class _Sweep:
    """What the workers of one sweep share, guarded by one condition: the
    live points, the count of chunks in flight (see :func:`run_sweep`) and
    the first failure."""

    def __init__(self, points: list[_Point], workers: int) -> None:
        self.live = list(points)
        self.workers = workers
        self.in_flight = 0
        self.error: BaseException | None = None
        self.changed = threading.Condition()

    def work(self) -> None:
        """One worker: take a chunk, run it outside the lock, consume every
        result now next in index order, and repeat until the sweep ends or
        fails.  A failure, the chunk's or one raised while waiting, is kept
        for :func:`run_sweep` to raise and stops all hand-out."""
        with self.changed:
            try:
                while (taken := self._take()) is not None:
                    point, index = taken
                    self.changed.release()
                    try:
                        result = point.run_chunk(index)
                    finally:
                        self.changed.acquire()
                    self._finish(point, index, result)
            except BaseException as exc:  # raised again in the calling thread
                if self.error is None:
                    self.error = exc
                self.changed.notify_all()

    def _take(self) -> tuple[_Point, int] | None:
        """Hand out the next chunk by :func:`_next_chunk`, waiting while
        ``workers`` chunks are in flight or none is left to take; None once
        every point has stopped or a worker has failed."""
        while self.error is None and self.live:
            if self.in_flight < self.workers and (point := _next_chunk(self.live)) is not None:
                point.submitted += 1
                self.in_flight += 1
                return point, point.submitted - 1
            self.changed.wait()
        return None

    def _finish(self, point: _Point, index: int, result: tuple[int, int, int]) -> None:
        """Record chunk ``index`` of ``point`` and consume the point's results
        in index order; a stopped point's chunks are discarded."""
        if point.stopped:
            self.in_flight -= 1
        else:
            point.results[index] = result
            while not point.stopped and point.consumed in point.results:
                point.consume(point.results.pop(point.consumed))
                self.in_flight -= 1
            if point.stopped:
                self.in_flight -= len(point.results)
                point.results.clear()
                self.live.remove(point)
        self.changed.notify_all()


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepPoint]:
    """Simulate every grid point of ``spec``; deterministic in ``spec.seed``.

    ``workers`` (>= 1) defaults to the usable cores; RIS_LINKLAB_THREADS caps it.
    The calling thread is a worker, and ``min(workers, chunks in the sweep) - 1``
    helper threads join it for this sweep; at one worker none is started.
    Every worker runs one loop: it takes a chunk, runs it, consumes the
    point's results now next in index order, and takes its next chunk.  At
    most ``workers`` chunks are in flight: handed out and not yet consumed
    (or, for a point that has stopped, not yet finished).  A free worker takes
    the next chunk of the lowest-index live point with no chunk in flight, a
    chunk that is certainly needed; only when every live point has one in
    flight does it take the next chunk of the lowest-index live point that
    has chunks left, a speculative one.  So chunks are speculative, and may be
    discarded, only once fewer live points than workers remain, and a sweep
    discards at most ``(workers - 1)**2`` chunks: at two workers, at most one,
    and at one worker none, the points running in grid order.  Each point
    consumes its chunks in index order, so where it stops does not depend on
    the worker count.  An exception in a chunk ends the hand-out; the helpers
    are joined and it is raised here.
    """
    workers = _resolve_workers(workers)
    # glibc hands a freed heap top back to the OS once it exceeds twice the
    # largest block it has unmapped.  Unmapping one 4 MiB block first keeps the
    # intelligent draws' leg buffers and fresh raw-word arrays (up to 512 KiB
    # each) on the heap between blocks and chunks.  Without it a mary_n64 round
    # takes about 9 600 more minor page faults and up to 25 % more CPU time,
    # as many from the word arrays alone when the legs are kept per thread.
    np.empty(1 << 19)
    points = [_Point(spec, index) for index in range(len(spec.snr_grid_db))]
    sweep = _Sweep(points, workers)
    helpers = [
        threading.Thread(target=sweep.work)
        for _ in range(min(workers, sum(point.n_chunks for point in points)) - 1)
    ]
    for helper in helpers:
        helper.start()
    sweep.work()
    for helper in helpers:
        helper.join()
    if sweep.error is not None:
        raise sweep.error
    bits = spec.config.constellation.bits_per_symbol
    return [
        SweepPoint(snr_db, p.trials, p.symbol_errors, p.bit_errors, bits_per_symbol=bits)
        for snr_db, p in zip(spec.snr_grid_db, points)
    ]
