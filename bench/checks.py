"""Output checks: the CSV rows a workload wrote, against oracles.py and against
properties the method must have.  No check compares with stored output.

Simulated rates are checked with an exact binomial test at each point, whose
bounds come from the reference probability and the row's trial count (never
from the row's stderr column), and with a test of each curve's total error
count against the sum of its points' expectations, which sees a bias of
20 % that no single point of a small budget can show.  The tests of one run
are decided together, at level ALPHA split over all of them, so that a
correct simulator fails a run with probability below ALPHA whatever the seed
or the draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

import oracles

ALPHA = 1e-3
CHUNK = 10_000  # the simulator's default chunk size; the CLI keeps it fixed
CLOSED_FORM_RTOL = 1e-8
ORACLE_RTOL = 1e-6
COMPARE_TOL_DB = 1e-3


@dataclass(frozen=True)
class Sample:
    """Symbol errors seen at one simulated point and the range its rate may have."""

    label: str
    errors: int
    trials: int
    p_lo: float
    p_hi: float


@dataclass(frozen=True)
class Curve:
    """The points of one simulated curve, tested on their total error count."""

    label: str
    points: tuple[Sample, ...]


@dataclass
class Findings:
    failures: list[str] = field(default_factory=list)
    samples: list[Sample | Curve] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def extend(self, other: "Findings") -> None:
        self.failures += other.failures
        self.samples += other.samples


def binomial_failures(samples: list[Sample | Curve], alpha: float = ALPHA) -> list[str]:
    """Points and curves whose error counts are implausible for every rate in
    their [p_lo, p_hi] ranges, at level alpha / len(samples) each.

    A point is tested exactly, against Binomial(trials, p); a curve's total
    against the normal law of a sum of binomials.
    """
    if not samples:
        return []
    tail = alpha / len(samples) / 2.0
    z = stats.norm.isf(tail)
    failures = []
    for s in samples:
        if isinstance(s, Sample):
            few = stats.binom.cdf(s.errors, s.trials, s.p_lo) < tail
            many = stats.binom.sf(s.errors - 1, s.trials, s.p_hi) < tail
            seen = f"{s.errors}/{s.trials} errors"
            lo, hi = s.p_lo, s.p_hi
        else:
            errors = sum(p.errors for p in s.points)
            n = np.array([p.trials for p in s.points])
            p_lo = np.array([p.p_lo for p in s.points])
            p_hi = np.array([p.p_hi for p in s.points])
            few = np.dot(n, p_lo) - errors > z * np.sqrt(np.dot(n, p_lo * (1 - p_lo)))
            many = errors - np.dot(n, p_hi) > z * np.sqrt(np.dot(n, p_hi * (1 - p_hi)))
            seen = f"{errors} errors over the curve, expected {np.dot(n, p_lo):.1f} to {np.dot(n, p_hi):.1f}"
            lo, hi = p_lo.min(), p_hi.max()
        if few:
            failures.append(f"{s.label}: {seen}, too few for p >= {lo:.4g}")
        elif many:
            failures.append(f"{s.label}: {seen}, too many for p <= {hi:.4g}")
    return failures


def _key(db: float) -> float:
    return round(db, 6)


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + 1e-300


def check_simulated(rows, scheme, n, m, grid, max_trials, min_errors, reference, margin) -> Findings:
    """BER and SER rows of one simulated curve.

    reference(snr_db) is the SER the channel must produce; the simulated SER
    may differ from it by the model margin plus sampling.
    """
    f = Findings()
    label = f"{scheme} N={n} M={m}"
    sim = {(_key(r.snr_db), r.metric): r for r in rows
           if (r.scheme, r.n, r.m) == (scheme, n, m) and r.metric in ("ber", "ser")}
    expected = {(_key(db), metric) for db in grid for metric in ("ber", "ser")}
    f.require(set(sim) == expected, f"{label}: simulated rows {sorted(sim)} != grid {sorted(expected)}")
    bits = m.bit_length() - 1
    points = []
    for db in grid:
        ser, ber = sim.get((_key(db), "ser")), sim.get((_key(db), "ber"))
        if ser is None or ber is None:
            continue
        where = f"{label} {db:g} dB"
        trials = ser.trials
        f.require(ber.trials == trials, f"{where}: BER and SER rows disagree on trials")
        f.require(0 < trials <= max_trials and trials % CHUNK == 0, f"{where}: {trials} trials")
        f.require(ser.errors >= min_errors or trials == max_trials,
                  f"{where}: stopped at {ser.errors} errors before min_errors and budget")
        f.require(ser.errors <= ber.errors <= bits * ser.errors,
                  f"{where}: BER {ber.value:.4g} outside [SER/log2M, SER] for SER {ser.value:.4g}")
        f.require(_close(ser.value, ser.errors / trials, 1e-12), f"{where}: SER value != errors/trials")
        f.require(_close(ber.value, ber.errors / (trials * bits), 1e-12), f"{where}: BER value != errors/bits")
        p = reference(db)
        points.append(Sample(where, ser.errors, trials, p * (1.0 - margin), min(1.0, p * (1.0 + margin))))
    f.samples += points
    if len(points) > 1:
        f.samples.append(Curve(label, tuple(points)))
    return f


def _curve(rows, scheme, n, m, metric) -> dict[float, float]:
    return {_key(r.snr_db): r.value for r in rows
            if (r.scheme, r.n, r.m, r.metric) == (scheme, n, m, metric)}


def _nonincreasing(values: list[float]) -> bool:
    return all(b <= a * (1.0 + 1e-9) for a, b in zip(values, values[1:]))


def check_analytic(rows, scheme, n, m, grid, bound: bool, oracle_samples: int) -> Findings:
    """sep_exact (and sep_bound) rows of one analytic curve.

    Blind curves must equal their Rayleigh closed forms at every point;
    intelligent curves must equal the Gaussian-gain quadrature at
    oracle_samples points spread over the rows with 1e-9 <= SEP <= 0.5.
    """
    f = Findings()
    label = f"{scheme} N={n} M={m}"
    keys = [_key(db) for db in grid]
    exact = _curve(rows, scheme, n, m, "sep_exact")
    f.require(sorted(exact) == sorted(keys), f"{label}: sep_exact rows do not cover the grid")
    curve = [exact[k] for k in keys if k in exact]
    f.require(_nonincreasing(curve), f"{label}: sep_exact increases with SNR")
    if bound:
        upper = _curve(rows, scheme, n, m, "sep_bound")
        f.require(sorted(upper) == sorted(keys), f"{label}: sep_bound rows do not cover the grid")
        f.require(_nonincreasing([upper[k] for k in keys if k in upper]), f"{label}: sep_bound increases with SNR")
        below = [k for k in keys if k in upper and k in exact and upper[k] < exact[k]]
        f.require(not below, f"{label}: sep_bound < sep_exact at {below[:3]} dB")
    if scheme.endswith("blind"):
        for db in grid:
            value = exact.get(_key(db))
            ref = oracles.blind_ser(scheme, n, m, 10.0 ** (db / 10.0))
            if value is not None and not _close(value, ref, CLOSED_FORM_RTOL):
                f.failures.append(f"{label} {db:g} dB: sep_exact {value:.10g} != closed form {ref:.10g}")
                break
    else:
        usable = [db for db in grid if 1e-9 <= exact.get(_key(db), 0.0) <= 0.5]
        step = max(1, math.ceil(len(usable) / oracle_samples))
        for db in usable[::step]:
            value = exact[_key(db)]
            ref = oracles.intelligent_ser(scheme, n, m, 10.0 ** (db / 10.0))
            f.require(_close(value, ref, ORACLE_RTOL),
                      f"{label} {db:g} dB: sep_exact {value:.10g} != quadrature {ref:.10g}")
    return f


def check_compare(stdout: str, scheme_a, n_a, scheme_b, n_b, target) -> Findings:
    """A `compare` gap against the gap between the two quadrature crossings."""
    f = Findings()
    label = f"compare {scheme_a} N={n_a} vs {scheme_b} N={n_b} at {target:g}"
    try:
        gap = float(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        f.failures.append(f"{label}: no gap printed ({stdout!r})")
        return f
    ref = oracles.intelligent_crossing_db(scheme_a, n_a, target) - oracles.intelligent_crossing_db(scheme_b, n_b, target)
    f.require(abs(gap - ref) <= COMPARE_TOL_DB, f"{label}: gap {gap:.6f} dB, quadrature {ref:.6f} dB")
    return f
