"""The three workloads: the CLI calls of one round, the warm-up calls, and the
checks of what a round wrote.

A round is a fixed list of `ris_linklab.cli.main` calls on inputs made from
one seed (the run derives it from --seed), so every round of a run makes
the same calls and must write the same bytes.  `quick=True` shrinks budgets and grids for the benchmark's own
tests; the checks are the same.

The checks import scipy.stats, scipy.integrate and scipy.optimize, so this
module imports them only inside the check functions: a warm-up or a timed
round must not find those modules already loaded (the first `compare` pays
for importing scipy.optimize), nor their memory already resident.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One CLI call and what the checks need to know about it."""

    argv: tuple[str, ...]
    check: Callable[[Path | None, str], Findings] = field(compare=False)
    out: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # RIS_LINKLAB_THREADS for every call
    warmup: Callable[[Path], list[tuple[str, ...]]]
    ops: Callable[[int, Path, bool], list[Op]]


def grid(start: float, stop: float, step: float) -> list[float]:
    count = int(round((stop - start) / step)) + 1
    return [start + k * step for k in range(count)]


def _rows(path: Path):
    from ris_linklab.cli import read_rows

    return read_rows(path)


def _snr_args(start: float, stop: float, step: float) -> tuple[str, ...]:
    return ("--snr-start-db", repr(start), "--snr-stop-db", repr(stop), "--snr-step-db", repr(step))


# fig7_blind: a reduced `figure fig7` (dh_blind and ap_blind, BPSK, N = 4, 16, 64)
# on two workers.  At 0 dB N = 4 stops after its first chunk, N = 16 after
# two and N = 64 after about six; N = 4 at 10 dB after three or four; every
# other point runs the whole 10-chunk budget.  The N = 4 points carry most of
# the checks' power: the physical BER is 20-33 % above the CN(0, N) model
# there, and their total error count must show it.
FIG7_N = (4, 16, 64)
FIG7_SNR = (0.0, 20.0, 10.0)
FIG7_BUDGET = {False: (100_000, 200), True: (20_000, 20)}  # quick -> (max_trials, min_errors)


def _fig7_ops(seed: int, out: Path, quick: bool) -> list[Op]:
    max_trials, min_errors = FIG7_BUDGET[quick]
    csv = out / "fig7.csv"
    argv = ("figure", "fig7", "--out", str(csv), "--seed", str(seed),
            "--max-trials", str(max_trials), "--min-errors", str(min_errors), *_snr_args(*FIG7_SNR))

    def check(path: Path, _stdout: str) -> Findings:
        import oracles
        from checks import Findings, check_analytic, check_simulated

        rows = _rows(path)
        f = Findings()
        snrs = grid(*FIG7_SNR)
        references = {
            "dh_blind": lambda n: lambda db: oracles.dh_blind_physical_ber(n, 10.0 ** (db / 10.0)),
            "ap_blind": lambda n: lambda db: oracles.blind_ser("ap_blind", n, 2, 10.0 ** (db / 10.0)),
        }
        for scheme, reference in references.items():
            for n in FIG7_N:
                f.extend(check_simulated(rows, scheme, n, 2, snrs, max_trials, min_errors, reference(n), 1e-6))
                f.extend(check_analytic(rows, scheme, n, 2, snrs, bound=False, oracle_samples=0))
        f.require(len(rows) == len(FIG7_N) * 2 * len(snrs) * 3, f"fig7: {len(rows)} rows")
        return f

    return [Op(argv, check, csv)]


def _fig7_warmup(out: Path) -> list[tuple[str, ...]]:
    return [("figure", "fig7", "--out", str(out / "warm_fig7.csv"), "--max-trials", "10000",
             "--min-errors", "1", *_snr_args(30.0, 30.0, 1.0))]


# mary_n64: `simulate` for dh_intelligent (square QAM) and ap_intelligent (phase
# book) at N = 64, one worker.  Each (scheme, M) has its own 4-point window
# from SER ~1e-1 down to ~1e-4 (AP) or ~4e-4 (DH: below ~3e-4 the Gaussian gain
# model is more than 8 % above the physical channel at N = 64, too close to
# the 10 % margin).
MARY_N = 64
MARY_WINDOWS = {
    ("dh_intelligent", 4): (-29.7, -22.5, 2.4),
    ("dh_intelligent", 16): (-21.7, -15.4, 2.1),
    ("dh_intelligent", 64): (-15.1, -8.8, 2.1),
    ("ap_intelligent", 4): (-30.8, -23.0, 2.6),
    ("ap_intelligent", 16): (-19.5, -11.7, 2.6),
    ("ap_intelligent", 64): (-7.5, 0.3, 2.6),
}
MARY_BUDGET = {False: (100_000, 100), True: (20_000, 20)}
CLT_MARGIN = 0.10  # the Gaussian-model allowance acceptance criterion 6 uses at N = 64


def _mary_ops(seed: int, out: Path, quick: bool) -> list[Op]:
    max_trials, min_errors = MARY_BUDGET[quick]
    ops = []
    for (scheme, m), window in MARY_WINDOWS.items():
        csv = out / f"{scheme}_m{m}.csv"
        argv = ("simulate", "--scheme", scheme, "--n", str(MARY_N), "--m", str(m), *_snr_args(*window),
                "--seed", str(seed), "--max-trials", str(max_trials), "--min-errors", str(min_errors),
                "--out", str(csv))

        def check(path: Path, _stdout: str, scheme=scheme, m=m, window=window) -> Findings:
            import oracles
            from checks import check_simulated

            def reference(db):
                return oracles.intelligent_ser(scheme, MARY_N, m, 10.0 ** (db / 10.0))

            return check_simulated(_rows(path), scheme, MARY_N, m, grid(*window), max_trials, min_errors,
                                   reference, CLT_MARGIN)

        ops.append(Op(argv, check, csv))
    return ops


def _mary_warmup(out: Path) -> list[tuple[str, ...]]:
    return [("simulate", "--scheme", scheme, "--n", "4", "--m", "4", *_snr_args(0.0, 0.0, 1.0),
             "--max-trials", "10000", "--out", str(out / f"warm_{scheme}.csv"))
            for scheme in ("dh_intelligent", "ap_intelligent")]


# analytic_curves: `analytic --bound` for all four schemes over N and M on a
# fine grid (shifted by a seed-dependent fraction of a step), then `compare`
# along the criterion-3 (DH N vs 2N) and criterion-5 (DH vs AP) ladders.
ANALYTIC_SCHEMES = ("dh_intelligent", "dh_blind", "ap_intelligent", "ap_blind")
ANALYTIC_N = {False: (16, 64, 256, 1024), True: (16, 1024)}
ANALYTIC_M = (2, 16, 64)
ANALYTIC_RANGE = {"intelligent": (-60.0, 0.0), "blind": (-20.0, 30.0)}
ANALYTIC_STEP = {False: 0.1, True: 2.0}
COMPARE_N = {False: (32, 64, 128, 256, 512), True: (32,)}
COMPARE_TARGET = 1e-5
ORACLE_SAMPLES = 2  # intelligent sep_exact rows checked by quadrature, per curve


def _analytic_ops(seed: int, out: Path, quick: bool) -> list[Op]:
    step = ANALYTIC_STEP[quick]
    shift = (seed % 1000) / 1000.0 * step
    ns = ANALYTIC_N[quick]
    ops = []
    for scheme in ANALYTIC_SCHEMES:
        lo, hi = ANALYTIC_RANGE[scheme.split("_")[1]]
        window = (lo + shift, hi + shift, step)
        for m in ANALYTIC_M:
            csv = out / f"{scheme}_m{m}.csv"
            argv = ("analytic", "--scheme", scheme, "--n", *map(str, ns), "--m", str(m),
                    *_snr_args(*window), "--bound", "--out", str(csv))

            def check(path: Path, _stdout: str, scheme=scheme, m=m, window=window) -> Findings:
                from checks import Findings, check_analytic

                rows = _rows(path)
                f = Findings()
                for n in ns:
                    f.extend(check_analytic(rows, scheme, n, m, grid(*window), True, ORACLE_SAMPLES))
                return f

            ops.append(Op(argv, check, csv))
    ladders = [("dh_intelligent", n, "dh_intelligent", 2 * n) for n in COMPARE_N[quick]]
    ladders += [("dh_intelligent", n, "ap_intelligent", n) for n in COMPARE_N[quick]]
    for a, n_a, b, n_b in ladders:
        argv = ("compare", "--scheme-a", a, "--scheme-b", b, "--n-a", str(n_a), "--n-b", str(n_b),
                "--m", "2", "--target", repr(COMPARE_TARGET))

        def check(_path, stdout: str, a=a, n_a=n_a, b=b, n_b=n_b) -> Findings:
            from checks import check_compare

            return check_compare(stdout, a, n_a, b, n_b, COMPARE_TARGET)

        ops.append(Op(argv, check))
    return ops


def _analytic_warmup(out: Path) -> list[tuple[str, ...]]:
    return [
        ("analytic", "--scheme", "dh_intelligent", "--n", "4", "--m", "2", *_snr_args(0.0, 0.0, 1.0),
         "--bound", "--out", str(out / "warm_analytic.csv")),
        ("compare", "--scheme-a", "dh_blind", "--scheme-b", "dh_blind", "--n-a", "4", "--n-b", "8",
         "--target", "1e-2"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig7_blind", 2, _fig7_warmup, _fig7_ops),
        Workload("mary_n64", 1, _mary_warmup, _mary_ops),
        Workload("analytic_curves", 1, _analytic_warmup, _analytic_ops),
    )
}


def call(argv) -> tuple[int, str]:
    """Run one CLI call in this process; returns (exit code, captured stdout)."""
    from ris_linklab import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()
