"""Command-line front end: analytic curves, simulations, figure presets.

Results are written as long-format CSV with the fixed header

    scheme,N,M,snr_db,metric,value,trials,errors,stderr

where ``metric`` is one of ``ber``, ``ser`` (simulation) or ``sep_exact``,
``sep_bound`` (analytic; the trailing columns are left empty).  Every float
is printed with 17 significant digits so re-parsing reproduces the
in-memory values exactly.  Alongside each CSV a small matplotlib script is
generated; the tool itself renders nothing.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic
from .analytic import AnalyticModel, QuadratureSpec, db_to_linear, required_snr_db
from .modulation import ConstellationKind, build_constellation
from .montecarlo import STREAM_INDEX_LIMIT, SweepPoint, SweepSpec, run_sweep
from .schemes import Scheme, SchemeConfig

CSV_HEADER = ["scheme", "N", "M", "snr_db", "metric", "value", "trials", "errors", "stderr"]

FIGURE_PRESETS = ("fig2", "fig3", "fig5", "fig6", "fig7")

# Default sweep windows chosen so curves span from ~1 down past 1e-6 where
# reachable; override with the --snr-* flags.
INTELLIGENT_RANGE_DB = (-60.0, 0.0)
BLIND_RANGE_DB = (-20.0, 30.0)

__all__ = ["main", "run_figure_preset", "compare", "write_rows", "read_rows", "CsvRow"]


@dataclass(frozen=True)
class CsvRow:
    scheme: str
    n: int
    m: int
    snr_db: float
    metric: str
    value: float
    trials: int | None = None
    errors: int | None = None
    stderr: float | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_rows(rows: list[CsvRow], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.scheme,
                    r.n,
                    r.m,
                    _fmt(r.snr_db),
                    r.metric,
                    _fmt(r.value),
                    "" if r.trials is None else r.trials,
                    "" if r.errors is None else r.errors,
                    "" if r.stderr is None else _fmt(r.stderr),
                ]
            )


def read_rows(path: Path) -> list[CsvRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                CsvRow(
                    scheme=rec["scheme"],
                    n=int(rec["N"]),
                    m=int(rec["M"]),
                    snr_db=float(rec["snr_db"]),
                    metric=rec["metric"],
                    value=float(rec["value"]),
                    trials=int(rec["trials"]) if rec["trials"] else None,
                    errors=int(rec["errors"]) if rec["errors"] else None,
                    stderr=float(rec["stderr"]) if rec["stderr"] else None,
                )
            )
    return rows


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the series contained in {csv_name} (generated alongside it).\"\"\"
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open("{csv_name}") as fh:
    for rec in csv.DictReader(fh):
        key = (rec["scheme"], rec["N"], rec["M"], rec["metric"])
        series[key].append((float(rec["snr_db"]), float(rec["value"])))

fig, ax = plt.subplots()
for (scheme, n, m, metric), pts in sorted(series.items()):
    pts.sort()
    style = "--" if metric.startswith("sep") else "-"
    ax.semilogy(*zip(*pts), style, label=f"{{scheme}} N={{n}} M={{m}} {{metric}}")
ax.set_xlabel("Es/N0 (dB)")
ax.set_ylabel("error rate")
ax.set_ylim(1e-7, 1.0)
ax.grid(True, which="both", alpha=0.4)
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig("{stem}.png", dpi=200)
print("wrote {stem}.png")
"""


def write_plot_script(csv_path: Path) -> Path:
    script_path = csv_path.with_name(csv_path.stem + "_plot.py")
    script_path.write_text(
        PLOT_SCRIPT.format(csv_name=csv_path.name, stem=csv_path.stem)
    )
    return script_path


def _snr_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    if not all(np.isfinite((start, stop, step))):
        raise ValueError(f"SNR grid values must be finite, got start {start}, stop {stop}, step {step}")
    if step <= 0 or stop < start:
        raise ValueError("need snr step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    if count >= STREAM_INDEX_LIMIT:
        raise ValueError(f"SNR grid has {count} points; it must have fewer than 2**32")
    return tuple(start + k * step for k in range(count))


def _dh_kind(order: int) -> ConstellationKind:
    # Dual-hop links carry BPSK at M=2 and square QAM above (4-QAM == QPSK).
    return ConstellationKind.PSK if order == 2 else ConstellationKind.QAM


def _exact_sep(model: AnalyticModel, order: int, kind: ConstellationKind, quad: QuadratureSpec) -> float:
    if kind is ConstellationKind.QAM:
        return analytic.sep_mqam(model, order, quad)
    return analytic.sep_mpsk(model, order, quad)


def analytic_rows(
    scheme: Scheme,
    n: int,
    order: int,
    grid_db,
    nodes: int = 256,
    include_bound: bool = False,
) -> list[CsvRow]:
    """Exact (and optionally bounded) SEP rows over an SNR grid."""
    quad = QuadratureSpec(node_count=nodes)
    kind = ConstellationKind.AP_PHASE if scheme.is_access_point else _dh_kind(order)
    rows = []
    for db in grid_db:
        model = AnalyticModel(scheme=scheme, n_reflectors=n, snr=float(db_to_linear(db)))
        rows.append(
            CsvRow(scheme.value, n, order, db, "sep_exact", _exact_sep(model, order, kind, quad))
        )
        if include_bound:
            bound_kind = ConstellationKind.QAM if kind is ConstellationKind.QAM else ConstellationKind.PSK
            rows.append(
                CsvRow(scheme.value, n, order, db, "sep_bound", analytic.sep_upper_bound(model, order, bound_kind))
            )
    return rows


def simulation_rows(
    scheme: Scheme,
    n: int,
    order: int,
    grid_db,
    seed: int,
    max_trials: int,
    min_errors: int,
) -> list[CsvRow]:
    """BER and SER rows from a Monte Carlo sweep."""
    kind = ConstellationKind.AP_PHASE if scheme.is_access_point else _dh_kind(order)
    config = SchemeConfig(
        scheme=scheme,
        n_reflectors=n,
        constellation=build_constellation(kind, order),
    )
    spec = SweepSpec(
        config=config,
        snr_grid_db=tuple(grid_db),
        max_trials=max_trials,
        min_errors=min_errors,
        seed=seed,
    )
    rows = []
    for point in run_sweep(spec):
        rows.append(_sim_row(scheme, n, order, point, "ber"))
        rows.append(_sim_row(scheme, n, order, point, "ser"))
    return rows


def _sim_row(scheme: Scheme, n: int, order: int, point: SweepPoint, metric: str) -> CsvRow:
    value = point.ber if metric == "ber" else point.ser
    errors = point.bit_errors if metric == "ber" else point.symbol_errors
    return CsvRow(
        scheme.value,
        n,
        order,
        point.snr_db,
        metric,
        value,
        trials=point.trials,
        errors=errors,
        stderr=point.stderr(metric),
    )


def run_figure_preset(
    name: str,
    out: Path,
    seed: int = 0,
    max_trials: int = 10_000_000,
    min_errors: int = 200,
    nodes: int = 256,
    snr_override=None,
) -> tuple[Path, Path]:
    """Reproduce one figure preset; returns (csv_path, plot_script_path)."""
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_PRESETS}")

    intelligent = snr_override or _snr_grid(*INTELLIGENT_RANGE_DB, 1.0)
    blind = snr_override or _snr_grid(*BLIND_RANGE_DB, 1.0)
    rows: list[CsvRow] = []

    if name == "fig2":
        for n in (16, 32):
            rows += analytic_rows(Scheme.DH_INTELLIGENT, n, 2, intelligent, nodes, include_bound=True)
    elif name == "fig3":
        for n in (8, 16, 32, 64, 128):
            rows += simulation_rows(Scheme.DH_INTELLIGENT, n, 2, intelligent, seed, max_trials, min_errors)
            rows += analytic_rows(Scheme.DH_INTELLIGENT, n, 2, intelligent, nodes)
    elif name == "fig5":
        for n in (8, 16, 32, 64):
            for scheme in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT):
                rows += simulation_rows(scheme, n, 2, intelligent, seed, max_trials, min_errors)
            rows += analytic_rows(Scheme.AP_INTELLIGENT, n, 2, intelligent, nodes)
    elif name == "fig6":
        for order in (4, 16, 64):
            for scheme in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT):
                rows += simulation_rows(scheme, 64, order, intelligent, seed, max_trials, min_errors)
                rows += analytic_rows(scheme, 64, order, intelligent, nodes)
    else:  # fig7
        for n in (4, 16, 64):
            for scheme in (Scheme.DH_BLIND, Scheme.AP_BLIND):
                rows += simulation_rows(scheme, n, 2, blind, seed, max_trials, min_errors)
                rows += analytic_rows(scheme, n, 2, blind, nodes)

    _check_finite(rows)
    write_rows(rows, out)
    return out, write_plot_script(out)


def compare(
    scheme_a: Scheme,
    scheme_b: Scheme,
    order: int,
    target: float,
    n_a: int,
    n_b: int | None = None,
    nodes: int = 256,
) -> float:
    """SNR gap (dB) between two analytic curves at a target error rate.

    Positive when scheme_a needs more SNR than scheme_b.
    """
    n_b = n_a if n_b is None else n_b
    quad = QuadratureSpec(node_count=nodes)

    def curve(scheme: Scheme, n: int):
        kind = ConstellationKind.AP_PHASE if scheme.is_access_point else _dh_kind(order)
        return lambda snr: _exact_sep(
            AnalyticModel(scheme=scheme, n_reflectors=n, snr=snr), order, kind, quad
        )

    return required_snr_db(curve(scheme_a, n_a), target) - required_snr_db(
        curve(scheme_b, n_b), target
    )


def _check_finite(rows: list[CsvRow]) -> None:
    for r in rows:
        if not np.isfinite(r.value):
            raise ArithmeticError(f"non-finite result for {r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # numerical failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _scheme(name: str) -> Scheme:
    try:
        return Scheme(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown scheme {name!r}; choose from {[s.value for s in Scheme]}"
        )


def _add_common(p: argparse.ArgumentParser, default_range) -> None:
    p.add_argument("--n", type=int, nargs="+", default=[64], help="reflector counts")
    p.add_argument("--m", type=int, default=2, help="modulation order")
    p.add_argument("--snr-start-db", type=float, default=default_range[0])
    p.add_argument("--snr-stop-db", type=float, default=default_range[1])
    p.add_argument("--snr-step-db", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=256, help="quadrature node count")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ris-linklab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate exact SEP curves")
    p_an.add_argument("--scheme", type=_scheme, required=True)
    _add_common(p_an, INTELLIGENT_RANGE_DB)
    p_an.add_argument("--bound", action="store_true", help="also emit the closed-form upper bound")

    p_sim = sub.add_parser("simulate", help="Monte Carlo sweep")
    p_sim.add_argument("--scheme", type=_scheme, required=True)
    _add_common(p_sim, INTELLIGENT_RANGE_DB)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-trials", type=int, default=10_000_000)
    p_sim.add_argument("--min-errors", type=int, default=200)

    p_fig = sub.add_parser("figure", help="reproduce a figure preset")
    p_fig.add_argument("preset", choices=FIGURE_PRESETS)
    p_fig.add_argument("--out", type=Path, required=True)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--max-trials", type=int, default=10_000_000)
    p_fig.add_argument("--min-errors", type=int, default=200)
    p_fig.add_argument("--nodes", type=int, default=256)
    p_fig.add_argument("--snr-start-db", type=float)
    p_fig.add_argument("--snr-stop-db", type=float)
    p_fig.add_argument("--snr-step-db", type=float, default=1.0)

    p_cmp = sub.add_parser("compare", help="SNR gap between two analytic curves")
    p_cmp.add_argument("--scheme-a", type=_scheme, required=True)
    p_cmp.add_argument("--scheme-b", type=_scheme, required=True)
    p_cmp.add_argument("--n-a", type=int, required=True)
    p_cmp.add_argument("--n-b", type=int)
    p_cmp.add_argument("--m", type=int, default=2)
    p_cmp.add_argument("--target", type=float, required=True)
    p_cmp.add_argument("--nodes", type=int, default=256)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analytic":
            grid = _snr_grid(args.snr_start_db, args.snr_stop_db, args.snr_step_db)
            rows = []
            for n in args.n:
                rows += analytic_rows(args.scheme, n, args.m, grid, args.nodes, include_bound=args.bound)
            _check_finite(rows)
            write_rows(rows, args.out)
            write_plot_script(args.out)
            print(f"wrote {args.out}")
        elif args.command == "simulate":
            grid = _snr_grid(args.snr_start_db, args.snr_stop_db, args.snr_step_db)
            rows = []
            for n in args.n:
                rows += simulation_rows(
                    args.scheme, n, args.m, grid, args.seed, args.max_trials, args.min_errors
                )
            _check_finite(rows)
            write_rows(rows, args.out)
            write_plot_script(args.out)
            print(f"wrote {args.out}")
        elif args.command == "figure":
            override = None
            if args.snr_start_db is not None and args.snr_stop_db is not None:
                override = _snr_grid(args.snr_start_db, args.snr_stop_db, args.snr_step_db)
            csv_path, script = run_figure_preset(
                args.preset,
                args.out,
                seed=args.seed,
                max_trials=args.max_trials,
                min_errors=args.min_errors,
                nodes=args.nodes,
                snr_override=override,
            )
            print(f"wrote {csv_path} and {script}")
        else:  # compare
            gap = compare(
                args.scheme_a, args.scheme_b, args.m, args.target, args.n_a, args.n_b, args.nodes
            )
            if not np.isfinite(gap):
                raise ArithmeticError("non-finite SNR gap")
            print(f"{gap:.6f}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
