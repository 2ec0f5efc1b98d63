"""Command-line front end: analytic curves, simulations, figure presets.

Results are written as long-format CSV with the fixed header

    scheme,N,M,snr_db,metric,value,trials,errors,stderr

where ``metric`` is one of ``ber``, ``ser`` (simulation) or ``sep_exact``,
``sep_bound`` (analytic; the trailing columns are left empty).  Every float
is printed with 17 significant digits so re-parsing reproduces the
in-memory values exactly.  Rows go from the engines to the file as series
blocks (CsvRows): one (scheme, N, M) over its SNR grid, each written by one
string format, with the bytes a row-at-a-time writer gives.
Alongside each CSV a small matplotlib script is generated; the tool itself
renders nothing.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import analytic
from .analytic import AnalyticModel, db_to_linear, required_snr_db
from .modulation import ConstellationKind, build_constellation, check_order
from .montecarlo import STREAM_INDEX_LIMIT, SweepSpec, run_sweep
from .schemes import Scheme, SchemeConfig, _link_kind, _require_surface

CSV_HEADER = ["scheme", "N", "M", "snr_db", "metric", "value", "trials", "errors", "stderr"]

# Default sweep windows chosen so curves span from ~1 down past 1e-6 where
# reachable; override with the --snr-* flags.
INTELLIGENT_RANGE_DB = (-60.0, 0.0)
BLIND_RANGE_DB = (-20.0, 30.0)

# Each figure preset's series in CSV order: (scheme, N, M, default SNR window,
# simulate, exact curve, bound).
_DH, _AP = Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT
_INT, _BLIND = INTELLIGENT_RANGE_DB, BLIND_RANGE_DB
FIGURES = {
    "fig2": [(_DH, n, 2, _INT, False, True, True) for n in (16, 32)],
    "fig3": [(_DH, n, 2, _INT, True, True, False) for n in (8, 16, 32, 64, 128)],
    "fig5": [(s, n, 2, _INT, True, s is _AP, False) for n in (8, 16, 32, 64) for s in (_DH, _AP)],
    "fig6": [(s, 64, m, _INT, True, True, False) for m in (4, 16, 64) for s in (_DH, _AP)],
    "fig7": [
        (s, n, 2, _BLIND, True, True, False) for n in (4, 16, 64) for s in (Scheme.DH_BLIND, Scheme.AP_BLIND)
    ],
}
FIGURE_PRESETS = tuple(FIGURES)

M_HELP = (
    "modulation order; dual-hop links use BPSK at M = 2 and square QAM above "
    "(4, 16, 64, ...), access-point links M-PSK"
)
NODES_HELP = (
    f"Gauss-Legendre node count of the intelligent curves, 16 to {analytic._MAX_NODES} "
    "(the blind curves are closed forms)"
)

__all__ = ["main", "run_figure_preset", "compare", "write_rows", "read_rows", "CsvRow", "CsvRows"]


@dataclass(slots=True)
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


class _Block:
    """The rows of one series (scheme, N, M) over its SNR grid, or a stretch
    of it, SNR-major: at each SNR one row per metric.  ``value`` holds one
    column over the grid per metric, a list or a float array; so do ``trials``,
    ``errors`` and ``stderr``, or they are None where the field is left
    empty.  A plain class, as a frozen dataclass would add 0.7 ms to each
    import of this module."""

    __slots__ = ("scheme", "n", "m", "snr_db", "metrics", "value", "trials", "errors", "stderr")

    def __init__(
        self,
        scheme: str,
        n: int,
        m: int,
        snr_db: Sequence[float],
        metrics: tuple[str, ...],
        value: tuple[Sequence[float], ...],
        trials: tuple[Sequence[int], ...] | None = None,
        errors: tuple[Sequence[int], ...] | None = None,
        stderr: tuple[Sequence[float], ...] | None = None,
    ) -> None:
        self.scheme, self.n, self.m, self.snr_db, self.metrics = scheme, n, m, snr_db, metrics
        self.value, self.trials, self.errors, self.stderr = value, trials, errors, stderr

    def __len__(self) -> int:
        return len(self.snr_db) * len(self.metrics)

    def __iter__(self) -> Iterator[CsvRow]:
        fields = [
            None if f is None else [_items(column) for column in f]
            for f in (self.value, self.trials, self.errors, self.stderr)
        ]
        for i, db in enumerate(self.snr_db):
            for j, metric in enumerate(self.metrics):
                yield CsvRow(self.scheme, self.n, self.m, db, metric,
                             *(None if f is None else f[j][i] for f in fields))

    def text(self, snr_text: dict) -> str:
        """The block's CSV lines: one template line per metric, repeated once
        per SNR and filled by one ``%``.  ``snr_text`` holds the SNR texts
        already formatted for the file."""
        fields = ((self.value, "%.17g"), (self.trials, "%s"), (self.errors, "%s"), (self.stderr, "%.17g"))
        tail = ",".join("" if f is None else fmt for f, fmt in fields)
        prefix = f"{self.scheme},{self.n},{self.m},".replace("%", "%%")
        template = "".join(f"{prefix}%s,{metric.replace('%', '%%')},{tail}\n" for metric in self.metrics)
        columns = [f for f, _ in fields if f is not None]
        width = 1 + len(columns)  # the SNR, then each filled column
        stride = width * len(self.metrics)
        args = [None] * (stride * len(self.snr_db))
        texts = _snr_texts(self.snr_db, snr_text)
        for j in range(len(self.metrics)):
            args[j * width :: stride] = texts
            for c, column in enumerate(columns, j * width + 1):
                args[c::stride] = _items(column[j])
        return (template * len(self.snr_db)) % tuple(args)


def _items(column: Sequence) -> Sequence:
    """A column's values as Python objects: an array's through ``tolist``."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _snr_texts(snr_db: Sequence[float], cache: dict) -> list[str]:
    """Each SNR as ``%.17g``, formatted once per cache."""
    texts = list(map(cache.get, snr_db))
    if None in texts:
        for i, text in enumerate(texts):
            if text is None:
                db = snr_db[i]
                texts[i] = text = "%.17g" % db
                if db:  # 0.0 == -0.0 as keys, but they print as 0 and -0
                    cache[db] = text
    return texts


class CsvRows:
    """CSV rows held as series blocks (see _Block), with no object per row:
    ``len`` counts the rows, iterating yields each as a CsvRow, ``+=`` appends
    the rows of another CsvRows or of an iterable of CsvRow, and it compares
    equal to a list of the same rows."""

    __slots__ = ("blocks",)

    def __init__(self, blocks=()):
        self.blocks = list(blocks)

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def __iter__(self) -> Iterator[CsvRow]:
        return chain.from_iterable(self.blocks)

    def __iadd__(self, rows: CsvRows | Iterable[CsvRow]) -> CsvRows:
        self.blocks += _blocks(rows)
        return self

    def __eq__(self, other):
        if isinstance(other, (CsvRows, list)):
            return list(self) == list(other)
        return NotImplemented


def _blocks(rows: CsvRows | Iterable[CsvRow]) -> Iterable[_Block]:
    return rows.blocks if isinstance(rows, CsvRows) else _row_blocks(rows)


def _row_blocks(rows: Iterable[CsvRow]) -> Iterator[_Block]:
    """Plain rows as blocks that write the same bytes.  An SNR group is a run
    of rows with one series text, one empty-field pattern and one SNR of one
    sign (0.0 and -0.0 print apart); each run of SNR groups that share all
    but the SNR and have the same metrics becomes one block."""
    def key(r: CsvRow) -> tuple:
        return (f"{r.scheme},{r.n},{r.m}", r.trials is None, r.errors is None, r.stderr is None,
                r.snr_db, math.copysign(1.0, r.snr_db))

    groups = (list(group) for _, group in groupby(rows, key))
    for _, run in groupby(groups, lambda group: (key(group[0])[:4], [r.metric for r in group])):
        run = list(run)
        first = run[0][0]
        column = lambda name: None if getattr(first, name) is None else tuple(
            [getattr(r, name) for r in metric_rows] for metric_rows in zip(*run))
        yield _Block(first.scheme, first.n, first.m, [group[0].snr_db for group in run],
                     tuple(r.metric for r in run[0]), *map(column, ("value", "trials", "errors", "stderr")))


def write_rows(rows: CsvRows | Iterable[CsvRow], path: Path) -> None:
    """Write rows under CSV_HEADER, one block at a time: floats with 17
    significant digits, None as an empty field.  The CsvRows of a plain
    iterable are merged into blocks first (see :func:`_row_blocks`).  Scheme
    and metric names go unquoted: no commas or quotes."""
    snr_text = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for block in _blocks(rows):
            fh.write(block.text(snr_text))


def read_rows(path: Path) -> list[CsvRow]:
    """The rows of a CSV under CSV_HEADER; an empty field reads as None."""
    optional = lambda text, kind: kind(text) if text else None
    with open(path, newline="") as fh:
        return [
            CsvRow(rec["scheme"], int(rec["N"]), int(rec["M"]), float(rec["snr_db"]), rec["metric"],
                   float(rec["value"]), optional(rec["trials"], int), optional(rec["errors"], int),
                   optional(rec["stderr"], float))
            for rec in csv.DictReader(fh)
        ]


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the series of the CSV file this script was generated alongside.\"\"\"
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv_name!r}) as fh:
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
fig.savefig({png_name!r}, dpi=200)
print("wrote", {png_name!r})
"""


def write_plot_script(csv_path: Path) -> Path:
    script_path = csv_path.with_name(csv_path.stem + "_plot.py")
    script_path.write_text(PLOT_SCRIPT.format(csv_name=csv_path.name, png_name=csv_path.stem + ".png"))
    return script_path


def _snr_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    if not all(np.isfinite((start, stop, step))):
        raise ValueError(f"SNR grid values must be finite, got start {start}, stop {stop}, step {step}")
    if step <= 0 or stop < start:
        raise ValueError("need snr step > 0 and stop >= start")
    # Whole steps from start to stop.  The slack of a few ulps of the ends and
    # of the quotient keeps the last point of a span of whole steps.
    steps = (stop - start) / step
    slack = 4 * sys.float_info.epsilon * (max(abs(start), abs(stop)) / step + steps)
    count = math.floor(steps + slack) + 1 if math.isfinite(steps + slack) else math.inf
    if count >= STREAM_INDEX_LIMIT:
        raise ValueError(f"SNR grid has {count} points; it must have fewer than 2**32")
    return tuple(start + k * step for k in range(count))


def _linear_snr(grid_db: Sequence[float]) -> np.ndarray:
    """The linear Es/N0 10^(dB/10) of each grid point, refusing a point whose
    value is not a finite, non-zero float: outside about -3236 to +3082 dB."""
    try:
        snr = np.array([db_to_linear(db) for db in grid_db])
    except OverflowError:
        snr = None
    if snr is None or not np.all((snr > 0) & (snr < math.inf)):
        for db in grid_db:  # the first point to blame
            try:
                if 0.0 < db_to_linear(db) < math.inf:
                    continue
            except OverflowError:
                pass
            raise ValueError(f"SNR {db} dB has no finite, non-zero linear value 10**(dB/10)")
    return snr


def _constellation_kind(scheme: Scheme, order: int) -> ConstellationKind:
    """The link's default constellation (schemes._link_kind); every command refuses an order it lacks."""
    kind = _link_kind(scheme, order)
    check_order(kind, order)
    return kind


def _exact_sep(model: AnalyticModel, order: int, kind: ConstellationKind, nodes: int) -> float:
    if kind is ConstellationKind.QAM:
        return analytic.sep_mqam(model, order, nodes)
    return analytic.sep_mpsk(model, order, nodes)


def analytic_rows(
    scheme: Scheme,
    n: int,
    order: int,
    grid_db,
    nodes: int = 256,
    include_bound: bool = False,
) -> CsvRows:
    """Exact (and optionally bounded) SEP rows over an SNR grid: one row block
    from one AnalyticModel of the grid; every value equals the one-point evaluation."""
    kind = _constellation_kind(scheme, order)
    metrics = ("sep_exact", "sep_bound") if include_bound else ("sep_exact",)
    grid_db = list(grid_db)
    model = AnalyticModel(scheme, n, _linear_snr(grid_db))
    value = [_exact_sep(model, order, kind, nodes)]
    if include_bound:
        value.append(analytic.sep_upper_bound(model, order, kind))
    return CsvRows([_Block(scheme.value, n, order, grid_db, metrics, tuple(value))])


def simulation_rows(
    scheme: Scheme,
    n: int,
    order: int,
    grid_db,
    seed: int,
    max_trials: int,
    min_errors: int,
) -> CsvRows:
    """BER and SER rows from a Monte Carlo sweep, as one row block."""
    kind = _constellation_kind(scheme, order)
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
    points = run_sweep(spec)
    trials = [p.trials for p in points]
    return CsvRows([_Block(
        scheme.value, n, order, [p.snr_db for p in points], ("ber", "ser"),
        value=([p.ber for p in points], [p.ser for p in points]),
        trials=(trials, trials),
        errors=([p.bit_errors for p in points], [p.symbol_errors for p in points]),
        stderr=([p.stderr("ber") for p in points], [p.stderr("ser") for p in points]),
    )])


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
    analytic._check_nodes(nodes)  # refuses nodes out of range before the first series runs
    if snr_override:  # every preset draws a curve over the grid
        _linear_snr(snr_override)
    rows = CsvRows()
    for scheme, n, order, window, simulate, curve, bound in FIGURES[name]:
        grid = snr_override or _snr_grid(*window, 1.0)
        if simulate:
            rows += simulation_rows(scheme, n, order, grid, seed, max_trials, min_errors)
        if curve:
            rows += analytic_rows(scheme, n, order, grid, nodes, include_bound=bound)
    return out, _write_csv(rows, out)


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

    def curve(scheme: Scheme, n: int):
        kind = _constellation_kind(scheme, order)
        return lambda snr: _exact_sep(
            AnalyticModel(scheme=scheme, n_reflectors=n, snr=snr), order, kind, nodes
        )

    return required_snr_db(curve(scheme_a, n_a), target) - required_snr_db(
        curve(scheme_b, n_b), target
    )


def _write_csv(rows: CsvRows, path: Path) -> Path:
    """Write rows and their plot script, refusing any non-finite value;
    returns the script's path."""
    for block in rows.blocks:
        if not all(np.isfinite(column).all() for column in block.value):
            bad = next(r for r in block if not math.isfinite(r.value))
            raise ArithmeticError(f"non-finite result for {bad}")
    write_rows(rows, path)
    return write_plot_script(path)


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
    p.add_argument("--m", type=int, default=2, help=M_HELP)
    p.add_argument("--snr-start-db", type=float, default=default_range[0])
    p.add_argument("--snr-stop-db", type=float, default=default_range[1])
    p.add_argument("--snr-step-db", type=float, default=1.0)
    p.add_argument("--out", type=Path, required=True, help="output CSV path")


@cache  # built by the first main call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ris-linklab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate exact SEP curves")
    p_an.add_argument("--scheme", type=_scheme, required=True)
    _add_common(p_an, INTELLIGENT_RANGE_DB)
    p_an.add_argument("--nodes", type=int, default=256, help=NODES_HELP)
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
    p_fig.add_argument("--nodes", type=int, default=256, help=NODES_HELP)
    p_fig.add_argument("--snr-start-db", type=float)
    p_fig.add_argument("--snr-stop-db", type=float)
    p_fig.add_argument("--snr-step-db", type=float, help="grid step in dB (default 1)")

    p_cmp = sub.add_parser("compare", help="SNR gap between two analytic curves")
    p_cmp.add_argument("--scheme-a", type=_scheme, required=True)
    p_cmp.add_argument("--scheme-b", type=_scheme, required=True)
    p_cmp.add_argument("--n-a", type=int, required=True)
    p_cmp.add_argument("--n-b", type=int)
    p_cmp.add_argument("--m", type=int, default=2, help=M_HELP)
    p_cmp.add_argument("--target", type=float, required=True)
    p_cmp.add_argument("--nodes", type=int, default=256, help=NODES_HELP)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command != "compare" and (args.out.is_dir() or not args.out.parent.is_dir()):
            raise ValueError(f"--out must name a file in an existing directory, got {args.out}")
        if args.command in ("analytic", "simulate"):
            grid = _snr_grid(args.snr_start_db, args.snr_stop_db, args.snr_step_db)
            for n in args.n:  # every surface, before the first series runs
                _require_surface(n)
            rows = CsvRows()
            for n in args.n:
                if args.command == "analytic":
                    rows += analytic_rows(args.scheme, n, args.m, grid, args.nodes, include_bound=args.bound)
                else:
                    rows += simulation_rows(
                        args.scheme, n, args.m, grid, args.seed, args.max_trials, args.min_errors
                    )
            _write_csv(rows, args.out)
            print(f"wrote {args.out}")
        elif args.command == "figure":
            bounds = (args.snr_start_db, args.snr_stop_db)
            override = None
            if bounds != (None, None):
                if None in bounds:
                    raise ValueError("give both --snr-start-db and --snr-stop-db, or neither")
                step = 1.0 if args.snr_step_db is None else args.snr_step_db
                override = _snr_grid(*bounds, step)
            elif args.snr_step_db is not None:
                raise ValueError("--snr-step-db needs both --snr-start-db and --snr-stop-db")
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
