"""Command-line front end: analytic curves, simulations, figure presets.

Results are written as long-format CSV with the fixed header

    scheme,N,M,snr_db,metric,value,trials,errors,stderr

where ``metric`` is one of ``ber``, ``ser`` (simulation) or ``sep_exact``,
``sep_bound`` (analytic; the trailing columns are left empty).  Every float
is printed with 17 significant digits so re-parsing reproduces the
in-memory values exactly (see :func:`write_rows`).  Rows go from the
engines to the file as series blocks (CsvRows): one (scheme, N, M) over its
SNR grid, each joined in one pass, with the bytes a row-at-a-time writer gives.
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
from itertools import chain, islice, repeat
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
    """The rows of one series (scheme, N, M) over its SNR grid, or one plain
    row, SNR-major: at each SNR one row per metric.  ``value`` holds one
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

    def floats(self) -> Iterator[Sequence[float]]:
        """The block's float columns in the order :meth:`text` takes their
        texts: the SNRs, then at each metric its value and its stderr."""
        yield self.snr_db
        for j in range(len(self.metrics)):
            yield self.value[j]
            if self.stderr is not None:
                yield self.stderr[j]

    def text(self, texts: Iterator[str]) -> str:
        """The block's CSV lines, joined SNR by SNR from the pieces of its
        lines there: constant strings and columns of texts.  ``texts`` yields
        the text of each value of the block's float columns (see :meth:`floats`)."""
        count = len(self.snr_db)
        take = lambda: list(islice(texts, count))
        snr = take()
        pieces = []
        for j, metric in enumerate(self.metrics):
            pieces += [f"{self.scheme},{self.n},{self.m},", snr, f",{metric},", take()]
            for ints in (self.trials, self.errors):
                pieces += [",", "" if ints is None else list(map(str, _items(ints[j])))]
            pieces += [",", "" if self.stderr is None else take(), "\n"]
        merged = []  # adjacent constants as one
        for piece in pieces:
            if isinstance(piece, str) and merged and isinstance(merged[-1], str):
                merged[-1] += piece
            else:
                merged.append(piece)
        columns = (repeat(p, count) if isinstance(p, str) else p for p in merged)
        return "".join(chain.from_iterable(zip(*columns)))


def _items(column: Sequence) -> Sequence:
    """A column's values as Python objects: an array's through ``tolist``."""
    return column.tolist() if isinstance(column, np.ndarray) else column


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
    """A CsvRows' own blocks, or one block per plain CsvRow."""
    if isinstance(rows, CsvRows):
        return rows.blocks
    column = lambda field: None if field is None else ([field],)
    return (_Block(r.scheme, r.n, r.m, [r.snr_db], (r.metric,), ([r.value],),
                   column(r.trials), column(r.errors), column(r.stderr)) for r in rows)


def write_rows(rows: CsvRows | Iterable[CsvRow], path: Path) -> None:
    """Write rows under CSV_HEADER, one block at a time, None as an empty
    field; a plain CsvRow is a block of its own.  Scheme and metric names go
    unquoted: no commas or quotes.

    Every float (snr_db, value, stderr) is written as the bytes of
    ``"%.17g" % v``: 17 significant digits, so reading it back gives the same
    double.  A file's floats are gathered once (:func:`_gathered_floats`) and
    :func:`_format_floats` forms them in numpy, _FLOAT_SLICE values at a
    time.  Python's ``%`` formats only the values it cannot certify: NaN and
    the infinities, nonzero magnitudes below 1e-270 or from 1e270 up, and
    values within 1e-6 of a tie at the 17th digit; and every value of a slice
    shorter than _NUMPY_FROM, such as a small file's."""
    blocks = list(_blocks(rows))
    floats = _gathered_floats(column for block in blocks for column in block.floats())
    texts = chain.from_iterable(
        _format_floats(floats[i:i + _FLOAT_SLICE]) for i in range(0, len(floats), _FLOAT_SLICE))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for block in blocks:
            fh.write(block.text(texts))


_FLOAT_SLICE = 4096  # values per _format_floats call, whose arrays stay under 1 MB
_NUMPY_FROM = 256  # shorter slices go to % whole: numpy's ~70 us a call outweighs its gain there
_CERTIFIED = (1e-270, 1e270)  # the nonzero magnitudes _decimal17 can certify
_POW_MIN, _POW_MAX = -256, 288  # 10**(16 - e) for e within 2 of the decimal exponents there

# The layout of _canvas: one row of _WIDTH bytes per value, the columns
# it may keep in order: a sign, the "0.000" of 1e-4 <= |v| < 0.1, digit i at
# column 6 + 2i with a slot for a point after it, then "e+000" and a comma.
_CANVAS = b"-0.000" + b"0." * 16 + b"0" + b"e+000,"
_WIDTH = len(_CANVAS)
_FIXED_LAYOUTS = 21 * 17  # (e, digits) for -4 <= e <= 16; then (3-digit exponent, digits)
_EXPONENTS = range(-300, 301)  # decimal exponents with a tabled text: every certified one


def _gathered_floats(columns: Iterable[Sequence[float]]) -> np.ndarray:
    """The values of the columns in turn, as one float64 array (empty for no
    columns); a list's values go through ``float``, as ``%`` takes them."""
    arrays = [
        column.astype(np.float64, copy=False) if isinstance(column, np.ndarray)
        else np.fromiter(map(float, column), np.float64, len(column))
        for column in columns
    ]
    return np.concatenate(arrays) if arrays else np.empty(0)


@cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The tables of :func:`_decimal17` and :func:`_format_floats`, built at
    the first call, from exact Python ints and no other module:

    * 10**p for p = _POW_MIN ... _POW_MAX as a double-double hi + lo, each
      part correctly rounded (int to float, or int true division for p < 0),
      and hi split into its top 26 bits and the rest (Dekker's split);
    * the four ASCII digits of 0 ... 9999, each as one uint32, and the count
      of their trailing zeros (4 for 0);
    * the sign and three digits of each exponent in _EXPONENTS;
    * the canvas columns kept in each layout, two rows per layout: positive
      and negative.
    """
    hi, lo = [], []
    for p in range(_POW_MIN, _POW_MAX + 1):
        if p >= 0:
            hi.append(float(10**p))
            lo.append(float(10**p - int(hi[-1])))
        else:
            scale = 10**-p
            hi.append(1 / scale)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * scale) / (den * scale))
    hi, lo = np.array(hi), np.array(lo)
    top = hi * 134217729.0  # 2**27 + 1
    top -= top - hi

    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1).reshape(10_000, 4)
    zero = quads == ord("0")
    quad_zeros = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0].astype(np.uint8))))
    exponents = np.frombuffer(b"".join(b"%+04d" % k for k in _EXPONENTS), np.uint8).reshape(-1, 4)

    # A layout is an exponent e in -4 ... 16 (fixed point) or a 2- or
    # 3-digit exponent, and a count of significant digits 1 ... 17.
    digits = np.tile(np.arange(1, 18), 23)
    e = np.concatenate((np.arange(-4, 17).repeat(17), np.zeros(34, int)))  # exponent form: a point after one digit
    scientific = np.arange(len(e)) >= _FIXED_LAYOUTS
    keep = np.zeros((len(e), _WIDTH), bool)
    keep[:, 1:6] = (np.arange(5) <= -e[:, None]) & (e < 0)[:, None]
    keep[:, 6:39:2] = np.arange(17) < np.where(e >= 0, np.maximum(digits, e + 1), digits)[:, None]
    keep[:, 7:39:2] = (np.arange(16) == e[:, None]) & (digits > e + 1)[:, None]
    keep[:, 39:44] = scientific[:, None]
    keep[:, 41] &= np.arange(len(e)) >= _FIXED_LAYOUTS + 17
    keep[:, 44] = True
    keep = keep.repeat(2, axis=0)
    keep[1::2, 0] = True
    return hi, top, hi - top, lo, quads.view(np.uint32).ravel(), quad_zeros, exponents, keep


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitudes a >= 0 as d * 10**(e - 16): d the 17-digit int64 that
    ``%.17g`` rounds a to (half to even), e the decimal exponent, and whether
    each is certified (zero is, as d = e = 0; see :func:`write_rows`).

    e starts from log10 and moves by one where round(a * 10**(16 - e)) leaves
    [10**16, 10**17).  The product is formed as a double-double, with
    Dekker's two-product on the table's split powers (numpy has no fma): it
    is within about 1e-14 of the exact value, so a remainder within 1e-6 of a
    half (an exact tie or near one) is left to ``%``."""
    hi, top, rest, lo = _format_tables()[:4]
    fast = (a >= _CERTIFIED[0]) & (a < _CERTIFIED[1])
    zero = a == 0
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)

    def scaled(a, e):  # floor(a * 10**(16 - e)) and the remainder
        p = 16 - _POW_MIN - e
        product = a * hi.take(p)
        split = a * 134217729.0
        a_top = split - (split - a)
        a_rest = a - a_top
        top_p, rest_p = top.take(p), rest.take(p)
        error = ((a_top * top_p - product) + a_top * rest_p + a_rest * top_p) + a_rest * rest_p
        whole = np.floor(product)
        remainder = (product - whole) + (error + a * lo.take(p))
        carry = np.floor(remainder)
        return whole.astype(np.int64) + carry.astype(np.int64), remainder - carry

    whole, frac = scaled(a, e)
    for _ in range(2):
        off = np.flatnonzero((whole < 10**16) | (whole >= 10**17))
        if not len(off):
            break
        e[off] += np.where(whole[off] < 10**16, -1, 1)
        whole[off], frac[off] = scaled(a[off], e[off])
    fast &= (whole >= 10**16) & (whole < 10**17) & (np.abs(frac - 0.5) >= 1e-6)
    d = whole + (frac > 0.5)
    carry = d == 10**17  # 99999999999999999.5 and up rounds to 1e17
    d[carry] = 10**16
    e += carry
    d[zero] = e[zero] = 0
    return d, e, fast | zero


def _format_floats(values: np.ndarray) -> list[str]:
    """The ``"%.17g" % v`` text of each value: the kept bytes of its
    :func:`_canvas` row, split at the commas, or ``%``'s text where it is
    not certified or the slice is shorter than _NUMPY_FROM."""
    if len(values) < _NUMPY_FROM:
        return ["%.17g" % v for v in values.tolist()]
    canvas, kept, fast = _canvas(values)
    texts = canvas.ravel().compress(kept.ravel()).tobytes().decode().split(",")
    texts.pop()  # after the last comma
    for i in np.flatnonzero(~fast).tolist():
        texts[i] = "%.17g" % values[i]
    return texts


def _canvas(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's row of the _CANVAS layout, with its digits and exponent
    (:func:`_decimal17`) written; the columns its layout keeps; and whether
    it is certified.  Apart from :func:`_format_floats`, so that its
    temporaries are freed before the texts are made."""
    *_, quads, quad_zeros, exponents, keep = _format_tables()
    d, e, fast = _decimal17(np.abs(values))
    count = len(values)
    top = d // 10**8  # the lead digit and the next 8
    lead = top // 10**8
    halves = np.stack((top - lead * 10**8, d - top * 10**8), axis=1)
    high = halves // 10**4
    groups = np.stack((high, halves - high * 10**4), axis=2).reshape(count, 4)  # the other 16 digits
    zeros = quad_zeros.take(groups)
    nonzero = groups != 0
    trailing = np.where(nonzero[:, 3], zeros[:, 3], np.where(nonzero[:, 2], 4 + zeros[:, 2],
                        np.where(nonzero[:, 1], 8 + zeros[:, 1], 12 + zeros[:, 0])))

    canvas = np.empty((count, _WIDTH), np.uint8)
    canvas[:] = np.frombuffer(_CANVAS, np.uint8)
    canvas[:, 6] = lead + ord("0")
    canvas[:, 8:39:2] = quads.take(groups).view(np.uint8).reshape(count, 16)
    canvas[:, 40:44] = exponents.take(e - _EXPONENTS[0], axis=0)
    fixed = (e >= -4) & (e < 17)
    layout = np.where(fixed, (e + 4) * 17, _FIXED_LAYOUTS + 17 * (np.abs(e) >= 100)) + 16 - trailing
    return canvas, keep.take(2 * layout + np.signbit(values), axis=0), fast


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
    snr = []
    for db in grid_db:
        try:
            snr.append(db_to_linear(db))
        except OverflowError:
            snr.append(math.inf)
        if not 0.0 < snr[-1] < math.inf:
            raise ValueError(f"SNR {db} dB has no finite, non-zero linear value 10**(dB/10)")
    return np.array(snr)


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
