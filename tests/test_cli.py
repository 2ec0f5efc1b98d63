"""Tests for the command-line front end, CSV schema, figure presets and the
README's library sketch."""

import ast
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
import types
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_linklab.analytic import _SNR_BLOCK, AnalyticModel, db_to_linear, sep_upper_bound
from ris_linklab.cli import (
    _NUMPY_FROM,
    CSV_HEADER,
    FIGURES,
    CsvRow,
    CsvRows,
    _blocks,
    _build_parser,
    _canvas,
    _constellation_kind,
    _exact_sep,
    _format_floats,
    _snr_grid,
    analytic_rows,
    compare,
    main,
    read_rows,
    run_figure_preset,
    simulation_rows,
    write_rows,
)
from ris_linklab.schemes import Scheme


def csv_module_bytes(rows, path: Path) -> bytes:
    """The bytes a csv.writer writes for rows: the reference for write_rows."""
    fmt = lambda x: format(float(x), ".17g")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.scheme, r.n, r.m, fmt(r.snr_db), r.metric, fmt(r.value),
                "" if r.trials is None else r.trials,
                "" if r.errors is None else r.errors,
                "" if r.stderr is None else fmt(r.stderr),
            ])
    return path.read_bytes()


class TestCsvSchema:
    def test_header_and_roundtrip(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = simulation_rows(Scheme.DH_BLIND, 2, 2, [0.0, 3.0], seed=1, max_trials=20_000, min_errors=50)
        rows += analytic_rows(Scheme.DH_BLIND, 2, 2, [0.0, 3.0])
        write_rows(rows, out)
        with open(out) as fh:
            header = fh.readline().rstrip("\n")
        assert header == ",".join(CSV_HEADER)
        assert read_rows(out) == rows

    def test_seventeen_digit_roundtrip(self, tmp_path):
        out = tmp_path / "precise.csv"
        value = 0.1234567890123456789 / 3.0
        rows = [CsvRow("dh_blind", 4, 2, -7.5, "sep_exact", value)]
        write_rows(rows, out)
        parsed = read_rows(out)[0]
        assert parsed.value == value  # bit-exact through text

    def test_analytic_rows_have_empty_sim_columns(self, tmp_path):
        out = tmp_path / "analytic.csv"
        write_rows(analytic_rows(Scheme.AP_INTELLIGENT, 16, 2, [-30.0]), out)
        with open(out) as fh:
            rec = list(csv.DictReader(fh))[0]
        assert rec["trials"] == "" and rec["errors"] == "" and rec["stderr"] == ""
        assert rec["metric"] == "sep_exact"

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_analytic_rows_match_one_point_evaluation(self, scheme):
        """Blocked rows equal rows built from one AnalyticModel per point."""
        grid = [-40.0 + 0.5 * k for k in range(150)]
        assert len(grid) > _SNR_BLOCK and len(grid) % _SNR_BLOCK
        kind = _constellation_kind(scheme, 16)
        expected = []
        for db in grid:
            point = AnalyticModel(scheme, 64, db_to_linear(db))
            expected.append(CsvRow(scheme.value, 64, 16, db, "sep_exact", _exact_sep(point, 16, kind, 256)))
            expected.append(CsvRow(scheme.value, 64, 16, db, "sep_bound", sep_upper_bound(point, 16, kind)))
        assert analytic_rows(scheme, 64, 16, grid, include_bound=True) == expected

    def test_analytic_rows_build_one_model_per_series(self, monkeypatch):
        """A series is one AnalyticModel over its whole grid, however long,
        and one row block; the engine slices the grid itself."""
        built = []

        def counted(*args, **kwargs):
            built.append(AnalyticModel(*args, **kwargs))
            return built[-1]

        import ris_linklab.cli as cli_mod

        monkeypatch.setattr(cli_mod, "AnalyticModel", counted)
        grid = [-40.0 + 0.25 * k for k in range(3 * _SNR_BLOCK + 5)]
        rows = analytic_rows(Scheme.DH_INTELLIGENT, 16, 16, grid, include_bound=True)
        assert len(built) == 1 and built[0].snr.shape == (len(grid),)
        assert len(rows.blocks) == 1 and len(rows) == 2 * len(grid)
        rows += analytic_rows(Scheme.AP_BLIND, 4, 4, grid[:1])
        assert len(built) == 2 and len(rows.blocks) == 2

    def test_writer_bytes_match_csv_module(self, tmp_path):
        """write_rows writes the bytes of a csv.writer reference, on awkward
        values too, whether it is given the row blocks or a list of the rows."""
        grid = [-0.0, *(-30.0 + 0.5 * k for k in range(100))]  # 0.0 at k = 60
        assert len(grid) > _SNR_BLOCK and 0.0 in grid[1:]
        rows = analytic_rows(Scheme.AP_BLIND, 4, 16, grid, include_bound=True)
        rows += analytic_rows(Scheme.DH_INTELLIGENT, 16, 16, grid, include_bound=True)
        rows += analytic_rows(Scheme.AP_BLIND, 4, 16, [-1.5, 0.0], include_bound=True)
        rows += simulation_rows(Scheme.DH_BLIND, 2, 4, [-0.0, 3.0], seed=1, max_trials=10_000, min_errors=50)
        rows += [
            CsvRow("dh_blind", 4, 2, -0.0, "sep_exact", 5e-324),  # -0.0, a subnormal, None columns
            CsvRow("ap_intelligent", 10**20, 2, 10**20, "ber", np.float32(0.1), 10**20, 3, np.float32(2.5e-3)),
            CsvRow("dh_intelligent", np.int64(8), 4, -7.25, "ser", 0.0, 10_000, 0, 0.0),
            CsvRow("dh_intelligent", 8.0, 4, -7.25, "ser", 0.0, 10_000, 0, 0.0),  # == 8, prints 8.0
        ]
        assert len(rows) == 2 * 2 * len(grid) + 4 + 4 + 4
        assert all(isinstance(r, CsvRow) for r in rows)
        reference = csv_module_bytes(rows, tmp_path / "reference.csv")
        for name, given in (("rows.csv", rows), ("list.csv", list(rows))):
            write_rows(given, tmp_path / name)
            assert (tmp_path / name).read_bytes() == reference, name
        for line in (b"ap_blind,4,16,-0,sep_bound,", b"dh_intelligent,16,16,0,sep_exact,",
                     b"dh_blind,2,4,-0,ser,", b",-0,sep_exact,4.9406564584124654e-324,,,\n"):
            assert line in reference

    def test_plain_row_lists_write_as_their_blocks(self, tmp_path):
        """A list of CsvRow writes the bytes of the CsvRows it came from, each
        plain row as a block of its own: whole series, mixed series, a lone
        row and a run that breaks its metric cycle."""
        grid = [-40.0 + 0.5 * k for k in range(100)]
        assert len(grid) > _SNR_BLOCK
        bound = analytic_rows(Scheme.DH_INTELLIGENT, 16, 16, grid, include_bound=True)
        simulated = simulation_rows(Scheme.AP_BLIND, 2, 4, [0.0, 3.0, 6.0], seed=1, max_trials=10_000, min_errors=50)
        mixed = CsvRows()
        mixed += simulated
        mixed += analytic_rows(Scheme.AP_BLIND, 2, 4, [0.0, 3.0, 6.0])
        mixed += analytic_rows(Scheme.AP_BLIND, 4, 4, [0.0, 3.0, 6.0])
        lone = CsvRows()
        lone += [CsvRow("dh_blind", 4, 2, -7.5, "sep_exact", 0.25)]
        broken = CsvRows()
        broken += simulated
        broken += [*list(simulated)[:3], *list(simulated)[4:]]  # the second SNR has no ser row
        cases = {"bound": bound, "simulated": simulated, "mixed": mixed, "lone": lone, "broken": broken}
        for name, rows in cases.items():
            plain = list(rows)
            blocks = list(_blocks(plain))
            assert len(blocks) == len(plain) and all(len(block) == 1 for block in blocks), name
            write_rows(rows, tmp_path / f"{name}_blocks.csv")
            write_rows(plain, tmp_path / f"{name}_list.csv")
            assert (tmp_path / f"{name}_list.csv").read_bytes() == (tmp_path / f"{name}_blocks.csv").read_bytes()
            assert (tmp_path / f"{name}_list.csv").read_bytes() == csv_module_bytes(plain, tmp_path / "ref.csv")
            assert CsvRows(_blocks(plain)) == plain
        assert len(bound.blocks) == 1

    @pytest.mark.parametrize("rows", [[], CsvRows()], ids=["list", "CsvRows"])
    def test_no_rows_write_the_header_alone(self, tmp_path, rows):
        out = tmp_path / "empty.csv"
        write_rows(rows, out)
        assert out.read_bytes() == (",".join(CSV_HEADER) + "\n").encode()

    @pytest.mark.parametrize("field", ["value", "snr_db"])
    def test_none_float_is_refused(self, tmp_path, field):
        """A plain row whose value or SNR is None raises TypeError, as ``%``
        does, and no field is written as nan."""
        rows = [CsvRow("dh_blind", 4, 2, 0.0, "sep_exact", 0.25)] * 300  # past the slices % takes whole
        rows.insert(100, dataclasses.replace(rows[0], **{field: None}))
        out = tmp_path / "none.csv"
        with pytest.raises(TypeError):
            write_rows(rows, out)
        assert not out.exists() or b"nan" not in out.read_bytes()

    def test_signed_zero_snr_keeps_its_sign(self, tmp_path):
        """0.0 == -0.0, so a cache keyed by SNR value could print one as the
        other: adjacent zeros of both signs, in both orders and in two series."""
        rows = []
        for scheme, first, second in (("dh_blind", -0.0, 0.0), ("ap_blind", 0.0, -0.0)):
            for snr in (first, second, first, second):
                rows.append(CsvRow(scheme, 4, 2, snr, "sep_exact", 0.25))
        out = tmp_path / "zeros.csv"
        write_rows(rows, out)
        assert out.read_bytes() == csv_module_bytes(rows, tmp_path / "reference.csv")
        snr_column = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
        assert snr_column == ["-0", "0", "-0", "0", "0", "-0", "0", "-0"]

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        write_rows(analytic_rows(Scheme.DH_BLIND, 2, 2, [0.0]), out)
        raw = out.read_bytes()
        assert b"\r" not in raw


def percent_texts(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, np.float64).tolist()]


def doubles(bits) -> np.ndarray:
    return np.asarray(bits, np.uint64).view(np.float64)


class TestFloatTexts:
    """The numpy formatter behind write_rows against Python's ``%.17g``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(0, 2**64 - 1).map(lambda b: float(doubles([b])[0]))
                              .filter(math.isfinite)), min_size=1, max_size=64))
    def test_every_finite_double(self, values):
        """Arbitrary finite doubles, subnormals and both zeros included: any
        bit pattern, and hypothesis's own edge-seeking floats, repeated up to
        the shortest slice numpy formats."""
        values = np.resize(np.array(values), _NUMPY_FROM)
        assert _format_floats(values) == percent_texts(values)

    def test_edge_values(self):
        """Zeros, NaN, the infinities, every power of ten with both
        neighbours, the fixed/exponent switch at 1e-4 and 1e16 to 1e17,
        float32-widened values and exact ties at the 17th digit."""
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        ties = [10**15 + 0.25, 123456789012345.125, 987654321098765.375, 2.0**-25, 3 * 2.0**-25,
                *(np.arange(10**15, 10**15 + 64) + 0.25), *(np.arange(10**14, 10**14 + 64) + 0.125)]
        for tie in ties:  # exactly 18 significant digits, the last a 5
            digits = Decimal(float(tie)).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, tie
        rng = np.random.default_rng(2)
        float32s = np.concatenate([
            [0.1, 1 / 3, 2.5e-3, 3.4028235e38, 1.4e-45, 1.1754944e-38],
            rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)]).astype(np.float32).astype(np.float64)
        values = np.concatenate([
            [0.0, -0.0, np.nan, np.inf, -np.inf, 9.9999999999999999e-5, 1e-4, 1e-5, 1e16, 1e17,
             99999999999999999.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), ties, float32s])
        values = np.concatenate([values, -values])
        texts = _format_floats(values)
        assert texts == percent_texts(values)
        assert texts[:5] == ["0", "-0", "nan", "inf", "-inf"]
        assert "-nan" not in texts

    def test_certifies_all_but_a_few_curve_values(self, tmp_path, monkeypatch):
        """Writing a fine grid of every scheme's curves and bounds, every
        value goes through numpy and fewer than 2 % of them go on to the
        ``%`` fallback, so the fast path cannot slide off unseen."""
        import ris_linklab.cli as cli_mod

        certified = []

        def recorded(values):
            canvas, kept, fast = _canvas(values)
            certified.append(fast)
            return canvas, kept, fast

        monkeypatch.setattr(cli_mod, "_canvas", recorded)
        grid = _snr_grid(-60.0, 0.0, 0.1)
        rows = CsvRows()
        for scheme in Scheme:
            for n in (2**k for k in range(13)):  # 1 ... 4096
                rows += analytic_rows(scheme, n, 4 if scheme.is_access_point else 16, grid, include_bound=True)
        write_rows(rows, tmp_path / "curves.csv")
        fast = np.concatenate(certified)
        assert len(fast) == sum(len(b.snr_db) * (1 + len(b.metrics)) for b in rows.blocks) > 90_000
        assert np.count_nonzero(~fast) < 0.02 * len(fast)
        assert (tmp_path / "curves.csv").read_bytes() == csv_module_bytes(rows, tmp_path / "reference.csv")

    @pytest.mark.parametrize("float_slice, numpy_from", [(7, 1), (4096, _NUMPY_FROM)])
    def test_writer_slices_across_blocks(self, tmp_path, monkeypatch, float_slice, numpy_from):
        """Floats formatted in slices that cut through blocks, columns and
        lines, with NaN, infinities and subnormals among them, write the
        bytes of the csv.writer reference."""
        import ris_linklab.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_FLOAT_SLICE", float_slice)
        monkeypatch.setattr(cli_mod, "_NUMPY_FROM", numpy_from)
        rng = np.random.default_rng(5)
        odd = [np.nan, np.inf, -np.inf, 5e-324, -0.0, 1e300, 1e-300]
        pick = lambda: float(rng.choice(odd)) if rng.random() < 0.1 else float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
        rows = []
        for series_index in range(12):
            simulated = series_index % 3 == 0
            for snr in rng.uniform(-60, 30, rng.integers(1, 900)).tolist():
                for metric in ("ber", "ser") if simulated else ("sep_exact",):
                    rows.append(CsvRow("dh_blind", series_index, 2, snr, metric, pick(),
                                       *((int(rng.integers(0, 10**6)), 7, pick()) if simulated else ())))
        assert len(rows) > 4096  # over two slices of floats at the default slice size
        write_rows(rows, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == csv_module_bytes(rows, tmp_path / "reference.csv")


def series(rows):
    """(scheme, N, M, metric) of each series, in order of first appearance."""
    return list(dict.fromkeys((r.scheme, r.n, r.m, r.metric) for r in rows))


SIM_THEN_CURVE = ("ber", "ser", "sep_exact")


class TestFigurePresets:
    def test_fig2_is_analytic_only(self, tmp_path):
        out = tmp_path / "fig2.csv"
        csv_path, script = run_figure_preset("fig2", out, snr_override=[-40.0, -30.0])
        rows = read_rows(csv_path)
        assert {r.metric for r in rows} == {"sep_exact", "sep_bound"}
        assert all(r.trials is None for r in rows)
        assert sorted({r.n for r in rows}) == [16, 32]
        assert script.exists() and "matplotlib" in script.read_text()
        assert series(rows) == [
            ("dh_intelligent", n, 2, metric) for n in (16, 32) for metric in ("sep_exact", "sep_bound")
        ]

    def test_fig6_series_structure(self, tmp_path):
        out = tmp_path / "fig6.csv"
        run_figure_preset(
            "fig6", out, seed=2, max_trials=20_000, min_errors=20,
            snr_override=[-40.0, -35.0],
        )
        rows = read_rows(out)
        assert {r.n for r in rows} == {64}
        assert sorted({r.m for r in rows}) == [4, 16, 64]
        assert {r.scheme for r in rows} == {"dh_intelligent", "ap_intelligent"}
        assert "ser" in {r.metric for r in rows}
        assert "sep_exact" in {r.metric for r in rows}
        assert series(rows) == [
            (scheme, 64, m, metric)
            for m in (4, 16, 64)
            for scheme in ("dh_intelligent", "ap_intelligent")
            for metric in SIM_THEN_CURVE
        ]

    def test_fig7_blind_pair(self, tmp_path):
        out = tmp_path / "fig7.csv"
        run_figure_preset(
            "fig7", out, seed=3, max_trials=20_000, min_errors=20,
            snr_override=[0.0, 10.0],
        )
        rows = read_rows(out)
        assert {r.scheme for r in rows} == {"dh_blind", "ap_blind"}
        assert sorted({r.n for r in rows}) == [4, 16, 64]
        assert series(rows) == [
            (scheme, n, 2, metric)
            for n in (4, 16, 64)
            for scheme in ("dh_blind", "ap_blind")
            for metric in SIM_THEN_CURVE
        ]

    def test_fig3_overlays_dh_theory(self, tmp_path):
        out = tmp_path / "fig3.csv"
        run_figure_preset(
            "fig3", out, seed=4, max_trials=20_000, min_errors=20,
            snr_override=[-40.0, -35.0],
        )
        rows = read_rows(out)
        assert {r.scheme for r in rows} == {"dh_intelligent"}
        assert sorted({r.n for r in rows}) == [8, 16, 32, 64, 128]
        assert {"ber", "sep_exact"} <= {r.metric for r in rows}
        assert series(rows) == [
            ("dh_intelligent", n, 2, metric) for n in (8, 16, 32, 64, 128) for metric in SIM_THEN_CURVE
        ]

    def test_fig5_theory_rows_are_ap_only(self, tmp_path):
        out = tmp_path / "fig5.csv"
        run_figure_preset(
            "fig5", out, seed=5, max_trials=20_000, min_errors=20,
            snr_override=[-40.0, -35.0],
        )
        rows = read_rows(out)
        assert {r.scheme for r in rows} == {"dh_intelligent", "ap_intelligent"}
        theory = {r.scheme for r in rows if r.metric == "sep_exact"}
        assert theory == {"ap_intelligent"}
        assert series(rows) == [
            key
            for n in (8, 16, 32, 64)
            for key in (
                ("dh_intelligent", n, 2, "ber"),
                ("dh_intelligent", n, 2, "ser"),
                ("ap_intelligent", n, 2, "ber"),
                ("ap_intelligent", n, 2, "ser"),
                ("ap_intelligent", n, 2, "sep_exact"),
            )
        ]

    def test_preset_reruns_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        kwargs = dict(seed=11, max_trials=20_000, min_errors=20, snr_override=[5.0, 15.0])
        run_figure_preset("fig7", a, **kwargs)
        run_figure_preset("fig7", b, **kwargs)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_figure_preset("fig9", tmp_path / "x.csv")


class TestSnrGrid:
    """A grid holds every whole step from start to stop: a span of whole
    steps keeps its last point through rounding, and no point lies a part
    of a step past stop."""

    @pytest.mark.parametrize("window, grid", [
        ((0.0, 1.0, 0.6), (0.0, 0.6)),  # 1.67 steps: no point at 1.2 dB
        ((0.0, 1.0, 0.4), (0.0, 0.4, 0.8)),  # 2.5 steps
        ((0.0, 0.3, 0.1), (0.0, 0.1, 0.2, 0.30000000000000004)),  # 0.3 / 0.1 = 2.9999999999999996
        ((5.0, 5.0, 1.0), (5.0,)),
    ])
    def test_last_point_is_the_last_whole_step(self, window, grid):
        assert _snr_grid(*window) == grid

    def test_simulate_writes_no_point_past_stop(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0",
                "--snr-stop-db", "1", "--snr-step-db", "0.6", "--max-trials", "10000", "--out", str(out)]
        assert main(argv) == 0
        assert sorted({r.snr_db for r in read_rows(out)}) == [0.0, 0.6]

    def test_shifted_fine_window_keeps_every_point(self):
        """-60 to 0 dB by 0.1, shifted as the benchmark's analytic workload
        shifts it (seed % 1000 thousandths of a step): 601 points each."""
        for k in range(1000):
            shift = k / 1000.0 * 0.1
            assert len(_snr_grid(-60.0 + shift, 0.0 + shift, 0.1)) == 601, k

    def test_preset_and_benchmark_windows_keep_their_points(self):
        """Every preset's default window at 1 dB, and every window of the
        benchmark's workloads gives the grid its checks expect."""
        from bench.workloads import ANALYTIC_RANGE, ANALYTIC_STEP, FIG7_SNR, MARY_WINDOWS, grid

        for series in FIGURES.values():
            for _, _, _, (start, stop), *_ in series:
                assert len(_snr_grid(start, stop, 1.0)) == stop - start + 1
        windows = [FIG7_SNR, *MARY_WINDOWS.values()]
        windows += [
            (lo + shift, hi + shift, step)
            for step in ANALYTIC_STEP.values()
            for lo, hi in ANALYTIC_RANGE.values()
            for shift in (k / 1000.0 * step for k in range(1000))
        ]
        for window in windows:
            assert list(_snr_grid(*window)) == grid(*window), window


class TestCompare:
    def test_identity_gap_is_zero(self):
        gap = compare(Scheme.DH_BLIND, Scheme.DH_BLIND, 2, 1e-3, 16)
        assert gap == pytest.approx(0.0, abs=1e-6)

    def test_blind_doubling_is_three_db(self):
        """Doubling the surface halves the required SNR on the blind curve."""
        gap = compare(Scheme.DH_BLIND, Scheme.DH_BLIND, 2, 1e-3, n_a=16, n_b=32)
        assert gap == pytest.approx(3.0103, abs=0.1)

    def test_dh_vs_ap_binary_gap(self):
        """The AP link needs ~1.3 dB less SNR at a 1e-3 target (N = 64).

        Frozen from the adaptive-quadrature oracle on the two exact curves.
        """
        gap = compare(Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT, 2, 1e-3, 64)
        assert gap == pytest.approx(1.2907, abs=0.01)

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            compare(Scheme.DH_BLIND, Scheme.DH_BLIND, 2, 1e-300, 4)


class TestMainEntry:
    def test_analytic_subcommand(self, tmp_path):
        out = tmp_path / "an.csv"
        rc = main([
            "analytic", "--scheme", "dh_intelligent", "--n", "16", "--m", "2",
            "--snr-start-db", "-40", "--snr-stop-db", "-35", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 6
        assert all(np.isfinite(r.value) for r in rows)
        assert out.with_name("an_plot.py").exists()

    def test_plot_script_names_its_files_as_literals(self, tmp_path, capsys):
        """A CSV name holding quotes and a backslash still gives a script that
        parses and opens that file; the CSV bytes and stdout do not change."""
        argv = ["analytic", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0", "--snr-stop-db", "0"]
        name = "a\"b'c\\d.csv"
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / name}\n"
        assert main([*argv, "--out", str(tmp_path / "plain.csv")]) == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "plain.csv").read_bytes()
        tree = ast.parse((tmp_path / "a\"b'c\\d_plot.py").read_text())
        calls = {getattr(node.func, "id", getattr(node.func, "attr", None)): node.args
                 for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert calls["open"][0].value == name
        assert calls["savefig"][0].value == "a\"b'c\\d.png"

    def test_simulate_subcommand(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main([
            "simulate", "--scheme", "ap_blind", "--n", "4", "--m", "2",
            "--snr-start-db", "0", "--snr-stop-db", "4", "--snr-step-db", "2",
            "--seed", "7", "--max-trials", "20000", "--min-errors", "20",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out)
        assert {r.metric for r in rows} == {"ber", "ser"}
        assert all(r.trials is not None for r in rows)

    def test_compare_subcommand(self, capsys):
        rc = main([
            "compare", "--scheme-a", "dh_blind", "--scheme-b", "dh_blind",
            "--n-a", "8", "--n-b", "16", "--m", "2", "--target", "1e-3",
        ])
        assert rc == 0
        gap = float(capsys.readouterr().out.strip())
        assert gap == pytest.approx(3.0103, abs=0.1)

    def test_unknown_figure_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    def test_unknown_scheme_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--scheme", "bogus", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["analytic"])  # missing required flags
        assert exc.value.code == 1

    def test_bad_range_is_usage_error(self, tmp_path):
        rc = main([
            "analytic", "--scheme", "dh_blind", "--snr-start-db", "10",
            "--snr-stop-db", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("start, stop", [("nan", "nan"), ("0", "inf"), ("-inf", "0")])
    def test_non_finite_grid_is_usage_error(self, tmp_path, capsys, start, stop):
        rc = main([
            "simulate", "--scheme", "dh_blind", "--n", "4", "--m", "2",
            f"--snr-start-db={start}", f"--snr-stop-db={stop}",
            "--max-trials", "20000", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--scheme", "dh_blind", "--n", "4", "--m", "2"],
        ["figure", "fig7"],
    ])
    def test_budget_below_one_chunk_is_usage_error(self, tmp_path, capsys, command):
        """The message names both values, not a chunk-size option the CLI lacks."""
        rc = main([*command, "--max-trials", "5000", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: max_trials (5000) must be at least chunk_size (10000)\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("snr", ["-4000", "4000"])
    def test_grid_outside_n0_range_is_usage_error(self, tmp_path, capsys, snr):
        """N0 would overflow (-4000 dB) or underflow to a noiseless link (+4000 dB)."""
        rc = main([
            "simulate", "--scheme", "dh_blind", "--n", "1", "--m", "2",
            f"--snr-start-db={snr}", f"--snr-stop-db={snr}",
            "--max-trials", "10000", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "non-zero N0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("start, stop, bad", [
        ("3100", "3100", "3100.0"),  # 10**310 overflows a float
        ("-3300", "-3300", "-3300.0"),  # 10**-330 underflows to 0
        ("3000", "3100", "3100.0"),  # the last of three points
    ])
    @pytest.mark.parametrize("command", [["analytic", "--scheme", "dh_blind", "--n", "4"], ["figure", "fig7"]])
    def test_grid_without_linear_snr_is_usage_error(self, tmp_path, capsys, monkeypatch, command, start, stop, bad):
        """An SNR whose 10**(dB/10) is not a finite, non-zero float is refused
        by name before any series runs, simulated or analytic."""
        import ris_linklab.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_sweep", lambda spec: pytest.fail("a series was simulated"))
        rc = main([
            *command, f"--snr-start-db={start}", f"--snr-stop-db={stop}", "--snr-step-db", "50",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: SNR {bad} dB has no finite, non-zero linear value 10**(dB/10)\n"
        assert list(tmp_path.iterdir()) == []

    def test_dual_hop_order_8_is_usage_error(self, tmp_path, capsys):
        """Dual-hop links use BPSK at M = 2 and square QAM above, so M = 8 is refused."""
        rc = main([
            "simulate", "--scheme", "dh_blind", "--m", "8", "--n", "4", "--snr-start-db", "0",
            "--snr-stop-db", "0", "--max-trials", "20000", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "QAM requires a square" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    ORDER_COMMANDS = {
        "analytic": ["analytic", "--n", "4", "--snr-start-db", "0", "--snr-stop-db", "0"],
        "simulate": [
            "simulate", "--n", "4", "--snr-start-db", "0", "--snr-stop-db", "0", "--max-trials", "10000",
        ],
        "compare": ["compare", "--n-a", "4", "--target", "1e-2"],
    }

    @staticmethod
    def order_argv(command, scheme, order, out):
        argv = [*TestMainEntry.ORDER_COMMANDS[command], "--m", str(order)]
        if command == "compare":
            return [*argv, "--scheme-a", scheme, "--scheme-b", scheme]
        return [*argv, "--scheme", scheme, "--out", str(out)]

    @pytest.mark.parametrize("command", ["analytic", "simulate", "compare"])
    @pytest.mark.parametrize("scheme, order", [
        ("dh_blind", 3), ("dh_intelligent", 3), ("ap_blind", 3), ("ap_intelligent", 3),
        ("dh_blind", 8), ("dh_intelligent", 8), ("dh_blind", 9), ("dh_intelligent", 9),
    ])
    def test_order_without_a_constellation_is_usage_error(self, tmp_path, capsys, command, scheme, order):
        """Every command refuses an order the link has no constellation for:
        dual-hop links use BPSK or square QAM, access-point links power-of-two
        M-PSK.  Nothing is written, and no command blames QAM for M = 3."""
        rc = main(self.order_argv(command, scheme, order, tmp_path / "x.csv"))
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert ("QAM" in captured.err) == (order == 8)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["analytic", "simulate", "compare"])
    def test_access_point_order_8_is_accepted(self, tmp_path, capsys, command):
        rc = main(self.order_argv(command, "ap_intelligent", 8, tmp_path / "x.csv"))
        assert rc == 0, capsys.readouterr().err

    def test_oversized_grid_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import ris_linklab.cli as cli_mod

        # a lowered limit keeps the test from building a 2**32-point grid
        # if the check were ever lost
        monkeypatch.setattr(cli_mod, "STREAM_INDEX_LIMIT", 6)
        cases = [
            ("simulate", "0", "10", "2", "6"),
            ("analytic", "0", "1", "5e-324", "inf"),  # the step count overflows a float
            ("analytic", "-1e308", "1e308", "1", "inf"),  # so does the span
        ]
        for command, start, stop, step, points in cases:
            rc = main([
                command, "--scheme", "dh_blind", "--n", "4", f"--snr-start-db={start}",
                f"--snr-stop-db={stop}", f"--snr-step-db={step}", "--out", str(tmp_path / "x.csv"),
            ])
            assert rc == 1, (command, step)
            assert f"SNR grid has {points} points" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_budget_of_2_pow_32_chunks_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0",
            "--snr-stop-db", "0", "--max-trials", str(2**32 * 10_000),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "fewer than 2**32" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["--snr-start-db=-10", "--snr-stop-db=-10"])
    def test_figure_lone_snr_bound_is_usage_error(self, tmp_path, capsys, bound):
        """One grid end alone would silently run the preset's full default grid."""
        out = tmp_path / "x.csv"
        rc = main(["figure", "fig2", bound, "--out", str(out)])
        assert rc == 1
        assert "give both --snr-start-db and --snr-stop-db" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_lone_snr_step_is_usage_error(self, tmp_path, capsys):
        """A step alone would silently run the preset's default 1 dB grid."""
        out = tmp_path / "x.csv"
        rc = main(["figure", "fig2", "--snr-step-db", "5", "--out", str(out)])
        assert rc == 1
        assert "--snr-step-db needs both" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_has_no_nodes_option(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0",
                  "--snr-stop-db", "0", "--max-trials", "10000", "--nodes", "8", "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --nodes 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_cap_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("RIS_LINKLAB_THREADS", value)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0",
                   "--snr-stop-db", "0", "--max-trials", "10000", "--out", str(out)])
        assert rc == 1
        assert f"RIS_LINKLAB_THREADS must be a positive integer (the worker cap), got {value!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analytic", "--scheme", "dh_intelligent", "--snr-start-db", "-40", "--snr-stop-db", "-40",
         "--nodes", "8", "--out", "x.csv"],
        ["compare", "--scheme-a", "dh_blind", "--scheme-b", "ap_blind", "--n-a", "16",
         "--target", "1e-3", "--nodes", "0"],
    ], ids=["analytic-8", "compare-0"])
    def test_nodes_below_16_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        rc = main(argv)
        assert rc == 1
        assert "nodes must be >= 16" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["analytic", "--scheme", "dh_intelligent", "--n", "16", "4", "--snr-start-db", "-40", "--snr-stop-db", "-40",
         "--out", "x.csv"],
        ["figure", "fig6", "--out", "x.csv"],
        ["compare", "--scheme-a", "dh_intelligent", "--scheme-b", "ap_intelligent", "--n-a", "16",
         "--target", "1e-3"],
    ], ids=["analytic", "figure", "compare"])
    def test_nodes_above_4096_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        """One past the maximum has its own message, and is refused before
        any series runs or any quadrature nodes are built."""
        import ris_linklab.analytic as analytic_mod
        import ris_linklab.cli as cli_mod

        def refuse(*args):
            raise AssertionError("work started before --nodes was checked")

        monkeypatch.setattr(analytic_mod, "_leggauss", refuse)
        monkeypatch.setattr(cli_mod, "run_sweep", refuse)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--nodes", "4097"]) == 1
        assert "error: nodes must be <= 4096, got 4097\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, out, message", [
        (["simulate", "--scheme", "dh_intelligent", "--n", "64", "0", "--max-trials", "1000000"], "x.csv",
         "n_reflectors must be >= 1, got 0"),
        (["figure", "fig6", "--nodes", "8"], "x.csv", "nodes must be >= 16, got 8"),
        (["simulate", "--scheme", "dh_intelligent", "--n", "64", "--max-trials", "1000000"], "nodir/x.csv",
         "--out must name a file in an existing directory, got {tmp}/nodir/x.csv"),
        (["figure", "fig7", "--max-trials", "100000"], "nodir/f.csv",
         "--out must name a file in an existing directory, got {tmp}/nodir/f.csv"),
        (["simulate", "--scheme", "ap_blind", "--n", "4", "--max-trials", "1000000"], ".",
         "--out must name a file in an existing directory, got {tmp}"),
        (["analytic", "--scheme", "dh_blind", "--n", "4"], ".",
         "--out must name a file in an existing directory, got {tmp}"),
    ], ids=["simulate-n-0", "figure-nodes-8", "simulate-out-in-missing-dir", "figure-out-in-missing-dir",
            "simulate-out-is-dir", "analytic-out-is-dir"])
    def test_bad_input_fails_before_any_simulation(self, tmp_path, monkeypatch, capsys, argv, out, message):
        """A bad surface size, node count or --out path is refused before the
        first series is simulated, not after the earlier ones have run."""
        import ris_linklab.cli as cli_mod

        def no_sweep(spec):
            raise AssertionError("run_sweep called before the input was checked")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        out = tmp_path / out
        assert main([*argv, "--out", str(out)]) == 1
        assert f"error: {message.format(tmp=tmp_path)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exits_two(self, tmp_path, monkeypatch):
        import ris_linklab.cli as cli_mod

        def broken_preset(*args, **kwargs):
            raise ArithmeticError("non-finite result")

        monkeypatch.setattr(cli_mod, "run_figure_preset", broken_preset)
        rc = main(["figure", "fig2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_non_finite_value_exits_two_naming_its_row(self, tmp_path, monkeypatch, capsys):
        """NaNs in one block of analytic values are refused before anything is
        written, and the message names the first row that holds one."""
        import ris_linklab.cli as cli_mod

        exact = cli_mod._exact_sep

        def nan_from_10_db(model, order, kind, nodes):
            values = exact(model, order, kind, nodes)
            return np.where((model.n_reflectors == 16) & (model.snr >= 10.0), np.nan, values)

        monkeypatch.setattr(cli_mod, "_exact_sep", nan_from_10_db)
        rc = main(["analytic", "--scheme", "dh_blind", "--n", "4", "16", "--snr-start-db", "-60",
                   "--snr-stop-db", "20", "--bound", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical failure: non-finite result for CsvRow(scheme='dh_blind', n=16, m=2, snr_db=10.0, "
            "metric='sep_exact', value=nan, trials=None, errors=None, stderr=None)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_non_converging_inversion_exits_two(self, monkeypatch, capsys):
        """The root finder giving up is a numerical failure, not a traceback."""
        import ris_linklab.cli as cli_mod
        from ris_linklab.analytic import _brent

        cubic = lambda db: -((db - 0.3) ** 3)
        flat_root = lambda curve, target: _brent(cubic, -80, 60, cubic(-80), cubic(60))
        monkeypatch.setattr(cli_mod, "required_snr_db", flat_root)
        rc = main(["compare", "--scheme-a", "dh_blind", "--scheme-b", "ap_blind", "--n-a", "16",
                   "--target", "1e-3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("numerical failure: no root found in 100 iterations")

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        """main builds its parser once; no call's flags or errors reach the next."""
        assert _build_parser() is _build_parser()
        grid = ["--snr-start-db", "-40", "--snr-stop-db", "-40"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["analytic", "--scheme", "dh_blind", "--n", "16", "32", *grid, "--out", str(first)]) == 0
        assert main(["analytic", "--scheme", "dh_blind", *grid, "--out", str(second)]) == 0
        assert [r.n for r in read_rows(first)] == [16, 32]
        assert [r.n for r in read_rows(second)] == [64]
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scheme-a", "dh_blind"])
        assert exc.value.code == 1
        assert main(["compare", "--scheme-a", "dh_blind", "--scheme-b", "dh_blind", "--n-a", "8",
                     "--target", "1e-3"]) == 0


def test_cli_commands_import_no_scipy(tmp_path):
    """compare, analytic, simulate and figure run without importing scipy.

    In a fresh interpreter, since this test process has scipy loaded."""
    out = str(tmp_path)
    calls = [
        ["compare", "--scheme-a", "dh_intelligent", "--scheme-b", "ap_intelligent", "--n-a", "64",
         "--target", "1e-5"],
        ["analytic", "--scheme", "dh_intelligent", "--n", "16", "--snr-start-db", "-40",
         "--snr-stop-db", "-38", "--bound", "--out", f"{out}/an.csv"],
        ["simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0", "--snr-stop-db", "0",
         "--max-trials", "10000", "--out", f"{out}/sim.csv"],
        ["figure", "fig7", "--snr-start-db", "10", "--snr-stop-db", "10", "--max-trials", "10000",
         "--out", f"{out}/fig7.csv"],
    ]
    script = (
        "import sys\n"
        "from ris_linklab.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "leaked = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "sys.exit(f'scipy imported: {leaked}' if leaked else 0)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_analytic_at_the_top_of_the_grid_is_silent(tmp_path):
    """analytic near +3082 dB, the top of the accepted grid, exits 0 and
    writes nothing to stderr: an overflowing MGF term takes its limit instead
    of reaching the user as a numpy RuntimeWarning (or a NaN row).  In a fresh
    interpreter with the default warning filters, which print such warnings."""
    calls = [
        ["analytic", "--scheme", scheme, "--n", "1", "4", "4096", "--m", str(m), "--snr-start-db", "3080",
         "--snr-stop-db", "3080", "--bound", "--out", f"{tmp_path}/{scheme}_{m}.csv"]
        for scheme in ("dh_intelligent", "ap_intelligent", "dh_blind", "ap_blind") for m in (2, 16)
    ]
    calls.append(["analytic", "--scheme", "dh_intelligent", "--n", "4", "--snr-start-db", "2990",
                  "--snr-stop-db", "3000", "--snr-step-db", "5", "--out", f"{tmp_path}/onset.csv"])
    script = (
        "from ris_linklab.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    values = [r.value for r in read_rows(tmp_path / "onset.csv")]
    assert len(values) == 3 and all(0.0 < v < 1e-150 for v in values)


def test_analytic_commands_load_no_numpy_random(tmp_path):
    """analytic and compare run in a fresh interpreter without loading
    numpy.random, which only the simulator needs and which costs a first
    call about 16 ms of import."""
    calls = [
        ["compare", "--scheme-a", "dh_intelligent", "--scheme-b", "ap_intelligent", "--n-a", "64",
         "--target", "1e-5"],
        ["analytic", "--scheme", "dh_blind", "--n", "16", "--m", "16", "--snr-start-db", "-10",
         "--snr-stop-db", "10", "--bound", "--out", f"{tmp_path}/an.csv"],
    ]
    script = (
        "import sys\n"
        "from ris_linklab.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "sys.exit('numpy.random loaded' if 'numpy.random' in sys.modules else 0)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_readme_library_sketch_runs():
    """The README's python block runs against the current API."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(sketch, "README.md", "exec"), {})


def test_public_api_is_pinned():
    """The package's public names; widening them has to be deliberate."""
    import ris_linklab

    public = sorted(
        name for name, value in vars(ris_linklab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "AnalyticModel", "Constellation", "ConstellationKind", "Scheme", "SchemeConfig", "SweepPoint",
        "SweepSpec", "build_constellation", "confidence_interval", "db_to_linear", "detect_ml",
        "mgf", "required_snr_db", "run_sweep", "saturation_exponent", "sep_mpsk", "sep_mqam",
        "sep_upper_bound", "waterfall_rate",
    ]
