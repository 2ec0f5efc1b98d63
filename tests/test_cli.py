"""Tests for the command-line front end, CSV schema, and figure presets."""

import csv

import numpy as np
import pytest

from ris_linklab.cli import (
    CSV_HEADER,
    CsvRow,
    analytic_rows,
    compare,
    main,
    read_rows,
    run_figure_preset,
    simulation_rows,
    write_rows,
)
from ris_linklab.schemes import Scheme


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

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        write_rows(analytic_rows(Scheme.DH_BLIND, 2, 2, [0.0]), out)
        raw = out.read_bytes()
        assert b"\r" not in raw


class TestFigurePresets:
    def test_fig2_is_analytic_only(self, tmp_path):
        out = tmp_path / "fig2.csv"
        csv_path, script = run_figure_preset("fig2", out, snr_override=[-40.0, -30.0])
        rows = read_rows(csv_path)
        assert {r.metric for r in rows} == {"sep_exact", "sep_bound"}
        assert all(r.trials is None for r in rows)
        assert sorted({r.n for r in rows}) == [16, 32]
        assert script.exists() and "matplotlib" in script.read_text()

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

    def test_fig7_blind_pair(self, tmp_path):
        out = tmp_path / "fig7.csv"
        run_figure_preset(
            "fig7", out, seed=3, max_trials=20_000, min_errors=20,
            snr_override=[0.0, 10.0],
        )
        rows = read_rows(out)
        assert {r.scheme for r in rows} == {"dh_blind", "ap_blind"}
        assert sorted({r.n for r in rows}) == [4, 16, 64]

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

    def test_preset_reruns_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        kwargs = dict(seed=11, max_trials=20_000, min_errors=20, snr_override=[5.0, 15.0])
        run_figure_preset("fig7", a, **kwargs)
        run_figure_preset("fig7", b, **kwargs)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_figure_preset("fig9", tmp_path / "x.csv")


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

    def test_oversized_grid_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import ris_linklab.cli as cli_mod

        # a lowered limit keeps the test from building a 2**32-point grid
        # if the check were ever lost
        monkeypatch.setattr(cli_mod, "STREAM_INDEX_LIMIT", 6)
        rc = main([
            "simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0",
            "--snr-stop-db", "10", "--snr-step-db", "2", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "SNR grid has 6 points" in capsys.readouterr().err

    def test_budget_of_2_pow_32_chunks_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "simulate", "--scheme", "dh_blind", "--n", "4", "--snr-start-db", "0",
            "--snr-stop-db", "0", "--max-trials", str(2**32 * 10_000),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "fewer than 2**32" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, tmp_path, monkeypatch):
        import ris_linklab.cli as cli_mod

        def broken_preset(*args, **kwargs):
            raise ArithmeticError("non-finite result")

        monkeypatch.setattr(cli_mod, "run_figure_preset", broken_preset)
        rc = main(["figure", "fig2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
