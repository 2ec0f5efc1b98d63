"""The benchmark's own tests: python3 -m pytest bench

Each workload runs one quick round (small budgets and grids) with all its
checks; the fig7_blind inputs write the same bytes on one and two workers;
and each kind of check rejects rows that are wrong in a known way.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from ris_linklab import analytic, cli, rng  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
from checks import binomial_failures  # noqa: E402
from run import Rounds, declared_units  # noqa: E402
from workloads import WORKLOADS, call  # noqa: E402


def quick_round(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.setenv("RIS_LINKLAB_THREADS", str(workload.threads))
    rounds = Rounds(workload, 3, tmp_path, quick=True)
    rounds.run(0.0)
    return rounds


def failures_of(op, stdout=""):
    findings = op.check(op.out, stdout)
    return findings.failures + binomial_failures(findings.samples)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_rounds_pass_every_check(name, tmp_path, monkeypatch):
    rounds = quick_round(name, tmp_path, monkeypatch)
    rounds.run(0.0)  # a second round on the same inputs must repeat the first's output
    assert rounds.attempted == 2 * len(rounds.first) > 0
    assert rounds.failed == 0
    assert rounds.check() == []
    assert 0 < rounds.best(0) <= sum(wall for wall, _ in rounds.times[0])


def test_fig7_inputs_write_identical_bytes_on_one_and_two_workers(tmp_path, monkeypatch):
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("RIS_LINKLAB_THREADS", workers)
        out = tmp_path / workers
        out.mkdir()
        (op,) = WORKLOADS["fig7_blind"].ops(7, out, False)
        assert call(op.argv)[0] == 0
        outputs.append(op.out.read_bytes())
    assert outputs[0] == outputs[1]


def _rewrite(path, change):
    cli.write_rows([change(r) for r in cli.read_rows(path)], path)


def test_a_perturbed_ber_is_rejected(tmp_path, monkeypatch):
    op = quick_round("fig7_blind", tmp_path, monkeypatch).first[0][0]
    assert failures_of(op) == []

    def perturb(r):  # 30 % more errors at one point, rows kept self-consistent
        if (r.scheme, r.n, r.snr_db) == ("ap_blind", 4, 0.0) and r.metric in ("ber", "ser"):
            errors = round(r.errors * 1.3)
            return dataclasses.replace(r, errors=errors, value=errors / r.trials)
        return r

    _rewrite(op.out, perturb)
    assert any("ap_blind N=4 M=2 0 dB" in f and "too many" in f for f in failures_of(op))


def test_a_swapped_scheme_is_rejected(tmp_path, monkeypatch):
    """ap_intelligent simulated on the dh_intelligent window and labelled dh_intelligent."""
    rounds = quick_round("mary_n64", tmp_path, monkeypatch)
    op = next(op for op, _, _ in rounds.first if op.argv[2] == "dh_intelligent" and op.argv[6] == "16")
    assert failures_of(op) == []
    swapped = [a if a != "dh_intelligent" else "ap_intelligent" for a in op.argv]
    assert call(swapped)[0] == 0
    _rewrite(op.out, lambda r: dataclasses.replace(r, scheme="dh_intelligent"))
    assert any("errors, too" in f for f in failures_of(op))


def test_a_bound_below_the_exact_value_is_rejected(tmp_path, monkeypatch):
    rounds = quick_round("analytic_curves", tmp_path, monkeypatch)
    op = next(op for op, _, _ in rounds.first if op.argv[:3] == ("analytic", "--scheme", "dh_intelligent"))
    assert failures_of(op) == []
    rows = cli.read_rows(op.out)
    exact = {(r.n, r.snr_db): r.value for r in rows if r.metric == "sep_exact"}
    victim = next(r for r in rows if r.metric == "sep_bound" and exact[(r.n, r.snr_db)] > 1e-3)
    _rewrite(op.out, lambda r: dataclasses.replace(r, value=0.9 * exact[(r.n, r.snr_db)]) if r == victim else r)
    assert any("sep_bound < sep_exact" in f for f in failures_of(op))


def test_a_wrong_compare_gap_and_a_wrong_blind_curve_are_rejected(tmp_path, monkeypatch):
    rounds = quick_round("analytic_curves", tmp_path, monkeypatch)
    op, _, stdout = next(d for d in rounds.first if d[0].argv[0] == "compare")
    assert failures_of(op, stdout) == []
    assert failures_of(op, f"{float(stdout) + 0.01:.6f}\n")

    op = next(op for op, _, _ in rounds.first if op.argv[:3] == ("analytic", "--scheme", "ap_blind"))
    _rewrite(op.out, lambda r: dataclasses.replace(r, value=r.value * (1 + 1e-6)) if r.metric == "sep_exact" else r)
    assert any("closed form" in f for f in failures_of(op))


def test_self_time_subtracts_the_union_of_overlapping_children():
    a = spans.Span(1, None, "montecarlo.run_sweep", 0, 0.0, 10.0)
    kids = [spans.Span(2, 1, "rng.x", 1, 1.0, 4.0), spans.Span(3, 1, "rng.x", 2, 3.0, 6.0),
            spans.Span(4, 1, "rng.x", 1, 8.0, 12.0)]
    own = spans.self_times([a, *kids])
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert spans.layer_self_s([a, *kids]) == pytest.approx({"montecarlo": 3.0, "rng": 10.0})


def test_a_traced_round_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    workload = WORKLOADS["mary_n64"]
    monkeypatch.setenv("RIS_LINKLAB_THREADS", "1")
    rounds = Rounds(workload, 5, tmp_path, quick=True)
    recorder, probe = spans.Recorder(), spans.Recorder()
    with spans.installed(recorder, cli, analytic, rng):
        rounds.run(0.0)
    with spans.installed(probe, cli, analytic, rng):
        layers.run_probes(cli)
    assert rng.RngStream.generator.__name__ == "generator"  # wrappers removed
    values = layers.layer_metrics(recorder.spans, 1, probe.spans)
    declared = set(declared_units(trace=True))
    assert set(values) == declared - {"setup.import_s", "setup.first_call_s", "trace.overhead_s"}
    assert all(v > 0 for v in values.values()), values
    assert values["montecarlo.chunk_yield"] == 1.0  # one worker computes no speculative chunk
    assert rounds.check() == []


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mary_n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
