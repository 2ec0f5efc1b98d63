"""The ris-linklab benchmark: time to a figure's curves through the in-process CLI.

    python3 bench/run.py --workload <fig7_blind|mary_n64|analytic_curves> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from src/.
One run:

1. this process imports the program and runs the workload's warm-up calls;
2. rounds of the workload's CLI calls, all on the same inputs, until their
   wall time reaches --seconds (whole rounds only).  wall_s and cpu_s sum,
   over the calls of a round, the least time each call took in any round;
3. between rounds, SETUP_SAMPLES fresh interpreters in turn import
   ris_linklab.cli and run the warm-up calls; setup_s is the median of their
   sums;
4. round 0's CSVs are read back and checked (checks.py), and every later
   round must have written the same bytes;
5. the last line of stdout is the result as JSON.

With --trace 1, untraced and traced rounds alternate for --seconds, then
the probe set runs traced (layers.py).  The result holds the per-layer
metrics; trace.overhead_s is wall_s over the traced rounds less wall_s over
the untraced ones.  The spans of the first traced round and of the probes,
and each layer's self time per round, go to
.bench_out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, call  # the program itself is imported later, from src/

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 60


def _cpu_s() -> float:
    return time.process_time()  # user + system time of every thread of this process


def input_seed(seed: int) -> int:
    """The seed handed to the program (simulator seed, analytic grid shift), from --seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def setup_sample(workload: str, scratch: Path) -> dict:
    """Set-up time of one fresh interpreter (setup_probe.py)."""
    out = scratch / f"setup{len(list(scratch.glob('setup*')))}"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(out)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Rounds:
    """Repeats the workload's round, the same CLI calls on the same inputs,
    and keeps each call's wall and CPU time.

    Round 0's outputs are kept for the checks; every later round must write
    the same bytes (and print the same gaps), which it is checked for and
    then deleted.
    """

    def __init__(self, workload, seed: int, scratch: Path, quick: bool = False) -> None:
        self.workload = workload
        self.inputs = input_seed(seed)
        self.scratch = scratch
        self.quick = quick
        self.first = []  # round 0: (op, exit code, stdout) per call
        self.times: list[list[tuple[float, float]]] = []  # per round, per call: (wall s, cpu s)
        self.failed = 0
        self.mismatches: list[str] = []

    def run(self, seconds: float, between=None) -> None:
        """Whole rounds until their summed wall time reaches `seconds` (at least
        one), calling `between()` after each round, outside the timed calls."""
        start = self.spent
        while True:
            index = len(self.times)
            out = self.scratch / f"round{index}"
            out.mkdir()
            results, times = [], []
            for op in self.workload.ops(self.inputs, out, self.quick):
                t0, c0 = time.perf_counter(), _cpu_s()
                try:
                    rc, stdout = call(op.argv)
                except Exception:  # a crashed call is a failed operation, not a crashed run
                    traceback.print_exc(file=sys.stderr)
                    rc, stdout = -1, ""
                times.append((time.perf_counter() - t0, _cpu_s() - c0))
                results.append((op, rc, stdout))
            self.times.append(times)
            self.failed += sum(rc != 0 for _, rc, _ in results)
            if index == 0:
                self.first = results
            else:
                self._compare(index, results)
                shutil.rmtree(out)
            if between is not None:
                between()
            if self.spent - start >= seconds:
                return

    def _compare(self, index: int, results) -> None:
        for (op0, rc0, stdout0), (op, rc, stdout) in zip(self.first, results):
            if rc0 != 0 or rc != 0:
                continue
            same = op.out.read_bytes() == op0.out.read_bytes() if op.out else stdout == stdout0
            if not same:
                self.mismatches.append(f"round {index}: {' '.join(op.argv)} gave other output than round 0")

    @property
    def spent(self) -> float:
        """Summed wall time of every call so far."""
        return sum(wall for times in self.times for wall, _ in times)

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.times)

    def best(self, column: int, which: slice = slice(None)) -> float:
        """Sum over the calls of the least time (0: wall, 1: cpu) each took in
        the rounds `which` selects.

        Each call's best is taken because on a shared host other load can slow
        a call by up to half for seconds at a time: a median over rounds moves
        with that load, the least time of a repeated call much less.
        """
        rounds = self.times[which]
        return sum(min(r[i][column] for r in rounds) for i in range(len(rounds[0])))

    def check(self) -> list[str]:
        """Failures of the checks on round 0's successful calls, and of the repeats."""
        from checks import Findings, binomial_failures

        findings = Findings()
        for op, rc, stdout in self.first:
            if rc == 0:
                findings.extend(op.check(op.out, stdout))
            else:
                print(f"failed ({rc}): {' '.join(op.argv)}", file=sys.stderr)
        return findings.failures + binomial_failures(findings.samples) + self.mismatches


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _timed(rounds: Rounds, seconds: float, sample_setup) -> dict[str, float]:
    # Peak memory through set-up and the first round: later rounds repeat the
    # same calls, and on two workers the allocator's per-thread arenas now and
    # then keep ~30 MB more of a freed chunk, so a high-water mark over many
    # rounds would count such events.
    rounds.run(0.0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds.run(seconds - rounds.spent, sample_setup)
    setup = sample_setup(finish=True)
    return {
        "setup_s": statistics.median(s["import_s"] + s["first_call_s"] for s in setup),
        "wall_s": rounds.best(0),
        "cpu_s": rounds.best(1),
        "peak_rss_mb": peak_mb,
    }


def _traced(rounds: Rounds, seconds: float, sample_setup, trace_path: Path) -> dict[str, float]:
    import layers
    import spans
    from ris_linklab import analytic, cli, rng

    recorder, probe = spans.Recorder(), spans.Recorder()
    first_round = 0
    while True:  # untraced and traced rounds alternate, so drift hits both alike
        rounds.run(0.0, sample_setup)
        with spans.installed(recorder, cli, analytic, rng):
            rounds.run(0.0, sample_setup)
        first_round = first_round or len(recorder.spans)
        if rounds.spent >= seconds:
            break
    traced = len(rounds.times) // 2
    setup = sample_setup(finish=True)
    os.environ["RIS_LINKLAB_THREADS"] = "1"
    layers.run_probes(cli)
    with spans.installed(probe, cli, analytic, rng):
        layers.run_probes(cli)
    values = layers.layer_metrics(recorder.spans, traced, probe.spans)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    values["setup.first_call_s"] = statistics.median(s["first_call_s"] for s in setup)
    values["trace.overhead_s"] = rounds.best(0, slice(1, None, 2)) - rounds.best(0, slice(0, None, 2))
    trace_path.write_text(json.dumps({
        "layer_self_s": {k: v / traced for k, v in spans.layer_self_s(recorder.spans).items()},
        "metrics": values,
        "spans": spans.to_json(recorder.spans[:first_round]),
        "probe_spans": spans.to_json(probe.spans),
    }))
    return values


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[name]
    out_dir = ROOT / ".bench_out"
    scratch = out_dir / f"{name}-seed{seed}-pid{os.getpid()}"
    scratch.mkdir(parents=True)
    setup = []

    def sample_setup(finish: bool = False) -> list[dict]:
        """One more set-up sample (called between rounds), or all that are missing."""
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(name, scratch))
            if not finish:
                break
        return setup

    try:
        sample_setup()
        os.environ["RIS_LINKLAB_THREADS"] = str(workload.threads)
        warm = scratch / "warm"
        warm.mkdir()
        for argv in workload.warmup(warm):
            rc, _ = call(argv)
            if rc != 0:
                raise RuntimeError(f"warm-up call {argv} exited {rc}")
        rounds = Rounds(workload, seed, scratch)
        if trace:
            values = _traced(rounds, seconds, sample_setup, out_dir / f"trace-{name}-seed{seed}.json")
        else:
            values = _timed(rounds, seconds, sample_setup)
        failures = rounds.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    return {
        "correct": not failures,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(values.items())},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ris_linklab" / "cli.py").is_file():
        print(f"error: no ris_linklab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
