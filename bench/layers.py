"""Per-layer metrics from the spans of a traced run.

Totals (`rng.streams`, `rng.draw_s`, `montecarlo.trials`, ...) are per
round of the workload.  `rng.draw_s` counts every rng span: the draws and
the creation of each chunk's generator.  A layer the workload's rounds never
call (the simulator on analytic_curves; bounds and inversions on the
simulator workloads) is reported from the probe set instead, which every
traced run also executes, so that every metric is measured on every
workload.  The `montecarlo.chunk_ms.*` and `montecarlo.self_ms.*` metrics
always come from the probes: single-chunk `run_sweep` calls on the
workloads' configurations.
"""

from __future__ import annotations

import statistics

from spans import Span, layer_self_s, self_times

CHUNK_PROBE_REPEATS = 3
# (scheme, N, M): each scheme at its workload's largest N (fig7_blind) or M
# (mary_n64), and the intelligent schemes again at M = 4 for the detector's cost.
CHUNK_PROBES = (
    ("dh_blind", 64, 2),
    ("ap_blind", 64, 2),
    ("dh_intelligent", 64, 64),
    ("ap_intelligent", 64, 64),
    ("dh_intelligent", 64, 4),
    ("ap_intelligent", 64, 4),
)
PROBE_SNR_DB = {"dh_blind": 10.0, "ap_blind": 10.0, "dh_intelligent": -15.0, "ap_intelligent": -10.0}

SEP = ("analytic.sep_mpsk", "analytic.sep_mqam")


def run_probes(cli) -> None:
    """Single-chunk sweeps and a small analytic job, through the cli module.

    Run it once untraced first: a workload that never called a layer has not
    paid that layer's first-call costs (node tables, the scipy.optimize import).
    """
    from ris_linklab.schemes import Scheme

    for scheme, n, m in CHUNK_PROBES:
        for seed in range(CHUNK_PROBE_REPEATS):
            cli.simulation_rows(Scheme(scheme), n, m, [PROBE_SNR_DB[scheme]], seed, 10_000, 10**9)
    cli.analytic_rows(Scheme.DH_INTELLIGENT, 64, 16, [-20.0 + 0.5 * k for k in range(21)], include_bound=True)
    cli.compare(Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT, 2, 1e-5, 64)


def _simulator(spans: list[Span], rounds: int) -> dict[str, float]:
    own = self_times(spans)
    streams = [s for s in spans if s.name == "rng.generator"]
    draws = [s for s in spans if s.layer == "rng"]
    sweeps = [s for s in spans if s.name == "montecarlo.run_sweep"]
    values = sum(s.attrs.get("values", 0) for s in draws)
    chunk_size = sweeps[0].attrs["chunk_size"]
    draw_s = sum(s.duration for s in draws)
    trials = sum(s.attrs["trials"] for s in sweeps)
    return {
        "rng.streams": len(streams) / rounds,
        "rng.values_per_trial": values / (len(streams) * chunk_size),
        "rng.draw_s": draw_s / rounds,
        "rng.ns_per_value": draw_s / values * 1e9,
        "rng.bytes_per_chunk": sum(s.attrs.get("bytes", 0) for s in draws) / len(streams),
        "montecarlo.trials": trials / rounds,
        "montecarlo.chunk_yield": sum(s.attrs["chunks"] for s in sweeps) / len(streams),
        "montecarlo.trials_per_s": trials / sum(s.duration for s in sweeps),
        "montecarlo.kernel_self_s": sum(own[s.id] for s in sweeps) / rounds,
    }


def _analytic_groups(spans: list[Span]) -> dict[str, list[Span]]:
    inverts = {s.id for s in spans if s.name == "analytic.required_snr_db"}
    seps = [s for s in spans if s.name in SEP]
    return {
        "outer": [s for s in seps if s.parent not in inverts],
        "inner": [s for s in seps if s.parent in inverts],
        "bound": [s for s in spans if s.name == "analytic.sep_upper_bound"],
        "invert": [s for s in spans if s.name == "analytic.required_snr_db"],
        "all": [s for s in spans if s.layer == "analytic"],
    }


def _analytic(spans: list[Span], rounds: int, probe: list[Span]) -> dict[str, float]:
    mine, fallback = _analytic_groups(spans), _analytic_groups(probe)

    def use(kind):  # the workload's spans of this kind per round, else the probe set's
        return (mine[kind], rounds) if mine[kind] else (fallback[kind], 1)

    outer, outer_rounds = use("outer")
    invert, _ = use("invert")
    inner, _ = use("inner")
    everything, all_rounds = use("all")
    return {
        "analytic.sep_points": len(outer) / outer_rounds,
        "analytic.sep_us": statistics.fmean([s.duration for s in outer]) * 1e6,
        "analytic.bound_us": statistics.fmean([s.duration for s in use("bound")[0]]) * 1e6,
        "analytic.invert_evals": len(inner) / len(invert),
        "analytic.invert_ms": statistics.fmean([s.duration for s in invert]) * 1e3,
        "analytic.self_s": sum(self_times(everything).values()) / all_rounds,
    }


def _chunk_probes(probe: list[Span]) -> dict[str, float]:
    own = self_times(probe)
    by_config: dict[tuple, list[Span]] = {}
    for s in probe:
        if s.name == "montecarlo.run_sweep":
            by_config.setdefault((s.attrs["scheme"], s.attrs["n"], s.attrs["m"]), []).append(s)
    out = {}
    for scheme, n, m in CHUNK_PROBES[:4]:
        out[f"montecarlo.chunk_ms.{scheme}"] = statistics.median(
            s.duration for s in by_config[(scheme, n, m)]) * 1e3
    for m in (4, 64):
        out[f"montecarlo.self_ms.m{m}"] = statistics.fmean([
            statistics.median(own[s.id] for s in by_config[(scheme, 64, m)])
            for scheme in ("dh_intelligent", "ap_intelligent")
        ]) * 1e3
    return out


def layer_metrics(spans: list[Span], rounds: int, probe: list[Span]) -> dict[str, float]:
    """Every per-layer metric except setup.* and trace.overhead_s."""
    simulated = any(s.name == "rng.generator" for s in spans)
    metrics = _simulator(spans, rounds) if simulated else _simulator(probe, 1)
    metrics.update(_chunk_probes(probe))
    metrics.update(_analytic(spans, rounds, probe))
    writes = [s for s in spans if s.name == "cli.write_rows"]
    metrics["cli.csv_rows"] = sum(s.attrs["rows"] for s in writes) / rounds
    metrics["cli.csv_bytes"] = sum(s.attrs["bytes"] for s in writes) / rounds
    metrics["cli.csv_write_s"] = sum(s.duration for s in writes) / rounds
    metrics["cli.self_s"] = layer_self_s(spans).get("cli", 0.0) / rounds
    return metrics
