"""Tests for the sweep engine: determinism, stopping, statistical fidelity."""

import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import k0
from scipy.stats import beta, chi2, norm

from ris_linklab.analytic import AnalyticModel, db_to_linear, sep_mpsk
from ris_linklab.modulation import ConstellationKind, _slice_phase, build_constellation, detect_axes, detect_ml
from ris_linklab.montecarlo import (
    WORKERS_ENV_VAR,
    SweepPoint,
    SweepSpec,
    confidence_interval,
    run_sweep,
)
from ris_linklab.montecarlo import _chunk_counts, _resolve_workers
from ris_linklab.rng import RAYLEIGH_SCALE, RngStream
from ris_linklab.schemes import _LEGS, Scheme, SchemeConfig, _link_kind, draw_gains

import gray_labels
import per_element
from bench.oracles import qfunc


def make_spec(scheme, n, grid, order=2, **kwargs):
    const = build_constellation(_link_kind(scheme, order), order)
    config = SchemeConfig(scheme=scheme, n_reflectors=n, constellation=const)
    return SweepSpec(config=config, snr_grid_db=tuple(grid), **kwargs)


def cascaded_rayleigh_ber(snr: float) -> float:
    """True binary error probability of a single cascaded Rayleigh link.

    gamma = X*Y*snr with X, Y ~ Exp(1); the product has density
    2*K0(2*sqrt(t)), integrated here directly as an independent oracle.
    """
    integrand = lambda u: qfunc(np.sqrt(2.0 * snr) * u) * 4.0 * u * k0(2.0 * u)
    value, _ = quad(integrand, 0.0, 40.0, limit=300)
    return value


class TestDeterminism:
    def test_repeat_run_identical(self):
        spec = make_spec(Scheme.DH_BLIND, 4, [0.0, 5.0], max_trials=50_000, min_errors=100, seed=9)
        assert run_sweep(spec) == run_sweep(spec)

    @pytest.mark.parametrize("workers", [4, 16])
    def test_worker_count_invariance(self, workers):
        spec = make_spec(
            Scheme.AP_BLIND, 8, [-5.0, 0.0, 5.0], max_trials=60_000, min_errors=150, seed=3
        )
        assert run_sweep(spec, workers=1) == run_sweep(spec, workers=workers)

    def test_env_var_caps_workers(self, monkeypatch):
        spec = make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=30_000, min_errors=50, seed=5)
        baseline = run_sweep(spec, workers=1)
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert run_sweep(spec, workers=16) == baseline
        assert run_sweep(spec) == baseline

    @pytest.mark.parametrize("env, expected", [(None, 6), ("2", 2), ("8", 6)])
    def test_default_workers_are_the_usable_cores(self, monkeypatch, env, expected):
        """RIS_LINKLAB_THREADS caps the core count; it does not raise it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        if env is None:
            monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(WORKERS_ENV_VAR, env)
        assert _resolve_workers(None) == expected

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_worker_counts_below_one(self, workers):
        spec = make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=10_000, seed=5)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(spec, workers=workers)

    def test_seed_changes_results(self):
        grid = [0.0]
        a = run_sweep(make_spec(Scheme.DH_BLIND, 2, grid, max_trials=20_000, min_errors=5000, seed=1))
        b = run_sweep(make_spec(Scheme.DH_BLIND, 2, grid, max_trials=20_000, min_errors=5000, seed=2))
        assert a != b


@st.composite
def small_specs(draw):
    """Small sweeps of every scheme and valid order, budgets of 1-3 chunks."""
    scheme = draw(st.sampled_from(list(Scheme)))
    if scheme.is_access_point:
        kind, order = ConstellationKind.PSK, draw(st.sampled_from([2, 4, 8, 16, 64]))
    else:
        kind, order = draw(st.sampled_from([
            (ConstellationKind.PSK, 2), (ConstellationKind.PSK, 8),
            (ConstellationKind.QAM, 4), (ConstellationKind.QAM, 16), (ConstellationKind.QAM, 64),
        ]))
    config = SchemeConfig(scheme, draw(st.integers(1, 8)), build_constellation(kind, order))
    grid = draw(st.lists(st.integers(-20, 30), min_size=1, max_size=3, unique=True))
    chunk_size = draw(st.integers(1, 500))
    chunks = draw(st.integers(1, 3))
    return SweepSpec(
        config=config,
        snr_grid_db=tuple(sorted(float(v) for v in grid)),
        max_trials=draw(st.integers(max(chunks - 1, 1) * chunk_size, chunks * chunk_size)),
        min_errors=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
        chunk_size=chunk_size,
    )


class TestWorkerInvarianceProperty:
    @given(spec=small_specs())
    # the fixture only clears the worker cap, which holds across examples
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_two_workers_match_one(self, spec, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert run_sweep(spec, 1) == run_sweep(spec, 2)


class TestStoppingRule:
    def test_stops_after_min_errors(self):
        # at -5 dB the blind link errs every few symbols; one chunk suffices
        spec = make_spec(Scheme.DH_BLIND, 2, [-5.0], max_trials=1_000_000, min_errors=100, seed=0)
        (point,) = run_sweep(spec)
        assert point.symbol_errors >= 100
        assert point.trials == spec.chunk_size

    def test_exhausts_max_trials_when_error_free(self):
        spec = make_spec(
            Scheme.DH_INTELLIGENT, 64, [0.0], max_trials=20_000, min_errors=10, seed=0
        )
        (point,) = run_sweep(spec)  # at 0 dB with N=64 errors are ~e^-2500
        assert point.trials == 20_000
        assert point.symbol_errors == 0

    def test_partial_final_chunk(self):
        spec = make_spec(
            Scheme.DH_INTELLIGENT, 64, [0.0], max_trials=25_000, min_errors=10, seed=0
        )
        (point,) = run_sweep(spec)
        assert point.trials == 25_000


class TestZeroNoiseHook:
    def test_noiseless_path_is_error_free(self):
        """In the zero-noise limit (N0 = 1e-30) the receiver path makes no error."""
        for scheme in (Scheme.DH_INTELLIGENT, Scheme.DH_BLIND, Scheme.AP_INTELLIGENT, Scheme.AP_BLIND):
            spec = make_spec(
                scheme, 4, [300.0], order=4 if scheme.is_access_point else 2,
                max_trials=10_000, min_errors=1, seed=1,
            )
            (point,) = run_sweep(spec)
            assert point.trials == 10_000
            assert point.symbol_errors == 0 and point.bit_errors == 0


def random_phases(seed: int, shape) -> np.ndarray:
    """exp(-j * phase), phases uniform on [0, 2 pi), from a stream apart from the kernel's."""
    return np.exp(-2j * np.pi * RngStream(seed, 1).generator().random(shape))


BLOCK_VALUES = 65536  # values per leg in one block of draw_gains' intelligent draws


def lattice_exponentials(rng, shape):
    """Exp(1) legs of the documented law, in float64: each raw word gives
    two uint32 values, low half first (see ``per_element.lattice_legs``)."""
    values = int(np.prod(shape))
    words = rng.bit_generator.random_raw((values + 1) // 2)
    return per_element.lattice_legs(words.astype("<u8").view("<u4")[:values]).reshape(shape)


def intelligent_channel(scheme, n, seed):
    """A replay's draw_channel for an intelligent scheme: the amplitudes in
    the documented order (row blocks of max(1, 65536 // N) rows, each one
    block of raw words giving sqrt(Exp(1)) for alpha, then for beta), with
    random channel phases.  AP intelligent draws beta only, and h is then 1."""
    legs = 2 if scheme is Scheme.DH_INTELLIGENT else 1

    def draw_channel(rng, trials):
        rows = max(1, BLOCK_VALUES // n)
        blocks = [
            np.sqrt(lattice_exponentials(rng, (legs, min(rows, trials - start), n)))
            for start in range(0, trials, rows)
        ]
        phases = random_phases(seed, (legs, trials, n))
        h_g = np.concatenate(blocks, axis=1) * phases
        return tuple(h_g) if legs == 2 else (np.ones((trials, n)), h_g[0])

    return draw_channel


def kernel_symbols(rng, order, trials):
    """The kernel's symbol draw: one 32-bit half of a raw 64-bit word per
    symbol, the low half of each word first, taken mod M (M is a power of
    two, so that is its low log2(M) bits); the last word's high half is
    unused when ``trials`` is odd."""
    words = rng.bit_generator.random_raw((trials + 1) // 2)
    return words.astype("<u8").view("<u4")[:trials] % order


def receiver_noise(rng, order, trials, snr_db):
    """The kernel's noise draws, scaled by sqrt(N0): at M = 2 one real block
    of N(0, 1/2) values, the real part of CN(0, 1); otherwise CN(0, 1)."""
    if order == 2:
        noise = rng.standard_normal(trials) * RAYLEIGH_SCALE
    else:
        noise = per_element.standard_complex_normal(rng, trials)
    return noise * np.sqrt(10.0 ** (-snr_db / 10.0))


class TestKernelMatchesScalarPath:
    """The vectorized chunk kernel agrees with the per-element oracle.

    Each test replays one chunk's documented draw order: it turns the
    kernel's gain draws into a per-element channel (h, g) that carries that
    gain's amplitude, draws the symbols and the noise, forms the received
    samples from the oracle's reflector phases and cascaded sum, and
    detects them with the batched ``detect_ml`` against the oracle's
    composite gain.  The kernel works in the frame of the gain, so the
    replay's noise is the kernel's noise turned by the gain's phase:
    ``n g / |g|``, which has the law of n when n is circular.
    """

    TRIALS = 400

    def replay(self, scheme, n, order, snr_db, seed, draw_channel, trials=TRIALS):
        stream = RngStream(seed, 0)
        config = make_spec(scheme, n, [snr_db], order=order).config
        sym, bit = _chunk_counts(config, snr_db, stream, trials)
        rng = stream.generator()
        h, g = draw_channel(rng, trials)
        tx = kernel_symbols(rng, order, trials)
        gain = per_element.gain(scheme, h, g)
        noise = receiver_noise(rng, order, trials, snr_db) * np.exp(1j * np.angle(gain))
        const = config.constellation
        received = per_element.received(scheme, h, g, const, tx, noise)
        rx = detect_ml(received, gain, const)
        assert 0 < sym < trials
        assert (sym, bit) == (np.count_nonzero(rx != tx), gray_labels.distance_table(const)[tx, rx].sum())

    @pytest.mark.parametrize("scheme", [Scheme.DH_BLIND, Scheme.AP_BLIND])
    def test_complex_channel_schemes(self, scheme):
        """Blind schemes at M = 2 and 16: the amplitude draws (DH: Gamma(N, 1),
        then Exp(1); AP: Exp(1)) with a random phase, then symbols, then noise."""
        n, seed = 6, 21

        def draw_channel(rng, trials):
            phase = random_phases(seed + 1, (trials, 1))
            if scheme is Scheme.AP_BLIND:  # g_i = sqrt(E / N) e^(j phase), so |sum(g_i)| = sqrt(N E)
                e = rng.standard_exponential((trials, 1))
                return np.ones((trials, n)), np.repeat(np.sqrt(e / n) * phase, n, axis=1)
            # |g|^2 = X, and h = sqrt(E) e^(j phase) conj(g) / |g|: |sum(h_i g_i)| = sqrt(X E)
            x = rng.standard_gamma(n, (trials, 1))
            e = rng.standard_exponential((trials, 1))
            g = np.sqrt(x / n) * random_phases(seed, (trials, n))
            return np.sqrt(e / x) * phase * np.conj(g), g

        for order, snr_db in ((2, 2.0), (16, 14.0)):
            self.replay(scheme, n, order, snr_db, seed, draw_channel)

    def test_amplitude_sampled_scheme(self):
        """DH intelligent: the amplitude draws, with random channel phases."""
        self.replay(Scheme.DH_INTELLIGENT, 5, 2, -12.0, 33, intelligent_channel(Scheme.DH_INTELLIGENT, 5, 33))

    def test_ap_amplitude_sampled_scheme(self):
        """AP intelligent: one amplitude block, with random channel phases."""
        self.replay(Scheme.AP_INTELLIGENT, 5, 4, -14.0, 35, intelligent_channel(Scheme.AP_INTELLIGENT, 5, 35))

    @pytest.mark.parametrize("scheme, order", [(Scheme.DH_INTELLIGENT, 2), (Scheme.AP_INTELLIGENT, 4)])
    def test_chunk_longer_than_one_draw_block(self, scheme, order):
        """N = 64 over 2500 trials: two whole blocks of 1024 rows, then 452 rows."""
        n, seed = 64, 39
        self.replay(scheme, n, order, -38.0, seed, intelligent_channel(scheme, n, seed), trials=2500)

    def test_blocked_surface_ties_to_lowest_index(self, monkeypatch):
        """A zero gain makes every hypothesis tie: the kernel decides index 0."""
        import ris_linklab.montecarlo as mc

        blocked = lambda scheme, n, rng, trials, out=None, work=None: np.zeros(trials)
        monkeypatch.setattr(mc, "draw_gains", blocked)
        for scheme, order in ((Scheme.DH_INTELLIGENT, 16), (Scheme.AP_BLIND, 8)):
            stream = RngStream(37, 0)
            config = make_spec(scheme, 3, [0.0], order=order).config
            sym, bit = _chunk_counts(config, 0.0, stream, self.TRIALS)
            tx = kernel_symbols(stream.generator(), order, self.TRIALS)  # the stand-in draws nothing
            table = gray_labels.distance_table(config.constellation)
            assert (sym, bit) == (np.count_nonzero(tx), table[tx, 0].sum())

    @pytest.mark.parametrize("scheme, snrs_db", [
        (Scheme.DH_INTELLIGENT, (-16.0, -10.0, -4.0)),
        (Scheme.AP_INTELLIGENT, (-14.0, -8.0, -2.0)),
        (Scheme.DH_BLIND, (0.0, 10.0, 20.0)),
        (Scheme.AP_BLIND, (0.0, 10.0, 20.0)),
    ])
    def test_binary_counts_match_the_angle_slicer(self, scheme, snrs_db):
        """BPSK chunks: the kernel's counts equal those of the general M-PSK
        slicer, z = r / g quantised by angle, on the same draws (the gains
        of ``draw_gains``, then the symbols, then the noise)."""
        n, trials = 4, 10_000
        config = make_spec(scheme, n, [0.0]).config
        const = config.constellation
        for k, snr_db in enumerate(snrs_db):
            stream = RngStream(41, k)
            rng = stream.generator()
            gain = draw_gains(scheme, n, rng, trials)
            tx = kernel_symbols(rng, 2, trials)
            noise = per_element.standard_complex_normal(rng, trials) * np.sqrt(10.0 ** (-snr_db / 10.0))
            z = (gain * const.points[tx] + noise) / gain
            rx = _slice_phase(z.real, z.imag, 2)
            sym, bit = _chunk_counts(config, snr_db, stream, trials)
            assert 0 < sym < trials, snr_db
            assert (sym, bit) == (np.count_nonzero(rx != tx), gray_labels.distance_table(const)[tx, rx].sum())

    @pytest.mark.parametrize("scheme, snr_db", [
        (Scheme.DH_INTELLIGENT, -10.0),
        (Scheme.AP_INTELLIGENT, -8.0),
        (Scheme.DH_BLIND, 10.0),
        (Scheme.AP_BLIND, 10.0),
    ])
    def test_binary_chunk_ends_with_the_real_noise_block(self, scheme, snr_db):
        """At M = 2 a chunk draws the gains, the symbols and one real noise
        block, the real block of the two drawn at M > 2, and nothing after
        it: its counts equal those decided on the real part of
        ``per_element.standard_complex_normal`` noise, and its generator's
        next words are those a replay's generator draws after the real block."""
        n, trials = 4, 10_000
        generators = []

        class Recorded(RngStream):
            def generator(self):
                generators.append(super().generator())
                return generators[-1]

        config = make_spec(scheme, n, [snr_db]).config
        const = config.constellation
        sym, bit = _chunk_counts(config, snr_db, Recorded(43, 0), trials)
        rng = RngStream(43, 0).generator()
        gain = draw_gains(scheme, n, rng, trials)
        tx = kernel_symbols(rng, 2, trials)
        after_symbols = rng.bit_generator.state
        noise = per_element.standard_complex_normal(rng, trials).real * np.sqrt(10.0 ** (-snr_db / 10.0))
        rx = detect_ml(gain * const.points.real[tx] + noise, gain, const)
        assert 0 < sym < trials
        assert (sym, bit) == (np.count_nonzero(rx != tx), gray_labels.distance_table(const)[tx, rx].sum())
        rng.bit_generator.state = after_symbols
        rng.standard_normal(trials)
        next_words = [g.bit_generator.random_raw(4) for g in (generators[0], rng)]
        assert np.array_equal(*next_words)

    @pytest.mark.parametrize("scheme, order", [
        (Scheme.DH_INTELLIGENT, 2), (Scheme.AP_INTELLIGENT, 4), (Scheme.DH_BLIND, 16), (Scheme.AP_BLIND, 64),
    ])
    def test_symbols_are_the_low_bits_of_the_half_words_after_the_gains(self, monkeypatch, scheme, order):
        """A chunk draws the gains, then one raw 32-bit half-word per symbol,
        then the noise, and nothing after it: the received axes it detects
        equal, bit for bit, the real and imaginary parts of the samples
        formed from symbols that are the low log2(M) bits of the half-words
        drawn right after the gains (low half of each word first), and its
        generator's next words are those after the noise.  At M = 2 only I
        is formed.  An odd trial count leaves the last word's high half
        unused."""
        import ris_linklab.montecarlo as mc

        n, trials, snr_db = 4, 999, 10.0
        detected, generators = [], []

        def recorded(i, q, gain, const):
            detected.append((i.copy(), q.copy()))
            return detect_axes(i, q, gain, const)

        class Recorded(RngStream):
            def generator(self):
                generators.append(super().generator())
                return generators[-1]

        monkeypatch.setattr(mc, "detect_axes", recorded)
        config = make_spec(scheme, n, [snr_db], order=order).config
        _chunk_counts(config, snr_db, Recorded(45, 0), trials)
        rng = RngStream(45, 0).generator()
        gain = draw_gains(scheme, n, rng, trials)
        words = rng.bit_generator.random_raw((trials + 1) // 2)
        tx = words.astype("<u8").view("<u4")[:trials] & (order - 1)
        noise = receiver_noise(rng, order, trials, snr_db)
        received = gain * config.constellation.points[tx] + noise
        i, q = detected[0]
        assert np.array_equal(i, received.real)
        assert order == 2 or np.array_equal(q, received.imag)
        assert np.array_equal(*(g.bit_generator.random_raw(4) for g in (generators[0], rng)))


def complex_chunk_counts(config, snr_db, stream, trials, gains=draw_gains):
    """Reference M > 2 kernel: the complex pipeline the simulator ran before
    it kept the received sample as two real axes.  The same draws (the gains
    of ``gains``, the symbols, then CN(0, 1) noise times sqrt(N0)), then
    complex received samples ``g s + n`` and ``detect_ml``, which slices the
    complex quotient ``r / g``."""
    rng = stream.generator()
    const = config.constellation
    gain = gains(config.scheme, config.n_reflectors, rng, trials)
    tx = kernel_symbols(rng, const.order, trials)
    noise = per_element.standard_complex_normal(rng, trials)
    noise *= np.sqrt(10.0 ** (-snr_db / 10.0))
    received = gain * const.points[tx]
    received += noise
    rx = detect_ml(received, gain, const)
    wrong = np.flatnonzero(rx != tx)
    return len(wrong), int(gray_labels.distance_table(const)[tx[wrong], rx[wrong]].sum())


class TestRealKernelMatchesTheComplexPipeline:
    """At M > 2 the real-axis kernel counts, chunk for chunk, what the
    complex reference kernel counts on the same stream: square QAM on
    dh_intelligent and dh_blind, M-PSK on ap_intelligent and ap_blind, at
    N = 1, 4 and 64, over chunks of 999 and 10 000 trials, and again with
    every 7th gain forced to 0 (a blocked surface, which decides 0).  Each
    chunk's SNR puts the mean received SNR at TARGET_DB[M], so the chunks
    see both errors and hits."""

    CHUNKS = 2
    TARGET_DB = {4: 8.0, 8: 14.0, 16: 16.0, 64: 22.0, 256: 28.0}

    @staticmethod
    def mean_square_gain(scheme, n):
        """E[g^2]: N for the blind schemes; N + N (N - 1) (pi/4)**legs for the
        intelligent ones, whose element amplitudes have mean square 1."""
        if not scheme.is_intelligent:
            return n
        return n + n * (n - 1) * (np.pi / 4) ** _LEGS[scheme]

    @pytest.mark.parametrize("n", [1, 4, 64])
    @pytest.mark.parametrize("scheme, order", [
        *((Scheme.DH_INTELLIGENT, m) for m in (4, 16, 64, 256)),
        *((Scheme.AP_INTELLIGENT, m) for m in (4, 8, 16, 64)),
        (Scheme.DH_BLIND, 16),
        (Scheme.AP_BLIND, 8),
    ])
    def test_counts_match_on_every_chunk(self, monkeypatch, scheme, order, n):
        import ris_linklab.montecarlo as mc

        def blocked(*args, **kwargs):
            gain = draw_gains(*args, **kwargs)
            gain[::7] = 0.0
            return gain

        config = make_spec(scheme, n, [0.0], order=order).config
        snr_db = self.TARGET_DB[order] - 10 * np.log10(self.mean_square_gain(scheme, n))
        for gains in (draw_gains, blocked):
            monkeypatch.setattr(mc, "draw_gains", gains)
            for trials in (999, 10_000):
                for k in range(self.CHUNKS):
                    stream = RngStream(53, k)
                    counts = _chunk_counts(config, snr_db, stream, trials)
                    assert counts == complex_chunk_counts(config, snr_db, stream, trials, gains), (trials, k)
                    assert 0 < counts[0] < trials


class TestSymbolsAreUniform:
    """The kernel's symbols are uniform over the M indices.

    The symbols of CHUNKS chunks of dh_blind at N = 4 are read back from
    the detector at 300 dB (N0 = 1e-30), where every chunk decides without
    error, and a chi-square test of their counts holds M = 2, 16 and 256
    (BPSK, 16-QAM, 256-QAM) together at a level of 1e-3 (Bonferroni).  A
    draw that missed any index, such as the upper half at ``& (M // 2 - 1)``,
    fails it at every M.
    """

    CHUNKS, TRIALS = 20, 10_000
    LEVEL = 1e-3
    ORDERS = (2, 16, 256)

    def test_chi_square(self, monkeypatch):
        import ris_linklab.montecarlo as mc

        decided = []

        def recorded(i, q, gain, const):
            decided.append(detect_axes(i, q, gain, const))
            return decided[-1]

        monkeypatch.setattr(mc, "detect_axes", recorded)
        pvalues = {}
        for order in self.ORDERS:
            config = make_spec(Scheme.DH_BLIND, 4, [300.0], order=order).config
            decided.clear()
            for k in range(self.CHUNKS):
                assert _chunk_counts(config, 300.0, RngStream(47, k), self.TRIALS) == (0, 0)
            counts = np.bincount(np.concatenate(decided), minlength=order)
            expected = self.CHUNKS * self.TRIALS / order
            pvalues[order] = chi2.sf(((counts - expected) ** 2 / expected).sum(), order - 1)
        rejected = {m: p for m, p in pvalues.items() if p < self.LEVEL / len(self.ORDERS)}
        assert not rejected, f"chi-square rejects uniform symbols: {rejected}"


class TestBlindAmplitudesMatchTheComplexChannel:
    """The kernel's blind amplitude draws against the full complex channel.

    For both blind schemes at N = 1 and 4 and at M = 2 and 16 (16-QAM for
    DH, 16-PSK for AP), the kernel counts symbol errors over TRIALS trials,
    and so does ``detect_ml`` on ``per_element``'s complex channel with
    complex CN(0, N0) noise, against the complex composite gain.  A
    two-sample binomial test (the z of the pooled proportion) holds the
    eight cases together at a level of 1e-3 (Bonferroni).  SNRs put the
    rates between 2e-2 and 0.15.
    """

    TRIALS = 200_000
    CHUNK = 10_000
    LEVEL = 1e-3
    SNR_DB = {(1, 2): 10.0, (4, 2): 5.0, (1, 16): 20.0, (4, 16): 15.0}  # (N, M) -> Es/N0

    def kernel_errors(self, config, snr_db):
        return sum(
            _chunk_counts(config, snr_db, RngStream(51, k), self.CHUNK)[0]
            for k in range(self.TRIALS // self.CHUNK)
        )

    def channel_errors(self, config, snr_db):
        scheme, n, const = config.scheme, config.n_reflectors, config.constellation
        rng = RngStream(52).generator()
        errors = 0
        for _ in range(self.TRIALS // self.CHUNK):
            h, g = per_element.channel(n, rng, self.CHUNK)
            tx = rng.integers(0, const.order, size=self.CHUNK)
            noise = per_element.standard_complex_normal(rng, self.CHUNK) * np.sqrt(10.0 ** (-snr_db / 10.0))
            received = per_element.received(scheme, h, g, const, tx, noise)
            errors += int(np.count_nonzero(detect_ml(received, per_element.gain(scheme, h, g), const) != tx))
        return errors

    def test_symbol_error_counts_agree(self):
        cases = [(s, n, m) for s in (Scheme.DH_BLIND, Scheme.AP_BLIND) for n in (1, 4) for m in (2, 16)]
        z_max = norm.isf(self.LEVEL / (2 * len(cases)))
        rejected = {}
        for scheme, n, order in cases:
            snr_db = self.SNR_DB[n, order]
            config = make_spec(scheme, n, [snr_db], order=order).config
            a, b = self.kernel_errors(config, snr_db), self.channel_errors(config, snr_db)
            pooled = (a + b) / (2 * self.TRIALS)
            z = (a - b) / math.sqrt(2 * self.TRIALS * pooled * (1 - pooled))
            if abs(z) >= z_max:
                rejected[scheme.value, n, order] = (a, b, round(z, 2))
        assert not rejected, f"|z| >= {z_max:.2f} (kernel errors, channel errors, z): {rejected}"


class TestWorkspace:
    """Each thread reuses one set of chunk buffers; no result may depend on
    what an earlier chunk in the same thread left in them."""

    CASES = [  # (scheme, n, order, snr_db, stream id, trials)
        (Scheme.DH_BLIND, 4, 2, 8.0, 1, 3000),
        (Scheme.DH_BLIND, 4, 2, 8.0, 2, 1234),  # a short last chunk after a longer one
        (Scheme.AP_BLIND, 16, 16, 12.0, 3, 3000),  # another scheme and another order
        (Scheme.DH_INTELLIGENT, 8, 16, -20.0, 4, 2500),  # an intelligent gain after blind ones
        (Scheme.AP_INTELLIGENT, 8, 8, -10.0, 5, 700),
        (Scheme.DH_BLIND, 16, 64, 20.0, 6, 3000),
    ]

    @staticmethod
    def counts(case):
        scheme, n, order, snr_db, stream_id, trials = case
        config = make_spec(scheme, n, [snr_db], order=order).config
        return _chunk_counts(config, snr_db, RngStream(17, stream_id), trials)

    def test_chunk_counts_do_not_depend_on_earlier_calls(self):
        fresh = []
        for case in self.CASES:
            with ThreadPoolExecutor(max_workers=1) as pool:  # a new thread: an empty workspace
                fresh.append(pool.submit(self.counts, case).result())
        assert all(0 < sym <= bit for sym, bit in fresh)
        assert [self.counts(c) for c in self.CASES] == fresh
        assert [self.counts(c) for c in reversed(self.CASES)] == fresh[::-1]


class TestStatisticalFidelity:
    def test_single_cascade_matches_exact_oracle(self):
        """N = 1 blind dual-hop is cascaded Rayleigh; compare to its true BER.

        The large-N closed form is off by 35 % and more at these SNRs for
        N = 1, so the oracle is the exact product-channel integral.
        """
        spec = make_spec(
            Scheme.DH_BLIND, 1, [0.0, 5.0, 10.0], max_trials=400_000, min_errors=2000, seed=17
        )
        for point in run_sweep(spec):
            exact = cascaded_rayleigh_ber(float(db_to_linear(point.snr_db)))
            assert abs(point.ber - exact) < 3 * point.stderr("ber")

    def test_blind_large_n_matches_closed_form(self):
        """At N = 64 the exponential-SNR closed form holds well."""
        n = 64
        spec = make_spec(
            Scheme.DH_BLIND, n, [-5.0, 0.0, 5.0], max_trials=400_000, min_errors=1500, seed=23
        )
        for point in run_sweep(spec):
            r = n * float(db_to_linear(point.snr_db))
            closed = 0.5 * (1 - np.sqrt(r / (1 + r)))
            tol = 3 * point.stderr("ber") + 0.03 * closed  # small residual CLT bias
            assert abs(point.ber - closed) < tol

    def test_ap_intelligent_matches_integral(self):
        n = 64
        spec = make_spec(
            Scheme.AP_INTELLIGENT, n, [-31.0, -29.0], order=2,
            max_trials=400_000, min_errors=1000, seed=29,
        )
        for point in run_sweep(spec):
            model = AnalyticModel(Scheme.AP_INTELLIGENT, n, float(db_to_linear(point.snr_db)))
            exact = sep_mpsk(model, 2)
            assert abs(point.ser - exact) < 3 * point.stderr("ser") + 0.03 * exact

    def test_ser_at_least_ber(self):
        spec = make_spec(
            Scheme.AP_BLIND, 8, [0.0, 6.0], order=16,
            max_trials=100_000, min_errors=500, seed=31,
        )
        for point in run_sweep(spec):
            assert point.ser >= point.ber
            assert point.bit_errors >= point.symbol_errors  # every symbol error flips >= 1 bit

    def test_gray_labels_make_ber_one_bit_per_error(self):
        """At high SNR nearly every symbol error lands on a neighbour, so
        BER approaches SER / bits_per_symbol (sanity, not acceptance)."""
        const = build_constellation(ConstellationKind.PSK, 8)
        config = SchemeConfig(scheme=Scheme.DH_BLIND, n_reflectors=64, constellation=const)
        spec = SweepSpec(
            config=config, snr_grid_db=(18.0,), max_trials=600_000, min_errors=1500, seed=41
        )
        (point,) = run_sweep(spec)
        ratio = point.ber / (point.ser / const.bits_per_symbol)
        assert 0.9 < ratio < 1.25


class TestConfidenceInterval:
    def test_zero_errors_clamps_low(self):
        """Zero errors is not certainty: the upper limit is about 3.7 / n."""
        n = 1_000_000
        lo, hi = confidence_interval(SweepPoint(0.0, n, 0, 0))
        assert lo == 0.0
        assert 3.0 / n < hi < 4.0 / n

    def test_half_width_at_half(self):
        """The exact interval's limits are the Clopper-Pearson beta quantiles."""
        point = SweepPoint(0.0, 10_000, 5_000, 5_000)
        lo, hi = confidence_interval(point, 0.95)
        assert lo == pytest.approx(beta.ppf(0.025, 5_000, 5_001), rel=1e-9)
        assert hi == pytest.approx(beta.ppf(0.975, 5_001, 5_000), rel=1e-9)
        assert (hi - lo) / 2 >= 1.959964 * 0.005  # no narrower than the normal approximation

    def test_all_errors_clamps_high(self):
        point = SweepPoint(0.0, 100, 100, 100)
        _, hi = confidence_interval(point)
        assert hi == 1.0

    def test_metric_selects_the_counts(self):
        """SER uses (symbol errors, trials), BER (bit errors, bits); any other name is an error."""
        point = SweepPoint(0.0, 100, 10, 3, 2)
        assert confidence_interval(point, metric="ser") == pytest.approx((0.04900, 0.17622), abs=1e-5)
        assert confidence_interval(point, metric="ber") == pytest.approx((0.00310, 0.04321), abs=1e-5)
        assert point.stderr("ser") == np.sqrt(0.1 * 0.9 / 100)
        assert point.stderr("ber") == np.sqrt(0.015 * 0.985 / 200)
        for metric in ("SER", "bogus"):
            with pytest.raises(ValueError, match="metric must be 'ser' or 'ber'"):
                confidence_interval(point, metric=metric)
            with pytest.raises(ValueError, match="metric must be 'ser' or 'ber'"):
                point.stderr(metric)


class TestSpecValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            make_spec(Scheme.DH_BLIND, 2, [])

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            make_spec(Scheme.DH_BLIND, 2, [0.0, 0.0])
        with pytest.raises(ValueError):
            make_spec(Scheme.DH_BLIND, 2, [5.0, 0.0])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=100, chunk_size=1000)
        with pytest.raises(ValueError):
            make_spec(Scheme.DH_BLIND, 2, [0.0], min_errors=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            make_spec(Scheme.DH_BLIND, 4, [0.0, bad], max_trials=20_000, seed=1)

    @pytest.mark.parametrize("bad", [-4000.0, 4000.0])
    def test_rejects_grid_outside_n0_range(self, bad):
        """N0 = 10**(-snr/10) overflows at -4000 dB and underflows to 0 at +4000 dB."""
        with pytest.raises(ValueError, match=r"finite, non-zero N0"):
            make_spec(Scheme.DH_BLIND, 4, sorted([0.0, bad]), max_trials=20_000, seed=1)

    def test_accepts_grid_inside_n0_range(self):
        spec = make_spec(Scheme.DH_BLIND, 1, [-3080.0, 3230.0], max_trials=10_000, min_errors=1, seed=1)
        low, high = run_sweep(spec)
        assert low.symbol_errors > 0 and high.symbol_errors == 0

    def test_rejects_grid_of_2_pow_32_points(self):
        class HugeGrid:  # has a length, but is never to be iterated
            def __len__(self):
                return 2**32

            def __iter__(self):
                raise AssertionError("grid copied before its length was checked")

        config = make_spec(Scheme.DH_BLIND, 2, [0.0]).config
        with pytest.raises(ValueError, match=r"fewer than 2\*\*32"):
            SweepSpec(config=config, snr_grid_db=HugeGrid())

    def test_rejects_2_pow_32_chunks(self):
        with pytest.raises(ValueError, match=r"fewer than 2\*\*32"):
            make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=2**32 * 10, chunk_size=10)
        with pytest.raises(ValueError, match=r"fewer than 2\*\*32"):
            make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=(2**32 - 1) * 10 + 1, chunk_size=10)
        make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=(2**32 - 1) * 10, chunk_size=10)


class TestScheduler:
    """The worker loop: the calling thread is a worker, helpers live for one
    sweep, speculation is bounded and a failing chunk ends the sweep."""

    @pytest.fixture(autouse=True)
    def uncapped(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)

    def counting_kernel(self, monkeypatch, slow_first_chunk=False):
        """Record each chunk's stream id; optionally make every point's chunk 0
        finish last, so results arrive out of index order."""
        import ris_linklab.montecarlo as mc

        calls = []
        kernel = mc._chunk_counts

        def counted(config, snr_db, stream, trials):
            calls.append(stream.stream_id)
            if slow_first_chunk and stream.stream_id % 2**32 == 0:
                time.sleep(0.05)
            return kernel(config, snr_db, stream, trials)

        monkeypatch.setattr(mc, "_chunk_counts", counted)
        return calls

    def test_early_stop_discards_fewer_than_workers_chunks(self, monkeypatch):
        calls = self.counting_kernel(monkeypatch)
        # around -5 dB each point reaches min_errors in its first chunk
        spec = make_spec(
            Scheme.AP_BLIND, 2, [-6.0, -5.0, -4.0], max_trials=1_000_000, min_errors=100, seed=4
        )
        points = run_sweep(spec, workers=2)
        assert [p.trials for p in points] == [spec.chunk_size] * 3
        assert len(calls) <= 3 + 1  # the chunks kept, and at most one speculative chunk
        assert points == run_sweep(spec, workers=1)

    # Grids that mix points stopping at min_errors after one and after several
    # chunks, points that spend the budget (whose last chunk is short) with
    # errors, and a point that sees none.
    MIXED = [
        (Scheme.DH_BLIND, 4, [-5.0, 10.0, 15.0, 300.0]),
        (Scheme.DH_INTELLIGENT, 4, [-10.0, -4.0, 0.0, 2.0, 20.0]),
    ]

    @pytest.mark.parametrize("scheme, n, grid", MIXED)
    def test_mixed_grid_is_bitwise_equal_at_any_worker_count(self, monkeypatch, scheme, n, grid):
        """Speculation is bounded: at most (workers - 1)**2 discarded chunks
        per sweep, one at two workers."""
        spec = make_spec(scheme, n, grid, max_trials=15_000, min_errors=60, chunk_size=2000, seed=11)
        serial = run_sweep(spec, workers=1)
        stopped_early = [p.trials for p in serial if p.symbol_errors >= spec.min_errors]
        assert spec.chunk_size in stopped_early and max(stopped_early) > spec.chunk_size
        assert any(p.trials == spec.max_trials and p.symbol_errors > 0 for p in serial)
        assert serial[-1].trials == spec.max_trials and serial[-1].symbol_errors == 0
        kept = sum(math.ceil(p.trials / spec.chunk_size) for p in serial)
        calls = self.counting_kernel(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the scheduler
        try:
            for workers in (2, 3, 8):
                calls.clear()
                assert run_sweep(spec, workers=workers) == serial
                assert kept <= len(calls) <= kept + (workers - 1) ** 2
                assert len(set(calls)) == len(calls)  # no chunk is computed twice
        finally:
            sys.setswitchinterval(interval)

    def test_results_out_of_index_order_do_not_run_ahead(self, monkeypatch):
        """While a point waits for a slow chunk 0, finished later chunks still
        hold their workers, so the point discards at most one chunk."""
        spec = make_spec(Scheme.DH_BLIND, 4, [10.0], max_trials=15_000, min_errors=60, chunk_size=2000, seed=11)
        (serial,) = run_sweep(spec, workers=1)
        assert spec.chunk_size < serial.trials < spec.max_trials
        calls = self.counting_kernel(monkeypatch, slow_first_chunk=True)
        assert run_sweep(spec, workers=2) == [serial]
        assert len(calls) <= serial.trials // spec.chunk_size + 1

    def counting_threads(self, monkeypatch):
        """Record every thread the sweep starts."""
        import ris_linklab.montecarlo as mc

        threads = []
        thread = mc.threading.Thread

        def counted(*args, **kwargs):
            threads.append(thread(*args, **kwargs))
            return threads[-1]

        monkeypatch.setattr(mc.threading, "Thread", counted)
        return threads

    def test_caller_is_a_worker_and_helpers_end_with_the_sweep(self, monkeypatch):
        """One worker starts no thread; two start one helper for the whole
        sweep, and it has ended when run_sweep returns."""
        threads = self.counting_threads(monkeypatch)
        spec = make_spec(Scheme.DH_BLIND, 2, [0.0, 5.0, 10.0], max_trials=40_000, min_errors=50, seed=6)
        serial = run_sweep(spec, workers=1)
        assert threads == []
        assert run_sweep(spec, workers=2) == serial
        assert len(threads) == 1 and not threads[0].is_alive()

    def test_helpers_never_outnumber_the_chunks(self, monkeypatch):
        threads = self.counting_threads(monkeypatch)
        spec = make_spec(Scheme.DH_BLIND, 2, [0.0], max_trials=20_000, seed=6)  # two chunks
        run_sweep(spec, workers=8)
        assert len(threads) == 1

    class Boom(Exception):
        pass

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_chunk_is_raised_and_ends_the_sweep(self, monkeypatch, workers):
        """The chunk's exception reaches the caller, no helper outlives the
        call, and no chunk is handed out once the failing one has finished."""
        import ris_linklab.montecarlo as mc

        events = []
        kernel = mc._chunk_counts

        def failing(config, snr_db, stream, trials):
            if stream.stream_id == 3:  # chunk 3 of point 0
                events.append("failed")
                raise self.Boom
            events.append(stream.stream_id)
            time.sleep(0.01)  # outlasts the failing chunk's way back to the scheduler
            return kernel(config, snr_db, stream, trials)

        monkeypatch.setattr(mc, "_chunk_counts", failing)
        spec = make_spec(Scheme.DH_BLIND, 2, [20.0, 30.0], max_trials=2000, min_errors=10**6, chunk_size=100)
        threads_before = threading.active_count()
        raised = []

        def call():
            with pytest.raises(self.Boom):
                run_sweep(spec, workers=workers)
            raised.append(True)

        # A daemon caller, whose helpers are daemons too, so a deadlocked
        # sweep fails the test instead of hanging the suite.
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive() and raised == [True]
        assert threading.active_count() == threads_before
        assert {0, 1, 2} <= set(events)
        # Each other worker may start a chunk it was handed before the failure.
        assert len(events) - events.index("failed") - 1 <= workers - 1
