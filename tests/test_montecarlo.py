"""Tests for the sweep engine: determinism, stopping, statistical fidelity."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from ris_linklab.analytic import AnalyticModel, db_to_linear, qfunc, sep_mpsk
from ris_linklab.modulation import ConstellationKind, build_constellation, detect_ml
from ris_linklab.montecarlo import (
    WORKERS_ENV_VAR,
    SweepPoint,
    SweepSpec,
    confidence_interval,
    run_sweep,
)
from ris_linklab.montecarlo import _chunk_counts
from ris_linklab.rng import RAYLEIGH_SCALE, ChannelRealization, RngStream
from ris_linklab.schemes import Scheme, SchemeConfig, transmit


def make_spec(scheme, n, grid, order=2, **kwargs):
    if scheme.is_access_point:
        const = build_constellation(ConstellationKind.AP_PHASE, order)
    else:
        kind = ConstellationKind.PSK if order == 2 else ConstellationKind.QAM
        const = build_constellation(kind, order)
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

    def test_seed_changes_results(self):
        grid = [0.0]
        a = run_sweep(make_spec(Scheme.DH_BLIND, 2, grid, max_trials=20_000, min_errors=5000, seed=1))
        b = run_sweep(make_spec(Scheme.DH_BLIND, 2, grid, max_trials=20_000, min_errors=5000, seed=2))
        assert a != b


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
        for scheme in (Scheme.DH_INTELLIGENT, Scheme.DH_BLIND, Scheme.AP_INTELLIGENT, Scheme.AP_BLIND):
            spec = make_spec(
                scheme, 4, [0.0], order=4 if scheme.is_access_point else 2,
                max_trials=10_000, min_errors=1, seed=1, noiseless=True,
            )
            (point,) = run_sweep(spec)
            assert point.trials == 10_000
            assert point.symbol_errors == 0 and point.bit_errors == 0


class TestKernelMatchesScalarPath:
    """The vectorized chunk kernel must agree with the per-trial scheme API."""

    @pytest.mark.parametrize("scheme", [Scheme.DH_BLIND, Scheme.AP_BLIND])
    def test_complex_channel_schemes(self, scheme):
        """Blind schemes: the exact gain law, then symbols, then noise."""
        n, trials, snr_db, seed = 6, 400, 2.0, 21
        stream = RngStream(seed, 0)
        config = make_spec(scheme, n, [snr_db]).config
        sym, bit = _chunk_counts(config, snr_db, stream, trials, False)
        # replay the kernel's documented draw order through the scalar detector
        rng = stream.generator()
        if scheme is Scheme.DH_BLIND:
            scale = np.sqrt(rng.standard_gamma(n, trials))  # |g|^2 ~ Gamma(N, 1)
        else:
            scale = np.sqrt(n)
        gain = scale * ((rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) * RAYLEIGH_SCALE)
        tx = rng.integers(0, 2, size=trials)
        n0 = 10.0 ** (-snr_db / 10.0)
        noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) * (
            RAYLEIGH_SCALE * np.sqrt(n0)
        )
        const = config.constellation
        ref_sym = ref_bit = 0
        for i in range(trials):
            received = gain[i] * const.points[tx[i]] + noise[i]
            result = detect_ml(received, gain[i], 1.0, const)
            ref_sym += result.symbol_index != tx[i]
            ref_bit += result.bit_errors_vs(int(tx[i]))
        assert 0 < sym < trials
        assert (sym, bit) == (ref_sym, ref_bit)

    def test_amplitude_sampled_scheme(self):
        """DH intelligent: amplitude draws equal a zero-phase channel realization."""
        n, trials, snr_db = 5, 300, -12.0
        stream = RngStream(33, 0)
        config = make_spec(Scheme.DH_INTELLIGENT, n, [snr_db]).config
        sym, bit = _chunk_counts(config, snr_db, stream, trials, False)
        rng = stream.generator()
        alpha = rng.rayleigh(RAYLEIGH_SCALE, (trials, n))
        beta = rng.rayleigh(RAYLEIGH_SCALE, (trials, n))
        tx = rng.integers(0, 2, size=trials)
        n0 = 10.0 ** (-snr_db / 10.0)
        noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) * (
            RAYLEIGH_SCALE * np.sqrt(n0)
        )
        const = config.constellation
        cfg = SchemeConfig(
            scheme=Scheme.DH_INTELLIGENT, n_reflectors=n, constellation=const, es=1.0, n0=n0
        )
        ref_sym = ref_bit = 0
        for i in range(trials):
            ch = ChannelRealization.from_coefficients(alpha[i].astype(complex), beta[i].astype(complex))
            received, gain = transmit(cfg, ch, int(tx[i]), complex(noise[i]))
            result = detect_ml(received, gain.value, 1.0, const)
            ref_sym += result.symbol_index != tx[i]
            ref_bit += result.bit_errors_vs(int(tx[i]))
        assert (sym, bit) == (ref_sym, ref_bit)

    def test_ap_amplitude_sampled_scheme(self):
        """AP intelligent: one amplitude block equals a channel with h = 1."""
        n, trials, snr_db = 5, 300, -14.0
        stream = RngStream(35, 0)
        config = make_spec(Scheme.AP_INTELLIGENT, n, [snr_db], order=4).config
        sym, bit = _chunk_counts(config, snr_db, stream, trials, False)
        rng = stream.generator()
        beta = rng.rayleigh(RAYLEIGH_SCALE, (trials, n))
        tx = rng.integers(0, 4, size=trials)
        n0 = 10.0 ** (-snr_db / 10.0)
        noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) * (
            RAYLEIGH_SCALE * np.sqrt(n0)
        )
        const = config.constellation
        cfg = SchemeConfig(
            scheme=Scheme.AP_INTELLIGENT, n_reflectors=n, constellation=const, es=1.0, n0=n0
        )
        ref_sym = ref_bit = 0
        for i in range(trials):
            ch = ChannelRealization.from_coefficients(np.ones(n, complex), beta[i].astype(complex))
            received, gain = transmit(cfg, ch, int(tx[i]), complex(noise[i]))
            result = detect_ml(received, gain.value, 1.0, const)
            ref_sym += result.symbol_index != tx[i]
            ref_bit += result.bit_errors_vs(int(tx[i]))
        assert 0 < sym < trials
        assert (sym, bit) == (ref_sym, ref_bit)


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
        point = SweepPoint(0.0, 1_000_000, 0, 0)
        lo, hi = confidence_interval(point)
        assert lo == 0.0 and hi == 0.0

    def test_half_width_at_half(self):
        point = SweepPoint(0.0, 10_000, 5_000, 5_000)
        lo, hi = confidence_interval(point, 0.95)
        assert (hi - lo) / 2 == pytest.approx(1.959964 * 0.005, rel=1e-4)

    def test_all_errors_clamps_high(self):
        point = SweepPoint(0.0, 100, 100, 100)
        _, hi = confidence_interval(point)
        assert hi == 1.0


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
    """More than one worker: one pool per sweep, bounded speculation."""

    @pytest.fixture(autouse=True)
    def uncapped(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)

    def counting_kernel(self, monkeypatch):
        import ris_linklab.montecarlo as mc

        calls = []
        kernel = mc._chunk_counts

        def counted(config, snr_db, stream, trials, noiseless):
            calls.append(stream.stream_id)
            return kernel(config, snr_db, stream, trials, noiseless)

        monkeypatch.setattr(mc, "_chunk_counts", counted)
        return calls

    def test_early_stop_discards_fewer_than_workers_chunks(self, monkeypatch):
        calls = self.counting_kernel(monkeypatch)
        # around -5 dB each point reaches min_errors in its first chunk
        spec = make_spec(
            Scheme.AP_BLIND, 2, [-6.0, -5.0, -4.0], max_trials=1_000_000, min_errors=100, seed=4
        )
        workers = 2
        points = run_sweep(spec, workers=workers)
        assert [p.trials for p in points] == [spec.chunk_size] * 3
        assert len(calls) <= 3 * workers
        assert points == run_sweep(spec, workers=1)

    def test_one_pool_per_sweep(self, monkeypatch):
        import ris_linklab.montecarlo as mc

        pools = []
        executor = mc.ThreadPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return executor(*args, **kwargs)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", counted_pool)
        spec = make_spec(Scheme.DH_BLIND, 2, [0.0, 5.0, 10.0], max_trials=40_000, min_errors=50, seed=6)
        run_sweep(spec, workers=2)
        assert pools == [{"max_workers": 2}]
        run_sweep(spec, workers=1)
        assert len(pools) == 1
