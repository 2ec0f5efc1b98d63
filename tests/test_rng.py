"""Tests for channel/noise sampling and stream determinism."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_linklab.modulation import ConstellationKind, build_constellation
from ris_linklab.montecarlo import SweepSpec
from ris_linklab.rng import RngStream, half_words
from ris_linklab.schemes import Scheme, SchemeConfig

import per_element

N_SAMPLES = 1_000_000


def realization(n: int, rng: np.random.Generator) -> SimpleNamespace:
    """One per-element channel with its amplitudes and phases."""
    (h,), (g,) = per_element.channel(n, rng, 1)
    theta, psi = per_element.channel_phases(h, g)
    return SimpleNamespace(h=h, g=g, alpha=np.abs(h), beta=np.abs(g), theta=theta, psi=psi)


@pytest.fixture(scope="module")
def big_channel() -> SimpleNamespace:
    # A single wide realization: coefficients are iid across reflectors, so
    # one draw of 10^6 elements doubles as 10^6 scalar draws.
    return realization(N_SAMPLES, RngStream(seed=123, stream_id=0).generator())


class TestChannelMoments:
    def test_mean_alpha(self, big_channel):
        """E[alpha] = sqrt(pi)/2 for Rayleigh amplitudes of CN(0,1)."""
        alpha = big_channel.alpha
        se = alpha.std(ddof=1) / np.sqrt(alpha.size)
        assert abs(alpha.mean() - np.sqrt(np.pi) / 2) < 3 * se

    def test_mean_alpha_beta(self, big_channel):
        """E[alpha*beta] = pi/4."""
        prod = big_channel.alpha * big_channel.beta
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean() - np.pi / 4) < 3 * se

    def test_var_alpha_beta(self, big_channel):
        """VAR[alpha*beta] = 1 - pi^2/16."""
        prod = big_channel.alpha * big_channel.beta
        v = prod.var(ddof=1)
        centered = (prod - prod.mean()) ** 2
        se_var = centered.std(ddof=1) / np.sqrt(prod.size)
        assert abs(v - (1 - np.pi**2 / 16)) < 3 * se_var

    def test_unit_coefficient_power(self, big_channel):
        """E[|h|^2] = 1 for CN(0,1) coefficients."""
        p = np.abs(big_channel.h) ** 2
        se = p.std(ddof=1) / np.sqrt(p.size)
        assert abs(p.mean() - 1.0) < 3 * se
        q = np.abs(big_channel.g) ** 2
        se = q.std(ddof=1) / np.sqrt(q.size)
        assert abs(q.mean() - 1.0) < 3 * se

    def test_quadrature_variances(self, big_channel):
        """Real and imaginary parts each carry variance 1/2."""
        assert abs(big_channel.h.real.var() - 0.5) < 0.005
        assert abs(big_channel.h.imag.var() - 0.5) < 0.005


class TestPhaseConvention:
    def test_reconstruction(self, big_channel):
        """h == alpha * exp(-1j*theta) to 1e-12, same for g."""
        h_rec = big_channel.alpha * np.exp(-1j * big_channel.theta)
        assert np.max(np.abs(h_rec - big_channel.h)) < 1e-12
        g_rec = big_channel.beta * np.exp(-1j * big_channel.psi)
        assert np.max(np.abs(g_rec - big_channel.g)) < 1e-12

    def test_phase_range(self, big_channel):
        assert np.all(big_channel.theta >= 0) and np.all(big_channel.theta < 2 * np.pi)
        assert np.all(big_channel.psi >= 0) and np.all(big_channel.psi < 2 * np.pi)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_any_seed(self, seed):
        ch = realization(8, RngStream(seed).generator())
        assert np.max(np.abs(ch.alpha * np.exp(-1j * ch.theta) - ch.h)) < 1e-12


def noise(n0: float, stream: RngStream, size=None):
    """CN(0, n0) receiver noise."""
    return per_element.standard_complex_normal(stream.generator(), size) * np.sqrt(n0)


class TestNoise:
    def test_variance(self):
        power = np.abs(noise(2.0, RngStream(7), N_SAMPLES)) ** 2
        assert abs(power.mean() - 2.0) < 0.02  # 1 %

    def test_zero_mean(self):
        values = noise(1.0, RngStream(8), N_SAMPLES)
        se = 1.0 / np.sqrt(values.size)  # std of each quadrature-pair mean
        assert abs(values.mean()) < 3 * se

    def test_scalar_draw(self):
        assert isinstance(noise(0.5, RngStream(9)), complex)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_n0(self, bad):
        """A sweep sets N0 = 10**(-snr_db/10); an N0 that is not finite and
        > 0 maps to a non-finite grid point, which the sweep rejects."""
        config = SchemeConfig(Scheme.DH_BLIND, 4, build_constellation(ConstellationKind.PSK, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            snr_db = float(-10.0 * np.log10(bad))
        with pytest.raises(ValueError, match="must be finite"):
            SweepSpec(config=config, snr_grid_db=(snr_db,))


class TestDeterminism:
    def test_identical_streams_identical_sequences(self):
        a = noise(1.0, RngStream(42, 5), 1000)
        b = noise(1.0, RngStream(42, 5), 1000)
        assert np.array_equal(a, b)

    def test_identical_channel_draws(self):
        c1 = per_element.channel(16, RngStream(3, 11).generator(), 1)
        c2 = per_element.channel(16, RngStream(3, 11).generator(), 1)
        assert np.array_equal(c1, c2)

    def test_distinct_streams_differ(self):
        a = noise(1.0, RngStream(42, 0), 100)
        b = noise(1.0, RngStream(42, 1), 100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_point_and_chunk_keys_differ(self, seed):
        """Stream ids (p << 32) | c: swapped (p, c) pairs, and the last chunk
        index c = 2**32 - 1 next to chunk 0 of the following point, all give
        different streams."""
        last = 2**32 - 1
        pairs = [(0, 1), (1, 0), (0, last), (last, 0), (1, last), (last, 1), (last, last)]
        draws = {RngStream(seed, (p << 32) | c).generator().random(4).tobytes() for p, c in pairs}
        assert len(draws) == len(pairs)

    def test_generator_is_sfc64(self):
        assert isinstance(RngStream(1, 2).generator().bit_generator, np.random.SFC64)

    def test_generator_continues_within_stream(self):
        rng = RngStream(5, 0).generator()
        first = per_element.channel(4, rng, 1)
        second = per_element.channel(4, rng, 1)
        assert not np.array_equal(first, second)


class TestValidation:
    def test_rejects_zero_reflectors(self):
        with pytest.raises(ValueError):
            SchemeConfig(Scheme.DH_BLIND, 0, build_constellation(ConstellationKind.PSK, 2))

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


class TestHalfWords:
    def test_low_half_first_and_an_odd_count_drops_the_last_high_half(self):
        """Each raw word gives its low 32 bits, then its high 32 bits; an odd
        count reads ``(count + 1) // 2`` words and leaves the last high half
        unused, so the next word drawn is the one after it."""
        words = RngStream(9, 3).generator().bit_generator.random_raw(4).tolist()
        halves = [w >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]
        for count in (1, 5, 6):
            rng = RngStream(9, 3).generator()
            values = half_words(rng, count)
            assert values.dtype == np.dtype("<u4")
            assert values.tolist() == halves[:count]
            assert int(rng.bit_generator.random_raw()) == words[(count + 1) // 2]
