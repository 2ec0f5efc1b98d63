"""Tests for the four transmission schemes and their composite gains."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ris_linklab.modulation import ConstellationKind, build_constellation, detect_ml
from ris_linklab.rng import ChannelRealization, RngStream, sample_channel
from ris_linklab.schemes import (
    EffectiveGain,
    Scheme,
    SchemeConfig,
    draw_gains,
    instantaneous_snr,
    reflector_phases,
    transmit,
)

from per_element import PER_ELEMENT_GAINS

BPSK = build_constellation(ConstellationKind.PSK, 2)
AP4 = build_constellation(ConstellationKind.AP_PHASE, 4)


def make_config(scheme: Scheme, n: int, order: int = None, es: float = 1.0, n0: float = 1.0):
    if scheme.is_access_point:
        order = order or 4
        const = build_constellation(ConstellationKind.AP_PHASE, order)
    else:
        order = order or 2
        kind = ConstellationKind.PSK if order == 2 else ConstellationKind.QAM
        const = build_constellation(kind, order)
    return SchemeConfig(scheme=scheme, n_reflectors=n, constellation=const, es=es, n0=n0)


def unit_channel(n: int) -> ChannelRealization:
    return ChannelRealization.from_coefficients(np.ones(n, complex), np.ones(n, complex))


class TestReflectorPhases:
    def test_dh_blind_all_zero(self):
        ch = sample_channel(8, RngStream(1))
        phases = reflector_phases(make_config(Scheme.DH_BLIND, 8), ch)
        assert np.array_equal(phases, np.zeros(8))

    def test_ap_intelligent_zero_message(self):
        ch = sample_channel(8, RngStream(2))
        phases = reflector_phases(make_config(Scheme.AP_INTELLIGENT, 8), ch, 0)
        np.testing.assert_allclose(phases, ch.psi)

    def test_dh_intelligent_zero_channel_phases(self):
        phases = reflector_phases(make_config(Scheme.DH_INTELLIGENT, 4), unit_channel(4))
        np.testing.assert_allclose(phases, 0.0)

    def test_ap_blind_common_phase(self):
        ch = sample_channel(5, RngStream(3))
        phases = reflector_phases(make_config(Scheme.AP_BLIND, 5), ch, 2)
        np.testing.assert_allclose(phases, AP4.phases[2])

    def test_message_index_contract(self):
        ch = sample_channel(4, RngStream(4))
        with pytest.raises(ValueError):
            reflector_phases(make_config(Scheme.AP_BLIND, 4), ch)  # missing
        with pytest.raises(ValueError):
            reflector_phases(make_config(Scheme.DH_BLIND, 4), ch, 1)  # spurious
        with pytest.raises(ValueError):
            reflector_phases(make_config(Scheme.AP_BLIND, 4), ch, 4)  # out of range


class TestTransmit:
    def test_dh_intelligent_unit_link(self):
        config = make_config(Scheme.DH_INTELLIGENT, 1)
        received, gain = transmit(config, unit_channel(1), 0, 0j)
        assert received == pytest.approx(1.0)
        assert gain.value == pytest.approx(1.0)

    def test_dh_intelligent_gain_is_amplitude_sum(self):
        config = make_config(Scheme.DH_INTELLIGENT, 32)
        ch = sample_channel(32, RngStream(5))
        received, gain = transmit(config, ch, 0, 0j)
        expected = np.sum(ch.alpha * ch.beta)
        assert gain.value.imag == 0.0
        assert gain.value.real > 0
        # the physically reflected sum cancels phases to the same value
        assert abs(received - expected * config.constellation.points[0]) < 1e-10 * expected

    def test_ap_intelligent_phase_only_residual(self):
        config = make_config(Scheme.AP_INTELLIGENT, 16)
        ch = sample_channel(16, RngStream(6))
        for m in range(4):
            received, _ = transmit(config, ch, m, 0j)
            np.testing.assert_allclose(
                received / abs(received), np.exp(1j * AP4.phases[m]), atol=1e-12
            )

    def test_dh_blind_is_cascade(self):
        config = make_config(Scheme.DH_BLIND, 1, es=4.0)
        ch = sample_channel(1, RngStream(7))
        noise = 0.3 - 0.1j
        received, gain = transmit(config, ch, 1, noise)
        x = np.sqrt(4.0) * config.constellation.points[1]
        assert received == pytest.approx(ch.h[0] * ch.g[0] * x + noise)
        assert gain.value == pytest.approx(ch.h[0] * ch.g[0])

    def test_ap_blind_gain(self):
        config = make_config(Scheme.AP_BLIND, 6, es=2.0)
        ch = sample_channel(6, RngStream(8))
        received, gain = transmit(config, ch, 3, 0j)
        g_sum = np.sum(ch.g)
        assert gain.value == pytest.approx(g_sum)
        assert received == pytest.approx(np.sqrt(2.0) * g_sum * np.exp(1j * AP4.phases[3]))

    def test_rejects_mismatched_channel(self):
        config = make_config(Scheme.DH_BLIND, 4)
        with pytest.raises(ValueError):
            transmit(config, unit_channel(5), 0, 0j)

    def test_scheme_constellation_mismatch(self):
        with pytest.raises(ValueError):
            SchemeConfig(Scheme.AP_BLIND, 4, BPSK)
        with pytest.raises(ValueError):
            SchemeConfig(Scheme.DH_BLIND, 4, AP4)


class TestPhaseAlignmentOptimality:
    def test_aligned_phases_maximize_gain(self):
        """No phase vector beats theta + psi; checked over random perturbations."""
        rng = np.random.default_rng(99)
        config = make_config(Scheme.DH_INTELLIGENT, 16)
        for trial in range(20):
            ch = sample_channel(16, RngStream(100 + trial))
            aligned = reflector_phases(config, ch)
            best = np.abs(np.sum(ch.h * np.exp(1j * aligned) * ch.g))
            for _ in range(100):
                perturbed = aligned + rng.uniform(-np.pi, np.pi, 16)
                value = np.abs(np.sum(ch.h * np.exp(1j * perturbed) * ch.g))
                assert value <= best + 1e-9


class TestInstantaneousSnr:
    def test_simple_value(self):
        config = make_config(Scheme.DH_INTELLIGENT, 1, es=1.0, n0=1.0)
        assert instantaneous_snr(config, EffectiveGain(2.0)) == pytest.approx(4.0)

    def test_mean_snr_n16(self):
        """E[gamma] = (N^2 pi^2 + N(16 - pi^2))/16 * Es/N0 at N = 16."""
        n, trials = 16, 1_000_000
        rng = RngStream(2024).generator()
        alpha = rng.rayleigh(1 / np.sqrt(2), (trials, n))
        beta = rng.rayleigh(1 / np.sqrt(2), (trials, n))
        gamma = np.einsum("ij,ij->i", alpha, beta) ** 2
        expected = (n**2 * np.pi**2 + n * (16 - np.pi**2)) / 16
        assert abs(gamma.mean() - expected) / expected < 0.01

    def test_mean_snr_n1(self):
        """At N = 1, E[gamma] = Es/N0 exactly (E[(alpha*beta)^2] = 1)."""
        rng = RngStream(2025).generator()
        alpha = rng.rayleigh(1 / np.sqrt(2), 1_000_000)
        beta = rng.rayleigh(1 / np.sqrt(2), 1_000_000)
        gamma = (alpha * beta) ** 2
        assert abs(gamma.mean() - 1.0) < 0.01


class TestBlindEquivalence:
    def test_gain_power_distributions_match(self):
        """|H|^2 (cascade sum) and |G|^2 (direct sum) agree for a large surface.

        Two-sample KS on 1e5 realizations.  This is a large-N equivalence:
        at N <= 128 the residual non-Gaussianity of the cascade sum is
        comparable to the KS noise floor at this sample size, so the check
        runs at N = 256.
        """
        n, m = 256, 100_000
        rng = RngStream(31337).generator()
        scale = 1 / np.sqrt(2)
        h = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * scale
        g = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * scale
        h2 = np.abs(np.einsum("ij,ij->i", h, g)) ** 2
        g_only = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * scale
        g2 = np.abs(g_only.sum(axis=1)) ** 2
        result = ks_2samp(h2, g2)
        assert result.pvalue > 0.01


class TestDrawGainsMatchesPerElementChannel:
    """The exact blind-gain laws equal the per-element channel in distribution.

    Two-sample KS tests of ``draw_gains`` against the per-element oracle on
    Re, Im and |.|^2, for both blind schemes at N = 1, 4, 16, 64, at a
    shared Bonferroni level of 1e-3.
    """

    SIZES = (1, 4, 16, 64)
    TRIALS = 50_000
    LEVEL = 1e-3
    STATISTICS = {"re": np.real, "im": np.imag, "power": lambda z: np.abs(z) ** 2}

    def per_element(self, scheme, n, k):
        return PER_ELEMENT_GAINS[scheme](n, RngStream(41, k).generator(), self.TRIALS)

    def test_blind_laws_match_oracle(self):
        pvalues = {}
        for k, (scheme, n) in enumerate(
            (s, n) for s in (Scheme.DH_BLIND, Scheme.AP_BLIND) for n in self.SIZES
        ):
            exact = draw_gains(scheme, n, RngStream(40, k).generator(), self.TRIALS)
            oracle = self.per_element(scheme, n, k)
            for name, stat in self.STATISTICS.items():
                pvalues[scheme.value, n, name] = ks_2samp(stat(exact), stat(oracle)).pvalue
        level = self.LEVEL / len(pvalues)
        rejected = {key: p for key, p in pvalues.items() if p < level}
        assert not rejected, f"KS rejects at level {level:.1e}: {rejected}"

    def test_oracle_rejects_large_n_model_for_dh_blind(self):
        """Power check: at small N the same test tells the DH cascade from
        the CN(0, N) large-N model that the analytic engine uses."""
        level = self.LEVEL / (2 * len(self.SIZES) * len(self.STATISTICS))
        for k, n in enumerate((1, 4, 16)):
            model = draw_gains(Scheme.AP_BLIND, n, RngStream(42, k).generator(), self.TRIALS)
            oracle = self.per_element(Scheme.DH_BLIND, n, k)
            assert ks_2samp(np.abs(model) ** 2, np.abs(oracle) ** 2).pvalue < level


class TestApDetectionStructure:
    def test_noiseless_message_recovery(self):
        """With noise off, every AP message detects as itself (both variants)."""
        for scheme in (Scheme.AP_INTELLIGENT, Scheme.AP_BLIND):
            config = make_config(scheme, 8, es=3.0)
            ch = sample_channel(8, RngStream(55))
            for m in range(4):
                received, gain = transmit(config, ch, m, 0j)
                result = detect_ml(received, gain.value, config.es, config.constellation)
                assert result.symbol_index == m
