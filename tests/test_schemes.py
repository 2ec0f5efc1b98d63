"""Tests for the four transmission schemes and their composite gains."""

import numpy as np
import pytest
from scipy.special import k1
from scipy.stats import ks_2samp

from ris_linklab.modulation import ConstellationKind, build_constellation, detect_ml
from ris_linklab.rng import RngStream
from ris_linklab.schemes import Scheme, SchemeConfig, _negative_exponentials, draw_gains

import per_element

BPSK = build_constellation(ConstellationKind.PSK, 2)
AP4 = build_constellation(ConstellationKind.PSK, 4)
W4 = per_element.message_phases(np.arange(4), 4)


def sample(n: int, seed: int):
    """One channel realization: h and g as (1, N) blocks."""
    return per_element.channel(n, RngStream(seed).generator(), 1)


def unit_channel(n: int):
    return np.ones((1, n), complex), np.ones((1, n), complex)


class TestReflectorPhases:
    def test_dh_blind_all_zero(self):
        phases = per_element.reflector_phases(Scheme.DH_BLIND, *sample(8, 1))
        assert np.array_equal(phases, np.zeros((1, 8)))

    def test_ap_intelligent_zero_message(self):
        h, g = sample(8, 2)
        phases = per_element.reflector_phases(Scheme.AP_INTELLIGENT, h, g, W4[[0]])
        np.testing.assert_allclose(phases, per_element.channel_phases(h, g)[1])

    def test_dh_intelligent_zero_channel_phases(self):
        phases = per_element.reflector_phases(Scheme.DH_INTELLIGENT, *unit_channel(4))
        np.testing.assert_allclose(phases, 0.0)

    def test_ap_blind_common_phase(self):
        phases = per_element.reflector_phases(Scheme.AP_BLIND, *sample(5, 3), W4[[2]])
        np.testing.assert_allclose(phases, W4[2])


def link(scheme, h, g, tx, noise=0j):
    """Received samples and composite gains of the per-element oracle."""
    const = AP4 if scheme.is_access_point else BPSK
    return per_element.received(scheme, h, g, const, tx, noise), per_element.gain(scheme, h, g)


class TestTransmit:
    def test_dh_intelligent_unit_link(self):
        received, gain = link(Scheme.DH_INTELLIGENT, *unit_channel(1), 0)
        assert received[0] == pytest.approx(1.0)
        assert gain[0] == pytest.approx(1.0)

    def test_dh_intelligent_gain_is_amplitude_sum(self):
        h, g = sample(32, 5)
        received, gain = link(Scheme.DH_INTELLIGENT, h, g, 0)
        expected = np.sum(np.abs(h) * np.abs(g))
        assert gain.dtype.kind == "f" and gain[0] > 0
        assert gain[0] == pytest.approx(expected)
        # the physically reflected sum cancels phases to the same value
        assert abs(received[0] - expected * BPSK.points[0]) < 1e-10 * expected

    def test_ap_intelligent_phase_only_residual(self):
        h, g = sample(16, 6)
        for m in range(4):
            received, _ = link(Scheme.AP_INTELLIGENT, h, g, m)
            np.testing.assert_allclose(
                received / abs(received), np.exp(1j * W4[m]), atol=1e-12
            )

    def test_dh_blind_is_cascade(self):
        h, g = sample(1, 7)
        noise = 0.3 - 0.1j
        received, gain = link(Scheme.DH_BLIND, h, g, 1, noise)
        assert received[0] == pytest.approx(h[0, 0] * g[0, 0] * BPSK.points[1] + noise)
        assert gain[0] == pytest.approx(h[0, 0] * g[0, 0])

    def test_ap_blind_gain(self):
        h, g = sample(6, 8)
        received, gain = link(Scheme.AP_BLIND, h, g, 3)
        g_sum = np.sum(g)
        assert gain[0] == pytest.approx(g_sum)
        assert received[0] == pytest.approx(g_sum * np.exp(1j * W4[3]))

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("scheme", [Scheme.AP_BLIND, Scheme.AP_INTELLIGENT])
    def test_ap_phase_book_is_psk(self, scheme, order):
        """The common phase w_m = 2 pi m / M reaches the receiver as the gain times
        PSK point m of the link's constellation, and noiseless detection returns m."""
        const = SchemeConfig(scheme, 8, build_constellation(ConstellationKind.PSK, order)).constellation
        h, g = per_element.channel(8, RngStream(order).generator(), order)  # one trial per message
        tx = np.arange(order)
        received = per_element.received(scheme, h, g, const, tx, 0j)
        gain = per_element.gain(scheme, h, g)
        np.testing.assert_allclose(received, gain * const.points[tx], rtol=1e-12, atol=1e-12)
        assert np.array_equal(detect_ml(received, gain, const), tx)

    def test_scheme_constellation_mismatch(self):
        """Access-point links carry M-PSK, so they reject QAM."""
        qam = build_constellation(ConstellationKind.QAM, 16)
        for scheme in (Scheme.AP_BLIND, Scheme.AP_INTELLIGENT):
            with pytest.raises(ValueError, match="not QAM"):
                SchemeConfig(scheme, 4, qam)


class TestPhaseAlignmentOptimality:
    def test_aligned_phases_maximize_gain(self):
        """No phase vector beats theta + psi; checked over random perturbations."""
        rng = np.random.default_rng(99)
        for trial in range(20):
            h, g = sample(16, 100 + trial)
            aligned = per_element.reflector_phases(Scheme.DH_INTELLIGENT, h, g)
            best = np.abs(np.sum(h * np.exp(1j * aligned) * g))
            perturbed = aligned + rng.uniform(-np.pi, np.pi, (100, 16))
            values = np.abs(np.sum(h * np.exp(1j * perturbed) * g, axis=1))
            assert np.all(values <= best + 1e-9)


class TestInstantaneousSnr:
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
        n, m, block = 256, 100_000, 5_000
        rng = RngStream(31337).generator()

        def power(scheme):  # per-element blocks of (block, N), so memory stays small
            return np.concatenate([
                np.abs(per_element.gain(scheme, *per_element.channel(n, rng, block))) ** 2
                for _ in range(m // block)
            ])

        h2, g2 = power(Scheme.DH_BLIND), power(Scheme.AP_BLIND)
        result = ks_2samp(h2, g2)
        assert result.pvalue > 0.01


class TestDrawGainsMatchesPerElementChannel:
    """The exact gain laws equal the per-element channel in distribution.

    Two-sample KS tests of ``draw_gains`` against the per-element oracle at
    N = 1, 4, 16, 64: for both blind schemes, the drawn amplitude and its
    square against |H| and |H|^2 (|G| and |G|^2) of the per-element sum; for
    both intelligent schemes, the gain itself (real and positive).  Each
    family is tested at a shared Bonferroni level of 1e-3.  The intelligent
    samples have INTELLIGENT_TRIALS > 65536 rows, so at every N they span
    more than one of the sampler's draw blocks.
    """

    SIZES = (1, 4, 16, 64)
    TRIALS = 50_000
    INTELLIGENT_TRIALS = 100_000
    ORACLE_ROWS = 10_000  # per-element trials per block, so memory stays small
    LEVEL = 1e-3
    STATISTICS = {"amplitude": lambda a: a, "power": np.square}

    def per_element(self, scheme, n, k, trials=TRIALS):
        rng = RngStream(41, k).generator()
        return np.concatenate([
            per_element.gain(scheme, *per_element.channel(n, rng, min(self.ORACLE_ROWS, trials - start)))
            for start in range(0, trials, self.ORACLE_ROWS)
        ])

    def assert_not_rejected(self, pvalues):
        level = self.LEVEL / len(pvalues)
        rejected = {key: p for key, p in pvalues.items() if p < level}
        assert not rejected, f"KS rejects at level {level:.1e}: {rejected}"

    def test_blind_laws_match_oracle(self):
        """sqrt(X E) and sqrt(N E) against |sum(h_i g_i)| and |sum(g_i)|."""
        pvalues = {}
        for k, (scheme, n) in enumerate(
            (s, n) for s in (Scheme.DH_BLIND, Scheme.AP_BLIND) for n in self.SIZES
        ):
            exact = draw_gains(scheme, n, RngStream(40, k).generator(), self.TRIALS)
            assert exact.dtype == np.float64
            oracle = np.abs(self.per_element(scheme, n, k))
            for name, stat in self.STATISTICS.items():
                pvalues[scheme.value, n, name] = ks_2samp(stat(exact), stat(oracle)).pvalue
        self.assert_not_rejected(pvalues)

    def test_intelligent_laws_match_oracle(self):
        """sum(sqrt(E_i F_i)) and sum(sqrt(E_i)), drawn in blocks, against
        sum(|h_i| |g_i|) and sum(|g_i|) of explicit CN(0, 1) coefficients."""
        pvalues = {}
        for k, (scheme, n) in enumerate(
            ((s, n) for s in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT) for n in self.SIZES),
            start=2 * len(self.SIZES),  # streams apart from the blind test's
        ):
            exact = draw_gains(scheme, n, RngStream(40, k).generator(), self.INTELLIGENT_TRIALS)
            oracle = self.per_element(scheme, n, k, self.INTELLIGENT_TRIALS)
            pvalues[scheme.value, n] = ks_2samp(exact, oracle).pvalue
        self.assert_not_rejected(pvalues)

    def test_oracle_rejects_large_n_model_for_dh_blind(self):
        """Power check: at small N the same test tells the DH cascade's
        amplitude from that of the CN(0, N) large-N model that the analytic
        engine uses."""
        level = self.LEVEL / (2 * len(self.SIZES) * len(self.STATISTICS))
        for k, n in enumerate((1, 4, 16)):
            model = draw_gains(Scheme.AP_BLIND, n, RngStream(42, k).generator(), self.TRIALS)
            oracle = np.abs(self.per_element(Scheme.DH_BLIND, n, k))
            assert ks_2samp(model, oracle).pvalue < level


class TestApDetectionStructure:
    def test_noiseless_message_recovery(self):
        """With noise off, every AP message detects as itself (both variants)."""
        h, g = per_element.channel(8, RngStream(55).generator(), 1)
        messages = np.arange(4)
        for scheme in (Scheme.AP_INTELLIGENT, Scheme.AP_BLIND):
            received, gain = link(scheme, h, g, messages)
            assert np.array_equal(detect_ml(received, np.broadcast_to(gain, 4), AP4), messages)


class TestDrawGainsRejectsEmptySurfaces:
    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rejects_n_below_one(self, scheme, n):
        with pytest.raises(ValueError, match=f"n_reflectors must be >= 1, got {n}"):
            draw_gains(scheme, n, RngStream(3).generator(), 10)


HALF = 2**31  # int32 words s >= 0 and s < 0 each number 2**31


def sampled_legs(s: np.ndarray) -> np.ndarray:
    """The sampler's float32 legs E at int32 words s, as float64."""
    return -_negative_exponentials(s, np.empty(s.shape, np.float32)).astype(np.float64)


def legs(j, sign: int) -> np.ndarray:
    """The leg at the word s = j (sign 1) or s = -1 - j (sign -1), j in
    [0, 2**31); it does not decrease with j."""
    j = np.asarray(j, np.int64)
    return sampled_legs((j if sign > 0 else -1 - j).astype(np.int32))


def last_j(y, strict: bool, sign: int) -> np.ndarray:
    """The largest j with legs(j, sign) < y (strict) or <= y, -1 if none; by bisection."""
    y = np.asarray(y, np.float64)
    lo, hi = np.full(y.shape, -1, np.int64), np.full(y.shape, HALF, np.int64)
    while np.any(open_ := hi - lo > 1):
        mid = np.where(open_, (lo + hi) // 2, 0)
        leg = legs(mid, sign)
        below = open_ & ((leg < y) if strict else (leg <= y))
        lo, hi = np.where(below, mid, lo), np.where(open_ & ~below, mid, hi)
    return lo


def words_below(y, strict: bool) -> np.ndarray:
    """The number of the 2**32 words whose leg is < y (strict) or <= y."""
    return sum(last_j(y, strict, sign) + 1 for sign in (1, -1))


class TestLegLattice:
    """The intelligent legs E = -log1p(-U), U = |s + 1/2| * 2**-31 clamped
    to 1 - 2**-24, from int32 words s in float32 (``draw_gains``): their
    exact law, counted over the 2**32 words rather than sampled."""

    def assert_within_two_ulp(self, s):
        want = per_element.lattice_legs(s)
        assert np.all(np.abs(sampled_legs(s) - want) <= 2 * np.spacing(want.astype(np.float32)))

    def test_float32_legs_within_two_ulp(self):
        """Every |s| < 2**23 (one sign each, alternating) and both end words."""
        for start in range(0, 2**23, 2**20):
            k = np.arange(start, start + 2**20)
            self.assert_within_two_ulp(np.where(k % 2 == 0, k, -k).astype(np.int32))
        self.assert_within_two_ulp(np.array([0, -1, HALF - 1, -HALF], np.int32))

    def test_cdf_passes_through_every_step(self):
        """At the largest leg v <= x, for x from 1e-9 to 12, 1 - exp(-x') for
        some x' within 2 ulp of v lies between P(E < v) and P(E <= v), to 2**-30."""
        x = np.geomspace(1e-9, 12.0, 64)
        v = np.maximum(legs(last_j(x, False, 1), 1), legs(last_j(x, False, -1), -1))
        below, upto = (words_below(v, strict) * 2.0**-32 for strict in (True, False))
        ulp = np.spacing(v.astype(np.float32)).astype(np.float64)
        cdf = lambda y: -np.expm1(-y)
        assert np.all(cdf(v - 2 * ulp) - 2.0**-30 <= upto)
        assert np.all(below <= cdf(v + 2 * ulp) + 2.0**-30)

    def test_top_mass(self):
        """The largest leg is 24 ln 2 and carries 383 * 2**-32 (see draw_gains)."""
        top = legs(HALF - 1, 1)
        assert legs(HALF - 1, -1) == top == pytest.approx(24 * np.log(2.0), rel=2**-23)
        assert 2**32 - words_below(top, strict=True) == 383

    def test_single_cascade_deep_fade(self):
        """N = 1: P(E F < t) at t = 1e-8 over the lattice, against
        1 - 2 sqrt(t) K1(2 sqrt(t)).  Every pair with E F < t has a leg at
        most r = sqrt(t), so the pairs are counted from that side twice, less
        the pairs with both legs at most r."""
        t = 1e-8
        small = np.concatenate([legs(np.arange(last_j(np.sqrt(t), False, sign) + 1), sign) for sign in (1, -1)])
        partners = words_below(t / small, strict=True)
        one_side = partners.sum() * 2.0**-64
        both = np.minimum(partners, len(small)).sum() * 2.0**-64
        z = 2.0 * np.sqrt(t)
        assert 2 * one_side - both == pytest.approx(1.0 - z * k1(z), rel=1e-6)
