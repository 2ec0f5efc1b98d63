"""Tests for constellation construction, Gray labels, and ML detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_linklab.modulation import (
    Constellation,
    ConstellationKind,
    _slice_phase,
    build_constellation,
    check_order,
    detect_axes,
    detect_ml,
)
from ris_linklab.montecarlo import SweepSpec
from ris_linklab.schemes import Scheme, SchemeConfig

import argmin
import gray_labels

ALL_KINDS_AND_ORDERS = [
    (ConstellationKind.PSK, 2),
    (ConstellationKind.PSK, 4),
    (ConstellationKind.PSK, 8),
    (ConstellationKind.PSK, 16),
    (ConstellationKind.QAM, 4),
    (ConstellationKind.QAM, 16),
    (ConstellationKind.QAM, 64),
]

# Every valid order in {2, 4, 8, 16, 32, 64} of each kind (QAM needs a square order).
SLICER_CASES = [
    (kind, order)
    for kind in ConstellationKind
    for order in (2, 4, 8, 16, 32, 64)
    if kind is ConstellationKind.PSK or order in (4, 16, 64)
]


class TestConstruction:
    def test_bpsk_points(self):
        c = build_constellation(ConstellationKind.PSK, 2)
        np.testing.assert_allclose(c.points, [1.0, -1.0], atol=1e-15)

    def test_ap4_phases(self):
        """The access-point phase book w_m = 2 pi m / M is 4-PSK."""
        c = build_constellation(ConstellationKind.PSK, 4)
        np.testing.assert_allclose(np.angle(c.points), [0, np.pi / 2, np.pi, -np.pi / 2])

    def test_16qam_lattice(self):
        c = build_constellation(ConstellationKind.QAM, 16)
        scaled = c.points * np.sqrt(10.0)
        levels = sorted(set(np.round(scaled.real, 9)))
        assert levels == [-3.0, -1.0, 1.0, 3.0]

    @pytest.mark.parametrize("kind,order", ALL_KINDS_AND_ORDERS)
    def test_unit_average_energy(self, kind, order):
        c = build_constellation(kind, order)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
    def test_psk_on_unit_circle(self, order):
        c = build_constellation(ConstellationKind.PSK, order)
        np.testing.assert_allclose(np.abs(c.points), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind,order",
        [
            (ConstellationKind.QAM, 8),
            (ConstellationKind.QAM, 32),
            (ConstellationKind.PSK, 3),
            (ConstellationKind.PSK, 1),
            (ConstellationKind.PSK, 0),
        ],
    )
    def test_rejects_invalid_orders(self, kind, order):
        with pytest.raises(ValueError):
            build_constellation(kind, order)
        with pytest.raises(ValueError):
            check_order(kind, order)


class TestValueEquality:
    """Constellations, and the configs and sweeps that hold them, compare and
    hash by value: the arrays by content."""

    @pytest.mark.parametrize("kind,order", ALL_KINDS_AND_ORDERS)
    def test_equal_builds_compare_and_hash_equal(self, kind, order):
        a, b = build_constellation(kind, order), build_constellation(kind, order)
        assert a is not b and a == b and hash(a) == hash(b)
        scheme = Scheme.AP_INTELLIGENT if kind is ConstellationKind.PSK else Scheme.DH_BLIND
        config = lambda c: SchemeConfig(scheme, 8, c)
        assert config(a) == config(b) and hash(config(a)) == hash(config(b))
        spec = lambda c: SweepSpec(config(c), (0.0, 1.0))
        assert spec(a) == spec(b) and hash(spec(a)) == hash(spec(b))
        assert len({a, b, config(a), config(b), spec(a), spec(b)}) == 3

    def test_other_orders_kinds_and_points_differ(self):
        qpsk = build_constellation(ConstellationKind.PSK, 4)
        assert qpsk != build_constellation(ConstellationKind.PSK, 8)
        assert qpsk != build_constellation(ConstellationKind.QAM, 4)
        assert qpsk != Constellation(qpsk.kind, 4, -qpsk.points, qpsk.bit_labels)
        assert qpsk != Constellation(qpsk.kind, 4, qpsk.points, qpsk.bit_labels[::-1])
        assert qpsk != "qpsk" and qpsk != SchemeConfig(Scheme.AP_INTELLIGENT, 4, qpsk)


class TestReadOnlyArrays:
    """A built Constellation's arrays cannot change, so a checked config
    stays as it was checked (a zeroed bit_labels once made every bit error
    count 0 with no error raised)."""

    @pytest.mark.parametrize("kind,order", ALL_KINDS_AND_ORDERS)
    def test_writing_either_array_raises(self, kind, order):
        c = build_constellation(kind, order)
        for array in (c.points, c.bit_labels):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert c == build_constellation(kind, order)

    def test_callers_arrays_are_copied(self):
        built = build_constellation(ConstellationKind.QAM, 16)
        points, labels = built.points.copy(), built.bit_labels.copy()
        c = Constellation(built.kind, 16, points, labels)
        points[:], labels[:] = 0, 0
        assert c == built and hash(c) == hash(built)
        assert not (np.shares_memory(c.points, points) or np.shares_memory(c.bit_labels, labels))


class TestGrayLabels:
    @pytest.mark.parametrize("kind,order", [
        (kind, 2**k) for kind in ConstellationKind for k in range(1, 11)
        if kind is ConstellationKind.PSK or k % 2 == 0
    ])
    def test_labels_match_the_string_reference(self, kind, order):
        """The integer labels, written as log2(M) bits, are the string Gray
        labels of ``gray_labels`` at every kind and valid order up to 1024."""
        c = build_constellation(kind, order)
        assert np.issubdtype(c.bit_labels.dtype, np.integer)
        width = c.bits_per_symbol
        assert [format(label, f"0{width}b") for label in c.bit_labels.tolist()] == list(
            gray_labels.string_labels(kind, order)
        )

    @pytest.mark.parametrize("kind,order", ALL_KINDS_AND_ORDERS)
    def test_labels_distinct(self, kind, order):
        c = build_constellation(kind, order)
        assert len(set(c.bit_labels)) == order

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_circle_adjacency(self, order):
        """Neighbouring points around the PSK circle differ in one bit."""
        c = build_constellation(ConstellationKind.PSK, order)
        for m in range(order):
            assert gray_labels.distance_table(c)[m, (m + 1) % order] == 1

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_axis_adjacency(self, order):
        """Lattice neighbours along each axis differ in one bit."""
        c = build_constellation(ConstellationKind.QAM, order)
        side = int(np.sqrt(order))
        for row in range(side):
            for col in range(side - 1):
                assert gray_labels.distance_table(c)[row * side + col, row * side + col + 1] == 1
        for row in range(side - 1):
            for col in range(side):
                assert gray_labels.distance_table(c)[row * side + col, (row + 1) * side + col] == 1

    def test_bit_errors_bounded(self):
        c = build_constellation(ConstellationKind.QAM, 16)
        assert gray_labels.distance_table(c).max() <= c.bits_per_symbol


class TestDetection:
    def test_nearest_point_bpsk(self):
        c = build_constellation(ConstellationKind.PSK, 2)
        assert detect_ml(0.9 + 0j, 1.0, c) == 0
        assert np.array_equal(detect_ml([0.9, -0.2 + 3j, -1.1], [1.0, 1.0, 1.0], c), [0, 1, 1])

    def test_noiseless_ap_identity(self):
        c = build_constellation(ConstellationKind.PSK, 4)
        gain = np.sqrt(2.5) * 7.3
        assert detect_ml(gain * np.exp(1j * np.pi), gain, c) == 2  # w = pi

    def test_qpsk_exhaustive_identity(self):
        c = build_constellation(ConstellationKind.PSK, 4)
        assert np.array_equal(detect_ml(c.points, np.ones(4), c), np.arange(4))

    def test_tie_breaks_low_index(self):
        c = build_constellation(ConstellationKind.PSK, 2)
        assert detect_ml(0.0 + 0.0j, 1.0, c) == 0
        # a zero gain makes all 16 hypotheses tie
        qam = build_constellation(ConstellationKind.QAM, 16)
        assert np.array_equal(detect_ml([0.3 + 0.1j, -2j], [0.0, 0.0], qam), [0, 0])

    def test_bit_errors_vs(self):
        c = build_constellation(ConstellationKind.PSK, 4)
        rx = detect_ml(c.points[3], 1.0, c)
        assert gray_labels.distance_table(c)[rx, 3] == 0
        assert 1 <= gray_labels.distance_table(c)[rx, 0] <= c.bits_per_symbol

    def test_rejects_nonfinite(self):
        c = build_constellation(ConstellationKind.PSK, 2)
        with pytest.raises(ValueError):
            detect_ml(np.nan + 0j, 1.0, c)
        with pytest.raises(ValueError):
            detect_ml(1.0, np.inf, c)
        with pytest.raises(ValueError):
            detect_ml([1.0, complex(0.0, np.inf)], [1.0, 1.0], c)


class TestDetectionProperties:
    @given(
        kind_order=st.sampled_from(ALL_KINDS_AND_ORDERS),
        index=st.integers(0, 63),
        gain_mag=st.floats(0.01, 100.0),
        gain_phase=st.floats(0.0, 2 * np.pi),
        energy=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_noiseless_round_trip(self, kind_order, index, gain_mag, gain_phase, energy):
        """modulate -> detect is the identity for every symbol and any gain."""
        kind, order = kind_order
        c = build_constellation(kind, order)
        m = index % order
        gain = np.sqrt(energy) * gain_mag * np.exp(1j * gain_phase)
        assert detect_ml(gain * c.points[m], gain, c) == m

    @given(
        scale=st.floats(1e-3, 1e3),
        noise_re=st.floats(-0.2, 0.2),
        noise_im=st.floats(-0.2, 0.2),
        index=st.integers(0, 15),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, scale, noise_re, noise_im, index):
        """Scaling both the received sample and the gain leaves the decision alone."""
        c = build_constellation(ConstellationKind.QAM, 16)
        received = c.points[index] + complex(noise_re, noise_im)
        assert detect_ml(scale * received, scale * 1.0, c) == detect_ml(received, 1.0, c)


class TestSlicerMatchesArgmin:
    """The O(1) slicers decide as the exhaustive argmin over all M hypotheses."""

    SAMPLES = 100_000
    BLOCK = 10_000

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
    @pytest.mark.parametrize("complex_gain", [False, True], ids=["real_gain", "complex_gain"])
    @pytest.mark.parametrize("kind,order", SLICER_CASES)
    def test_no_mismatch(self, kind, order, complex_gain, snr_db):
        c = build_constellation(kind, order)
        rng = np.random.default_rng(2024)
        n = self.SAMPLES
        if complex_gain:
            gain = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        else:
            gain = rng.standard_normal(n)  # both signs
        tx = rng.integers(0, order, size=n)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
            10.0 ** (-snr_db / 10.0) / 2.0
        )
        received = gain * c.points[tx] + noise
        sliced = detect_ml(received, gain, c)
        oracle = np.concatenate([
            argmin.detect_ml(received[k : k + self.BLOCK], gain[k : k + self.BLOCK], c)
            for k in range(0, n, self.BLOCK)
        ])
        assert np.count_nonzero(sliced != oracle) == 0
        assert 0 < np.count_nonzero(sliced != tx) < n  # the cases see errors, not only hits


class TestSlicerTies:
    """Exact decision boundaries follow the rule: ties go to the lowest index."""

    def test_bpsk_quadrature_axis_goes_to_zero(self):
        c = build_constellation(ConstellationKind.PSK, 2)
        assert np.array_equal(detect_ml([1j, -1j], 1.0, c), [0, 0])

    def test_qpsk_boundaries(self):
        """The diagonals: each goes to the lower of its two points, and the
        wrap tie between 3 and 0 goes to 0."""
        c = build_constellation(ConstellationKind.PSK, 4)
        assert np.array_equal(detect_ml([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 1.0, c), [0, 1, 2, 0])

    @pytest.mark.parametrize("order", [2, 4])
    def test_wrap_tie_goes_to_zero(self, order):
        """Halfway between M - 1 and 0 (angle -pi/M) decides 0, for any gain phase."""
        c = build_constellation(ConstellationKind.PSK, order)
        z = -1j if order == 2 else 1 - 1j
        gains = np.array([1.0, -1.0, 1j, -1j])  # rotations by multiples of pi/2 are exact
        assert np.array_equal(detect_ml(z * gains, gains, c), [0, 0, 0, 0])

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_negative_real_axis(self, order):
        """-1 - 0j and -1 + 0j both sit on point M/2."""
        c = build_constellation(ConstellationKind.PSK, order)
        assert np.array_equal(detect_ml([complex(-1, -0.0), complex(-1, 0.0)], 1.0, c), [order // 2] * 2)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_centre_four_way_tie(self, order):
        c = build_constellation(ConstellationKind.QAM, order)
        inner = np.flatnonzero(np.isclose(np.abs(c.points), np.abs(c.points).min()))
        assert len(inner) == 4
        assert np.array_equal(detect_ml([0j, 0j], [1.0, 1j], c), [inner.min()] * 2)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_axis_midpoints(self, order):
        """Halfway between two adjacent levels of either axis goes to the lower level."""
        c = build_constellation(ConstellationKind.QAM, order)
        side = int(np.sqrt(order))
        d = c.points.real[c.points.real > 0].min()  # levels are odd multiples of d
        level = lambda k: d * (2 * k - side + 1)
        for k in range(side - 1):
            midpoint = d * (2 * k - side + 2)
            for other in range(side):
                cases = {
                    complex(midpoint, level(other)): other * side + k,  # real-axis tie
                    complex(level(other), midpoint): k * side + other,  # imaginary-axis tie
                }
                for z, expected in cases.items():
                    assert detect_ml(z, 1.0, c) == expected, (k, other, z)
                    assert detect_ml(2.0 * z, 2.0, c) == expected, (k, other, z)

    def test_broadcast_zero_gain(self):
        """A zero gain decides 0 wherever it broadcasts; other rows are unaffected."""
        c = build_constellation(ConstellationKind.QAM, 16)
        received = c.points[[3, 7, 12, 15]]
        assert np.array_equal(detect_ml(received, 0.0, c), [0, 0, 0, 0])
        decided = detect_ml(received, np.array([[0.0], [1.0]]), c)
        assert np.array_equal(decided, [[0, 0, 0, 0], [3, 7, 12, 15]])
        psk = build_constellation(ConstellationKind.PSK, 8)
        assert np.array_equal(detect_ml(psk.points[[5, 6]], np.zeros((3, 1)), psk), np.zeros((3, 2)))

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
    def test_psk_zero_sample_goes_to_zero(self, order):
        """A zero sample is equidistant from every point, so it decides 0
        whatever the signs of its zeros and whatever the gain."""
        c = build_constellation(ConstellationKind.PSK, order)
        zeros = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
        for gain in (1.0, -1.0, 1j, -2 + 3j):
            assert np.array_equal(detect_ml(zeros, gain, c), [0] * 4), gain
            for z in zeros:
                assert detect_ml(z, gain, c) == 0, (z, gain)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_zero_sample_keeps_the_centre_tie(self, order):
        """Every signed zero takes the four-way centre tie to its lowest index."""
        c = build_constellation(ConstellationKind.QAM, order)
        inner = np.flatnonzero(np.isclose(np.abs(c.points), np.abs(c.points).min())).min()
        zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        for gain in (1.0, -1.0, 1j, -2 + 3j):
            assert np.array_equal(detect_ml(zeros, gain, c), [inner] * 4), gain


class TestBinarySlicer:
    """BPSK decides by the sign of Re(r * conj(g)), with no quotient and no angle."""

    BPSK = build_constellation(ConstellationKind.PSK, 2)
    SAMPLES = 1_000_000
    BLOCK = 200_000

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
    @pytest.mark.parametrize("complex_gain", [False, True], ids=["real_gain", "complex_gain"])
    def test_matches_the_angle_slicer(self, complex_gain, snr_db):
        """Equal to the general slicer on r / g over 10**6 samples per case;
        real gains take both signs."""
        rng = np.random.default_rng(2025)
        errors = 0
        for _ in range(self.SAMPLES // self.BLOCK):
            n = self.BLOCK
            if complex_gain:
                gain = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
            else:
                gain = rng.standard_normal(n)
            tx = rng.integers(0, 2, size=n)
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
                10.0 ** (-snr_db / 10.0) / 2.0
            )
            received = gain * self.BPSK.points[tx] + noise
            decided = detect_ml(received, gain, self.BPSK)
            z = received / gain
            assert np.array_equal(decided, _slice_phase(z.real, z.imag, 2))
            errors += np.count_nonzero(decided != tx)
        assert 0 < errors < self.SAMPLES  # the cases see errors, not only hits

    @pytest.mark.parametrize("gain", [1.0, -1.0, 1j, -1j, -2 + 3j])
    def test_ties_decide_zero(self, gain):
        """Samples on the quadrature axis (d == 0 exactly for these gains and
        scales) and the four signed zeros decide 0."""
        quadrature = (gain * 1j) * np.array([1.0, -1.0, 2.0, -3.0, 0.5])
        zeros = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
        for samples in (quadrature, zeros):
            assert np.array_equal(detect_ml(samples, gain, self.BPSK), np.zeros(len(samples))), samples
            for z in samples:
                assert detect_ml(z, gain, self.BPSK) == 0, (z, gain)

    @pytest.mark.parametrize("gain", [0.0, -0.0, 0j, complex(-0.0, -0.0)])
    def test_zero_gain_decides_zero(self, gain):
        samples = np.array([1.0, -1.0, 1j, -1 - 1j, complex(-0.0, 0.0)])
        assert np.array_equal(detect_ml(samples, gain, self.BPSK), np.zeros(5))
        assert np.array_equal(detect_ml(samples, np.full(5, gain), self.BPSK), np.zeros(5))

    def test_where_the_rules_part(self):
        """Where |Re z| is below about 1e-16 |Im z|, atan2 rounds the angle to
        exactly pi/2, so the angle slicer decides 0; the sample lies on the
        side of -1, and the sign rule decides 1."""
        z = complex(-1e-17, 1.0)
        assert detect_ml(z, 1.0, self.BPSK) == 1
        assert _slice_phase(np.array([z.real]), np.array([z.imag]), 2)[0] == 0

    def test_shapes_and_dtype(self):
        """Scalars give a 0-d intp array; other inputs give their broadcast shape."""
        for received, gain, shape in [
            (-0.5, 1.0, ()),
            (0.5 + 1j, 2.0 - 1j, ()),
            ([0.5, -0.5, 1j], 1.0, (3,)),
            (np.ones((2, 1)), np.array([1.0, -1.0, 1j]), (2, 3)),
            (np.ones((3, 1), complex), -np.ones((1, 4), complex), (3, 4)),
            (np.ones((0, 2)), 1.0, (0, 2)),
        ]:
            decided = detect_ml(received, gain, self.BPSK)
            assert isinstance(decided, np.ndarray) and decided.dtype == np.intp
            assert decided.shape == shape
        assert np.array_equal(detect_ml([[1.0], [-1.0]], [1.0, -2.0, 0.0], self.BPSK), [[0, 1, 0], [1, 0, 0]])


@pytest.mark.parametrize("kind, order", SLICER_CASES)
def test_detection_leaves_its_inputs_unchanged(kind, order):
    """detect_ml works on its own copies: received and gain keep their values,
    for real and complex gains, with and without a blocked (zero) gain."""
    c = build_constellation(kind, order)
    rng = np.random.default_rng(order)
    received = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    received[:4] = [0.0, complex(-0.0, -0.0), complex(1, -1), -1.0]
    for gain in (rng.standard_normal(64), received[::-1] * 1j, np.where(np.arange(64) % 5, 1.5, 0.0)):
        kept_received, kept_gain = received.copy(), gain.copy()
        detect_ml(received, gain, c)
        assert np.array_equal(received, kept_received) and np.array_equal(gain, kept_gain)
        assert np.array_equal(np.signbit(received.view(float)), np.signbit(kept_received.view(float)))


@pytest.mark.parametrize("kind, order", SLICER_CASES)
def test_real_axes_decide_as_the_complex_detector(kind, order):
    """detect_axes on (Re r, Im r) decides as detect_ml on r, sample for
    sample, at real gains of both signs and zero gains, over random samples,
    the constellation points and every signed zero; its inputs keep their
    values."""
    c = build_constellation(kind, order)
    rng = np.random.default_rng(order + 100)
    n = 20_000
    gain = rng.standard_normal(n)
    gain[::7] = 0.0
    gain[1::11] = -0.0
    tx = rng.integers(0, order, size=n)
    received = gain * c.points[tx] + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.3
    received[:order] = c.points  # noiseless at gain 1, and ties on the boundaries between them
    gain[:order] = 1.0
    received[order : order + 4] = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    i, q = received.real.copy(), received.imag.copy()
    kept = [a.copy() for a in (i, q, gain)]
    decided = detect_axes(i, q, gain, c)
    assert decided.dtype == np.intp
    assert np.array_equal(decided, detect_ml(received, gain, c))
    assert np.array_equal(decided[:order], np.arange(order))
    assert all(np.array_equal(a, b) for a, b in zip((i, q, gain), kept))
    assert 0 < np.count_nonzero(decided != tx) < n
