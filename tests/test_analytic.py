"""Tests for the MGFs, SEP integrals, bounds, and asymptotic laws.

Expected values marked "oracle" were produced by the adaptive-Simpson
routine at 1e-12 absolute tolerance on integrands written out directly from
the closed-form expressions (see the stable_* helpers below), independent
of the production Gauss-Legendre path.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ris_linklab.analytic import (
    _SNR_BLOCK,
    AnalyticModel,
    _brent,
    _check_nodes,
    _gl_integral,
    _leggauss,
    db_to_linear,
    mgf,
    required_snr_db,
    saturation_exponent,
    sep_mpsk,
    sep_mqam,
    sep_upper_bound,
    waterfall_rate,
)
from ris_linklab.modulation import ConstellationKind
from ris_linklab.rng import RngStream
from ris_linklab.schemes import Scheme

from average_snr import average_snr
from bench.oracles import qfunc, rayleigh_mpsk_ser, rayleigh_mqam_ser
from simpson import adaptive_simpson

PI = np.pi

GRID_N = (4, 8, 16, 32, 64, 128, 256)
GRID_DB = range(-50, 11, 5)


def model(scheme, n, snr) -> AnalyticModel:
    return AnalyticModel(scheme=scheme, n_reflectors=n, snr=snr)


def cpep(model: AnalyticModel, w_k: float, w_l: float, gain: float) -> float:
    """Pairwise message error probability conditioned on the channel gain.

    For the AP schemes with messages carried by phases w_k, w_l and a known
    composite gain magnitude:  Q( sqrt(snr * gain^2 * (1 - cos(w_l - w_k))) ).
    """
    g2 = float(np.abs(gain)) ** 2
    arg = model.snr * g2 * (1.0 - np.cos(w_l - w_k))
    return float(qfunc(np.sqrt(arg)))


def stable_intelligent_integrand(a, b):
    """sqrt(s2/(s2+a)) * exp(-b/(s2+a)) — the binary integrand of the
    intelligent schemes with the 1/sin^2 cleared, finite at eta = 0."""

    def f(eta):
        s2 = np.sin(eta) ** 2
        return np.sqrt(s2 / (s2 + a)) * np.exp(-b / (s2 + a))

    return f


class TestMgf:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_normalization_at_zero(self, scheme):
        assert mgf(model(scheme, 16, 0.5), 0.0) == pytest.approx(1.0)

    def test_blind_simple_value(self):
        # N * Es/N0 = 1, s = -1 -> (1 + 1)^-1
        assert mgf(model(Scheme.DH_BLIND, 1, 1.0), -1.0) == pytest.approx(0.5)

    def test_rejects_positive_s(self):
        with pytest.raises(ValueError):
            mgf(model(Scheme.DH_BLIND, 4, 1.0), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rejects_non_finite_s(self, scheme, bad):
        """NaN would pass silently and -inf give NaN (inf/inf) or 0, by scheme."""
        m = model(scheme, 4, 1.0)
        for s in (bad, np.array([-1.0, bad])):
            with pytest.raises(ValueError, match=r"finite s <= 0"):
                mgf(m, s)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_shapes_follow_snr_and_s(self, scheme):
        """snr.shape + s.shape, each value that of its one-point call."""
        snr, s = np.array([1e-3, 0.5, 20.0]), np.array([[-1e-3, -0.5], [-1.0, -7.25]])
        assert np.ndim(mgf(model(scheme, 16, 0.5), -1.0)) == 0
        grid = mgf(model(scheme, 16, snr), s)
        assert grid.shape == (3, 2, 2)
        for i, point in enumerate(snr):
            for j, k in np.ndindex(s.shape):
                assert grid[i, j, k] == mgf(model(scheme, 16, point), s[j, k])

    def test_against_monte_carlo_expectation(self):
        """E[exp(s*gamma)] estimated from 1e6 draws of the true composite gain."""
        n, snr, s = 16, 0.01, -1.0
        rng = RngStream(11).generator()
        alpha = rng.rayleigh(1 / np.sqrt(2), (1_000_000, n))
        beta = rng.rayleigh(1 / np.sqrt(2), (1_000_000, n))
        gamma = np.einsum("ij,ij->i", alpha, beta) ** 2 * snr
        empirical = np.exp(s * gamma).mean()
        assert mgf(model(Scheme.DH_INTELLIGENT, n, snr), s) == pytest.approx(
            empirical, rel=0.01
        )

    @pytest.mark.parametrize("scheme", [Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT])
    def test_equals_literal_closed_forms_bitwise(self, scheme):
        """The intelligent MGF, whose m2 and v come from the leg table, equals
        bit for bit the one built from the literal closed forms, so the table
        keeps their operation order (and the curve bytes)."""
        s = np.array([-1e-3, -0.5, -1.0, -7.25])
        snr = np.array([db_to_linear(db) for db in (-60.0, -17.5, 0.0, 30.0)])
        for n in range(1, 4097):
            if scheme is Scheme.DH_INTELLIGENT:
                m2, v = n * n * PI * PI / 16.0, n * (16.0 - PI * PI) / 8.0
            else:
                m2, v = n * n * PI / 4.0, n * (4.0 - PI) / 2.0
            column = snr.reshape(-1, 1)
            den = 1.0 - s * v * column
            want = np.exp(-0.5 * np.log(den) + s * m2 * column / den)
            got = mgf(model(scheme, n, snr), s)
            assert got.tobytes() == want.tobytes(), n

    def test_no_overflow_at_huge_n(self):
        m = model(Scheme.DH_INTELLIGENT, 10**6, 1.0)
        assert mgf(m, -1.0) == 0.0  # clean underflow, no overflow anywhere


class TestSepMpsk:
    def test_blind_binary_matches_closed_form(self):
        for n in (1, 4, 16, 64):
            for db in range(-20, 31):
                snr = float(db_to_linear(db))
                quad = sep_mpsk(model(Scheme.DH_BLIND, n, snr), 2)
                assert quad == pytest.approx(rayleigh_mpsk_ser(2, n * snr), abs=1e-10)

    @pytest.mark.parametrize("order", [4, 16, 64])
    @pytest.mark.parametrize("scheme", [Scheme.AP_BLIND, Scheme.DH_BLIND])
    def test_blind_mary_matches_closed_form(self, scheme, order):
        """ap_blind M-PSK and dh_blind square M-QAM against Simon & Alouini's
        Rayleigh closed forms at mean SNR N*snr, N = 1 ... 4096."""
        sep, closed_form = (sep_mpsk, rayleigh_mpsk_ser) if scheme.is_access_point else (sep_mqam, rayleigh_mqam_ser)
        snr = np.array([db_to_linear(db) for db in range(-20, 31)])
        for n in (1 << k for k in range(13)):
            want = closed_form(order, n * snr)
            assert sep(model(scheme, n, snr), order) == pytest.approx(want, rel=1e-9, abs=0), n

    def test_blind_example_value(self):
        # r = 3 -> (1 - sqrt(3/4))/2
        assert sep_mpsk(model(Scheme.DH_BLIND, 3, 1.0), 2) == pytest.approx(
            0.0669872981077807, abs=1e-10
        )

    def test_zero_snr_limit_is_coin_flip(self):
        assert sep_mpsk(model(Scheme.DH_BLIND, 4, 1e-12), 2) == pytest.approx(0.5, abs=1e-6)

    def test_dh_intelligent_against_simpson_oracle(self):
        n, snr = 16, 10**-3.2
        value = sep_mpsk(model(Scheme.DH_INTELLIGENT, n, snr), 2)
        assert value == pytest.approx(0.32827407770979056, abs=1e-9)  # oracle
        a = n * (16 - PI * PI) * snr / 8
        b = n * n * PI * PI * snr / 16
        oracle = adaptive_simpson(stable_intelligent_integrand(a, b), 0, PI / 2, 1e-12) / PI
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_ap_intelligent_against_simpson_oracle(self):
        n, snr = 64, 10**-2.8
        value = sep_mpsk(model(Scheme.AP_INTELLIGENT, n, snr), 2)
        assert value == pytest.approx(0.0008860657134461343, abs=1e-9)  # oracle
        a = n * (4 - PI) * snr / 2
        b = n * n * PI * snr / 4
        oracle = adaptive_simpson(stable_intelligent_integrand(a, b), 0, PI / 2, 1e-12) / PI
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            sep_mpsk(model(Scheme.DH_BLIND, 4, 1.0), 1)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rejects_fewer_than_16_nodes(self, scheme):
        """For every scheme, also blind, whose closed forms use no nodes."""
        calls = [lambda m: sep_mpsk(m, 2, nodes=15)]
        if not scheme.is_access_point:
            calls.append(lambda m: sep_mqam(m, 16, nodes=15))
        for call in calls:
            with pytest.raises(ValueError, match="nodes must be >= 16, got 15"):
                call(model(scheme, 4, 1.0))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rejects_more_than_4096_nodes(self, scheme, monkeypatch):
        """For every scheme, before any nodes are built."""
        monkeypatch.setattr("ris_linklab.analytic._leggauss", lambda nodes: pytest.fail("nodes were built"))
        calls = [lambda m: sep_mpsk(m, 2, nodes=4097)]
        if not scheme.is_access_point:
            calls.append(lambda m: sep_mqam(m, 16, nodes=4097))
        for call in calls:
            with pytest.raises(ValueError, match="nodes must be <= 4096, got 4097"):
                call(model(scheme, 4, 1.0))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_node_count_must_be_an_integer(self, scheme):
        """For every scheme: a float count is refused as such (intelligent used
        to fail inside numpy's leggauss, blind to accept it), and a numpy
        integer gives the bytes of the Python int."""
        m = model(scheme, 4, np.array([0.01, 1.0, 100.0]))
        seps = [(sep_mpsk, 2)] if scheme.is_access_point else [(sep_mpsk, 2), (sep_mqam, 16)]
        for sep, order in seps:
            for bad in (100.5, 64.0, "64"):
                with pytest.raises(ValueError, match=rf"^nodes must be an integer, got {bad!r}$"):
                    sep(m, order, nodes=bad)
            assert sep(m, order, nodes=np.int64(64)).tobytes() == sep(m, order, nodes=64).tobytes()

    def test_refuses_a_huge_node_count_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^nodes must be <= 4096, got 1000000000$"):
                _check_nodes(10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def craig_quad(theta, x):
    """Integral over [0, theta] of the blind Craig integrand
    M_gamma(-c / sin^2 eta) = sin^2 eta / (sin^2 eta + x) by scipy's adaptive
    quadrature, split at sqrt(x), the width of its rise from eta = 0."""
    f = lambda eta: math.sin(eta) ** 2 / (math.sin(eta) ** 2 + x)
    cuts = [0.0, *(e for e in (math.sqrt(x), 4.0 * math.sqrt(x)) if e < theta), theta]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        value, error = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        assert error <= 1e-13 * abs(value)
        total += value
    return total


class TestBlindClosedForm:
    """The blind Craig integrals in closed form, against independent adaptive
    quadrature where the oracle's subtracted forms lose digits."""

    NS = (1, 4, 16, 64, 256, 1024, 4096)
    SNR = np.array([db_to_linear(db) for db in range(-20, 61, 5)])

    @pytest.mark.parametrize("scheme", [Scheme.DH_BLIND, Scheme.AP_BLIND])
    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_mpsk_against_quad(self, scheme, order):
        c, theta = np.sin(PI / order) ** 2, (order - 1) * PI / order
        for n in self.NS:
            got = sep_mpsk(model(scheme, n, self.SNR), order)
            want = np.array([craig_quad(theta, c * n * snr) / PI for snr in self.SNR])
            assert got == pytest.approx(want, rel=1e-12, abs=0), n

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_mqam_against_quad(self, order):
        q, c = 1.0 - 1.0 / math.sqrt(order), 3.0 / (2.0 * (order - 1))
        for n in self.NS:
            got = sep_mqam(model(Scheme.DH_BLIND, n, self.SNR), order)
            x = c * n * self.SNR
            first = np.array([craig_quad(PI / 2, v) for v in x])
            second = np.array([craig_quad(PI / 4, v) for v in x])
            want = (4.0 * q / PI) * first - (4.0 * q * q / PI) * second
            assert got == pytest.approx(want, rel=1e-12, abs=0), n

    @pytest.mark.parametrize("scheme", [Scheme.DH_BLIND, Scheme.AP_BLIND])
    def test_nodes_do_not_move_blind_curves(self, scheme):
        """nodes is checked for blind but never used: 16 and 512 give the same bytes."""
        m = model(scheme, 64, self.SNR)
        calls = [lambda nodes: sep_mpsk(m, 2, nodes), lambda nodes: sep_mpsk(m, 64, nodes)]
        if not scheme.is_access_point:
            calls.append(lambda nodes: sep_mqam(m, 16, nodes))
        for call in calls:
            assert call(16).tobytes() == call(512).tobytes()


# Every SNR the CLI accepts, about -3236 to +3082 dB, near both ends and at the
# onsets where the intelligent quadrature turned NaN (2958 dB at N = 4096 to
# 2996 dB at N = 1) before overflowed MGF terms took their limit.
EXTREME_DB = (-3236.0, -3235.0, -3200.0, -3083.0, -3082.0, -3000.0, 0.0, 2950.0, 2958.0, 2960.0,
              2990.0, 2995.0, 2996.0, 3000.0, 3050.0, 3080.0, 3082.0, 3082.5)


@pytest.mark.parametrize("n", [1, 4096])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_curves_are_finite_over_every_accepted_snr(scheme, n):
    """Each exact curve and bound is finite, lies in [0, 1] and does not
    increase with SNR, without a RuntimeWarning (which fails the suite)."""
    snr = np.array([db_to_linear(db) for db in EXTREME_DB])
    assert np.all((snr > 0) & np.isfinite(snr))
    m = model(scheme, n, snr)
    curves = [sep_mpsk(m, order) for order in (2, 64)]
    curves += [sep_upper_bound(m, order) for order in (2, 64)]
    if not scheme.is_access_point:
        curves += [sep_mqam(m, order) for order in (4, 256)]
        curves += [sep_upper_bound(m, order, ConstellationKind.QAM) for order in (4, 256)]
    for curve in curves:
        assert np.all(np.isfinite(curve)) and np.all((curve >= 0) & (curve <= 1))
        assert np.all(np.diff(curve) <= 0), curve
    assert curves[0][-1] < 1e-150  # the top of the grid reaches the zero-error tail


POWER_OF_TWO, SQUARE = "order must be a power of two >= 2", "square power-of-two order"


@pytest.mark.parametrize("call, message", [
    (lambda m: sep_mqam(m, 36), POWER_OF_TWO),
    (lambda m: sep_mqam(m, 9), POWER_OF_TWO),
    (lambda m: sep_mqam(m, 8), SQUARE),
    (lambda m: sep_mpsk(m, 3), POWER_OF_TWO),
    (lambda m: sep_upper_bound(m, 36, ConstellationKind.QAM), POWER_OF_TWO),
    (lambda m: sep_upper_bound(m, 6), POWER_OF_TWO),
    (lambda m: waterfall_rate(Scheme.DH_INTELLIGENT, 16, 36), POWER_OF_TWO),
    (lambda m: waterfall_rate(Scheme.AP_INTELLIGENT, 16, 12), POWER_OF_TWO),
], ids=["mqam36", "mqam9", "mqam8", "mpsk3", "bound_qam36", "bound_psk6", "waterfall_dh36", "waterfall_ap12"])
def test_library_refuses_the_orders_the_simulator_refuses(call, message):
    """The analytic functions take only the orders ``check_order`` takes: a
    power of two, and for QAM also a square.  36 and 9 are squares but not
    powers of two, 8 is a power of two but not a square."""
    with pytest.raises(ValueError, match=message):
        call(model(Scheme.DH_INTELLIGENT, 16, 1.0))


class TestSepMqam:
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("db", [-40, -30, -20])
    def test_qam4_equals_qpsk(self, n, db):
        m = model(Scheme.DH_INTELLIGENT, n, float(db_to_linear(db)))
        assert sep_mqam(m, 4) == pytest.approx(sep_mpsk(m, 4), abs=1e-9)

    def test_zero_snr_limit_uniform_guess(self):
        assert sep_mqam(model(Scheme.DH_BLIND, 4, 1e-14), 4) == pytest.approx(0.75, abs=1e-5)

    def test_against_simpson_oracle(self):
        value = sep_mqam(model(Scheme.DH_INTELLIGENT, 64, 1e-3), 16)
        assert value == pytest.approx(0.587657315273965, abs=1e-9)  # oracle

    def test_rejects_non_square_order(self):
        with pytest.raises(ValueError):
            sep_mqam(model(Scheme.DH_INTELLIGENT, 8, 1.0), 8)

    def test_rejects_ap_schemes(self):
        with pytest.raises(ValueError):
            sep_mqam(model(Scheme.AP_INTELLIGENT, 8, 1.0), 16)


class TestUpperBound:
    @pytest.mark.parametrize("scheme", [Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT, Scheme.DH_BLIND])
    def test_dominates_exact_binary(self, scheme):
        for n in GRID_N:
            for db in GRID_DB:
                m = model(scheme, n, float(db_to_linear(db)))
                assert sep_upper_bound(m, 2) >= sep_mpsk(m, 2)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_dominates_exact_qam(self, order):
        for n in GRID_N:
            for db in GRID_DB:
                m = model(Scheme.DH_INTELLIGENT, n, float(db_to_linear(db)))
                assert sep_upper_bound(m, order, ConstellationKind.QAM) >= sep_mqam(m, order)

    def test_zero_snr_limit(self):
        m = model(Scheme.DH_INTELLIGENT, 16, 1e-14)
        assert sep_upper_bound(m, 2) == pytest.approx(0.5, abs=1e-6)

    def test_tightness_in_target_region(self):
        """The bound tracks the exact value within a small constant factor."""
        n = 32
        for db in range(-22, -10):
            m = model(Scheme.DH_INTELLIGENT, n, float(db_to_linear(db)))
            ratio = sep_upper_bound(m, 2) / sep_mpsk(m, 2)
            assert 1.0 <= ratio < 10.0


class TestArraySnr:
    """An array snr gives, point for point, the bits of the one-point calls."""

    GRID = [db_to_linear(-60.0 + 0.6 * k) for k in range(150)]

    @staticmethod
    def calls(scheme, order):
        calls = [lambda m: sep_mpsk(m, order), lambda m: sep_upper_bound(m, order)]
        if not scheme.is_access_point and order >= 4:
            calls += [
                lambda m: sep_mqam(m, order),
                lambda m: sep_upper_bound(m, order, ConstellationKind.QAM),
            ]
        return calls

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_array_equals_scalar_bitwise(self, scheme, order):
        """On grids that end on each side of every slice edge (_SNR_BLOCK)."""
        assert _SNR_BLOCK == 64
        for call in self.calls(scheme, order):
            scalar = np.array([call(model(scheme, 64, snr)) for snr in self.GRID])
            for length in (1, 63, 64, 65, 129, len(self.GRID)):
                array = call(model(scheme, 64, np.array(self.GRID[:length])))
                assert isinstance(array, np.ndarray) and array.shape == (length,)
                assert array.tobytes() == scalar[:length].tobytes(), length

    @pytest.mark.parametrize("sep", [sep_mqam, sep_mpsk])
    def test_long_grid_memory_is_bounded(self, sep):
        """The integrals take a long grid a slice at a time: 4096 points peak
        below 2 MiB of traced memory (25 MB when evaluated at once)."""
        long = model(Scheme.DH_INTELLIGENT, 64, np.geomspace(1e-7, 1.0, 4096))
        sep(long, 16)  # fills the quadrature node cache
        tracemalloc.start()
        try:
            sep(long, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("scheme, sep", [
        (Scheme.DH_INTELLIGENT, sep_mqam), (Scheme.AP_INTELLIGENT, sep_mpsk),
        (Scheme.DH_BLIND, sep_mqam), (Scheme.AP_BLIND, sep_mpsk),
    ])
    def test_slice_is_computed_in_place(self, scheme, sep):
        """A 64-point call holds at most two (points x nodes) arrays of 128 kB
        at once for the intelligent schemes and none for blind, whose closed
        forms hold a few 64-point arrays, plus 16 kB for the node vectors and
        the result."""
        slices = 2 if scheme.is_intelligent else 0
        one_slice = model(scheme, 64, np.geomspace(1e-7, 1.0, _SNR_BLOCK))
        sep(one_slice, 16)  # fills the quadrature node cache
        tracemalloc.start()
        try:
            sep(one_slice, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= slices * _SNR_BLOCK * 256 * 8 + 16 * 2**10

    @pytest.mark.parametrize("scheme", [Scheme.DH_INTELLIGENT, Scheme.AP_BLIND])
    def test_scalar_snr_returns_float(self, scheme):
        for call in self.calls(scheme, 16):
            assert type(call(model(scheme, 64, 1e-3))) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_one_bad_element(self, bad):
        snr = np.full(5, 1e-3)
        snr[3] = bad
        with pytest.raises(ValueError, match=r"snr\[3\] must be finite and > 0"):
            model(Scheme.DH_INTELLIGENT, 16, snr)

    def test_rejects_two_dimensional_snr(self):
        with pytest.raises(ValueError, match="1-D"):
            model(Scheme.DH_BLIND, 16, np.full((2, 2), 1e-3))

    def test_keeps_a_copy_of_the_checked_values(self):
        snr = np.full(3, 1e-3)
        m = model(Scheme.DH_BLIND, 16, snr)
        snr[0] = np.nan
        assert np.isfinite(m.snr).all()
        with pytest.raises(ValueError):
            m.snr[0] = np.nan
        scalar = np.array(1e-3)  # a 0-d array is kept as the float it held
        m, h = model(Scheme.DH_BLIND, 16, scalar), hash(model(Scheme.DH_BLIND, 16, 1e-3))
        scalar[...] = -1.0
        assert type(m.snr) is float and m.snr == 1e-3 and hash(m) == h

    def test_value_equality(self):
        """Models compare and hash by value, an array snr by content."""
        a, b = model(Scheme.DH_BLIND, 16, np.array(self.GRID)), model(Scheme.DH_BLIND, 16, list(self.GRID))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert model(Scheme.DH_BLIND, 16, 2) == model(Scheme.DH_BLIND, 16, 2.0)
        assert hash(model(Scheme.DH_BLIND, 16, 2)) == hash(model(Scheme.DH_BLIND, 16, 2.0))
        assert a != model(Scheme.DH_BLIND, 16, np.array(self.GRID) * 2)
        assert a != model(Scheme.DH_BLIND, 16, np.array(self.GRID[:-1]))
        assert a != model(Scheme.AP_BLIND, 16, np.array(self.GRID)) and a != model(Scheme.DH_BLIND, 8, self.GRID)
        assert model(Scheme.DH_BLIND, 16, 2.0) != model(Scheme.DH_BLIND, 16, [2.0]) and a != self.GRID


class TestGlReduction:
    """_gl_integral reduces each row exactly as a one-row np.dot(w, row),
    giving its integrand the nodes once and slices of at most _SNR_BLOCK
    points."""

    NODES = 256

    def rows(self, count):
        gen = RngStream(seed=11, stream_id=count).generator()
        mantissa = gen.uniform(0.5, 1.0, size=(count, self.NODES))
        return mantissa * 10.0 ** gen.integers(-300, 301, size=(count, self.NODES))

    @pytest.mark.parametrize("count", [1, 2, 37, 64, 65, 129])
    def test_block_equals_per_row_dot_bitwise(self, count):
        values = self.rows(count)
        _, w = _leggauss(self.NODES)
        slices, nodes = [], []

        def func(eta):
            nodes.append(eta)
            return lambda rows: slices.append(len(rows)) or values[rows.astype(np.intp)]  # snr = row number

        got = _gl_integral(func, np.arange(count, dtype=float), -1.0, 1.0, self.NODES)  # half-width 1
        assert len(nodes) == 1 and nodes[0].tobytes() == _leggauss(self.NODES)[0].tobytes()
        assert got.shape == (count,) and max(slices) <= _SNR_BLOCK and sum(slices) == count
        assert got.tobytes() == np.array([np.dot(w, row) for row in values]).tobytes()

    def test_one_point_is_a_scalar_dot(self):
        values = self.rows(1)[0]
        _, w = _leggauss(self.NODES)
        got = _gl_integral(lambda eta: lambda rows: values[None], 1e-3, -1.0, 1.0, self.NODES)
        assert np.ndim(got) == 0
        assert float(got) == float(np.dot(w, values))


class TestAsymptote:
    def test_dh_binary_rate(self):
        assert waterfall_rate(Scheme.DH_INTELLIGENT, 1, 2) == pytest.approx(PI**2 / 16)

    def test_doubling_n_quadruples_rate(self):
        r1 = waterfall_rate(Scheme.DH_INTELLIGENT, 32, 2)
        r2 = waterfall_rate(Scheme.DH_INTELLIGENT, 64, 2)
        assert r2 / r1 == pytest.approx(4.0)
        assert 10 * np.log10(r2 / r1) == pytest.approx(6.0206, abs=1e-3)

    def test_ap_vs_dh_binary_ratio(self):
        """The two binary waterfall rates differ by 4/pi = 1.049 dB."""
        dh = waterfall_rate(Scheme.DH_INTELLIGENT, 64, 2)
        ap = waterfall_rate(Scheme.AP_INTELLIGENT, 64, 2)
        assert ap / dh == pytest.approx(4 / PI)
        assert 10 * np.log10(ap / dh) == pytest.approx(1.0491, abs=1e-3)

    def test_qam_rate(self):
        assert waterfall_rate(Scheme.DH_INTELLIGENT, 8, 16) == pytest.approx(3 * 64 * PI**2 / (32 * 15))

    def test_ap_mary_rate(self):
        assert waterfall_rate(Scheme.AP_INTELLIGENT, 8, 8) == pytest.approx(np.sin(PI / 8) ** 2 * 64 * PI / 4)

    def test_saturation_exponent(self):
        assert saturation_exponent(16) == pytest.approx(-16 * PI**2 / (2 * (16 - PI**2)))

    def test_rejects_scheme_and_order(self):
        for scheme in (Scheme.DH_BLIND, Scheme.AP_BLIND):
            with pytest.raises(ValueError, match="no waterfall law"):
                waterfall_rate(scheme, 16, 2)
        with pytest.raises(ValueError, match="square power-of-two order"):
            waterfall_rate(Scheme.DH_INTELLIGENT, 16, 8)
        with pytest.raises(ValueError, match="order must be a power of two >= 2"):
            waterfall_rate(Scheme.AP_INTELLIGENT, 16, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_surface(self, n):
        for scheme in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT):
            with pytest.raises(ValueError, match=f"n_reflectors must be >= 1, got {n}"):
                waterfall_rate(scheme, n, 2)
        with pytest.raises(ValueError, match=f"n_reflectors must be >= 1, got {n}"):
            saturation_exponent(n)


class TestRegimeFit:
    def test_waterfall_slope_recovered(self):
        """ln(bound) vs snr regression over a low-SNR window matches -decay_rate."""
        n = 64
        rate = waterfall_rate(Scheme.DH_INTELLIGENT, n, 2)
        dbs = np.arange(-50, -40)  # N*snr < 0.1 throughout
        snrs = np.array([db_to_linear(d) for d in dbs])
        logs = [np.log(sep_upper_bound(model(Scheme.DH_INTELLIGENT, n, s), 2)) for s in snrs]
        slope = np.polyfit(snrs, logs, 1)[0]
        assert abs(-slope - rate) / rate < 0.05

    def test_saturation_slope_recovered(self):
        """log-log slope -> -1/2 in the high-SNR window."""
        n = 16
        dbs = np.arange(20, 30)  # N*snr >> 1 throughout
        snrs = np.array([db_to_linear(d) for d in dbs])
        logs = [np.log(sep_upper_bound(model(Scheme.DH_INTELLIGENT, n, s), 2)) for s in snrs]
        slope = np.polyfit(np.log(snrs), logs, 1)[0]
        assert abs(slope - (-0.5)) < 0.05 * 0.5


class TestCpep:
    def test_equal_messages(self):
        assert cpep(model(Scheme.AP_INTELLIGENT, 4, 1.0), 0.3, 0.3, 5.0) == pytest.approx(0.5)

    def test_antipodal_value(self):
        # snr * gain^2 = 2, w_l - w_k = pi -> Q(sqrt(4)) = Q(2)
        m = model(Scheme.AP_INTELLIGENT, 4, 2.0)
        assert cpep(m, 0.0, PI, 1.0) == pytest.approx(0.02275013194817921, abs=1e-12)

    def test_against_noise_simulation(self):
        """Empirical pairwise error rate at fixed gain, 1e6 noise draws."""
        es, n0, b = 1.0, 0.5, 1.2
        w_k, w_l = 0.0, PI / 2
        rng = RngStream(77).generator()
        noise = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) * np.sqrt(n0 / 2)
        r = np.sqrt(es) * b * np.exp(1j * w_k) + noise
        d_true = np.abs(r - np.sqrt(es) * b * np.exp(1j * w_k)) ** 2
        d_wrong = np.abs(r - np.sqrt(es) * b * np.exp(1j * w_l)) ** 2
        empirical = np.mean(d_wrong < d_true)
        p = cpep(model(Scheme.AP_INTELLIGENT, 4, es / n0), w_k, w_l, b)
        se = np.sqrt(p * (1 - p) / 1_000_000)
        assert abs(empirical - p) < 3 * se


class TestAverageSnr:
    def test_n1(self):
        assert average_snr(model(Scheme.DH_INTELLIGENT, 1, 1.0)) == pytest.approx(1.0)

    def test_n16(self):
        expected = 15 * PI**2 + 16
        assert average_snr(model(Scheme.DH_INTELLIGENT, 16, 1.0)) == pytest.approx(expected)

    def test_quadrupling_n(self):
        lo = average_snr(model(Scheme.DH_INTELLIGENT, 64, 1.0))
        hi = average_snr(model(Scheme.DH_INTELLIGENT, 256, 1.0))
        assert hi / lo == pytest.approx(16.0, rel=0.01)

    def test_rejects_other_schemes(self):
        for scheme in (Scheme.DH_BLIND, Scheme.AP_INTELLIGENT, Scheme.AP_BLIND):
            with pytest.raises(ValueError):
                average_snr(model(scheme, 4, 1.0))

    def test_mgf_derivative_matches_mean(self):
        """One-sided finite difference of the MGF at 0 equals E[gamma]."""
        m = model(Scheme.DH_INTELLIGENT, 16, 1.0)
        h = 1e-6
        derivative = (mgf(m, 0.0) - mgf(m, -h)) / h
        assert abs(derivative - average_snr(m)) / average_snr(m) < 1e-3


class TestMonotonicityAndStability:
    @pytest.mark.parametrize("scheme", [Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT, Scheme.DH_BLIND])
    def test_decreasing_in_snr(self, scheme):
        for n in (4, 64):
            values = [
                sep_mpsk(model(scheme, n, float(db_to_linear(db))), 2) for db in GRID_DB
            ]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_decreasing_in_n(self):
        for db in (-30, -20, -10):
            values = [
                sep_mpsk(model(Scheme.DH_INTELLIGENT, n, float(db_to_linear(db))), 2)
                for n in GRID_N
            ]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_node_doubling_converged(self):
        """Doubling the Gauss-Legendre order moves no binary SEP by > 1e-10
        relative.  On every figure preset's exact curve, fig6's M-QAM and
        M-PSK at N = 64 among them, it moves none by > 1e-6 relative where
        the SEP exceeds 1e-12 (the worst, 8.8e-8, is 64-PSK on
        ap_intelligent at -59 dB)."""
        from ris_linklab import cli

        for scheme in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT, Scheme.DH_BLIND):
            for n in (4, 64, 256):
                for db in (-40, -20, 0):
                    m = model(scheme, n, float(db_to_linear(db)))
                    a = sep_mpsk(m, 2, nodes=256)
                    b = sep_mpsk(m, 2, nodes=512)
                    assert abs(a - b) <= 1e-10 * max(a, 1e-300)
        orders = set()
        for series in cli.FIGURES.values():
            for scheme, n, order, window, _, curve, _ in series:
                if not curve:
                    continue
                kind = cli._constellation_kind(scheme, order)
                m = model(scheme, n, np.array([db_to_linear(db) for db in cli._snr_grid(*window, 1.0)]))
                a = cli._exact_sep(m, order, kind, 256)
                b = cli._exact_sep(m, order, kind, 512)
                shown = a > 1e-12
                assert shown.sum() >= 20
                assert np.all(np.abs(a - b)[shown] <= 1e-6 * a[shown]), (scheme, n, order)
                orders.add((kind, order))
        assert {(ConstellationKind.QAM, 64), (ConstellationKind.PSK, 64)} <= orders

    def test_probability_range(self):
        for scheme in list(Scheme):
            for db in (-40, 0, 20):
                p = sep_mpsk(model(scheme, 16, float(db_to_linear(db))), 4)
                assert 0.0 <= p <= 1.0


class TestRequiredSnr:
    def test_blind_crossing_matches_algebra(self):
        # closed form inverted by hand: r = (1-2p)^2 / (1-(1-2p)^2)
        n, target = 16, 1e-3
        curve = lambda snr: sep_mpsk(model(Scheme.DH_BLIND, n, snr), 2)
        db = required_snr_db(curve, target)
        u = 1 - 2 * target
        r = u * u / (1 - u * u)
        assert db == pytest.approx(10 * np.log10(r / n), abs=1e-6)

    def test_out_of_range_target(self):
        curve = lambda snr: sep_mpsk(model(Scheme.DH_BLIND, 4, snr), 2)
        with pytest.raises(ValueError):
            required_snr_db(curve, 1e-30, lo_db=-10, hi_db=10)

    def test_float_when_an_int_end_is_the_crossing(self):
        target = 1e-3
        curve = lambda snr: target * db_to_linear(-10) / snr  # target at exactly -10 dB
        db = required_snr_db(curve, target, lo_db=-10, hi_db=10)
        assert type(db) is float and db == -10.0

    def test_nan_curve_is_a_numerical_failure(self):
        curve = lambda snr: 1e-3 if snr < 1.0 else math.nan
        with pytest.raises(ArithmeticError, match="NaN"):
            required_snr_db(curve, 1e-2)

    def test_non_convergence_is_a_numerical_failure(self):
        """A flat triple root defeats Brent's method within 100 iterations,
        in scipy's brentq and in the port alike."""
        cubic = lambda x: -((x - 0.3) ** 3)
        assert not brentq(cubic, -80.0, 60.0, xtol=1e-9, full_output=True, disp=False)[1].converged
        with pytest.raises(ArithmeticError, match="100 iterations"):
            _brent(cubic, -80, 60, cubic(-80), cubic(60))


def sep_curve(scheme, n, order):
    if order > 2 and not scheme.is_access_point:
        return lambda snr: sep_mqam(model(scheme, n, snr), order)
    return lambda snr: sep_mpsk(model(scheme, n, snr), order)


def counted(f):
    """f, counting its calls in the returned list's one element."""
    calls = [0]

    def wrapper(x):
        calls[0] += 1
        return f(x)

    return wrapper, calls


# The curves compare inverts: the criterion-3 (dh_intelligent N vs 2N) and
# criterion-5 (dh_intelligent vs ap_intelligent at N) ladders for
# N = 32 ... 512 at 1e-5, blind curves, and M = 4 and 16.
PINNED_CURVES = (
    [(Scheme.DH_INTELLIGENT, 32 << k, 2, 1e-5) for k in range(6)]
    + [(Scheme.AP_INTELLIGENT, 32 << k, 2, 1e-5) for k in range(5)]
    + [(s, n, 2, 1e-3) for s in (Scheme.DH_BLIND, Scheme.AP_BLIND) for n in (4, 16, 64)]
    + [(s, 64, m, t) for s in (Scheme.DH_INTELLIGENT, Scheme.AP_INTELLIGENT) for m in (4, 16) for t in (1e-2, 1e-5)]
)


class TestBrentPort:
    """_brent is scipy's brentq C routine in Python: same root, bit for bit,
    after the same number of evaluations."""

    @pytest.mark.parametrize("scheme, n, order, target", PINNED_CURVES)
    def test_required_snr_matches_scipy(self, scheme, n, order, target):
        curve, calls = counted(sep_curve(scheme, n, order))
        got = required_snr_db(curve, target)

        def gap(db):  # required_snr_db's gap, for scipy
            p = max(float(curve(db_to_linear(db))), 1e-300)
            return np.log(p) - np.log(target)

        ours, calls[0] = calls[0], 0
        want, info = brentq(gap, -80.0, 60.0, xtol=1e-9, full_output=True)
        assert got.hex() == want.hex()
        assert ours == calls[0] == info.function_calls

    def test_synthetic_brackets_match_scipy(self):
        """Odd powers and sigmoids around random roots.  Half the cases are
        scaled by 1e-160, so that the extrapolation's denominator underflows
        to 0, where C takes an infinite step and the port a ZeroDivisionError."""
        rng = np.random.default_rng(20191)
        outcomes = []
        for case in range(400):
            r, scale = rng.uniform(-20, 20), rng.uniform(0.05, 5.0)
            shape, s = case % 4, scale * (1e-160 if case % 8 < 4 else 1.0)
            if shape == 0:  # odd power: flat multiple roots at 3 and 5
                k = (1, 3, 5)[rng.integers(3)]
                f = lambda x, r=r, s=s, k=k: -s * (x - r) ** k
            elif shape == 1:
                f = lambda x, r=r, s=s, a=scale: s * math.tanh(a * (x - r))
            elif shape == 2:
                f = lambda x, r=r, s=s, a=scale: s * math.expm1(a * (r - x))
            else:  # a cubic with a slope c at its root
                c = 10.0 ** rng.uniform(-8, 1)
                f = lambda x, r=r, s=s, c=c: s * (x - r) * ((x - r) ** 2 + c)
            span = min(100.0, 100.0 / scale)
            lo, hi = r - rng.uniform(1e-3, 1.0) * span, r + rng.uniform(1e-3, 1.0) * span
            want, info = brentq(f, lo, hi, xtol=1e-9, full_output=True, disp=False)
            g, calls = counted(f)
            if info.converged:
                assert _brent(g, lo, hi, g(lo), g(hi)).hex() == want.hex(), case
            else:
                with pytest.raises(ArithmeticError):
                    _brent(g, lo, hi, g(lo), g(hi))
            assert calls[0] == info.function_calls, case
            outcomes.append(info.converged)
        assert 0 < outcomes.count(False) < len(outcomes)


class TestQfunc:
    def test_standard_values(self):
        assert qfunc(0.0) == pytest.approx(0.5)
        assert qfunc(2.0) == pytest.approx(0.02275013194817921, abs=1e-15)

    def test_simpson_sanity(self):
        """The oracle integrator reproduces a textbook integral."""
        assert adaptive_simpson(np.sin, 0.0, PI, 1e-12) == pytest.approx(2.0, abs=1e-11)
