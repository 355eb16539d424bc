import math
import re

import numpy as np
import pytest

from audit_util import eta_from_db, mean_downlink_fade
from qsatnet import channel as ch
from qsatnet.engine import make_stream


class TestBeamRadius:
    def test_waist_at_origin(self):
        beam = ch.BeamParams(0.25)
        assert ch.beam_radius(beam, 0.0) == 0.25

    def test_rayleigh_range_sqrt2(self):
        beam = ch.BeamParams(0.25)
        assert ch.beam_radius(beam, beam.rayleigh_range) == pytest.approx(
            0.25 * math.sqrt(2.0))

    def test_frozen_value_200km(self):
        # w0*sqrt(1 + (z*lambda/(pi*w0^2))^2) = 0.467217 m
        beam = ch.BeamParams(0.25, 1.55e-6)
        assert ch.beam_radius(beam, 200e3) == pytest.approx(0.4672, abs=1e-3)

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            ch.beam_radius(ch.BeamParams(0.25), -1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_nonfinite_z_rejected(self, z):
        with pytest.raises(ValueError, match="^distance must be"):
            ch.beam_radius(ch.BeamParams(0.25), z)


class TestDiffractionTransmittance:
    """The three loss-budget witness points, frozen from the formula:
    eta = 1 - exp(-2*rx^2/w(z)^2)."""

    def test_intersatellite_200km(self):
        eta = ch.diffraction_transmittance(ch.BeamParams(0.25), 0.25, 200e3)
        assert eta == pytest.approx(0.436, abs=1e-3)
        assert ch.db_from_eta(eta) == pytest.approx(3.605, abs=1e-3)
        assert abs(ch.db_from_eta(eta) - 3.0) <= 1.0

    def test_downlink_1200km(self):
        eta = ch.diffraction_transmittance(ch.BeamParams(0.20), 1.25, 1200e3)
        assert eta == pytest.approx(0.29881, abs=1e-4)
        assert ch.db_from_eta(eta) == pytest.approx(5.246, abs=1e-3)
        assert abs(ch.db_from_eta(eta) - 5.0) <= 1.0

    def test_coordination_tier_36000km(self):
        eta = ch.diffraction_transmittance(ch.BeamParams(0.10), 0.10, 3.6e7)
        assert ch.db_from_eta(eta) == pytest.approx(61.979, abs=1e-2)
        assert abs(ch.db_from_eta(eta) - 60.0) <= 3.0

    def test_strictly_decreasing_in_distance(self):
        beam = ch.BeamParams(0.2)
        etas = [ch.diffraction_transmittance(beam, 0.5, z)
                for z in np.linspace(100e3, 5e6, 25)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_beam_past_float_range_rejected(self):
        # z / z_R overflows to inf, and so does w(z), with no exception;
        # the transmittance once read 0.0
        with pytest.raises(ValueError, match=re.escape(
                "w0=1e-160 at wavelength=1.0 spreads the beam out of the "
                "float range at distance=1000000.0")):
            ch.diffraction_transmittance(ch.BeamParams(1e-160, 1.0), 1.0, 1e6)

    def test_strictly_increasing_in_rx_radius(self):
        beam = ch.BeamParams(0.2)
        etas = [ch.diffraction_transmittance(beam, rx, 1200e3)
                for rx in np.linspace(0.05, 2.5, 25)]
        assert all(a < b for a, b in zip(etas, etas[1:]))


class TestDbConversion:
    def test_unity_is_zero_db(self):
        assert ch.db_from_eta(1.0) == 0.0
        assert math.copysign(1.0, ch.db_from_eta(1.0)) == 1.0   # not -0.0

    def test_half_is_3db(self):
        assert ch.db_from_eta(0.5) == pytest.approx(3.0103, abs=1e-4)

    def test_zero_is_infinite_loss(self):
        assert ch.db_from_eta(0.0) == math.inf

    @pytest.mark.parametrize("eta", [0.9, 0.01, 1e-6])
    def test_round_trip(self, eta):
        assert eta_from_db(ch.db_from_eta(eta)) == pytest.approx(eta, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ch.db_from_eta(1.5)
        with pytest.raises(ValueError):
            ch.db_from_eta(-0.1)


class TestDownlinkSampling:
    def test_b_zero_is_degenerate(self):
        model = ch.DownlinkGaussianTail(0.3, 0.0)
        rng = make_stream(1, "dl")
        assert np.all(ch.sample_downlink(model, rng, 10) == 0.3)
        assert rng._counter == 20

    def test_samples_bounded(self):
        model = ch.DownlinkGaussianTail(0.3, 0.5)
        etas = ch.sample_downlink(model, make_stream(2, "dl"), 100_000)
        assert np.all(etas >= 0.0) and np.all(etas <= 0.3)

    def test_mean_matches_half_normal_expectation(self):
        # E[eta] = eta0 * (1 - b*sqrt(2/pi)) while the clamp stays inactive
        model = ch.DownlinkGaussianTail(0.3, 0.1)
        etas = np.asarray(ch.sample_downlink(model, make_stream(3, "dl"), 1_000_000))
        expected = 0.3 * (1.0 - 0.1 * math.sqrt(2.0 / math.pi))
        se = etas.std() / 1000.0
        assert abs(etas.mean() - expected) < 3.0 * se
        assert expected == pytest.approx(0.2761, abs=1e-4)

    @pytest.mark.parametrize("b", [0.01, 0.3, 1.0, 3.0])
    def test_mean_matches_closed_form_with_clamp(self, b):
        # the survivor z-bound's fade mean, clamp included, against draws
        etas = ch.sample_downlink(ch.DownlinkGaussianTail(1.0, b),
                                  make_stream(3, "dl", "clamp"), 1_000_000)
        se = etas.std() / 1000.0
        assert abs(etas.mean() - mean_downlink_fade(b)) < 5.0 * se

    def test_b_to_zero_limit(self):
        for b in (1e-4, 1e-3):
            etas = np.asarray(ch.sample_downlink(
                ch.DownlinkGaussianTail(0.3, b), make_stream(4, "dl"), 100_000))
            assert etas.mean() == pytest.approx(0.3, abs=3 * b)
            assert etas.std() < b

    def test_determinism(self):
        model = ch.DownlinkGaussianTail(0.25, 0.1)
        a = ch.sample_downlink(model, make_stream(5, "dl"), 1000)
        b = ch.sample_downlink(model, make_stream(5, "dl"), 1000)
        assert np.array_equal(a, b)


class TestUplinkSampling:
    def model(self, sigma=0.3, eta_diff=0.4, w=1.0):
        return ch.UplinkPointingFade(eta_diff, w, sigma)

    def test_no_wander_is_static(self):
        m = self.model(sigma=0.0)
        rng = make_stream(6, "ul")
        assert ch.sample_uplink(m, rng, 0.0) == 0.4
        assert ch.sample_uplink(m, rng, 123.4) == 0.4

    def test_block_fading_within_interval(self):
        m = self.model()
        rng = make_stream(7, "ul")
        assert ch.sample_uplink(m, rng, 0.0001) == ch.sample_uplink(m, rng, 0.0009)
        assert ch.sample_uplink(m, rng, 0.0031) == ch.sample_uplink(m, rng, 0.0039)

    def test_blocks_vary_across_intervals(self):
        m = self.model()
        rng = make_stream(8, "ul")
        vals = {ch.sample_uplink(m, rng, k * 1e-3) for k in range(100)}
        assert len(vals) > 90

    def test_interval_samples_match_time_path(self):
        # sample_uplink at any times reads interval fade_interval(t) of the
        # interval path; at t = k * tau that index is not always k
        m = self.model()
        rng = make_stream(9, "ul")
        n = 100_000
        times = np.arange(n, dtype=float) * m.fade_coherence_time
        bulk = ch.uplink_interval_samples(m, rng, n)
        timed = ch.sample_uplink(m, rng, times)
        assert np.array_equal(timed, bulk[ch.fade_interval(m, times)])
        scalar = [ch.sample_uplink(m, rng, t) for t in times[:64]]
        assert np.array_equal(bulk[:64], np.array(scalar))
        assert scalar == list(timed[:64])

    def test_interval_start_stays_in_int64(self):
        m, rng = self.model(), make_stream(9, "ul")
        # the first and the last three intervals numpy counts in int64
        for start in (-2**63, 2**63 - 4):
            etas = ch.uplink_interval_samples(m, rng, 3, start)
            assert etas.shape == (3,)
            assert np.all((etas >= 0.0) & (etas <= m.eta_diffraction))
        for start in (2**63 - 3, -2**63 - 1, 0.5):
            with pytest.raises(ValueError, match="start must be an integer"):
                ch.uplink_interval_samples(m, rng, 3, start)

    def test_fade_interval_scalar_and_array(self):
        m = self.model()
        assert ch.fade_interval(m, 0.0025) == 2
        assert isinstance(ch.fade_interval(m, 0.0025), int)
        assert isinstance(ch.sample_uplink(m, make_stream(9, "ul"), 0.0025), float)
        assert list(ch.fade_interval(m, np.array([0.0, 0.0025, -0.0005]))) == [0, 2, -1]
        for bad in (math.nan, math.inf, 1e20):
            with pytest.raises(ValueError):
                ch.fade_interval(m, bad)

    def test_mean_matches_closed_form_and_quadrature(self):
        m = self.model(sigma=0.3, eta_diff=0.4, w=1.0)
        gamma = m.beam_radius_at_rx**2 / (4.0 * m.sigma_wander**2)
        closed = m.eta_diffraction * gamma / (gamma + 1.0)
        assert ch.mean_uplink_transmittance(m) == pytest.approx(closed, rel=1e-12)
        # independent check: integrate the Rayleigh density numerically
        x, wq = np.polynomial.legendre.leggauss(400)
        hi = 12.0 * m.sigma_wander
        r = (x + 1.0) / 2.0 * hi
        wr = wq * hi / 2.0
        pdf = r / m.sigma_wander**2 * np.exp(-r**2 / (2 * m.sigma_wander**2))
        quad = float(np.sum(wr * pdf * np.exp(-2 * r**2 / m.beam_radius_at_rx**2)))
        assert closed == pytest.approx(m.eta_diffraction * quad, rel=1e-9)
        etas = ch.uplink_interval_samples(m, make_stream(10, "ul"), 1_000_000)
        se = etas.std() / 1000.0
        assert abs(etas.mean() - closed) < 3.0 * se

    def test_mean_with_gamma_past_float_range_is_its_limit(self):
        # gamma = 1e12 / 4e-300 overflows to inf; gamma / (gamma + 1) -> 1
        m = ch.UplinkPointingFade(0.5, 1e6, 1e-150)
        assert ch.mean_uplink_transmittance(m) == 0.5


class TestCalibration:
    def test_target_just_above_floor_gives_tiny_sigma(self):
        floor = ch.db_from_eta(0.5)
        sigma = ch.calibrate_uplink_sigma(0.5, 1.0, floor + 1e-9)
        assert sigma < 1e-4
        assert ch.calibrate_uplink_sigma(0.5, 1.0, floor) == 0.0

    def test_spec_point_20db(self):
        # gamma/(gamma+1) = 0.02 with w = 1 m gives sigma = 3.5 m exactly
        sigma = ch.calibrate_uplink_sigma(0.5, 1.0, 20.0)
        assert sigma == pytest.approx(3.5, abs=1e-3)
        m = ch.UplinkPointingFade(0.5, 1.0, sigma)
        assert ch.mean_uplink_transmittance(m) == pytest.approx(0.01, rel=1e-4)

    def test_monte_carlo_round_trip(self):
        sigma = ch.calibrate_uplink_sigma(0.5, 1.0, 20.0)
        m = ch.UplinkPointingFade(0.5, 1.0, sigma)
        etas = ch.uplink_interval_samples(m, make_stream(11, "cal"), 1_000_000)
        assert ch.db_from_eta(float(etas.mean())) == pytest.approx(20.0, abs=0.1)

    def test_infeasible_target_rejected(self):
        with pytest.raises(ch.InfeasibleTargetError):
            ch.calibrate_uplink_sigma(0.5, 1.0, 1.0)   # floor is ~3.01 dB


class TestModelValidation:
    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            ch.DownlinkGaussianTail(1.2, 0.1)
        with pytest.raises(ValueError):
            ch.DownlinkGaussianTail(0.5, -0.1)

    def test_uplink_bounds(self):
        with pytest.raises(ValueError):
            ch.UplinkPointingFade(0.5, 0.0, 0.1)
        with pytest.raises(ValueError):
            ch.UplinkPointingFade(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            ch.UplinkPointingFade(0.5, 1.0, 0.1, fade_coherence_time=0.0)
        for bad in (math.nan, math.inf):
            for fields in ((bad, 1.0, 0.1), (0.5, bad, 0.1), (0.5, 1.0, bad),
                           (0.5, 1.0, 0.1, bad)):
                with pytest.raises(ValueError):
                    ch.UplinkPointingFade(*fields)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ch.DownlinkGaussianTail(0.5, bad)
            with pytest.raises(ValueError):
                ch.BeamParams(bad)
            with pytest.raises(ValueError):
                ch.BeamParams(0.1, bad)
            with pytest.raises(ValueError, match="target_mean_loss_db"):
                ch.calibrate_uplink_sigma(0.5, 1.0, bad)

    @pytest.mark.parametrize("w0, rx, z, field", [
        (1e300, 1e300, 1e6, "w0"),     # w0**2 overflows
        (1e-300, 1.25, 1e300, "w0"),   # the Rayleigh range underflows to 0
        (0.2, 1e300, 1e6, "rx_radius"),
        (0.2, 1.25, 1e300, "distance"),    # (z / z_R)**2 overflows
        (1e100, 1.25, 2e266, "distance"),  # w(z)**2 overflows
    ])
    def test_budget_out_of_float_range(self, w0, rx, z, field):
        prefix = f"{field}="
        if field == "distance":
            # a spread beam names w0 and the wavelength with the distance, as
            # any of the three may spread it
            prefix = re.escape(
                f"w0={w0!r} at wavelength=1.55e-06 spreads the beam out of "
                f"the float range at distance={z!r}")
        with pytest.raises(ValueError, match=f"^{prefix}"):
            ch.diffraction_transmittance(ch.BeamParams(w0), rx, z)

    @pytest.mark.parametrize("w0", [1e200, 1e-300])
    def test_rayleigh_range_checked_when_built(self, w0):
        # w0**2 overflows, or the Rayleigh range underflows to 0
        with pytest.raises(ValueError) as err:
            ch.BeamParams(w0)
        assert str(err.value).startswith(f"w0={w0!r} at wavelength=")

    @pytest.mark.parametrize("rx, z, field", [
        (math.inf, 1e6, "rx_radius"),     # would give eta = 1
        (math.nan, 1e6, "rx_radius"),
        (0.0, 1e6, "rx_radius"),
        (1.25, math.inf, "distance"),     # would give eta = 0
        (1.25, math.nan, "distance"),
        (1.25, -1.0, "distance"),
    ])
    def test_nonfinite_budget_rejected(self, rx, z, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            ch.diffraction_transmittance(ch.BeamParams(0.2), rx, z)

    def test_budget_at_the_float_edge_is_kept(self):
        # an infinite Rayleigh range leaves the beam at its waist
        eta = ch.diffraction_transmittance(ch.BeamParams(1e154), 1e153, 1e300)
        assert eta == 1.0 - math.exp(-2.0 * 1e153**2 / 1e154**2)

    def test_beam_params(self):
        with pytest.raises(ValueError):
            ch.BeamParams(0.0)
        with pytest.raises(ValueError):
            ch.BeamParams(0.1, -1.0)
