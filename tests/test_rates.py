import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from audit_util import quad_mean_rate, rate_per_use
from qsatnet import channel as ch
from qsatnet import rates
from qsatnet.engine import make_stream


def rate_at(eta):
    return float(rates.rci_array(eta))


class TestRatePerUse:
    def test_no_transmission_no_ebits(self):
        assert rate_at(0.0) == 0.0

    def test_half_transmittance_is_one_ebit(self):
        assert rate_at(0.5) == 1.0

    def test_downlink_point(self):
        # -log2(1 - 0.2988) = 0.512102
        assert rate_at(0.2988) == pytest.approx(0.5121, abs=1e-3)

    def test_saturation_at_unity(self):
        assert rate_at(1.0) == rates.RATE_SATURATION
        assert rate_at(1.0 - 2.0**-61) == rates.RATE_SATURATION

    def test_monotone(self):
        etas = np.linspace(0.0, 0.999, 200)
        vals = rates.rci_array(etas)
        assert np.all(np.diff(vals) > 0)

    def test_small_eta_lower_bound(self):
        # -log2(1 - eta) >= eta/ln2, tight to ~eta^2/(2 ln2) for small eta
        for eta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 0.3):
            assert rate_at(eta) >= eta / math.log(2.0) - 1e-15
        for eta in (1e-7, 1e-6, 1e-5):
            assert abs(rate_at(eta) - eta / math.log(2.0)) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rate_at(-0.1)
        with pytest.raises(ValueError):
            rate_at(1.1)
        with pytest.raises(ValueError):
            rate_at(math.nan)
        with pytest.raises(ValueError):
            rates.rci_array(np.array([0.2, math.nan, 0.4]))
        with pytest.raises(ValueError):
            rates.rci_array(np.array([0.2, 1.0 + 2.0**-52]))

    def test_array_matches_scalar(self):
        etas = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        assert np.allclose(rates.rci_array(etas),
                           [rate_per_use(e) for e in etas], rtol=0, atol=0)


class TestMeanRate:
    def test_fixed_channel_is_exact(self):
        # the fixed channel is the downlink without fading, b = 0
        eta = ch.diffraction_transmittance(ch.BeamParams(0.25), 0.25, 200e3)
        model = ch.DownlinkGaussianTail(eta, 0.0)
        assert rates.mean_rate(model, 1, make_stream(1, "fixed")) == rate_at(eta)

    def test_fixed_half_eta(self):
        # choose geometry with eta = 0.5: solve rx for w(z)
        beam = ch.BeamParams(0.2)
        w = ch.beam_radius(beam, 1200e3)
        rx = math.sqrt(-w**2 * math.log(0.5) / 2.0)
        assert rate_at(ch.diffraction_transmittance(beam, rx, 1200e3)) == \
            pytest.approx(1.0, rel=1e-12)

    def test_b_zero_reduces_to_point_rate(self):
        model = ch.DownlinkGaussianTail(0.2988, 0.0)
        assert rates.mean_rate(model, 100, make_stream(1, "b0")) == \
            pytest.approx(0.5121, abs=1e-3)

    @pytest.mark.parametrize("eta0,b", [(0.3, 0.1), (0.05, 0.1), (0.3, 0.01)])
    def test_monte_carlo_matches_quadrature(self, eta0, b):
        model = ch.DownlinkGaussianTail(eta0, b)
        rng = make_stream(0, "mr-test", int(eta0 * 1000), int(b * 1000))
        samples = rates.rci_array(ch.sample_downlink(model, rng, 1_000_000))
        mc = float(samples.mean())
        rng2 = make_stream(0, "mr-test", int(eta0 * 1000), int(b * 1000))
        assert rates.mean_rate(model, 1_000_000, rng2) == mc
        se = float(samples.std()) / 1000.0
        assert abs(mc - quad_mean_rate(eta0, b)) < 3.0 * se

    def test_uplink_mean_rate_matches_quadrature(self):
        # E[rate(eta_d * exp(-2 r^2/w^2))] over the Rayleigh offset density
        model = ch.UplinkPointingFade(0.4, 1.0, 0.3)
        sigma, w, eta_d = model.sigma_wander, model.beam_radius_at_rx, 0.4
        x, wq = np.polynomial.legendre.leggauss(400)
        hi = 12.0 * sigma
        r = (x + 1.0) / 2.0 * hi
        wr = wq * hi / 2.0
        pdf = r / sigma**2 * np.exp(-(r**2) / (2 * sigma**2))
        quad = float(np.sum(wr * pdf * rates.rci_array(
            eta_d * np.exp(-2 * r**2 / w**2))))
        samples = rates.rci_array(
            ch.uplink_interval_samples(model, make_stream(2, "ulq"), 1_000_000))
        se = float(samples.std()) / 1000.0
        assert abs(float(samples.mean()) - quad) < 3.0 * se

    # 1, a draw chunk and either side of it, and over two chunks
    @pytest.mark.parametrize("n,value", [
        (1, 0.5040040702517116),
        (16_383, 0.4662456552455846),
        (16_384, 0.4662435368572052),
        (16_385, 0.46624110415193376),
        (40_000, 0.4663231610750212),
        (100_000, 0.4664411505308551),
    ])
    def test_downlink_mean_rate_pinned(self, n, value):
        model = ch.DownlinkGaussianTail(0.3, 0.1)
        assert rates.mean_rate(model, n, make_stream(3, "pin", "down")) == value

    @pytest.mark.parametrize("n,value", [
        (1, 0.5179339084034471),
        (16_383, 0.5088006625958745),
        (16_384, 0.508812560111014),
        (16_385, 0.5088166620331577),
        (40_000, 0.5113137046731125),
        (100_000, 0.5114713204614251),
    ])
    def test_uplink_mean_rate_pinned(self, n, value):
        # the mean rate of coherence intervals 0 .. n-1, drawn at once
        model = ch.UplinkPointingFade(0.4, 1.0, 0.3)
        etas = ch.uplink_interval_samples(model, make_stream(3, "pin", "up"), n)
        assert float(np.mean(rates.rci_array(etas))) == value

    @pytest.mark.parametrize("model", [ch.DownlinkGaussianTail(0.3, 0.1)],
                             ids=["downlink"])
    def test_peak_memory_is_the_rate_buffer(self, model):
        # the draws are made and mapped to rates chunk by chunk, so the
        # traced peak stays under twice the 8 MB buffer of 10**6 rates
        n = 10**6
        rng = make_stream(6, "mem")
        tracemalloc.start()
        try:
            rates.mean_rate(model, n, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n

    def test_requires_stream_for_fading(self):
        # the sample count is checked first, before the stream is read
        model = ch.DownlinkGaussianTail(0.3, 0.1)
        for rng in (None, make_stream(1, "count")):
            with pytest.raises(ValueError, match=r"^n_samples "):
                rates.mean_rate(model, 0, rng)


class TestSweep:
    def test_single_point_b_zero(self):
        surface = rates.sweep([0.25], [0.25], 200e3, 0.0, n_samples=10, seed=1)
        eta = ch.diffraction_transmittance(ch.BeamParams(0.25), 0.25, 200e3)
        assert surface[0, 0] == rate_at(eta)

    def test_monotone_along_aperture_axes(self):
        # waist-axis monotonicity holds below the collimation optimum
        # w0* = sqrt(z*lambda/pi) (0.77 m at 1200 km); beyond it a larger
        # waist throws a larger spot and the rate falls again
        z = 1200e3
        w_opt = math.sqrt(z * 1.55e-6 / math.pi)
        waists = list(np.linspace(0.1, 0.9 * w_opt, 5))
        rx = list(np.linspace(0.125, 1.25, 5))
        surface = rates.sweep(waists, rx, z, 0.1, n_samples=20_000, seed=3)
        grid = surface
        assert np.all(np.diff(grid, axis=0) >= 0)
        assert np.all(np.diff(grid, axis=1) >= 0)

    def test_monotone_full_grid_at_coordination_distance(self):
        # at 36000 km the optimum sits at 4.2 m, beyond the whole grid
        waists = list(np.linspace(0.1, 1.0, 5))
        rx = list(np.linspace(0.125, 1.25, 5))
        surface = rates.sweep(waists, rx, 3.6e7, 0.1, n_samples=20_000, seed=3)
        assert np.all(np.diff(surface, axis=0) >= 0)
        assert np.all(np.diff(surface, axis=1) >= 0)

    def test_rx_axis_monotone_past_collimation_optimum(self):
        # receiver-axis monotonicity is unconditional
        surface = rates.sweep([0.6, 0.8, 1.0], [0.2, 0.7, 1.25], 1200e3, 0.1,
                              n_samples=20_000, seed=4)
        assert np.all(np.diff(surface, axis=1) >= 0)

    def test_distance_ordering_pointwise(self):
        waists = list(np.linspace(0.1, 1.0, 4))
        rx = list(np.linspace(0.125, 1.25, 4))
        near = rates.sweep(waists, rx, 1200e3, 0.1, n_samples=5000, seed=9)
        far = rates.sweep(waists, rx, 3.6e7, 0.1, n_samples=5000, seed=9)
        assert np.all(near >= far)

    @pytest.mark.parametrize("cpus, threads", [(3, 3), (64, 4), (None, 1)])
    def test_threads_without_affinity_call(self, monkeypatch, cpus, threads):
        # a platform with no os.sched_getaffinity falls back to os.cpu_count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert rates._sweep_threads() == threads

    def test_parallel_bit_identical_to_serial(self, monkeypatch):
        # parallel: every usable CPU, up to SWEEP_THREADS; serial: one thread
        waists = list(np.linspace(0.1, 1.0, 4))
        rx = list(np.linspace(0.125, 1.25, 4))
        parallel = rates.sweep(waists, rx, 1200e3, 0.1, n_samples=10_000, seed=5)
        monkeypatch.setattr(rates, "SWEEP_THREADS", 1)
        serial = rates.sweep(waists, rx, 1200e3, 0.1, n_samples=10_000, seed=5)
        assert np.array_equal(serial, parallel)

    # 9 points on 1 to 4 threads: shares of 9, 5+4, 3+3+3 and 3+2+2+2
    # points; and more threads than points
    @pytest.mark.parametrize("threads, waists, rx", [
        (1, [0.1, 0.4, 0.8], [0.2, 0.6, 1.2]),
        (2, [0.1, 0.4, 0.8], [0.2, 0.6, 1.2]),
        (3, [0.1, 0.4, 0.8], [0.2, 0.6, 1.2]),
        (4, [0.1, 0.4, 0.8], [0.2, 0.6, 1.2]),
        (4, [0.3], [0.7]),
    ])
    def test_matches_point_by_point_reference(self, monkeypatch, threads,
                                              waists, rx):
        monkeypatch.setattr(rates, "_sweep_threads", lambda: threads)
        distance, b, n, seed = 1200e3, 0.1, 3000, 11
        # threads switch every microsecond, so a lost or misplaced write
        # from an interleaving would show in the cells
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            surface = rates.sweep(waists, rx, distance, b, n_samples=n,
                                  seed=seed)
        finally:
            sys.setswitchinterval(interval)
        reference = np.array([[rates.mean_rate(
            ch.DownlinkGaussianTail(ch.diffraction_transmittance(
                ch.BeamParams(w, ch.DEFAULT_WAVELENGTH), r, distance), b),
            n, make_stream(seed, "rates", "sweep", i, j))
            for j, r in enumerate(rx)] for i, w in enumerate(waists)])
        assert np.array_equal(surface, reference)

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_thread_outlives_sweep(self, monkeypatch, fails):
        # the calling thread's one point returns at once, the others late
        point_rate = rates._point_rate

        def slow(*args):
            if args[-2:] != (0, 0):
                time.sleep(0.05)
            return point_rate(*args)

        monkeypatch.setattr(rates, "_sweep_threads", lambda: 4)
        monkeypatch.setattr(rates, "_point_rate", slow)
        before = threading.active_count()
        if fails:
            with pytest.raises(ValueError):
                rates.sweep([0.1, 0.2], [0.5, 1e300], 1e6, 0.1, n_samples=3)
        else:
            rates.sweep([0.1, 0.2], [0.5, 1.0], 1e6, 0.1, n_samples=3)
        assert threading.active_count() == before

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rates.sweep([], [0.5], 1200e3, 0.1)
        with pytest.raises(ValueError):
            rates.sweep([0.5], [0.5], -1.0, 0.1)

    @pytest.mark.parametrize("rx, distance, field", [
        (1.0, math.inf, "distance"), (1.0, math.nan, "distance"),
        (math.inf, 1200e3, "rx_radius"), (math.nan, 1200e3, "rx_radius"),
    ])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_nonfinite_budget_rejected(self, monkeypatch, rx, distance, field,
                                       parallel):
        # an infinite distance used to give an all-zero surface, silently
        if not parallel:
            monkeypatch.setattr(rates, "SWEEP_THREADS", 1)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            rates.sweep([0.1, 0.2], [rx], distance, 0.1, n_samples=10)
