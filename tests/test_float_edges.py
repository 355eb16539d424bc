"""Every public numeric function and constructor of channel and rates, over
the float edges: each call either returns finite values in its documented
range or raises a ValueError whose message names one of that call's fields.

The inputs are the edge set below, its negatives, nan and the infinities,
plus any float.  An overflow that numpy reports as a RuntimeWarning fails
here too: the suite turns RuntimeWarning into an error.  The examples are
inputs that once broke the rule: fades whose exponent overflows, an
interval index past the float range, a calibration that needs a wander
whose square underflows, and beam radii past the float range.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsatnet import channel as ch
from qsatnet import rates
from qsatnet.engine import make_stream

MAX = sys.float_info.max
EDGES = [0.0, 5e-324, 1e-300, 1e-150, 1e-6, 0.5, 1.0, 1e6, 1e150, 1e300, MAX]
FLOATS = st.one_of(st.sampled_from(EDGES + [-x for x in EDGES]
                                   + [math.nan, math.inf, -math.inf]),
                   st.floats())
DRAWS = 16          # values per sampling call


def _stream():
    return make_stream(7, "float-edges")


def _beam(w0, wavelength):
    return ch.BeamParams(w0, wavelength)


def _uplink(eta, w, sigma, tau=ch.DEFAULT_FADE_COHERENCE):
    return ch.UplinkPointingFade(eta, w, sigma, tau)


def _calibrated_sigma(eta, w, target):
    sigma = ch.calibrate_uplink_sigma(eta, w, target)
    _uplink(eta, w, sigma)          # a wander the uplink model accepts
    return sigma


def _db(eta):
    db = ch.db_from_eta(eta)
    if eta == 0.0:
        assert db == math.inf       # documented: no light is infinite loss
        return 0.0
    return db


UPLINK = ("eta_diffraction", "beam_radius_at_rx", "sigma_wander",
          "fade_coherence_time")
BUDGET = ("w0", "wavelength", "rx_radius", "distance")

# name: (call of the leading floats, the fields its messages may name,
#        the range of its values given those floats)
CALLS = {
    "beam_radius": (
        lambda w0, lam, z: ch.beam_radius(_beam(w0, lam), z),
        ("w0", "wavelength", "z", "distance"),
        lambda w0, lam, z: (w0, MAX)),
    "diffraction_transmittance": (
        lambda w0, lam, rx, z: ch.diffraction_transmittance(
            _beam(w0, lam), rx, z),
        BUDGET, lambda *_: (0.0, 1.0)),
    "FixedDiffraction.eta": (
        lambda w0, lam, rx, z: ch.FixedDiffraction(_beam(w0, lam), rx, z).eta,
        BUDGET, lambda *_: (0.0, 1.0)),
    "db_from_eta": (_db, ("eta",), lambda eta: (0.0, MAX)),
    "sample_downlink": (
        lambda eta0, b: ch.sample_downlink(ch.DownlinkGaussianTail(eta0, b),
                                           _stream(), DRAWS),
        ("eta0", "b"), lambda eta0, b: (0.0, eta0)),
    "sample_uplink": (
        lambda eta, w, sigma, tau, t: ch.sample_uplink(
            _uplink(eta, w, sigma, tau), _stream(), t),
        UPLINK + ("t",), lambda eta, *_: (0.0, eta)),
    "fade_interval": (
        lambda eta, w, sigma, tau, t: float(ch.fade_interval(
            _uplink(eta, w, sigma, tau), t)),
        UPLINK + ("t",), lambda *_: (-2.0**63, 2.0**63)),
    "uplink_interval_samples": (
        lambda eta, w, sigma, tau: ch.uplink_interval_samples(
            _uplink(eta, w, sigma, tau), _stream(), DRAWS),
        UPLINK, lambda eta, *_: (0.0, eta)),
    "mean_uplink_transmittance": (
        lambda eta, w, sigma: ch.mean_uplink_transmittance(
            _uplink(eta, w, sigma)),
        UPLINK, lambda eta, *_: (0.0, eta)),
    "calibrate_uplink_sigma": (
        _calibrated_sigma,
        ("eta_diffraction", "beam_radius_at_rx", "target_mean_loss_db",
         "target"), lambda *_: (0.0, MAX)),
    "rci_array": (
        rates.rci_array, ("eta",), lambda eta: (0.0, rates.RATE_SATURATION)),
    "mean_rate fixed": (
        lambda w0, lam, rx, z: rates.mean_rate(
            ch.FixedDiffraction(_beam(w0, lam), rx, z), DRAWS, _stream()),
        BUDGET, lambda *_: (0.0, rates.RATE_SATURATION)),
    "mean_rate downlink": (
        lambda eta0, b: rates.mean_rate(ch.DownlinkGaussianTail(eta0, b),
                                        DRAWS, _stream()),
        ("eta0", "b"), lambda *_: (0.0, rates.RATE_SATURATION)),
    "mean_rate uplink": (
        lambda eta, w, sigma, tau: rates.mean_rate(
            _uplink(eta, w, sigma, tau), DRAWS, _stream()),
        UPLINK, lambda *_: (0.0, rates.RATE_SATURATION)),
    "sweep": (
        lambda w0, rx, z, b, lam: rates.sweep([w0], [rx], z, b, lam,
                                              n_samples=DRAWS),
        BUDGET + ("b",), lambda *_: (0.0, rates.RATE_SATURATION)),
}


@pytest.mark.parametrize("name", CALLS)
@given(xs=st.tuples(*[FLOATS] * 5))
# fades whose exponent overflows: the downlink, a sweep point, the uplink
@example(xs=(0.5, MAX, 1.0, 1.0, 1.0))
@example(xs=(0.1, 0.1, 1e6, MAX, 1.55e-6))
@example(xs=(0.5, 1e-150, 1e6, 1e-3, 0.0))
# a time whose interval index overflows
@example(xs=(0.5, 1.0, 0.5, 5e-324, 1e-6))
# a calibration whose wander squares to 0
@example(xs=(1.0, 1e-160, 1e-300, 1.0, 1.0))
# beam radii past the float range
@example(xs=(5e-324, 5e-324, 5e-324, 1.0, 1.0))
@example(xs=(1e-150, 5e-324, 1e300, 1.0, 1.0))
@example(xs=(1e-150, 1e-150, 1e300, 1.0, 1.0))
def test_call_returns_in_range_or_names_a_field(name, xs):
    call, fields, bounds = CALLS[name]
    args = xs[:call.__code__.co_argcount]
    try:
        values = np.asarray(call(*args), dtype=float)
    except ValueError as exc:
        named = [f for f in fields if re.search(rf"\b{re.escape(f)}\b",
                                                str(exc))]
        assert named, f"{name}{args}: {exc!r} names none of {fields}"
        return
    lo, hi = bounds(*args)
    assert np.all(np.isfinite(values)), f"{name}{args} gave {values}"
    assert np.all((lo <= values) & (values <= hi)), \
        f"{name}{args} gave {values}, outside [{lo}, {hi}]"
