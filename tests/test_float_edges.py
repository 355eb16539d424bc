"""Every public numeric function and constructor of channel, rates and
geom, and every numeric flag of rates-sweep and channel-sample, over the
float edges: each call either returns finite values in its documented
range or raises a ValueError whose message names one of that call's fields,
and each CLI run exits 0, or exits 2 with one config error line naming the
flag or the field it sets.

The inputs are the edge set below, its negatives, nan and the infinities,
plus any float.  An overflow that numpy reports as a RuntimeWarning fails
here too: the suite turns RuntimeWarning into an error, and a CLI run must
write no warning.  The examples are inputs that once broke the rule: fades
whose exponent overflows, an interval index past the float range, a
calibration that needs a wander whose square underflows, beam radii past
the float range, orbital and rotating-Earth angles past the float range,
positions whose lengths underflow or whose differences overflow, and an
uplink row step whose last row time overflows.
"""

import io
import math
import re
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsatnet import channel as ch
from qsatnet import cli, geom, rates
from qsatnet.engine import COUNT_MAX, SEED_MAX, make_stream

MAX = sys.float_info.max
EDGES = [0.0, 5e-324, 1e-300, 1e-150, 1e-6, 0.5, 1.0, 1e6, 1e150, 1e300, MAX]
FLOATS = st.one_of(st.sampled_from(EDGES + [-x for x in EDGES]
                                   + [math.nan, math.inf, -math.inf]),
                   st.floats())
DRAWS = 16          # values per sampling call


def _check(name, call, fields, bounds, args):
    """call(*args) returns finite values within bounds(*args), or raises a
    ValueError naming one of fields."""
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
        ("w0", "wavelength", "distance"),
        lambda w0, lam, z: (w0, MAX)),
    "diffraction_transmittance": (
        lambda w0, lam, rx, z: ch.diffraction_transmittance(
            _beam(w0, lam), rx, z),
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
    "mean_rate downlink": (
        lambda eta0, b: rates.mean_rate(ch.DownlinkGaussianTail(eta0, b),
                                        DRAWS, _stream()),
        ("eta0", "b"), lambda *_: (0.0, rates.RATE_SATURATION)),
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
    _check(name, call, fields, bounds, xs[:call.__code__.co_argcount])


POSITIVE = st.one_of(st.sampled_from([x for x in EDGES if x > 0]),
                     st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False))


@given(w0=POSITIVE, wavelength=POSITIVE, distance=POSITIVE)
@example(w0=1e-160, wavelength=1.0, distance=1e6)    # once read 0.0
@example(w0=7e153, wavelength=10.0, distance=1e308)  # once a finite radius
def test_beam_radius_and_transmittance_share_one_budget(w0, wavelength,
                                                        distance):
    # beam_radius raises if and only if diffraction_transmittance does at
    # a receiver radius whose square is finite
    try:
        beam = _beam(w0, wavelength)
    except ValueError:
        return
    outcomes = []
    for call in (lambda: ch.beam_radius(beam, distance),
                 lambda: ch.diffraction_transmittance(beam, 1.0, distance)):
        try:
            call()
            outcomes.append(None)
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], (w0, wavelength, distance, outcomes)


def _leo(inclination=0.0, raan=0.0, phase=0.0, sat_id=1):
    return geom.Satellite(sat_id, geom.Tier.LEO, 1e6, 0.2, inclination, raan,
                          phase)


def _station(latitude, longitude, station_id=1):
    return geom.GroundStation(station_id, latitude, longitude, 1.0)


def _masked(min_elevation, bounds):
    """bounds inside the documented mask range [-pi/2, pi/2]; outside it no
    value is in range (nan bounds), so the call must raise."""
    inside = -math.pi / 2 <= min_elevation <= math.pi / 2
    return bounds if inside else (math.nan, math.nan)


ORBIT = (geom.R_EARTH + 1e6) * (1 + 1e-12)     # the _leo orbit, and rounding
EARTH = geom.R_EARTH * (1 + 1e-12)
HALF_PI = math.pi / 2
SAT = ("inclination", "raan", "phase_at_epoch")
STATION = ("latitude", "longitude")
LOS = ("ground_pos", "target_pos")

# name: (call of the leading floats, the fields its messages may name,
#        the range of its values given those floats)
GEOM_CALLS = {
    "GroundStation": (
        lambda lat, lon, aperture, coherence: [
            getattr(geom.GroundStation(1, lat, lon, aperture, coherence), f)
            for f in STATION + ("aperture_radius", "memory_coherence_time")],
        STATION + ("aperture_radius", "memory_coherence_time"),
        lambda *_: ([-HALF_PI, -MAX, 0.0, 0.0], [HALF_PI, MAX, MAX, MAX])),
    "Satellite": (
        lambda altitude, aperture, inc, raan, phase: [
            getattr(geom.Satellite(1, geom.Tier.LEO, altitude, aperture, inc,
                                   raan, phase), f)
            for f in ("altitude", "aperture_radius") + SAT
            + ("orbital_period",)],
        ("altitude", "aperture_radius") + SAT,
        lambda *_: ([geom.LEO_ALTITUDE_MIN, 0.0, -MAX, -MAX, -MAX, 0.0],
                    [geom.LEO_ALTITUDE_MAX, MAX, MAX, MAX, MAX, MAX])),
    "satellite_position": (
        lambda inc, raan, phase, t: geom.satellite_position(
            _leo(inc, raan, phase), t),
        SAT + ("t",), lambda *_: (-ORBIT, ORBIT)),
    "satellite_position rows": (
        lambda inc, raan, phase, t: geom.satellite_position(
            _leo(inc, raan, phase), [0.0, t]),
        SAT + ("t",), lambda *_: (-ORBIT, ORBIT)),
    "ground_position": (
        lambda lat, lon, t: geom.ground_position(_station(lat, lon), t),
        STATION + ("t",), lambda *_: (-EARTH, EARTH)),
    "ground_position rotating": (
        lambda lat, lon, t: geom.ground_position(_station(lat, lon), t, True),
        STATION + ("t",), lambda *_: (-EARTH, EARTH)),
    "ground_position rotating rows": (
        lambda lat, lon, t: geom.ground_position(_station(lat, lon),
                                                 [0.0, t], True),
        STATION + ("t",), lambda *_: (-EARTH, EARTH)),
    "line_of_sight": (
        lambda gx, gy, gz, x, y, z: geom.line_of_sight([gx, gy, gz],
                                                       [x, y, z]),
        LOS, lambda *_: ([0.0, -HALF_PI], [MAX, HALF_PI])),
    "line_of_sight rows": (
        lambda gx, gy, gz, x, y, z: geom.line_of_sight(
            [[gx, gy, gz], [geom.R_EARTH, 0.0, 0.0]], [[x, y, z], [x, y, z]]),
        LOS, lambda *_: ([[0.0], [-HALF_PI]], [[MAX], [HALF_PI]])),
    "elevation_angle": (
        lambda gx, gy, gz, x, y, z: geom.elevation_angle([gx, gy, gz],
                                                         [x, y, z]),
        LOS, lambda *_: (-HALF_PI, HALF_PI)),
    "link_geometry": (
        lambda ax, ay, az, bx, by, bz: [
            getattr(geom.link_geometry([ax, ay, az], [bx, by, bz]), f)
            for f in ("distance", "propagation_delay")],
        ("pos_a", "pos_b"), lambda *_: (0.0, MAX)),
    "best_satellite": (
        lambda phase_1, phase_2, lat, lon, t, min_elevation:
            geom.best_satellite(
                [_leo(phase=phase_2, sat_id=2), _leo(phase=phase_1)],
                [geom.ground_position(_station(lat, lon))], t,
                min_elevation) or 0,
        ("phase_at_epoch", "t", "min_elevation") + STATION,
        lambda *args: _masked(args[-1], (0, 2))),
    "select_leo": (
        lambda lat_a, lat_b, phase, t, min_elevation: geom.select_leo(
            [_leo(phase=phase, sat_id=201)], _station(lat_a, 0.0),
            _station(lat_b, 0.5, 2), t, min_elevation, True) or 0,
        ("phase_at_epoch", "t", "min_elevation") + STATION,
        lambda *args: _masked(args[-1], (0, 201))),
}


@pytest.mark.parametrize("name", GEOM_CALLS)
@given(xs=st.tuples(*[FLOATS] * 6))
# an orbital phase and a rotating longitude past the float range
@example(xs=(0.0, 0.0, MAX, 1e300, 0.0, 0.0))
@example(xs=(0.0, MAX, 1e300, 0.0, 0.0, 0.0))
# a ground position whose length underflows
@example(xs=(5e-324, 0.0, 0.0, 1e7, 0.0, 0.0))
# positions whose difference overflows
@example(xs=(1e308, 0.0, 0.0, -1e308, 0.0, 0.0))
# a nan mask, which once selected a relay on the far side of the Earth
@example(xs=(0.0, 0.0, math.pi, 0.0, math.nan, math.nan))
def test_geom_call_returns_in_range_or_names_a_field(name, xs):
    call, fields, bounds = GEOM_CALLS[name]
    _check(name, call, fields, bounds, xs[:call.__code__.co_argcount])


def _run_cli(argv):
    """cli.main(argv) in-process: its exit code, its stderr text and the
    warnings it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), caught


SWEEP = ["rates-sweep", "--distance", "1e6", "--waist-grid", "0.2",
         "--rx-grid", "0.5", "--samples", "3"]      # one point: no threads
FIXED = ["channel-sample", "--model", "fixed", "--n", "3"]
DOWNLINK = ["channel-sample", "--model", "downlink", "--n", "3"]
UPLINK = ["channel-sample", "--model", "uplink", "--n", "3"]
WANDER = UPLINK + ["--sigma-wander", "0.3"]
COUNTS = st.one_of(st.integers(max_value=3),       # larger valid counts cost
                   st.sampled_from([COUNT_MAX + 1, 2**63, 2**64, 2**100]))
SEEDS = st.one_of(st.integers(),
                  st.sampled_from([-1, 0, SEED_MAX, SEED_MAX + 1]))

# (the command line, the swept flag, the model fields it sets, the values
#  swept); a run's message may name any flag or field of its command
FLAGS = [(SWEEP, "--distance", ("distance",), FLOATS),
         (SWEEP, "--b", ("b",), FLOATS),
         (SWEEP, "--wavelength", ("wavelength",), FLOATS),
         (SWEEP, "--waist-grid", ("w0",), FLOATS),
         (SWEEP, "--rx-grid", ("rx_radius",), FLOATS),
         (SWEEP, "--samples", (), COUNTS),
         (SWEEP, "--seed", (), SEEDS),
         (FIXED, "--waist", ("w0",), FLOATS),
         (FIXED, "--rx-radius", ("rx_radius",), FLOATS),
         (FIXED, "--distance", ("distance",), FLOATS),
         (FIXED, "--wavelength", ("wavelength",), FLOATS),
         (DOWNLINK, "--eta0", ("eta0",), FLOATS),
         (DOWNLINK, "--b", ("b",), FLOATS),
         (WANDER, "--eta-diffraction", ("eta_diffraction",), FLOATS),
         (WANDER, "--beam-radius-rx", ("beam_radius_at_rx",), FLOATS),
         (WANDER, "--sigma-wander", ("sigma_wander",), FLOATS),
         (UPLINK, "--calibrate-target-db", ("target",), FLOATS),
         (WANDER, "--fade-coherence", ("fade_coherence_time",), FLOATS),
         (WANDER, "--t-step", (), FLOATS)]
FLAGS += [(base, flag, (), values) for base in (FIXED, DOWNLINK, WANDER)
          for flag, values in (("--n", COUNTS), ("--seed", SEEDS))]


def _command(base):
    """rates-sweep, or the channel-sample model."""
    return base[0] if base is SWEEP else base[2]


NAMES = {}          # command: the flags and fields its messages may name
for _base, _flag, _fields, _ in FLAGS:
    NAMES.setdefault(_command(_base), set()).update((_flag,) + _fields)


@pytest.mark.parametrize("base, flag, values",
                         [(base, flag, values) for base, flag, _, values in FLAGS],
                         ids=[_command(base) + flag for base, flag, _, _ in FLAGS])
@given(data=st.data())
def test_cli_flag_exits_0_or_names_a_flag(base, flag, values, data):
    value = data.draw(values, label=flag)
    argv = base + [f"{flag}={value!r}"]         # = lets "-inf" be a value
    code, err, caught = _run_cli(argv)
    assert not caught, f"{argv}: warned {[str(w.message) for w in caught]}"
    if code == 0:
        assert err == "", f"{argv}: exit 0 with {err!r}"
        return
    if code == 3 and err.startswith("runtime failure: out of memory"):
        return
    assert code == 2, f"{argv}: exit {code}: {err!r}"
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), \
        f"{argv}: {err!r}"
    names = NAMES[_command(base)]
    named = [f for f in names
             if re.search(rf"(?<![\w-]){re.escape(f)}\b", lines[0])]
    assert named, f"{argv}: {lines[0]!r} names none of {sorted(names)}"
