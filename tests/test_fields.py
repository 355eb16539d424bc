"""Property tests of the one numeric-field rule: every public constructor
and every numeric scenario field rejects NaN, infinities, out-of-range and
mistyped values with an error whose message names the field, never with a
bare `math domain error`, a hang or a traceback."""

import math
import re

import pytest
from hypothesis import given, strategies as st

from qsatnet import channel as ch
from qsatnet import geom
from qsatnet.engine import COUNT_MAX, Engine, make_stream
from qsatnet.proto import EbitPool, Network
from qsatnet.scenario import ConfigError, load_scenario
from test_scenario import MINIMAL, with_field

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# values that are not real numbers, and bools, which once read 1.0 and 0.0
NOT_REAL = st.sampled_from(["1.0", None, 1 + 0j, [1.0], True, False])


def bad_reals(lo=-math.inf, hi=math.inf, strict=False):
    """Every float a field that must be finite and in [lo, hi], or in
    (lo, hi] when strict, has to reject, and every value that is not a
    real number."""
    bad = [NONFINITE, NOT_REAL]
    if lo > -math.inf:
        bad.append(st.floats(max_value=lo if strict
                             else math.nextafter(lo, -math.inf)))
    if hi < math.inf:
        bad.append(st.floats(min_value=math.nextafter(hi, math.inf)))
    return st.one_of(bad)


def bad_counts(lo=0, hi=None):
    """Every bool, every float, every int below lo and, when hi is given,
    every int above hi: what a whole-number field in [lo, hi] has to
    reject."""
    bad = [st.booleans(), st.floats(), st.integers(max_value=lo - 1)]
    if hi is not None:
        bad.append(above(hi))
    return st.one_of(bad)


def above(hi):
    """Ints above hi, among them the sizes no float or array holds."""
    return st.one_of(st.integers(min_value=hi + 1),
                     st.sampled_from([2**62, 10**30, 10**320]))


POSITIVE = bad_reals(0, strict=True)
NONNEGATIVE = bad_reals(0)
UNIT = bad_reals(0, 1)
# a flag takes True or False only: "off", 0.0, None and [] are not flags
NOT_BOOL = st.one_of(st.sampled_from(["off", 0.0, None, []]), st.integers(),
                     st.floats(), st.text())
HALF_PI = math.pi / 2


def station(**fields):
    return geom.GroundStation(**{"id": 1, "latitude": 0.0, "longitude": 0.0,
                                 "aperture_radius": 1.25, **fields})


def leo(**fields):
    return geom.Satellite(**{"id": 1, "tier": geom.Tier.LEO,
                             "altitude": 1200e3, "aperture_radius": 0.2,
                             **fields})


def geo(**fields):
    return geom.Satellite(1, geom.Tier.GEO, aperture_radius=0.2, **fields)


def beam(**fields):
    return ch.BeamParams(**{"w0": 0.2, "wavelength": 1.55e-6, **fields})


def downlink(**fields):
    return ch.DownlinkGaussianTail(**{"eta0": 0.3, "b": 0.1, **fields})


def uplink(**fields):
    return ch.UplinkPointingFade(**{"eta_diffraction": 0.4,
                                    "beam_radius_at_rx": 1.0,
                                    "sigma_wander": 0.3, **fields})


def pool(**fields):
    return EbitPool(**{"coherence_time": 1.0, "capacity": 10, **fields})


def stream(seed):
    return make_stream(seed, "fields")


def network(**fields):
    return Network(Engine(1), [station(id=1), station(id=2, longitude=0.07)],
                   [leo(id=201)], **fields)


def request(**fields):
    return network().request(**{"a_id": 1, "b_id": 2, "qubits": 5,
                                "pairs_target": 100, **fields})


# GEO altitudes a relative 1e-8 or more from the fixed one
OFF_GEO = st.one_of(NONFINITE,
                    st.floats(max_value=geom.GEO_ALTITUDE * (1 - 1e-8)),
                    st.floats(min_value=geom.GEO_ALTITUDE * (1 + 1e-8)))

# Root seeds outside [0, 2**64) would alias seeds inside
BAD_SEEDS = st.one_of(bad_counts(), st.integers(min_value=2**64))

CONSTRUCTORS = [
    (Engine, "seed", BAD_SEEDS),
    (stream, "seed", BAD_SEEDS),
    (station, "id", bad_counts()),
    (station, "latitude", bad_reals(-HALF_PI, HALF_PI)),
    (station, "longitude", bad_reals()),
    (station, "aperture_radius", POSITIVE),
    (station, "memory_coherence_time", POSITIVE),
    (station, "memory_capacity", bad_counts()),
    (leo, "id", bad_counts()),
    (leo, "altitude", bad_reals(geom.LEO_ALTITUDE_MIN, geom.LEO_ALTITUDE_MAX)),
    (geo, "altitude", OFF_GEO),
    (leo, "aperture_radius", POSITIVE),
    (leo, "inclination", bad_reals()),
    (leo, "raan", bad_reals()),
    (leo, "phase_at_epoch", bad_reals()),
    (beam, "w0", POSITIVE),
    (beam, "wavelength", POSITIVE),
    (downlink, "eta0", UNIT),
    (downlink, "b", NONNEGATIVE),
    (uplink, "eta_diffraction", UNIT),
    (uplink, "beam_radius_at_rx", POSITIVE),
    (uplink, "sigma_wander", NONNEGATIVE),
    (uplink, "fade_coherence_time", POSITIVE),
    (pool, "coherence_time", POSITIVE),
    (pool, "capacity", bad_counts()),
    (network, "wavelength", POSITIVE),
    (network, "downlink_b", NONNEGATIVE),
    (network, "min_elevation", bad_reals(-HALF_PI, HALF_PI)),
    (network, "batch_size", bad_counts(1)),
    (network, "source_rate_hz", POSITIVE),
    (network, "min_raw_pairs", bad_counts()),
    (network, "distill_rounds", bad_counts(1, COUNT_MAX)),
    # None asks for the sampled yield
    (network, "yield_rate", UNIT.filter(lambda value: value is not None)),
    (network, "yield_samples", bad_counts(1, COUNT_MAX)),
    (network, "earth_rotation", NOT_BOOL),
    (request, "a_id", bad_counts()),
    (request, "b_id", bad_counts()),
    (request, "qubits", bad_counts(1, COUNT_MAX)),
    (request, "pairs_target", bad_counts(1, COUNT_MAX)),
]


@pytest.mark.parametrize("build, field, bad", CONSTRUCTORS, ids=[
    f"{build.__name__}-{field}" for build, field, _ in CONSTRUCTORS])
@given(data=st.data())
def test_constructor_names_the_bad_field(build, field, bad, data):
    value = data.draw(bad, label=field)
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        build(**{field: value})


MISTYPED = st.sampled_from(["", "abc", "0x10", "1.5.2", "true"])


def bad_real_text(lo=-math.inf, hi=math.inf, strict=False):
    return st.one_of(bad_reals(lo, hi, strict).map(repr), MISTYPED)


# Text such as 1e3 or 2.0 names an integer exactly, so a count field takes it
NON_INTEGRAL = st.floats().filter(lambda x: not x.is_integer()).map(repr)


def bad_count_text(lo=0, hi=None):
    bad = [NON_INTEGRAL, st.integers(max_value=lo - 1).map(str), MISTYPED]
    if hi is not None:
        bad.append(above(hi).map(str))
    return st.one_of(bad)


# (section, key, the name the message gives the field when the node's own
# constructor is what rejects it, the texts the field must reject)
SCENARIO_FIELDS = [
    ("scenario", "seed", None, st.one_of(
        NON_INTEGRAL, MISTYPED, st.integers(max_value=-1).map(str),
        st.integers(min_value=2**64).map(str))),
    ("scenario", "t_end", None, bad_real_text(0)),
    ("scenario", "min_elevation_deg", None, bad_real_text(-90, 90)),
    ("channel", "wavelength_m", None, bad_real_text(0, strict=True)),
    ("channel", "downlink_b", None, bad_real_text(0)),
    ("station.alice", "id", None, bad_count_text()),
    ("station.alice", "latitude_deg", None, bad_real_text(-90, 90)),
    ("station.alice", "longitude_deg", None, bad_real_text()),
    ("station.alice", "aperture_radius_m", None, bad_real_text(0, strict=True)),
    ("station.alice", "memory_coherence_s", None,
     bad_real_text(0, strict=True)),
    ("station.alice", "memory_capacity", None, bad_count_text()),
    ("satellite.leo1", "id", None, bad_count_text()),
    ("satellite.leo1", "altitude_m", "altitude",
     bad_real_text(geom.LEO_ALTITUDE_MIN, geom.LEO_ALTITUDE_MAX)),
    ("satellite.geo1", "altitude_m", "altitude", OFF_GEO.map(repr)),
    ("satellite.leo1", "aperture_radius_m", None,
     bad_real_text(0, strict=True)),
    ("satellite.leo1", "inclination_deg", None, bad_real_text()),
    ("satellite.leo1", "raan_deg", None, bad_real_text()),
    ("satellite.leo1", "phase_at_epoch_deg", None, bad_real_text()),
    ("protocol", "qubits", None, bad_count_text(1, COUNT_MAX)),
    ("protocol", "pairs_target", None, bad_count_text(1, COUNT_MAX)),
    ("protocol", "distill_rounds", None, bad_count_text(1, COUNT_MAX)),
    ("protocol", "yield_rate", None, bad_real_text(0, 1)),
    ("protocol", "yield_samples", None, bad_count_text(1, COUNT_MAX)),
    ("protocol", "batch_size", None, bad_count_text(1)),
    ("protocol", "source_rate_hz", None, bad_real_text(0, strict=True)),
    ("protocol", "min_raw_pairs", None, bad_count_text()),
]


@pytest.mark.parametrize("section, key, node_name, bad", SCENARIO_FIELDS,
                         ids=[f"{s}-{k}" for s, k, _, _ in SCENARIO_FIELDS])
@given(data=st.data())
def test_scenario_field_names_itself(tmp_path_factory, section, key,
                                     node_name, bad, data):
    text = data.draw(bad, label=key)
    path = tmp_path_factory.getbasetemp() / "fields.ini"
    path.write_text(with_field(MINIMAL, section, key, text))
    with pytest.raises(ConfigError) as err:
        load_scenario(str(path))
    names = re.escape(key) if node_name is None else f"({key}|{node_name})"
    assert re.match(rf"\[{re.escape(section)}\]( {names}: |: {names} )",
                    str(err.value))
