import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from audit_util import brute_force_select
from qsatnet import geom
from qsatnet.geom import (GroundStation, Satellite, Tier, elevation_angle,
                          ground_position, line_of_sight, link_geometry,
                          satellite_position, select_leo)


def leo(sat_id, altitude=1200e3, incl=0.0, raan=0.0, phase=0.0, aperture=0.2):
    return Satellite(sat_id, Tier.LEO, altitude, aperture, incl, raan, phase)


def station(st_id, lat_deg, lon_deg, aperture=1.25):
    return GroundStation(st_id, math.radians(lat_deg), math.radians(lon_deg),
                         aperture)


class TestSatellitePosition:
    def test_epoch_on_reference_axis(self):
        pos = satellite_position(leo(1), 0.0)
        assert pos == pytest.approx([7_571_000.0, 0.0, 0.0])

    def test_orbital_period_value(self):
        # 2*pi*sqrt(a^3/mu) evaluated independently: 6556.03 s
        assert leo(1).orbital_period == pytest.approx(6556.0, abs=1.0)

    def test_periodicity(self):
        sat = leo(1, incl=0.7, raan=0.3, phase=1.1)
        p0 = satellite_position(sat, 0.0)
        p1 = satellite_position(sat, sat.orbital_period)
        assert np.linalg.norm(p1 - p0) / np.linalg.norm(p0) < 1e-6

    def test_radius_conserved(self):
        sat = leo(1, altitude=800e3, incl=0.9, raan=2.0, phase=0.4)
        r0 = sat.orbital_radius
        for t in np.linspace(0.0, 3 * sat.orbital_period, 17):
            r = np.linalg.norm(satellite_position(sat, t))
            assert abs(r - r0) / r0 < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            satellite_position(leo(1), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(ValueError, match="^t must be finite"):
            satellite_position(leo(1), t)

    def test_inclined_orbit_leaves_plane(self):
        sat = leo(1, incl=math.radians(30), phase=math.radians(90))
        pos = satellite_position(sat, 0.0)
        assert pos[2] == pytest.approx(sat.orbital_radius * math.sin(math.radians(30)))


class TestGroundPosition:
    def test_equator_prime_meridian(self):
        pos = ground_position(station(1, 0, 0))
        assert pos == pytest.approx([6_371_000.0, 0.0, 0.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time_rejected(self, t):
        # an infinite t under earth rotation used to end in a bare math
        # domain error, and a NaN t in a NaN position
        with pytest.raises(ValueError, match="^t must be finite and >= 0"):
            ground_position(station(1, 0, 0), t, earth_rotation=True)

    def test_pole_invariant_under_rotation(self):
        gs = station(1, 90, 0)
        for t in (0.0, 1e3, 1e5):
            assert ground_position(gs, t, earth_rotation=True) == pytest.approx(
                [0.0, 0.0, 6_371_000.0], abs=1e-6)

    def test_sidereal_day_closure(self):
        gs = station(1, 0, 0)
        sidereal_day = 2 * math.pi / 7.2921159e-5   # 86164.1 s
        p = ground_position(gs, sidereal_day, earth_rotation=True)
        assert np.linalg.norm(p - ground_position(gs, 0.0)) < 1.0

    def test_rotation_off_is_static(self):
        gs = station(1, 30, 40)
        assert np.array_equal(ground_position(gs, 0.0), ground_position(gs, 9e4))


class TestLinkGeometry:
    def test_satellite_directly_overhead(self):
        ground = np.array([geom.R_EARTH, 0.0, 0.0])
        sat = np.array([geom.R_EARTH + 1200e3, 0.0, 0.0])
        link = link_geometry(ground, sat)
        assert link.distance == pytest.approx(1200e3)
        assert elevation_angle(ground, sat) == pytest.approx(math.pi / 2)

    def test_geo_slant_delay(self):
        # 3.6e7 m / c = 0.1200831 s
        ground = np.array([geom.R_EARTH, 0.0, 0.0])
        sat = np.array([geom.R_EARTH + 3.6e7, 0.0, 0.0])
        link = link_geometry(ground, sat)
        assert link.propagation_delay == pytest.approx(0.12008, abs=1e-5)

    def test_intersatellite_has_no_elevation(self):
        a = np.array([7e6, 0.0, 0.0])
        b = np.array([7e6, 200e3, 0.0])
        link = link_geometry(a, b)
        assert link.distance == pytest.approx(200e3)

    def test_distance_symmetry_exact(self):
        rng = random.Random(77)
        for _ in range(50):
            a = np.array([rng.uniform(-1e7, 1e7) for _ in range(3)])
            b = np.array([rng.uniform(-1e7, 1e7) for _ in range(3)])
            if np.array_equal(a, b):
                continue
            assert link_geometry(a, b).distance == link_geometry(b, a).distance

    def test_line_of_sight_is_link_distance_and_elevation(self):
        # elevation by the law of cosines over the three ranges
        ground = ground_position(station(1, 10.0, 20.0))
        for t in (0.0, 100.0, 900.0):
            sat = satellite_position(leo(2, incl=0.5, phase=0.3), t)
            distance, el = geom.line_of_sight(ground, sat)
            assert distance == link_geometry(ground, sat).distance
            r_g, r_s = np.linalg.norm(ground), np.linalg.norm(sat)
            sin_el = (r_s**2 - r_g**2 - distance**2) / (2 * r_g * distance)
            assert el == pytest.approx(math.asin(sin_el), abs=1e-9)

    def test_coincident_points_rejected(self):
        p = np.array([7e6, 0.0, 0.0])
        with pytest.raises(ValueError):
            link_geometry(p, p.copy())

    def test_length_with_subnormal_square_rejected(self):
        # the square rounds: straight up read 1.119 rad, and the distance
        # 3e-162 read 3.16e-162
        with pytest.raises(ValueError, match="^ground_pos must be finite"):
            geom.line_of_sight([2e-162, 0.0, 0.0], [1e7, 0.0, 0.0])
        with pytest.raises(ValueError, match="^pos_b must be finite"):
            link_geometry([0.0, 0.0, 0.0], [3e-162, 0.0, 0.0])

    def test_elevation_bounded_and_zenith_iff_colinear(self):
        ground = ground_position(station(1, 10, 20))
        rng = random.Random(5)
        for _ in range(100):
            target = np.array([rng.uniform(-1e7, 1e7) for _ in range(3)])
            if np.linalg.norm(target - ground) == 0:
                continue
            el = elevation_angle(ground, target)
            assert el <= math.pi / 2
        assert elevation_angle(ground, ground * 2.5) == pytest.approx(math.pi / 2)


class TestValidation:
    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            GroundStation(1, math.pi, 0.0, 1.0)

    def test_aperture_positive(self):
        with pytest.raises(ValueError):
            GroundStation(1, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("aperture_radius", math.nan),
        ("aperture_radius", math.inf),
        ("memory_coherence_time", math.nan),
        ("memory_coherence_time", 0.0),
        # an infinite longitude used to end in a bare math domain error
        ("longitude", math.inf),
        ("longitude", math.nan),
    ])
    def test_station_field_rejected(self, field, value):
        fields = {"aperture_radius": 1.0, "longitude": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GroundStation(1, 0.0, **fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_satellite_aperture_rejected(self, value):
        with pytest.raises(ValueError, match="aperture_radius"):
            Satellite(1, Tier.LEO, 1200e3, value)

    @pytest.mark.parametrize("field, value", [
        # a NaN inclination used to give NaN positions and a silent
        # NoSatellite failure; an infinite raan a math domain error
        ("inclination", math.nan), ("raan", math.inf),
        ("phase_at_epoch", -math.inf),
    ])
    def test_satellite_angle_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Satellite(1, Tier.LEO, 1200e3, 0.2, **{field: value})

    def test_geo_altitude_fixed(self):
        with pytest.raises(ValueError):
            Satellite(1, Tier.GEO, 2e7, 0.2)
        Satellite(1, Tier.GEO, geom.GEO_ALTITUDE, 0.2)

    @pytest.mark.parametrize("tier, altitude", [
        # a str "GEO" used to construct, and its session then failed
        # NoCoordinator; a str "LEO" failed on the GEO altitude band
        ("GEO", geom.GEO_ALTITUDE), ("LEO", 1200e3)])
    def test_tier_must_be_a_tier(self, tier, altitude):
        with pytest.raises(ValueError, match=r"^tier must be a geom\.Tier"):
            Satellite(1, tier, altitude, 0.2)

    def test_leo_altitude_bounds(self):
        with pytest.raises(ValueError):
            Satellite(1, Tier.LEO, 300e3, 0.2)
        with pytest.raises(ValueError):
            Satellite(1, Tier.LEO, 2000e3, 0.2)


class TestSelectLeo:
    def test_single_visible_candidate(self):
        gs_a = station(1, 0, -2)
        gs_b = station(2, 0, 2)
        sat = leo(11, phase=0.0)
        assert select_leo([sat], gs_a, gs_b, 0.0) == 11

    def test_only_one_above_threshold(self):
        gs_a = station(1, 0, -2)
        gs_b = station(2, 0, 2)
        overhead = leo(30, phase=0.0)
        far = leo(20, phase=math.radians(40))
        assert select_leo([far, overhead], gs_a, gs_b, 0.0) == 30

    def test_none_when_nothing_visible(self):
        gs_a = station(1, 0, -2)
        gs_b = station(2, 0, 2)
        hidden = leo(5, phase=math.radians(180))
        assert select_leo([hidden], gs_a, gs_b, 0.0) is None

    def test_non_leo_candidate_rejected(self):
        gs_a = station(1, 0, -2)
        gs_b = station(2, 0, 2)
        geo_sat = Satellite(9, Tier.GEO, geom.GEO_ALTITUDE, 0.2)
        with pytest.raises(ValueError):
            select_leo([geo_sat], gs_a, gs_b, 0.0)

    def test_matches_brute_force_scan(self):
        rng = random.Random(321)
        gs_a = station(1, 5, -3)
        gs_b = station(2, -2, 6)
        pos_a = ground_position(gs_a)
        pos_b = ground_position(gs_b)
        for trial in range(40):
            sats = [leo(i, altitude=rng.uniform(500e3, 1200e3),
                        incl=rng.uniform(0, math.pi / 3),
                        raan=rng.uniform(0, 2 * math.pi),
                        phase=rng.uniform(0, 2 * math.pi))
                    for i in range(5)]
            t = rng.uniform(0.0, 7000.0)
            expected = brute_force_select(
                sats, ground_position(gs_a, t), ground_position(gs_b, t),
                lambda s: satellite_position(s, t), geom.DEFAULT_MIN_ELEVATION)
            assert select_leo(sats, gs_a, gs_b, t) == expected

    def test_permutation_invariance(self):
        rng = random.Random(99)
        gs_a = station(1, 0, -3)
        gs_b = station(2, 0, 3)
        sats = [leo(i, phase=rng.uniform(-0.3, 0.3)) for i in range(6)]
        baseline = select_leo(sats, gs_a, gs_b, 100.0)
        for _ in range(10):
            shuffled = sats[:]
            rng.shuffle(shuffled)
            assert select_leo(shuffled, gs_a, gs_b, 100.0) == baseline

    def test_tie_breaks_to_lowest_id(self):
        gs_a = station(1, 0, -2)
        gs_b = station(2, 0, 2)
        # identical orbits, distinct ids: scores tie exactly
        twins = [leo(14, phase=0.0), leo(3, phase=0.0), leo(8, phase=0.0)]
        assert select_leo(twins, gs_a, gs_b, 0.0) == 3

    @pytest.mark.parametrize("mask", [math.nan, -math.inf, 2.0])
    def test_mask_outside_its_range_rejected(self, mask):
        # a nan mask once turned the mask off: the relay on the far side of
        # the Earth was selected
        gs = station(1, 0, 0)
        hidden = leo(201, phase=math.pi)
        with pytest.raises(ValueError, match="^min_elevation must be finite"):
            select_leo([hidden], gs, gs, 0.0, mask)
        with pytest.raises(ValueError, match="^min_elevation must be finite"):
            geom.best_satellite([hidden], [ground_position(gs)], 0.0, mask)


# Array forms: the distribution plan runs geometry over rows of batch times,
# and the trace pins the scalar values, so every row must be bit-equal.
ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
TIMES = st.lists(st.floats(0.0, 1e5), min_size=1, max_size=40)


def bits(x) -> str:
    return float(x).hex()


def rows_bits(rows) -> list:
    return [[bits(v) for v in row] for row in rows]


def reference_satellite_position(sat, t):
    """The scalar form in Python floats and math."""
    r = sat.orbital_radius
    theta = sat.phase_at_epoch + math.sqrt(geom.MU_EARTH / r**3) * t
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_i, sin_i = math.cos(sat.inclination), math.sin(sat.inclination)
    cos_o, sin_o = math.cos(sat.raan), math.sin(sat.raan)
    return r * np.array([cos_o * cos_t - sin_o * sin_t * cos_i,
                         sin_o * cos_t + cos_o * sin_t * cos_i,
                         sin_t * sin_i])


def reference_ground_position(gs, t, earth_rotation):
    """The scalar form in Python floats and math."""
    lon = gs.longitude + (geom.SIDEREAL_RATE * t if earth_rotation else 0.0)
    cos_lat = math.cos(gs.latitude)
    return geom.R_EARTH * np.array([cos_lat * math.cos(lon),
                                    cos_lat * math.sin(lon),
                                    math.sin(gs.latitude)])


def reference_line_of_sight(ground, target):
    """The scalar form: np.linalg.norm, np.dot and math.asin."""
    los = target - ground
    distance = float(np.linalg.norm(los))
    sin_el = float(np.dot(los, ground / float(np.linalg.norm(ground)))) / distance
    return distance, math.asin(min(1.0, max(-1.0, sin_el)))


class TestArrayForms:
    @given(altitude=st.floats(geom.LEO_ALTITUDE_MIN, geom.LEO_ALTITUDE_MAX),
           incl=ANGLE, raan=ANGLE, phase=ANGLE, times=TIMES)
    def test_satellite_rows_equal_scalar_calls(self, altitude, incl, raan,
                                               phase, times):
        sat = leo(1, altitude, incl, raan, phase)
        rows = satellite_position(sat, np.array(times))
        assert rows.shape == (len(times), 3)
        assert rows_bits(rows) == rows_bits(
            [satellite_position(sat, t) for t in times]) == rows_bits(
            [reference_satellite_position(sat, t) for t in times])

    @given(lat=st.floats(-90.0, 90.0), lon=st.floats(-720.0, 720.0),
           rotation=st.booleans(), times=TIMES)
    def test_ground_rows_equal_scalar_calls(self, lat, lon, rotation, times):
        gs = station(1, lat, lon)
        rows = ground_position(gs, np.array(times), rotation)
        assert rows.shape == (len(times), 3)
        assert rows_bits(rows) == rows_bits(
            [ground_position(gs, t, rotation) for t in times]) == rows_bits(
            [reference_ground_position(gs, t, rotation) for t in times])

    @given(lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0),
           altitude=st.floats(geom.LEO_ALTITUDE_MIN, geom.LEO_ALTITUDE_MAX),
           incl=ANGLE, phase=ANGLE, rotation=st.booleans(), times=TIMES)
    def test_line_of_sight_rows_equal_scalar_calls(self, lat, lon, altitude,
                                                   incl, phase, rotation,
                                                   times):
        ground = ground_position(station(1, lat, lon), np.array(times),
                                 rotation)
        target = satellite_position(leo(1, altitude, incl, 0.0, phase),
                                    np.array(times))
        distances, elevations = line_of_sight(ground, target)
        for k in range(len(times)):
            expected = [bits(v) for v in line_of_sight(ground[k], target[k])]
            assert [bits(distances[k]), bits(elevations[k])] == expected
            assert expected == [bits(v) for v in
                                reference_line_of_sight(ground[k], target[k])]

    def test_bad_time_in_array_rejected(self):
        with pytest.raises(ValueError, match="^t must be"):
            satellite_position(leo(1), np.array([0.0, -1.0, 2.0]))
        with pytest.raises(ValueError, match="^t must be"):
            ground_position(station(1, 0.0, 0.0), np.array([0.0, math.nan]),
                            True)


def test_numpy_kernels_equal_the_scalar_forms():
    """The numpy-equals-scalar assumptions the array forms rely on, each
    over rows of the magnitudes the geometry sees."""
    rng = np.random.default_rng(2024)
    a = rng.uniform(-8e6, 8e6, (20_000, 3)) * rng.choice([1e-3, 1.0, 1e3],
                                                        (20_000, 1))
    b = rng.uniform(-1.0, 1.0, (20_000, 3))
    # np.vecdot runs the 1-D dot kernel on each row
    assert all(bits(v) == bits(np.dot(x, y))
               for v, x, y in zip(np.vecdot(a, b), a, b))
    # sqrt(vecdot(x, x)) is the 1-D np.linalg.norm of each row
    assert all(bits(v) == bits(np.linalg.norm(x))
               for v, x in zip(np.sqrt(np.vecdot(a, a)), a))
    # np.sqrt and elementwise + - * / are the IEEE operations math and
    # Python floats use
    x, y = a[:, 0], b[:, 1]
    for got, op in ((np.sqrt(np.abs(x)), lambda p, q: math.sqrt(abs(p))),
                    (x + y, float.__add__), (x - y, float.__sub__),
                    (x * y, float.__mul__), (x / y, float.__truediv__)):
        assert [bits(v) for v in got] == [
            bits(op(p, q)) for p, q in zip(x.tolist(), y.tolist())]
