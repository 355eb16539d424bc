import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from audit_util import brute_force_select, replay_audit
from qsatnet import channel as ch
from qsatnet import geom, proto
from qsatnet.channel import sample_downlink
from qsatnet.engine import DRAW_CHUNK, Engine, make_stream
from qsatnet.proto import (EbitPool, Failure, Network, Phase,
                           distilled_count, sample_pair_survival)
from test_geom import (reference_ground_position, reference_line_of_sight,
                       reference_satellite_position)


def station(st_id, lon_deg, coherence=1.0, capacity=100_000):
    return geom.GroundStation(st_id, 0.0, math.radians(lon_deg), 1.25,
                              coherence, capacity)


def leo(sat_id, phase_deg, altitude=1200e3, aperture=0.2, incl_deg=0.0):
    return geom.Satellite(sat_id, geom.Tier.LEO, altitude, aperture,
                          math.radians(incl_deg), 0.0, math.radians(phase_deg))


def geo(sat_id, phase_deg):
    return geom.Satellite(sat_id, geom.Tier.GEO, geom.GEO_ALTITUDE, 0.2,
                          phase_at_epoch=math.radians(phase_deg))


def small_network(seed=1, stations=None, satellites=None, **kwargs):
    eng = Engine(seed=seed)
    stations = stations or [station(1, 0.0), station(2, 4.0)]
    satellites = satellites or [geo(100, 2.0), leo(201, 2.0)]
    return eng, Network(eng, stations, satellites, **kwargs)


def events(net, name):
    return [r for r in net.trace if r["event"] == name]


def counted_survival_draws(monkeypatch) -> list:
    """The pair count of each sample_pair_survival call the protocol makes
    from now on."""
    counts = []

    def counted(rngs, b, eta0_a, eta0_b, n):
        counts.append(n)
        return sample_pair_survival(rngs, b, eta0_a, eta0_b, n)
    monkeypatch.setattr(proto, "sample_pair_survival", counted)
    return counts


class TestEbitPool:
    def test_deposit_respects_capacity(self):
        pool = EbitPool(1.0, 3)
        kept = pool.deposit_raw(range(10, 15), 0.0)
        assert list(kept) == [10, 11, 12]
        assert len(pool) == 3

    @pytest.mark.parametrize("coherence", [math.nan, 0.0, -1.0])
    def test_coherence_time_rejected(self, coherence):
        # a NaN coherence would make no pair ever fresh
        with pytest.raises(ValueError, match="coherence_time"):
            EbitPool(coherence, 10)

    def test_duplicate_ids_rejected(self):
        pool = EbitPool(1.0, 10)
        pool.deposit_raw(range(1, 2), 0.0)
        with pytest.raises(ValueError):
            pool.deposit_raw(range(1, 2), 0.5)

    @pytest.mark.parametrize("ids", [[5, 4, 3], (1, 2), range(5, 0, -1),
                                     range(1, 9, 2)])
    def test_ids_other_than_a_step_1_range_rejected(self, ids):
        # [5, 4, 3] then [4] once stored pair 4 twice: the O(1) duplicate
        # check is exact only over ascending step-1 ranges
        pool = EbitPool(1.0, 10)
        with pytest.raises(ValueError, match="range of step 1"):
            pool.deposit_raw(ids, 0.0)
        with pytest.raises(ValueError, match="range of step 1"):
            pool.replace_raw_with_distilled(ids, 0.0)

    def test_consume_accounting(self):
        # 5 ebits, 3 requested: 3 delivered and 2 remain
        pool = EbitPool(1.0, 10)
        pool.replace_raw_with_distilled(range(1, 6), t=0.0)
        taken = pool.consume_distilled(0.5, 3)
        assert len(taken) == 3
        assert len(pool) == 2

    @pytest.mark.parametrize("max_count", [-1, 2.5, True, None])
    def test_max_count_must_be_a_count(self, max_count):
        # -1 once took 4 of 5 pairs, 2.5 raised a bare TypeError
        pool = EbitPool(1.0, 10)
        pool.replace_raw_with_distilled(range(1, 6), t=0.0)
        with pytest.raises(ValueError, match="^max_count "):
            pool.consume_distilled(0.5, max_count)
        assert len(pool) == 5

    def test_expired_ebits_never_consumed(self):
        pool = EbitPool(1.0, 10)
        pool.replace_raw_with_distilled(range(1, 3), t=0.0)
        eps = 1e-9
        assert pool.consume_distilled(1.0 + eps, 2) == []
        assert pool.consume_distilled(1.0, 2) == [1, 2]  # boundary is inclusive

    def test_fresh_raw_cutoff(self):
        pool = EbitPool(0.5, 10)
        pool.deposit_raw(range(1, 3), 0.0)
        pool.deposit_raw(range(3, 4), 0.4)
        assert set(pool.fresh_raw(0.6)) == {3}


class TestBuildingBlocks:
    def test_distilled_count_floor(self):
        assert distilled_count(1000, 0.5121) == 512
        assert distilled_count(0, 1.0) == 0
        assert distilled_count(10, 1.0) == 10

    def test_survival_perfect_arms(self):
        rngs = [make_stream(1, k) for k in ("a", "b", "u")]
        mask = sample_pair_survival(rngs, 0.0, 1.0, 1.0, 1000)
        assert mask.all()

    def test_survival_dead_arm(self):
        rngs = [make_stream(2, k) for k in ("a", "b", "u")]
        mask = sample_pair_survival(rngs, 0.0, 0.0, 1.0, 1000)
        assert not mask.any()

    def test_survival_binomial_oracle(self):
        # fixed etas 0.3/0.3: survivors ~ Binomial(1e5, 0.09)
        rngs = [make_stream(3, k) for k in ("a", "b", "u")]
        mask = sample_pair_survival(rngs, 0.0, 0.3, 0.3, 100_000)
        n, p = 100_000, 0.09
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(int(mask.sum()) - n * p) < 3 * sigma


    @pytest.mark.parametrize("b, sizes, skip", [
        (0.4, [100, 37, 9000, 100, 5], 0),
        (0.4, [100, 37, 9000, 100, 5], 50_000),
        (0.0, [100, 37, 9000, 100, 5], 0),
        (0.4, [9000, 100, 9000], 0),
    ])
    def test_survival_equals_per_batch_draws(self, b, sizes, skip):
        # oracle: each batch draws its own normals and uniforms from the same
        # three streams; the buffer's chunks straddle batches, a batch may be
        # larger than a chunk, and the session may have drawn skip pairs
        eta0_a, eta0_b = 0.8, 0.6
        keys = [(4, "a"), (4, "b"), (4, "u")]
        rngs = [make_stream(*k) for k in keys]
        sample_pair_survival(rngs, b, eta0_a, eta0_b, skip)
        rng_a, rng_b, rng_u = (make_stream(*k) for k in keys)
        rng_a.standard_normal(skip)
        rng_b.standard_normal(skip)
        rng_u.random(skip)
        survivors = 0
        for n in sizes:
            eta_a = eta0_a * np.clip(1.0 - np.abs(rng_a.standard_normal(n)) * b,
                                     0.0, 1.0)
            eta_b = eta0_b * np.clip(1.0 - np.abs(rng_b.standard_normal(n)) * b,
                                     0.0, 1.0)
            expected = rng_u.random(n) < eta_a * eta_b
            mask = sample_pair_survival(rngs, b, eta0_a, eta0_b, n)
            assert np.array_equal(mask, expected)
            survivors += mask.sum()
        assert 0 < survivors < sum(sizes)


class TestConstruction:
    @pytest.mark.parametrize("build, field, value", [
        # batch_size 0 used to hang run_until, source_rate_hz 0 failed at the
        # second event, wavelength -1 inside the first batch, and
        # distill_rounds inf left the session in DISTILLING
        (small_network, "batch_size", 0),
        (small_network, "batch_size", 2.5),
        (small_network, "source_rate_hz", 0.0),
        (small_network, "source_rate_hz", math.nan),
        (small_network, "wavelength", -1.0),
        (small_network, "downlink_b", math.inf),
        (small_network, "min_elevation", math.nan),
        (small_network, "min_raw_pairs", -1),
        (small_network, "distill_rounds", math.inf),
        (small_network, "yield_samples", True),
    ])
    def test_bad_field_rejected_when_built(self, build, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build(**{field: value})

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError, match="^duplicate node ids$"):
            small_network(stations=[station(1, 0.0), station(1, 4.0)])


class TestRequest:
    def test_request_delay_to_coordinator(self):
        # coordinator straight overhead: slant is exactly 3.6e7 m
        eng, net = small_network(satellites=[geo(100, 0.0), leo(201, 0.0)])
        net.request(1, 2, qubits=1, pairs_target=10)
        sent = events(net, "request_sent")[0]
        assert sent["payload"]["arrive_t"] == pytest.approx(0.12008, abs=1e-5)
        eng.run_until(0.2)
        received = events(net, "request_received")[0]
        assert received["t"] == sent["payload"]["arrive_t"]

    def test_zero_qubits_rejected_before_any_message(self):
        eng, net = small_network()
        with pytest.raises(ValueError):
            net.request(1, 2, qubits=0, pairs_target=10)
        assert net.trace == []

    def test_same_station_rejected(self):
        eng, net = small_network()
        with pytest.raises(ValueError):
            net.request(1, 1, qubits=1, pairs_target=10)

    def test_unknown_station_rejected(self):
        eng, net = small_network()
        with pytest.raises(ValueError, match="^unknown station id$"):
            net.request(1, 9, qubits=1, pairs_target=10)

    def test_concurrent_requests_are_isolated(self):
        eng, net = small_network(yield_rate=1.0)
        s1 = net.request(1, 2, qubits=1, pairs_target=100)
        s2 = net.request(1, 2, qubits=1, pairs_target=100)
        assert s1.id != s2.id
        eng.run_until(2.0)
        assert s1.phase is Phase.DONE and s2.phase is Phase.DONE
        assert s1.pool is not s2.pool
        assert s1.pairs_survived != 0 and s1.pairs_survived != s2.pairs_survived

    def test_request_after_clock_moved_opens_at_now(self):
        eng, net = small_network(yield_rate=1.0)
        first = net.request(1, 2, qubits=1, pairs_target=100)
        eng.run_until(0.5)
        second = net.request(1, 2, qubits=1, pairs_target=100)
        eng.run_until(1.5)
        assert second.id == 2
        for name in ("request_sent", "leo_command_sent"):
            sent = events(net, name)
            assert [r["session_id"] for r in sent] == [1, 2]
            assert all(r["payload"]["send_t"] == r["t"] for r in sent)
        assert events(net, "request_sent")[1]["payload"]["send_t"] == 0.5
        assert first.phase is Phase.DONE and second.phase is Phase.DONE

    def test_coordinator_is_highest_geo_ties_to_lowest_id(self):
        # station 1 sits at longitude 0: a GEO at phase 0 is straight overhead
        eng, net = small_network(satellites=[geo(103, 20.0), geo(102, 0.0),
                                             geo(101, -20.0), leo(201, 2.0)])
        assert net.request(1, 2, qubits=1, pairs_target=10).geo_id == 102
        # GEOs 20 degrees east and west see it at exactly equal elevations
        eng, net = small_network(satellites=[geo(103, 20.0), geo(101, -20.0),
                                             geo(102, 20.0), leo(201, 2.0)])
        assert net.request(1, 2, qubits=1, pairs_target=10).geo_id == 101
        sent = events(net, "request_sent")[0]["payload"]
        assert sent["geo"] == 101

    def test_no_coordinator_visible(self):
        eng, net = small_network(satellites=[geo(100, 180.0), leo(201, 2.0)])
        sess = net.request(1, 2, qubits=1, pairs_target=10)
        assert sess.phase is Phase.FAILED
        assert sess.failure_reason == Failure.NO_COORDINATOR
        assert events(net, "request_sent") == []


class TestCoordination:
    def test_no_relay_visible(self):
        eng, net = small_network(satellites=[geo(100, 2.0), leo(201, 180.0)])
        sess = net.request(1, 2, qubits=1, pairs_target=10)
        eng.run_until(1.0)
        assert sess.phase is Phase.FAILED
        assert sess.failure_reason == Failure.NO_SATELLITE

    def test_selection_matches_brute_force_with_8_relays(self):
        sats = [geo(100, 2.0)] + [
            leo(201 + k, phase_deg=2.0 + 7.0 * k, altitude=500e3 + 80e3 * k,
                incl_deg=5.0 * k)
            for k in range(8)]
        eng, net = small_network(satellites=sats)
        sess = net.request(1, 2, qubits=1, pairs_target=10)
        eng.run_until(0.5)
        selection_t = events(net, "request_received")[0]["t"]
        leos = [s for s in sats if s.tier is geom.Tier.LEO]
        expected = brute_force_select(
            leos,
            geom.ground_position(net.stations[1], selection_t),
            geom.ground_position(net.stations[2], selection_t),
            lambda s: geom.satellite_position(s, selection_t),
            net.min_elevation)
        assert events(net, "leo_selected")[0]["payload"]["leo"] == expected


class TestDistribution:
    def test_survivor_count_within_binomial_band(self):
        eng, net = small_network(seed=11)
        sess = net.request(1, 2, qubits=1, pairs_target=10_000)
        eng.run_until(1.0)
        batch = events(net, "batch_emitted")[0]["payload"]
        shrink = 1.0 - net.downlink_b * math.sqrt(2.0 / math.pi)
        p = (batch["eta0_a"] * shrink) * (batch["eta0_b"] * shrink)
        n = batch["attempted"]
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(batch["survivors"] - n * p) < 3 * sigma
        assert sess.pairs_survived == batch["survivors"]

    def test_deposits_capped_by_memory(self):
        tiny = [station(1, 0.0, capacity=5), station(2, 4.0, capacity=7)]
        eng, net = small_network(stations=tiny, yield_rate=1.0)
        sess = net.request(1, 2, qubits=1, pairs_target=5000)
        eng.run_until(1.0)
        deposited = events(net, "pairs_deposited")[0]["payload"]
        assert deposited["count"] == 5          # min of the two capacities
        assert deposited["dropped"] > 0
        done = events(net, "distill_completed")[0]["payload"]
        assert done["distilled"] == done["n_valid"] == 5   # m = n at unit yield
        assert sess.phase is Phase.DONE

    def test_batched_emission_schedule(self):
        eng, net = small_network(batch_size=300, source_rate_hz=1e6)
        net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(1.0)
        batches = events(net, "batch_emitted")
        assert [b["payload"]["attempted"] for b in batches] == [300, 300, 300, 100]
        gaps = np.diff([b["t"] for b in batches])
        assert np.allclose(gaps, 300 / 1e6)

    def test_batched_capacity_drops_and_early_batches_expire(self):
        # 20 batches 0.1 s apart: the memory is full before the last two
        # deposits, and only the deposits of the last 0.3 s are fresh when
        # distillation completes
        stations = [station(1, 0.0, coherence=0.3, capacity=2500),
                    station(2, 4.0, coherence=0.3, capacity=2500)]
        eng, net = small_network(seed=5, stations=stations, batch_size=2000,
                                 source_rate_hz=2e4, yield_rate=1.0)
        sess = net.request(1, 2, qubits=1, pairs_target=40_000)
        eng.run_until(3.0)
        assert sess.phase is Phase.DONE
        deposits = [r["payload"] for r in events(net, "pairs_deposited")]
        assert len(deposits) == 20
        assert sum(d["dropped"] for d in deposits) > 0
        done = events(net, "distill_completed")[0]["payload"]
        cutoff = done["completion_t"] - 0.3
        assert done["n_valid"] == sum(d["count"] for d in deposits
                                      if d["created_at"] >= cutoff)
        assert len(sess.pool) == done["distilled"] - 1
        replay_audit(net.trace, coherence_time=0.3)


class TestPlannedBatches:
    """The chunked plan against a per-batch oracle: each batch's geometry
    from the scalar reference forms at its own time, and its survivors from
    its own draws of the session's streams."""

    @staticmethod
    def oracle(net, sess, t, rotation):
        leo = net.satellites[sess.leo_id]
        beam = ch.BeamParams(leo.aperture_radius, net.wavelength)
        rngs = [net.engine.stream("proto", sess.id, arm)
                for arm in ("arm_a", "arm_b", "survival")]
        left = sess.pairs_target
        while left:
            pos_leo = reference_satellite_position(leo, t)
            arms = [reference_line_of_sight(reference_ground_position(
                net.stations[sid], t, rotation), pos_leo)
                for sid in (sess.a_id, sess.b_id)]
            if min(el for _, el in arms) < net.min_elevation:
                yield "link_lost", t
                return
            n = left if net.batch_size is None else min(net.batch_size, left)
            eta0 = [ch.diffraction_transmittance(
                beam, net.stations[sid].aperture_radius, d)
                for sid, (d, _) in zip((sess.a_id, sess.b_id), arms)]
            eta = [e * np.clip(1.0 - np.abs(rng.standard_normal(n))
                               * net.downlink_b, 0.0, 1.0)
                   for e, rng in zip(eta0, rngs)]
            survivors = int(np.count_nonzero(rngs[2].random(n)
                                             < eta[0] * eta[1]))
            yield "batch_emitted", (t, n, survivors, *eta0, arms[0][0],
                                    arms[1][0])
            left -= n
            t = t + n / net.source_rate_hz

    @settings(max_examples=30)
    @given(batch_size=st.one_of(st.none(), st.integers(1, 3000)),
           batches=st.integers(1, 60), extra=st.integers(0, 2999),
           rate=st.sampled_from([1e6, 1e3, 20.0, 2.0]),
           rotation=st.booleans(), b=st.sampled_from([0.0, 0.1, 0.7]))
    def test_batches_equal_per_batch_oracle(self, batch_size, batches, extra,
                                            rate, rotation, b):
        pairs = (batches * batch_size + extra % batch_size if batch_size
                 else batches * 600 + extra)
        eng, net = small_network(seed=batches, batch_size=batch_size,
                                 source_rate_hz=rate, earth_rotation=rotation,
                                 downlink_b=b, yield_rate=0.5)
        sess = net.request(1, 2, qubits=1, pairs_target=pairs)
        eng.run_until(1e6)
        start = events(net, "leo_command_received")[0]["t"]
        got = [(r["event"], r["t"] if r["event"] == "link_lost" else (
                r["t"], *(r["payload"][key] for key in (
                    "attempted", "survivors", "eta0_a", "eta0_b", "slant_a_m",
                    "slant_b_m"))))
               for r in net.trace if r["event"] in ("batch_emitted",
                                                    "link_lost")]
        assert got == list(self.oracle(net, sess, start, rotation))

    def test_session_draws_its_target_once_per_chunk(self, monkeypatch):
        # only the plan draws, sized from the pairs it has left, so no call
        # draws past the session's target
        draws = counted_survival_draws(monkeypatch)
        eng, net = small_network(batch_size=100, yield_rate=0.5)
        sess = net.request(1, 2, qubits=1, pairs_target=3 * DRAW_CHUNK)
        eng.run_until(2.0)
        batches = len(events(net, "batch_emitted"))
        assert batches == -(-sess.pairs_target // 100)
        chunks = -(-batches // (DRAW_CHUNK // 100))
        assert len(draws) == chunks == 4
        assert sum(draws) == sess.pairs_target

    def test_source_slow_enough_to_overflow_time(self):
        # the second batch falls at t = inf: it is neither run nor planned
        eng, net = small_network(batch_size=100, source_rate_hz=1e-307)
        net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(1e300)
        assert [r["payload"]["attempted"]
                for r in events(net, "batch_emitted")] == [100]


class TestLinkLoss:
    """Relay starts barely above the horizon mask and sets between batches."""

    def setting_relay_network(self, min_raw_pairs, coherence=30.0,
                              batch_size=500, source_rate_hz=100.0):
        stations = [station(1, 0.0, coherence=coherence),
                    station(2, 1.0, coherence=coherence)]
        sats = [geo(100, 0.5),
                leo(201, 13.9, altitude=500e3)]   # el ~10.2 deg and falling
        eng = Engine(seed=7)
        net = Network(eng, stations, sats, batch_size=batch_size,
                      source_rate_hz=source_rate_hz, min_raw_pairs=min_raw_pairs,
                      yield_rate=1.0)
        return eng, net

    def test_partial_deposit_then_continue(self):
        eng, net = self.setting_relay_network(min_raw_pairs=1)
        sess = net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(30.0)
        assert len(events(net, "batch_emitted")) == 1   # second batch never fires
        assert len(events(net, "link_lost")) == 1
        assert sess.phase is Phase.DONE
        assert sess.pairs_attempted == 500
        assert sess.qubits_delivered == 1
        replay_audit(net.trace, coherence_time=30.0)    # partial path stays safe

    def test_draws_stop_at_the_lost_batch(self, monkeypatch):
        # one-pair batches 1 ms apart: the relay sets in the middle of the
        # first chunk, and the session draws only the pairs it emitted
        draws = counted_survival_draws(monkeypatch)
        eng, net = self.setting_relay_network(min_raw_pairs=1, batch_size=1,
                                              source_rate_hz=1000.0)
        net.request(1, 2, qubits=1, pairs_target=10**6)
        eng.run_until(30.0)
        emitted = sum(r["payload"]["attempted"]
                      for r in events(net, "batch_emitted"))
        assert len(events(net, "link_lost")) == 1
        assert 0 < emitted < DRAW_CHUNK
        assert draws == [emitted]

    def test_below_minimum_raw_fails(self):
        eng, net = self.setting_relay_network(min_raw_pairs=1000)
        sess = net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(30.0)
        assert sess.phase is Phase.FAILED
        assert sess.failure_reason == Failure.LINK_LOST

    def test_arrivals_after_failure_are_skipped(self):
        # one-pair batches 1 ms apart: the relay sets with the pairs of the
        # last few batches still in flight, and their arrivals do nothing
        eng, net = self.setting_relay_network(min_raw_pairs=10**9, batch_size=1,
                                              source_rate_hz=1000.0)
        sess = net.request(1, 2, qubits=1, pairs_target=10**6)
        eng.run_until(30.0)
        assert sess.failure_reason == Failure.LINK_LOST
        assert net.trace[-1]["event"] == "session_failed"
        assert eng.processed_count == eng.scheduled_count
        assert len(events(net, "batch_emitted")) > len(events(net, "pairs_deposited"))


class TestDistillation:
    def test_yield_floor_applied(self):
        eng, net = small_network(seed=21, yield_rate=0.5121)
        sess = net.request(1, 2, qubits=1, pairs_target=10_000)
        eng.run_until(1.0)
        done = events(net, "distill_completed")[0]["payload"]
        assert done["distilled"] == distilled_count(done["n_valid"], 0.5121)

    def test_completion_after_round_trips(self):
        eng, net = small_network(distill_rounds=3, yield_rate=0.9)
        net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(1.0)
        started = events(net, "distill_started")[0]
        chord = 2.0 * geom.R_EARTH * math.sin(math.radians(2.0))
        rtt = 2.0 * chord / geom.C_LIGHT
        assert started["payload"]["rtt_s"] == pytest.approx(rtt, rel=1e-6)
        assert started["payload"]["completion_t"] == pytest.approx(
            started["t"] + 3 * rtt, rel=1e-9)

    def test_expired_raw_pairs_fail_the_session(self):
        # memories forget in 1 ms but the classical round trip takes ~3 ms
        stations = [station(1, 0.0, coherence=1e-3), station(2, 4.0, coherence=1e-3)]
        eng, net = small_network(stations=stations, yield_rate=1.0)
        sess = net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(1.0)
        assert sess.phase is Phase.FAILED
        assert sess.failure_reason == Failure.INSUFFICIENT_ENTANGLEMENT

    @pytest.mark.parametrize("coherence, drawn", [(1e-3, 0), (1.0, 2 * 1000)])
    def test_model_yield_drawn_only_for_fresh_pairs(self, monkeypatch,
                                                    coherence, drawn):
        # with every raw pair expired m is 0 at any yield, so the session
        # fails without a yield draw; with fresh pairs it draws yield_samples
        # values from each arm's yield stream
        draws = []

        def counted(model, rng, n):
            draws.append((rng.key, n))
            return sample_downlink(model, rng, n)
        monkeypatch.setattr(ch, "sample_downlink", counted)
        stations = [station(1, 0.0, coherence=coherence),
                    station(2, 4.0, coherence=coherence)]
        eng, net = small_network(stations=stations, yield_samples=1000)
        sess = net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(1.0)
        keys = {eng.stream("proto", sess.id, arm).key
                for arm in ("yield_a", "yield_b")}
        assert sum(n for key, n in draws if key in keys) == drawn
        assert events(net, "distill_started")
        if not drawn:
            assert sess.failure_reason == Failure.INSUFFICIENT_ENTANGLEMENT

    def test_default_yield_is_product_channel_rate(self):
        eng, net = small_network(seed=33)
        sess = net.request(1, 2, qubits=1, pairs_target=5000)
        eng.run_until(1.0)
        done = events(net, "distill_completed")[0]["payload"]
        assert 0.0 < done["yield_rate"] < 1.0
        # same seed, same scenario: the sampled yield is reproducible
        eng2, net2 = small_network(seed=33)
        net2.request(1, 2, qubits=1, pairs_target=5000)
        eng2.run_until(1.0)
        assert events(net2, "distill_completed")[0]["payload"]["yield_rate"] == \
            done["yield_rate"]


class TestTeleport:
    def test_accounting_and_done(self):
        eng, net = small_network(seed=2)
        sess = net.request(1, 2, qubits=50, pairs_target=10_000)
        eng.run_until(1.0)
        done = events(net, "teleport_completed")[0]["payload"]
        assert done["delivered"] == 50
        assert done["classical_bits"] == 100
        assert sess.phase is Phase.DONE
        assert sess.qubits_delivered == 50
        leftover = len(sess.pool)
        distilled = events(net, "distill_completed")[0]["payload"]["distilled"]
        assert leftover == distilled - 50

    def test_unmet_target_fails_after_partial_delivery(self):
        eng, net = small_network(seed=3)
        sess = net.request(1, 2, qubits=10**6, pairs_target=10_000)
        eng.run_until(1.0)
        assert sess.phase is Phase.FAILED
        assert sess.failure_reason == Failure.INSUFFICIENT_ENTANGLEMENT
        assert 0 < sess.qubits_delivered < 10**6


class TestTraceContracts:
    def run_example(self, seed=42):
        eng, net = small_network(
            seed=seed,
            satellites=[geo(100, 2.0), leo(201, 2.0), leo(202, 20.0, 1000e3, 0.15),
                        leo(203, 120.0, 800e3, 0.15, incl_deg=30.0),
                        leo(204, 240.0, 600e3, 0.15)])
        sess = net.request(1, 2, qubits=50, pairs_target=10_000)
        eng.run_until(1.0)
        return net, sess

    def test_full_audit_passes(self):
        net, sess = self.run_example()
        stats = replay_audit(net.trace, coherence_time=1.0)
        assert stats[sess.id]["delivered"] == 50
        assert stats[sess.id]["consumed_distilled"] == 50

    def test_trace_determinism(self):
        net1, _ = self.run_example()
        net2, _ = self.run_example()
        assert net1.trace == net2.trace
        net3, _ = self.run_example(seed=43)
        assert net3.trace != net1.trace

    def test_failed_is_absorbing(self):
        eng, net = small_network(satellites=[geo(100, 2.0), leo(201, 180.0)])
        sess = net.request(1, 2, qubits=1, pairs_target=10)
        eng.run_until(2.0)
        assert sess.phase is Phase.FAILED
        terminal_t = events(net, "session_failed")[0]["t"]
        later = [r for r in net.trace if r["t"] > terminal_t]
        assert later == []

    def test_done_session_cannot_move_back(self):
        eng, net = small_network(seed=2)
        sess = net.request(1, 2, qubits=1, pairs_target=1000)
        eng.run_until(1.0)
        assert sess.phase is Phase.DONE
        records = len(net.trace)
        with pytest.raises(RuntimeError,
                           match="^illegal transition DONE -> DISTILLING$"):
            net._transition(sess, Phase.DISTILLING)
        assert sess.phase is Phase.DONE
        assert len(net.trace) == records

    def test_summary_aggregates(self):
        net, sess = self.run_example()
        summary = net.summary()
        assert summary["qubits_delivered"] == summary["ebits_consumed"] == 50
        assert summary["pairs_attempted"] == 10_000
        assert summary["sessions_done"] == 1
