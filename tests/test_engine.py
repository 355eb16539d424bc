import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsatnet import channel as ch
from qsatnet.engine import (DRAW_CHUNK, Engine, EngineError, derive_key,
                            make_stream)


def test_schedule_at_now_runs_after_current_handler():
    eng = Engine()
    order = []

    def outer(ev):
        order.append("outer-start")
        eng.schedule(eng.now, "inner", lambda e: order.append("inner"))
        order.append("outer-end")

    eng.schedule(0.0, "outer", outer)
    eng.run_until(1.0)
    assert order == ["outer-start", "outer-end", "inner"]


def test_equal_time_events_run_in_schedule_order():
    eng = Engine()
    seen = []
    for tag in ("a", "b", "c"):
        eng.schedule(5.0, tag, lambda ev, tag=tag: seen.append(tag))
    eng.run_until(10.0)
    assert seen == ["a", "b", "c"]


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule(1.0, "tick", lambda ev: None)
    eng.run_until(1.0)
    with pytest.raises(EngineError):
        eng.schedule(0.5, "late", lambda ev: None)


def test_nan_time_rejected():
    # a NaN event would sit at the heap head and block every later one
    eng = Engine()
    eng.schedule(1.0, "tick", lambda ev: None)
    with pytest.raises(EngineError):
        eng.schedule(math.nan, "bad", lambda ev: None)
    with pytest.raises(EngineError):
        eng.run_until(math.nan)
    assert eng.run_until(5.0) == 1
    assert eng.now == 5.0


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(42.0) == 0
    assert eng.now == 42.0


def test_self_rescheduling_tick_chain_count():
    # N = floor((t_end - t0) / dt) + 1 ticks fit in [t0, t_end]
    eng = Engine()
    dt = 0.25
    t_end = 10.0
    count = []

    def tick(ev):
        count.append(eng.now)
        eng.schedule(eng.now + dt, "tick", tick)

    eng.schedule(0.0, "tick", tick)
    processed = eng.run_until(t_end)
    expected = math.floor(t_end / dt) + 1
    assert len(count) == expected
    assert processed == expected


def test_no_event_loss_counters():
    eng = Engine()
    for k in range(10):
        eng.schedule(float(k), "tick", lambda ev: None)
    eng.run_until(4.5)
    assert (eng.scheduled_count, eng.processed_count) == (10, 5)
    eng.run_until(100.0)
    assert eng.scheduled_count == eng.processed_count == 10


def test_handler_failure_identifies_event():
    eng = Engine()

    def boom(ev):
        raise ValueError("broken")

    eng.schedule(2.0, "fragile", boom)
    with pytest.raises(EngineError, match="fragile"):
        eng.run_until(5.0)


def test_run_until_backwards_raises():
    eng = Engine()
    eng.run_until(5.0)
    with pytest.raises(EngineError):
        eng.run_until(4.0)


def test_same_key_same_sequence():
    a = make_stream(42, "proto", 7)
    b = make_stream(42, "proto", 7)
    assert np.array_equal(a.random(100), b.random(100))
    assert a.standard_normal() == b.standard_normal()


def test_distinct_keys_uncorrelated():
    u1 = make_stream(42, "k1").random(10_000)
    u2 = make_stream(42, "k2").random(10_000)
    r = np.corrcoef(u1, u2)[0, 1]
    assert abs(r) < 0.05


def test_uniform_mean_clt():
    u = make_stream(0, "uniform-check").random(1_000_000)
    three_sigma = 3.0 * math.sqrt(1.0 / 12.0) / 1000.0
    assert abs(u.mean() - 0.5) < three_sigma
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normal_moments():
    z = make_stream(0, "normal-check").standard_normal(1_000_000)
    assert abs(z.mean()) < 3.0 / 1000.0
    assert abs(z.std() - 1.0) < 5.0 / 1000.0


@pytest.mark.parametrize("skip,n,digest,counter", [
    # after random(3) the normals start at an odd counter slot
    (3, 2**15 + 3,
     "2452bff951362ced78bdf90b25d96398fc977def3605377e24bad8db10c19d77", 65545),
    (0, 2**15 + 3,
     "799b26f9a649be835c0d8213876a297ab2d83fcbc8a7eabe4a4b230d446bf9fd", 65542),
])
def test_normal_values_pinned(skip, n, digest, counter):
    s = make_stream(11, "normal-pin")
    s.random(skip)
    z = s.standard_normal(n)
    assert z.dtype == np.float64 and z.shape == (n,)
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest
    assert s._counter == counter == skip + 2 * n


def test_normal_small_counts_pinned():
    s = make_stream(11, "normal-pin")
    z = s.standard_normal(0)
    assert z.shape == (0,) and s._counter == 0
    one = s.standard_normal(1)
    assert one.tolist() == [-0.43303990890658556] and s._counter == 2
    scalar = make_stream(11, "normal-pin").standard_normal()
    assert type(scalar) is float and scalar == -0.43303990890658556


@settings(max_examples=200)
@given(skip=st.integers(0, 3), a=st.integers(0, 2 * DRAW_CHUNK + 2),
       b=st.integers(0, 2 * DRAW_CHUNK + 2))
@example(skip=1, a=DRAW_CHUNK - 1, b=2)
@example(skip=0, a=DRAW_CHUNK, b=DRAW_CHUNK + 1)
def test_split_normal_draws_match_one_draw(skip, a, b):
    split, whole = make_stream(5, "split"), make_stream(5, "split")
    split.random(skip)
    whole.random(skip)
    parts = np.concatenate((split.standard_normal(a), split.standard_normal(b)))
    assert np.array_equal(parts, whole.standard_normal(a + b))
    assert split._counter == whole._counter == skip + 2 * (a + b)


def test_indexed_access_matches_sequential():
    s = make_stream(9, "indexed")
    seq = s.random(50)
    t = make_stream(9, "indexed")
    assert [t.uniform_at(i) for i in range(50)] == list(seq)
    assert np.array_equal(make_stream(9, "indexed").uniforms_at(np.arange(50)),
                          seq)


def test_gathered_indices_match_scalar_path():
    s = make_stream(9, "gather")
    idx = [7, 0, 7, 2**40 + 3, 2**63 - 1, -1, -2**63, 12]
    assert list(s.uniforms_at(np.array(idx))) == [s.uniform_at(i) for i in idx]


def test_scalar_draws_match_vector_draws():
    s = make_stream(3, "scalar")
    v = make_stream(3, "scalar")
    assert [s.random() for _ in range(5)] == list(v.random(5))


def test_negative_draw_count_raises():
    # a negative count must not move the counter back and repeat values
    s = make_stream(4, "count")
    first = s.random(3)
    with pytest.raises(ValueError):
        s.random(-3)
    with pytest.raises(ValueError):
        s.standard_normal(-2)
    # a float count is rejected, not truncated
    with pytest.raises(ValueError, match="draw count"):
        s.random(2.9)
    with pytest.raises(ValueError, match="draw count"):
        s.standard_normal(2.7)
    # the channel samplers read their counts by the same rule
    uplink = ch.UplinkPointingFade(0.036, 1.1, 0.5)
    for n in (-1, 2.7):
        for b in (0.0, 0.1):
            with pytest.raises(ValueError, match="draw count"):
                ch.sample_downlink(ch.DownlinkGaussianTail(0.3, b), s, n)
        with pytest.raises(ValueError, match="draw count"):
            ch.uplink_interval_samples(uplink, s, n)
    rest = s.random(3)
    assert np.array_equal(np.concatenate((first, rest)),
                          make_stream(4, "count").random(6))


def test_derive_key_sensitivity():
    base = derive_key(1, ("a", 0))
    assert derive_key(1, ("a", 1)) != base
    assert derive_key(2, ("a", 0)) != base
    assert derive_key(1, ("b", 0)) != base
    with pytest.raises(TypeError):
        derive_key(1, (1.5,))


def test_engine_trace_determinism():
    def workload(seed):
        eng = Engine(seed=seed)
        log = []

        def step(k):
            def handler(ev):
                draw = eng.stream("step", k).random()
                log.append((eng.now, ev.kind, draw))
                if k < 20:
                    eng.schedule(eng.now + draw, "step", step(k + 1))
            return handler

        eng.schedule(0.0, "step", step(0))
        eng.run_until(100.0)
        return log

    assert workload(7) == workload(7)
    assert workload(7) != workload(8)
