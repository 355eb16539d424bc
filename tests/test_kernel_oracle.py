"""The Monte-Carlo kernels every draw goes through give, byte for byte, what
their step-by-step statements in audit_util give: RngStream.standard_normal,
random and uniforms_at, channel.sample_downlink and rates.rci_array.  The
kernels mix both Box-Muller slots in one pass and map in place; these
tests hold them to the plain form, with the stream counter, the dtype and
the memory each result owns."""

import math

import numpy as np
from hypothesis import given, strategies as st

from audit_util import (oracle_downlink, oracle_rci, oracle_standard_normal,
                        oracle_uniforms)
from qsatnet import channel as ch
from qsatnet.engine import DRAW_CHUNK, make_stream
from qsatnet.rates import rci_array

COUNTERS = st.one_of(st.integers(0, 3), st.integers(2**40 - 3, 2**40 + 3))
COUNTS = st.one_of(st.sampled_from([0, 1, DRAW_CHUNK, 2 * DRAW_CHUNK + 2]),
                   st.integers(0, 2 * DRAW_CHUNK + 2))
ETA0 = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
B = st.sampled_from([0.0, 5e-324, 0.1, 1e3])
EDGE_ETAS = [0.0, 1.0, 1.0 - 2.0**-53]


def assert_same(result, expected, n):
    """The same bits, in a float64, C-contiguous array of n values that
    owns its memory, not a view of a larger buffer."""
    assert isinstance(result, np.ndarray) and result.dtype == np.float64
    assert result.shape == (n,)
    assert result.flags.c_contiguous and result.flags.owndata
    assert result.tobytes() == np.asarray(expected).tobytes()


def stream_at(seed, counter):
    rng = make_stream(seed, "kernel-oracle")
    rng._counter = counter
    return rng


@given(seed=st.integers(0, 2**64 - 1), counter=COUNTERS, n=COUNTS,
       eta0=ETA0, b=B)
def test_kernels_match_the_stepwise_oracle(seed, counter, n, eta0, b):
    rng = stream_at(seed, counter)
    key = rng.key
    want, after = oracle_standard_normal(key, counter, n)
    assert_same(rng.standard_normal(n), want, n)
    assert rng._counter == after

    rng = stream_at(seed, counter)
    want = oracle_uniforms(key, np.arange(counter, counter + n))
    assert_same(rng.random(n), want, n)
    assert rng._counter == counter + n
    idx = np.arange(counter, counter + n)[::-1]
    assert_same(rng.uniforms_at(idx), oracle_uniforms(key, idx), n)

    rng = stream_at(seed, counter)
    eta = ch.sample_downlink(ch.DownlinkGaussianTail(eta0, b), rng, n)
    g, after = oracle_standard_normal(key, counter, n)
    want = oracle_downlink(eta0, b, g)     # at b = 0, eta0 from every draw
    assert_same(eta, want, n)
    assert rng._counter == after == counter + 2 * n

    assert_same(rci_array(eta), oracle_rci(want), n)
    # 0-d and empty input, and the values where the 60-ebit cap binds
    # (eta == 1.0) and where it does not (1 - 2**-53 gives 53)
    for edge in (eta0, *EDGE_ETAS):
        rate = rci_array(np.array(edge))
        assert np.ndim(rate) == 0
        assert np.asarray(rate).tobytes() == oracle_rci(edge).tobytes()
    assert_same(rci_array(np.array(EDGE_ETAS)), [0.0, 60.0, 53.0], 3)
    assert_same(rci_array(np.empty(0)), np.empty(0), 0)
