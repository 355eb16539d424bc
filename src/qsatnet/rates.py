"""Entanglement-distillation rates in ebits per channel use.

The per-use rate of a pure-loss channel with transmittance eta is
-log2(1 - eta), an achievable distillation rate with loss as the only noise
process.  The random loss of the LEO downlink, the one channel whose
rates the sweep maps, is averaged by Monte Carlo (mean_rate) with
per-grid-point substreams, so every surface is reproducible bit-for-bit for
a given seed under one numpy SIMD dispatch (see engine).  Every Monte-Carlo
mean, a mean_rate or a session's distillation yield (proto), is a
chunked_mean: it draws and maps to rates DRAW_CHUNK values at a time, so
one chunk's temporaries stay in a core's cache, and then sums the whole
buffer of rates at once: the streams are counter-based, so the mean is the
one an unchunked draw would give.
A sweep splits its grid points over at most SWEEP_THREADS threads and never
more than the CPUs the process may use; the surface does not depend on how
many.  Each chunk's draws are mixed in one pass over both Box-Muller slots
(engine.RngStream.standard_normal), then faded (channel.sample_downlink)
and mapped to rates (rci_array) in place: with fewer numpy calls per chunk
the sweep threads hand the GIL to each other less often, which is what
lets them scale, and the bytes are the same.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

from . import channel as ch
from .engine import (COUNT_MAX, DEFAULT_SEED, DRAW_CHUNK, RngStream,
                     check_count, make_stream)

LN2 = math.log(2.0)
RATE_SATURATION = 60.0   # the rate of eta == 1.0, which is infinite
SWEEP_THREADS = 4        # most threads a sweep uses


def rci_array(eta) -> np.ndarray:
    """Distillable ebits per use of pure-loss channels with transmittances eta.

    max(0, -log2(1 - eta)) elementwise, computed in one new array: exactly 0
    at eta = 0 and capped at 60 ebits/use.  The cap binds only at
    eta == 1.0: the largest float below 1 gives 53.  Raises ValueError
    unless every eta is in [0, 1]; NaN is out of range.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.size and not (eta.min() >= 0.0 and eta.max() <= 1.0):
        raise ValueError(f"eta must be in [0, 1], got values from "
                         f"{eta.min()} to {eta.max()}")
    out = np.negative(eta, out=np.empty_like(eta))
    with np.errstate(divide="ignore"):     # log1p(-1) = -inf, capped below
        np.log1p(out, out=out)
    np.divide(out, -LN2, out=out)
    return np.minimum(out, RATE_SATURATION, out=out)


def chunked_mean(rates_of: Callable[[int], np.ndarray], n: int) -> float:
    """Mean of n rates, made rates_of(k) for k <= DRAW_CHUNK draws at a time;
    its peak memory is one n-float buffer plus one chunk's temporaries."""
    rates = np.empty(n)
    for lo in range(0, n, DRAW_CHUNK):
        k = min(DRAW_CHUNK, n - lo)
        rates[lo:lo + k] = rates_of(k)
    return float(np.mean(rates))


def mean_rate(model: ch.DownlinkGaussianTail, n_samples: int,
              rng: RngStream) -> float:
    """Monte-Carlo mean of the per-use rate over n_samples independent
    downlink transmittances drawn from rng through chunked_mean; b = 0 gives
    the rate of eta0 with no sampling."""
    check_count(n_samples, "n_samples", 1, COUNT_MAX)
    if model.b == 0.0:
        return float(rci_array(model.eta0))
    return chunked_mean(
        lambda k: rci_array(ch.sample_downlink(model, rng, k)), n_samples)


def _point_rate(tx_waist: float, rx_radius: float, distance: float, b: float,
                wavelength: float, n_samples: int, seed: int,
                i: int, j: int) -> float:
    eta0 = ch.diffraction_transmittance(
        ch.BeamParams(tx_waist, wavelength), rx_radius, distance)
    model = ch.DownlinkGaussianTail(eta0, b)
    # substream keyed by grid index only: the same grid reuses the same
    # draws at any distance, which makes distance-ordering exact pointwise
    rng = make_stream(seed, "rates", "sweep", i, j)
    return mean_rate(model, n_samples, rng)


def _sweep_threads() -> int:
    """SWEEP_THREADS, or fewer when the process may use fewer CPUs."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(SWEEP_THREADS, usable)


def sweep(tx_waists: Sequence[float], rx_radii: Sequence[float], distance: float,
          b: float, wavelength: float = ch.DEFAULT_WAVELENGTH,
          n_samples: int = 100_000, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Mean rates over the aperture grid at fixed distance and b, as a
    matrix with rows indexed by tx waist and columns by rx radius.

    The grid points, in row-major order, are dealt round-robin into
    n = min(_sweep_threads(), points) shares: the calling thread computes
    share 0 and one thread each of the others.  Each grid point draws from
    an independent substream keyed by (i, j) and writes only its own cell,
    so the matrix is identical for any n.  A share stops at its first
    failing point; once every thread is joined, the failure with the
    smallest grid index is raised, the one a point-by-point loop would raise.
    """
    if len(tx_waists) == 0 or len(rx_radii) == 0:
        raise ValueError("grid axes must be non-empty")
    rates = np.zeros((len(tx_waists), len(rx_radii)))
    n = min(_sweep_threads(), rates.size)
    failures = []               # (grid index, exception), one per share

    def compute_share(k):
        for point in range(k, rates.size, n):
            i, j = divmod(point, len(rx_radii))
            try:
                rates[i, j] = _point_rate(tx_waists[i], rx_radii[j], distance,
                                          b, wavelength, n_samples, seed, i, j)
            except Exception as exc:
                failures.append((point, exc))
                return

    threads = []
    try:
        for k in range(1, n):
            thread = threading.Thread(target=compute_share, args=(k,))
            thread.start()
            threads.append(thread)
        compute_share(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures)[1]      # grid indices are distinct
    return rates
