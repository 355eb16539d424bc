"""Deterministic discrete-event core: simulated clock, ordered event queue,
seeded random streams, and the numeric-field checks every module calls.

Random streams are counter-based so that every draw is a pure function of
(root seed, stream key, counter index).  The pinned algorithm (do not change
without bumping the stream version tag) is:

    value_i = splitmix64_finalizer(key64 + (i + 1) * 0x9E3779B97F4A7C15)

where key64 is the first 8 bytes of BLAKE2b over the tagged stream key.
Uniforms map the top 53 bits to [0, 1); normals use the Box-Muller transform
and consume two counter slots per value.  All integer arithmetic is modulo
2**64, so streams are identical across platforms.

The array draws are the kernel of every Monte-Carlo mean, so they are made
with few numpy calls and few temporaries: a draw of normals mixes both
Box-Muller slots in one pass over a (2, n) array, with one scratch array
for the shifts, and runs the transform in place.  Each numpy call on a
large array lets go of the GIL and must take it back, so the fewer calls a
chunk makes, the less the threads of a sweep wait on each other.  The
values are the same bytes the formula above gives step by step.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_VERSION_TAG = b"qsatnet-rng-v1"

# Most values a caller draws from a stream at once when it needs many more,
# as in a Monte-Carlo mean or a session's pair draws: one chunk's draws and
# temporaries stay within a core's L2 cache.
DRAW_CHUNK = 16384

# Root seeds are unsigned 64-bit: each seed in [0, SEED_MAX] keys its own
# streams, and a seed outside would alias one inside, so Engine and
# make_stream reject it.  DEFAULT_SEED is the root seed when none is given.
SEED_MAX = 2**64 - 1
DEFAULT_SEED = 0

# Counts of draws, samples, pairs, qubits and rounds are at most COUNT_MAX.
# A (2, COUNT_MAX) uint64 draw buffer is 2**62 bytes, inside numpy's limit
# of 2**63 - 1 bytes per array, so a count up to it either runs or raises
# MemoryError, and one above it is rejected as a bad value; rounds * rtt
# stays far inside the float range.
COUNT_MAX = 2**58


class EngineError(RuntimeError):
    """Scheduling violations and handler failures inside the event loop."""


def check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
               strict: bool = False):
    """value as a float if it is finite and in [lo, hi], or in (lo, hi]
    when strict; else a ValueError naming the field.  Every real field,
    argument, flag and scenario value of the package is checked here."""
    if (math.isfinite(value) and (value > lo if strict else value >= lo)
            and value <= hi):
        return float(value)
    if hi < math.inf:
        bound = f" and in {'(' if strict else '['}{lo:g}, {hi:g}]"
    else:
        bound = f" and {'>' if strict else '>='} {lo:g}" if lo > -math.inf else ""
    raise ValueError(f"{name} must be finite{bound}, got {value}")


def check_count(value, name: str, lo: int = 0, hi: Optional[int] = None) -> int:
    """value if it is an int, not a bool, at least lo and, when hi is given,
    at most hi; else a ValueError naming the field.  Every whole-number
    field is checked here."""
    if (isinstance(value, int) and not isinstance(value, bool) and value >= lo
            and (hi is None or value <= hi)):
        return value
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


# Scales the two rows of 53-bit integers k to -u_even = -(k 2**-53) and the
# angle 2 pi u_odd = k (2**-53 2 pi); multiplying by 2**-53 is exact, so each
# row gets the one rounding that (k 2**-53) 2 pi and the negation give
_NORMAL_SCALE = np.array([[-2.0**-53], [2.0**-53 * (2.0 * np.pi)]])


def _mix64_array(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``_mix64`` over a uint64 array, in place; t is uint64 scratch of the
    same shape, so no shift allocates a temporary."""
    np.right_shift(x, np.uint64(30), out=t)
    x ^= t
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _unit_mix(x: np.ndarray, scale) -> np.ndarray:
    """The top 53 bits of mix64(x) times scale as a new float64 array; x
    holds the mixed words afterwards."""
    out = np.empty(x.shape)
    _mix64_array(x, out.view(np.uint64))
    x >>= np.uint64(11)
    return np.multiply(x, scale, out=out)


def derive_key(root_seed: int, parts: tuple) -> int:
    """Hash (root seed, key parts) to the 64-bit stream key.

    Parts may be ints or strings, e.g. a module tag plus entity id plus grid
    index.  Distinct part tuples give statistically independent streams.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_STREAM_VERSION_TAG)
    h.update(struct.pack(">Q", root_seed))
    for p in parts:
        if isinstance(p, bool) or not isinstance(p, (int, str)):
            raise TypeError(f"stream key parts must be int or str, got {p!r}")
        if isinstance(p, int):
            h.update(b"i" + struct.pack(">q", p))
        else:
            h.update(b"s" + p.encode("utf-8") + b"\x00")
    return int.from_bytes(h.digest(), "big")


def _count(n: Optional[int]) -> int:
    """Number of values a sequential draw returns (1 for a scalar draw)."""
    return 1 if n is None else check_count(n, "draw count", 0, COUNT_MAX)


class RngStream:
    """One keyed random stream with sequential and indexed access.

    Sequential draws advance the internal counter; ``uniform_at`` reads the
    value at an absolute counter index without moving it.  A stream used for
    indexed access should not also be drawn from sequentially (the two views
    share the same counter line).  A single stream must not be shared across
    concurrent callers; derive one stream per worker instead.
    """

    def __init__(self, key: int):
        self.key = key & _MASK64
        self._counter = 0

    def _base(self, slot: int) -> int:
        """key64 + (slot + 1) * GOLDEN, the word that counter slot mixes."""
        return (self.key + (slot + 1) * _GOLDEN) & _MASK64

    def _uniforms(self, idx: np.ndarray) -> np.ndarray:
        """Uniforms in [0, 1) at the uint64 counter indices idx (overwritten)."""
        idx *= np.uint64(_GOLDEN)
        idx += np.uint64(self._base(0))
        return _unit_mix(idx, 2.0**-53)

    def random(self, n: Optional[int] = None):
        """Uniform draws in [0, 1); one counter slot per value."""
        c, m = self._counter, _count(n)
        self._counter += m
        u = self._uniforms(np.arange(c, c + m, dtype=np.uint64))
        return float(u[0]) if n is None else u

    def standard_normal(self, n: Optional[int] = None):
        """Normal draws via Box-Muller; two counter slots per value.

        Value k takes its radius from slot c + 2k and its angle from slot
        c + 2k + 1.  Both rows of slots are mixed in one pass over a (2, m)
        array and scaled by one column, then transformed in place.
        """
        c, m = self._counter, _count(n)
        self._counter += 2 * m
        x = np.arange(m, dtype=np.uint64)
        x *= np.uint64((2 * _GOLDEN) & _MASK64)
        x = x + np.array([[self._base(c)], [self._base(c + 1)]],
                         dtype=np.uint64)
        z, angle = _unit_mix(x, _NORMAL_SCALE)   # -u_even, 2 pi u_odd
        # sqrt(-2 log1p(-u_even)) * cos(2 pi u_odd), step by step in place
        np.log1p(z, out=z)
        z *= -2.0
        np.sqrt(z, out=z)
        np.cos(angle, out=angle)
        z = z * angle      # a new array that owns exactly its m values
        return float(z[0]) if n is None else z

    def uniform_at(self, index: int) -> float:
        """Uniform in [0, 1) at an absolute counter index (stateless)."""
        x = _mix64(self._base(index))
        return (x >> 11) * 2.0**-53

    def uniforms_at(self, index) -> np.ndarray:
        """Vectorized ``uniform_at`` over an integer index array."""
        return self._uniforms(np.asarray(index, dtype=np.int64).astype(np.uint64))


def make_stream(root_seed: int, *parts) -> RngStream:
    """Stream for a key tuple without an Engine instance (sweeps, CLI)."""
    return RngStream(derive_key(check_count(root_seed, "seed", 0, SEED_MAX),
                                parts))


@dataclass
class Event:
    time: float
    seq: int
    kind: str
    handler: Callable[["Event"], None]


class Engine:
    """Single-threaded event loop; dequeue order is (time, seq) lexicographic."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = check_count(seed, "seed", 0, SEED_MAX)
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self.scheduled_count = 0
        self.processed_count = 0

    @property
    def now(self) -> float:
        return self._now

    def stream(self, *parts) -> RngStream:
        return RngStream(derive_key(self.seed, parts))

    def schedule(self, time: float, kind: str,
                 handler: Callable[[Event], None]) -> Event:
        """Enqueue an event; seq is assigned in schedule-call order."""
        t = float(time)
        if not t >= self._now:     # also rejects NaN
            raise EngineError(
                f"cannot schedule '{kind}' at t={t}, current t={self._now}")
        ev = Event(t, self.scheduled_count, kind, handler)
        self.scheduled_count += 1
        heapq.heappush(self._queue, (ev.time, ev.seq, ev))
        return ev

    def run_until(self, t_end: float) -> int:
        """Process every event with time <= t_end; returns the count processed.

        The clock never decreases and finishes at t_end even if the queue
        drains early.  A handler exception aborts the run with the offending
        event identified.
        """
        t_end = float(t_end)
        if not t_end >= self._now:     # also rejects NaN
            raise EngineError(f"cannot run until t={t_end}, current t={self._now}")
        start = self.processed_count
        while self._queue and self._queue[0][0] <= t_end:
            _, _, ev = heapq.heappop(self._queue)
            self._now = ev.time
            try:
                ev.handler(ev)
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError(
                    f"handler failed on event '{ev.kind}' (seq={ev.seq}, t={ev.time}): {exc}"
                ) from exc
            self.processed_count += 1
        self._now = t_end
        return self.processed_count - start

