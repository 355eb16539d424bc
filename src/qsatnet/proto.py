"""Coordinated entanglement-distribution protocol over the event engine.

A session walks the five-step sequence: a ground station radios a request
to the coordination (GEO) tier, the coordinator picks the relay (LEO)
satellite best placed over both stations, the relay distributes raw pairs
in two separate optical downlinks, the stations distill the surviving
pairs into fewer near-maximal ebits over classical rounds, and finally
teleportation consumes one ebit plus two classical bits per transferred
qubit.

Phases move only forward:

    IDLE -> REQUESTED -> COORDINATING -> DISTRIBUTING -> DISTILLING
         -> TELEPORTING -> DONE

FAILED is absorbing and reachable from any non-terminal phase.  Pair
memories enforce a hard coherence cutoff: a pair older than the memory
coherence time is never consumed.

Every step appends one JSON-friendly record to the trace:
{"t": float, "session_id": int, "event": str, "payload": {...}}.
TRACE_SCHEMA is the one statement of the event names and their payload
keys; each value is exactly its type there: float, int (never a bool), a
list of int pair ids, or str.  Message payloads carry send_t/arrive_t so a
replay can verify causality; deposit/distill/teleport payloads carry pair
ids and timestamps so a replay can audit conservation and expiry.
trace_line writes a record as one JSON line from a % template per event
kind, built once from the table: the same bytes as json.dumps with sorted
keys and compact separators, without an encoder, a key sort or a type
dispatch per record.

A session's distribution is one batch generator, Network._plan, which
each batch event reads one row from.  It plans ahead in chunks, and
plans the next chunk when the last one is used up: as many batches as
fit in DRAW_CHUNK pairs, and always at least one.  Their times chain as
t + n / source_rate_hz, and batch events run at their planned times.
The relay and station positions and both arms' slant ranges and
elevations come from one array call each (see geom); each arm's eta0
comes from one diffraction_transmittance call per batch; and one
sample_pair_survival call covers the chunk's pairs, each pair at its own
batch's eta0 (np.repeat), with survivors counted per batch by
np.add.reduceat.  Every planned value equals bit for bit what the batch
alone at its own time would give, by these arithmetic rules:

* lengths are np.sqrt(np.vecdot(x, x)), the same dot kernel per row as the
  1-D np.linalg.norm; einsum and (x * x).sum(axis=1) round differently on
  one slant range in six to eight;
* cos, sin, asin and the exp of eta0 run per element through math:
  np.arcsin and np.exp differ from libm in the last bit;
* the survival products are elementwise, so a repeated eta0 array gives
  what a scalar eta0 gives.

The cap of DRAW_CHUNK pairs keeps a chunk's draws cache-sized and the peak
memory flat in the number of batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import channel as ch
from . import geom
from .engine import (COUNT_MAX, DRAW_CHUNK, Engine, Event, RngStream,
                     check_count, check_real)
from .rates import chunked_mean, rci_array


class Phase(Enum):
    IDLE = "IDLE"
    REQUESTED = "REQUESTED"
    COORDINATING = "COORDINATING"
    DISTRIBUTING = "DISTRIBUTING"
    DISTILLING = "DISTILLING"
    TELEPORTING = "TELEPORTING"
    DONE = "DONE"
    FAILED = "FAILED"


_ORDER = [Phase.IDLE, Phase.REQUESTED, Phase.COORDINATING, Phase.DISTRIBUTING,
          Phase.DISTILLING, Phase.TELEPORTING, Phase.DONE]

# forward steps along the five-step order, plus FAILED from any non-terminal
ALLOWED_TRANSITIONS = {(a, b) for a, b in zip(_ORDER[:-1], _ORDER[1:])}
ALLOWED_TRANSITIONS |= {(p, Phase.FAILED) for p in _ORDER[:-1]}

TERMINAL_PHASES = {Phase.DONE, Phase.FAILED}


class Failure:
    NO_COORDINATOR = "NoCoordinator"
    NO_SATELLITE = "NoSatellite"
    LINK_LOST = "LinkLost"
    INSUFFICIENT_ENTANGLEMENT = "InsufficientEntanglement"


ID_LIST = list[int]

# The trace schema: each event's payload keys, in sorted order, with the
# exact type of each value.  ID_LIST is a list of pair ids.
TRACE_SCHEMA: dict[str, dict[str, type]] = {
    "state_changed": {"from": str, "to": str},
    "request_sent": {"arrive_t": float, "from": int, "geo": int,
                     "pairs_target": int, "qubits": int, "send_t": float,
                     "to": int},
    "request_received": {"geo": int},
    "leo_selected": {"leo": int},
    "leo_command_sent": {"arrive_t": float, "geo": int, "leo": int,
                         "send_t": float},
    "leo_command_received": {"leo": int},
    "batch_emitted": {"arrival_t": float, "attempted": int, "b": float,
                      "emit_t": float, "eta0_a": float, "eta0_b": float,
                      "leo": int, "slant_a_m": float, "slant_b_m": float,
                      "survivors": int},
    "pairs_deposited": {"count": int, "created_at": float, "dropped": int,
                        "pair_ids": ID_LIST},
    "link_lost": {"emitted_survivors": int, "leo": int, "remaining": int},
    "distill_started": {"completion_t": float, "raw_count": int,
                        "rounds": int, "rtt_s": float},
    "distill_completed": {"completion_t": float, "distilled": int,
                          "distilled_ids": ID_LIST, "n_valid": int,
                          "raw_consumed_ids": ID_LIST, "yield_rate": float},
    "teleport_started": {"requested": int},
    "teleport_completed": {"classical_bits": int, "consume_t": float,
                           "consumed_pair_ids": ID_LIST, "delivered": int,
                           "delivery_t": float, "requested": int},
    "session_done": {"classical_bits": int, "qubits_delivered": int},
    "session_failed": {"reason": str},
}


def _json_float(x: float) -> str:
    """x as json.dumps writes it: float.__repr__, or Infinity, -Infinity
    and NaN."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _id_text(ids: Sequence[int]) -> str:
    return ",".join(map(str, ids))


def _getter(positions: list) -> Callable:
    """A callable giving the items at positions as a tuple, even for one."""
    if len(positions) == 1:
        return lambda items, k=positions[0]: (items[k],)
    return itemgetter(*positions)


class _LineFormat(NamedTuple):
    """One event kind's trace line: a % template filled with the payload
    values in key order, then session_id and t."""
    template: str
    size: int                   # the number of payload keys
    values: Callable            # payload -> its values in key order
    texts: tuple                # (position, formatter) of id lists and str
    floats: tuple               # positions of the floats, t last
    float_values: Callable      # filled values -> their floats


def _line_format(event: str, fields: dict) -> _LineFormat:
    # event names and keys are lowercase identifiers: json writes them as is
    slot = {float: "%s", int: "%d", str: "%s", ID_LIST: "[%s]"}
    payload = ",".join(f'"{name}":{slot[typ]}' for name, typ in fields.items())
    template = (f'{{"event":"{event}","payload":{{{payload}}},'
                f'"session_id":%d,"t":%s}}\n')
    types = list(fields.values())
    texts = tuple((i, _id_text if typ is ID_LIST else _json_str)
                  for i, typ in enumerate(types) if typ in (ID_LIST, str))
    floats = [i for i, typ in enumerate(types) if typ is float]
    floats.append(len(types) + 1)
    return _LineFormat(template, len(types), _getter(list(fields)), texts,
                       tuple(floats), _getter(floats))


_LINE_FORMATS = {event: _line_format(event, fields)
                 for event, fields in TRACE_SCHEMA.items()}


def trace_line(record: dict) -> str:
    """record as one JSON line, byte for byte what
    json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" writes,
    for a record whose payload values are exactly their TRACE_SCHEMA types
    (an id list may be any sequence of ints).

    A payload with other keys than its schema raises KeyError or
    ValueError."""
    template, size, values_of, texts, floats, float_values = \
        _LINE_FORMATS[record["event"]]
    payload = record["payload"]
    if len(payload) != size:
        raise ValueError(f"{record['event']} payload keys {sorted(payload)} "
                         f"are not its TRACE_SCHEMA keys")
    values = (*values_of(payload), record["session_id"], record["t"])
    if texts:
        values = list(values)
        for i, text in texts:
            values[i] = text(values[i])
        values = tuple(values)
    if not all(map(math.isfinite, float_values(values))):
        # json spells a non-finite float Infinity, -Infinity or NaN
        values = list(values)
        for i in floats:
            values[i] = _json_float(values[i])
        values = tuple(values)
    return template % values


class EbitPool:
    """Timestamped inventory of the pairs a session's two stations share,
    with a hard expiry cutoff.

    Both stations receive the same pairs at the same times, so one pool
    serves the session.  Pairs are held as (ids, created_at) segments: one
    per raw deposit and one per distillation output.  A segment's ids are a
    step-1 range, and ranges must ascend from segment to segment, which
    makes the duplicate check O(1) and exact.

    Raw pairs past the coherence time are never used, but they keep their
    memory slots until distillation replaces the raw segments, so a deposit
    into a pool full of expired pairs drops fresh ones.
    """

    def __init__(self, coherence_time: float, capacity: int):
        self.coherence_time = check_real(coherence_time, "coherence_time", 0,
                                         strict=True)
        self.capacity = check_count(capacity, "capacity")
        self.raw: list[tuple[range, float]] = []
        self.distilled: list[tuple[range, float]] = []
        self._size = 0
        self._last_id = -math.inf

    def __len__(self) -> int:
        return self._size

    def space(self) -> int:
        return self.capacity - self._size

    def is_fresh(self, created_at: float, t: float) -> bool:
        return (t - created_at) <= self.coherence_time

    def _store(self, segments: list, ids: range, created_at: float) -> None:
        if not (isinstance(ids, range) and ids.step == 1):
            raise ValueError(f"pair ids must be a range of step 1, "
                             f"got {ids!r}")
        if len(ids) == 0:
            return
        if ids[0] <= self._last_id:
            raise ValueError(f"duplicate or out-of-order pair id {ids[0]}")
        segments.append((ids, created_at))
        self._size += len(ids)
        self._last_id = ids[-1]

    def deposit_raw(self, pair_ids: range, created_at: float) -> range:
        """Store raw pairs up to capacity; returns the ids actually kept."""
        kept = pair_ids[:max(0, self.space())]
        self._store(self.raw, kept, created_at)
        return kept

    def fresh_raw(self, t: float) -> list[int]:
        return [pid for ids, created_at in self.raw
                if self.is_fresh(created_at, t) for pid in ids]

    def replace_raw_with_distilled(self, distilled_ids: range,
                                   t: float) -> None:
        """Drop every raw pair and store the distilled output timestamped at t."""
        self._size -= sum(len(ids) for ids, _ in self.raw)
        self.raw = []
        self._store(self.distilled, distilled_ids, t)

    def consume_distilled(self, t: float, max_count: int) -> list[int]:
        """Use up to max_count fresh distilled pairs at time t (oldest first)."""
        check_count(max_count, "max_count")
        taken: list[int] = []
        for k, (ids, created_at) in enumerate(self.distilled):
            if self.is_fresh(created_at, t):
                n = max_count - len(taken)
                taken.extend(ids[:n])
                self.distilled[k] = (ids[n:], created_at)
        self._size -= len(taken)
        return taken


def distilled_count(n_valid: int, yield_rate: float) -> int:
    return int(math.floor(n_valid * yield_rate))


def sample_pair_survival(rngs: Sequence[RngStream], b: float, eta0_a, eta0_b,
                         n: int) -> np.ndarray:
    """Per-pair survival mask for the next n pairs of the session's streams
    rngs = (arm_a, arm_b, survival): each attempted pair survives with
    probability eta_a * eta_b.  eta0_a and eta0_b are the arms' diffraction
    floors, one for all n pairs or one per pair, and b is the fade scale.

    The streams are counter-based, so pair k gets the same values however
    the session's pairs are split into calls."""
    rng_a, rng_b, rng_survival = rngs
    # the unit floor makes sample_downlink return clip(1 - |G| b, 0, 1)
    fade = ch.DownlinkGaussianTail(1.0, b)
    fade_a, fade_b = (ch.sample_downlink(fade, rng, n) for rng in (rng_a, rng_b))
    return rng_survival.random(n) < (eta0_a * fade_a) * (eta0_b * fade_b)


@dataclass
class Session:
    id: int
    a_id: int
    b_id: int
    qubits_requested: int
    pairs_target: int
    pool: EbitPool
    phase: Phase = Phase.IDLE
    geo_id: Optional[int] = None
    leo_id: Optional[int] = None
    pending_deposits: int = 0
    survivors_emitted: int = 0
    distribution_done: bool = False
    eta0: tuple = ()    # the last emitted batch's diffraction floors at a, b
    pairs_attempted: int = 0
    pairs_survived: int = 0
    qubits_delivered: int = 0
    failure_reason: Optional[str] = None


class Network:
    """Stations, satellites, and channel parameters driving sessions on an
    engine.  Protocol logic runs single-threaded inside the event loop;
    sessions are isolated state machines.

    Every session distills alike: after distill_rounds classical round
    trips between its stations it keeps m = floor(n_valid * yield_rate) of
    its n_valid fresh raw pairs.  yield_rate None means the mean per-use
    rate of the session's two-arm product channel, sampled from
    yield_samples pairs of draws."""

    def __init__(self, engine: Engine, stations: Sequence[geom.GroundStation],
                 satellites: Sequence[geom.Satellite], *,
                 wavelength: float = ch.DEFAULT_WAVELENGTH,
                 downlink_b: float = ch.DEFAULT_DOWNLINK_B,
                 min_elevation: float = geom.DEFAULT_MIN_ELEVATION,
                 earth_rotation: bool = False,
                 batch_size: Optional[int] = None,
                 source_rate_hz: float = 1e6,
                 min_raw_pairs: int = 1,
                 distill_rounds: int = 1,
                 yield_rate: Optional[float] = None,
                 yield_samples: int = 100_000,
                 trace_sink: Optional[Callable[[dict], None]] = None):
        self.engine = engine
        self.stations = {s.id: s for s in stations}
        self.satellites = {s.id: s for s in satellites}
        if len(self.stations) != len(stations) or len(self.satellites) != len(satellites):
            raise ValueError("duplicate node ids")
        self.wavelength = check_real(wavelength, "wavelength", 0, strict=True)
        self.downlink_b = check_real(downlink_b, "downlink_b", 0)
        self.min_elevation = check_real(min_elevation, "min_elevation",
                                        -math.pi / 2, math.pi / 2)
        if not isinstance(earth_rotation, bool):
            raise ValueError(f"earth_rotation must be a bool, got "
                             f"{earth_rotation!r}")
        self.earth_rotation = earth_rotation
        self.batch_size = (batch_size if batch_size is None
                           else check_count(batch_size, "batch_size", 1))
        self.source_rate_hz = check_real(source_rate_hz, "source_rate_hz", 0,
                                         strict=True)
        self.min_raw_pairs = check_count(min_raw_pairs, "min_raw_pairs")
        self.distill_rounds = check_count(distill_rounds, "distill_rounds", 1,
                                          COUNT_MAX)
        # stored as a float, the type TRACE_SCHEMA gives it
        self.yield_rate = (yield_rate if yield_rate is None
                           else check_real(yield_rate, "yield_rate", 0.0, 1.0))
        self.yield_samples = check_count(yield_samples, "yield_samples", 1,
                                         COUNT_MAX)
        # records go to trace_sink when one is given, else into self.trace
        self.trace: list[dict] = []
        self._record = trace_sink if trace_sink is not None else self.trace.append
        self.sessions: dict[int, Session] = {}
        self._next_pair_id = 1

    # -- node positions at a given time ------------------------------------

    def _station_pos(self, sid: int, t: float) -> np.ndarray:
        return geom.ground_position(self.stations[sid], t, self.earth_rotation)

    def _sat_pos(self, sat_id: int, t: float) -> np.ndarray:
        return geom.satellite_position(self.satellites[sat_id], t)

    def _ground_chord(self, sess: Session, t: float) -> float:
        a = self._station_pos(sess.a_id, t)
        b = self._station_pos(sess.b_id, t)
        return float(np.linalg.norm(b - a))

    # -- trace -------------------------------------------------------------

    def _emit(self, session_id: int, event: str, payload: dict) -> None:
        record = {"t": self.engine.now, "session_id": session_id,
                  "event": event, "payload": payload}
        self._record(record)

    def _transition(self, sess: Session, new_phase: Phase) -> None:
        if (sess.phase, new_phase) not in ALLOWED_TRANSITIONS:
            raise RuntimeError(
                f"illegal transition {sess.phase.value} -> {new_phase.value}")
        old = sess.phase
        sess.phase = new_phase
        self._emit(sess.id, "state_changed",
                   {"from": old.value, "to": new_phase.value})

    def _fail(self, sess: Session, reason: str) -> None:
        sess.failure_reason = reason
        self._transition(sess, Phase.FAILED)
        self._emit(sess.id, "session_failed", {"reason": reason})

    def _at(self, t: float, kind: str, step: Callable[..., None],
            sess: Session, **payload) -> None:
        """Run step(sess, **payload) at time t, unless the session has
        ended (DONE or FAILED) by then."""
        def guarded(ev: Event) -> None:
            if sess.phase not in TERMINAL_PHASES:
                step(sess, **payload)
        self.engine.schedule(t, kind, guarded)

    def _radio(self, sess: Session, src: np.ndarray, dst: np.ndarray,
               event: str, payload: dict, kind: str,
               step: Callable[[Session], None]) -> None:
        """Radio a message from position src to dst: trace event with the
        payload and its send_t and arrive_t, and run step on arrival."""
        now = self.engine.now
        arrive_t = now + geom.link_geometry(src, dst).propagation_delay
        self._emit(sess.id, event,
                   {**payload, "send_t": now, "arrive_t": arrive_t})
        self._at(arrive_t, kind, step, sess)

    # -- step 1: terrestrial request ----------------------------------------

    def request(self, a_id: int, b_id: int, qubits: int,
                pairs_target: int) -> Session:
        """Open a session at engine.now and radio the request to the
        coordination tier."""
        check_count(a_id, "a_id")
        check_count(b_id, "b_id")
        if a_id == b_id:
            raise ValueError("a session needs two distinct stations")
        if a_id not in self.stations or b_id not in self.stations:
            raise ValueError("unknown station id")
        check_count(qubits, "qubits", 1, COUNT_MAX)
        check_count(pairs_target, "pairs_target", 1, COUNT_MAX)
        now = self.engine.now
        station_a = self.stations[a_id]
        station_b = self.stations[b_id]
        pool = EbitPool(min(station_a.memory_coherence_time,
                            station_b.memory_coherence_time),
                        min(station_a.memory_capacity, station_b.memory_capacity))
        # sessions are never removed, so ids count up from 1
        sess = Session(len(self.sessions) + 1, a_id, b_id, qubits, pairs_target,
                       pool)
        self.sessions[sess.id] = sess
        self._transition(sess, Phase.REQUESTED)

        pos_a = self._station_pos(a_id, now)
        geos = [s for s in self.satellites.values() if s.tier is geom.Tier.GEO]
        geo_id = geom.best_satellite(geos, [pos_a], now, self.min_elevation)
        if geo_id is None:
            self._fail(sess, Failure.NO_COORDINATOR)
            return sess
        sess.geo_id = geo_id
        self._radio(sess, pos_a, self._sat_pos(geo_id, now), "request_sent",
                    {"from": a_id, "to": b_id, "geo": geo_id, "qubits": qubits,
                     "pairs_target": pairs_target},
                    "request_arrival", self._on_request_arrival)
        return sess

    # -- step 2: coordination ------------------------------------------------

    def _on_request_arrival(self, sess: Session) -> None:
        now = self.engine.now
        self._emit(sess.id, "request_received", {"geo": sess.geo_id})
        leos = [s for s in self.satellites.values() if s.tier is geom.Tier.LEO]
        leo_id = geom.select_leo(leos, self.stations[sess.a_id],
                                 self.stations[sess.b_id], now,
                                 self.min_elevation, self.earth_rotation)
        if leo_id is None:
            self._fail(sess, Failure.NO_SATELLITE)
            return
        sess.leo_id = leo_id
        self._transition(sess, Phase.COORDINATING)
        self._emit(sess.id, "leo_selected", {"leo": leo_id})
        self._radio(sess, self._sat_pos(sess.geo_id, now),
                    self._sat_pos(leo_id, now), "leo_command_sent",
                    {"geo": sess.geo_id, "leo": leo_id},
                    "leo_command_arrival", self._on_leo_command)

    # -- step 3: entanglement distribution ------------------------------------

    def _on_leo_command(self, sess: Session) -> None:
        self._emit(sess.id, "leo_command_received", {"leo": sess.leo_id})
        self._transition(sess, Phase.DISTRIBUTING)
        self._at(self.engine.now, "distribution_batch", self._on_batch, sess,
                 plan=self._plan(sess))

    def _plan(self, sess: Session) -> Iterator[Optional[tuple]]:
        """The session's batch generator: its whole distribution, from the
        time of its first batch event, planned one chunk at a time (see the
        module docstring).  It plans the next chunk when the last one is
        used up.

        It yields one row (pairs, survivors, eta0_a, eta0_b, slant_a,
        slant_b, next_t) per batch, next_t the next batch's time, until the
        session's pairs_target pairs are planned.  At the first batch that
        finds the relay below the mask it yields None and returns.
        """
        # per-session streams persist across chunks so draws never repeat
        rngs = [self.engine.stream("proto", sess.id, arm)
                for arm in ("arm_a", "arm_b", "survival")]
        leo = self.satellites[sess.leo_id]
        beam = ch.BeamParams(leo.aperture_radius, self.wavelength)
        t, left = self.engine.now, sess.pairs_target
        while left:
            times, sizes, pairs = [], [], 0
            while left:
                n = left if self.batch_size is None else min(self.batch_size, left)
                # no finite end time reaches a batch at t = inf
                if sizes and (pairs + n > DRAW_CHUNK or not math.isfinite(t)):
                    break
                times.append(t)
                sizes.append(n)
                pairs += n
                left -= n
                t = t + n / self.source_rate_hz
            next_times = times[1:] + [t]
            times = np.array(times)
            pos_leo = geom.satellite_position(leo, times)
            arms = [geom.line_of_sight(self._station_pos(sid, times), pos_leo)
                    for sid in (sess.a_id, sess.b_id)]
            # the first batch with the relay below the mask ends distribution
            low = np.minimum(arms[0][1], arms[1][1]) < self.min_elevation
            visible = int(np.argmax(low)) if low.any() else len(sizes)
            sizes = sizes[:visible]
            slant, eta0 = [], []
            for sid, (distance, _) in zip((sess.a_id, sess.b_id), arms):
                slant.append(distance[:visible].tolist())
                rx = self.stations[sid].aperture_radius
                eta0.append([ch.diffraction_transmittance(beam, rx, d)
                             for d in slant[-1]])
            survivors = []
            if sizes:
                # one draw for the chunk, each pair at its own batch's eta0
                survivors = np.add.reduceat(
                    sample_pair_survival(rngs, self.downlink_b,
                                         *(np.repeat(e, sizes) for e in eta0),
                                         sum(sizes)),
                    np.cumsum([0] + sizes[:-1]), dtype=np.int64).tolist()
            yield from zip(sizes, survivors, *eta0, *slant, next_times)
            if visible < len(times):
                yield None
                return

    def _on_batch(self, sess: Session, plan: Iterator[Optional[tuple]]) -> None:
        now = self.engine.now
        batch = next(plan)
        if batch is None:
            self._emit(sess.id, "link_lost",
                       {"leo": sess.leo_id,
                        "emitted_survivors": sess.survivors_emitted,
                        "remaining": sess.pairs_target - sess.pairs_attempted})
            if sess.survivors_emitted >= self.min_raw_pairs:
                sess.distribution_done = True
                if sess.pending_deposits == 0:
                    self._start_distillation(sess)
            else:
                self._fail(sess, Failure.LINK_LOST)
            return

        n, survivors, eta0_a, eta0_b, slant_a, slant_b, next_t = batch
        pair_ids = range(self._next_pair_id, self._next_pair_id + survivors)
        self._next_pair_id += survivors
        # x / c is monotonic in x, so this is the later arm's light time
        arrival_t = now + max(slant_a, slant_b) / geom.C_LIGHT
        sess.eta0 = (eta0_a, eta0_b)
        sess.pairs_attempted += n
        sess.pending_deposits += 1
        sess.survivors_emitted += survivors
        if sess.pairs_attempted == sess.pairs_target:
            sess.distribution_done = True
        self._emit(sess.id, "batch_emitted",
                   {"leo": sess.leo_id, "attempted": n, "survivors": survivors,
                    "eta0_a": eta0_a, "eta0_b": eta0_b,
                    "b": self.downlink_b, "emit_t": now, "arrival_t": arrival_t,
                    "slant_a_m": slant_a, "slant_b_m": slant_b})
        self._at(arrival_t, "pairs_arrival", self._on_deposit, sess,
                 pair_ids=pair_ids)
        if not sess.distribution_done:
            self._at(next_t, "distribution_batch", self._on_batch, sess,
                     plan=plan)

    def _on_deposit(self, sess: Session, pair_ids: range) -> None:
        sess.pending_deposits -= 1
        now = self.engine.now
        accepted = sess.pool.deposit_raw(pair_ids, now)
        sess.pairs_survived += len(accepted)
        self._emit(sess.id, "pairs_deposited",
                   {"count": len(accepted), "dropped": len(pair_ids) - len(accepted),
                    "pair_ids": list(accepted), "created_at": now})
        # arrivals keep emission order, so no deposit follows this one
        if sess.distribution_done and sess.pending_deposits == 0:
            self._start_distillation(sess)

    # -- step 4: distillation --------------------------------------------------

    def _start_distillation(self, sess: Session) -> None:
        now = self.engine.now
        self._transition(sess, Phase.DISTILLING)
        raw_count = len(sess.pool)   # only raw pairs are held before distilling
        if raw_count == 0:
            self._fail(sess, Failure.INSUFFICIENT_ENTANGLEMENT)
            return
        rtt = 2.0 * self._ground_chord(sess, now) / geom.C_LIGHT
        completion_t = now + self.distill_rounds * rtt
        self._emit(sess.id, "distill_started",
                   {"raw_count": raw_count, "rounds": self.distill_rounds,
                    "rtt_s": rtt, "completion_t": completion_t})
        self._at(completion_t, "distill_completion", self._on_distill_complete,
                 sess)

    def _session_yield_rate(self, sess: Session) -> float:
        if self.yield_rate is not None:
            return self.yield_rate
        # mean per-use rate of the two-arm product channel, sampled once per
        # session from its own substreams
        model_a, model_b = (ch.DownlinkGaussianTail(eta0, self.downlink_b)
                            for eta0 in sess.eta0)
        rng_a = self.engine.stream("proto", sess.id, "yield_a")
        rng_b = self.engine.stream("proto", sess.id, "yield_b")
        return min(1.0, chunked_mean(
            lambda k: rci_array(ch.sample_downlink(model_a, rng_a, k)
                                * ch.sample_downlink(model_b, rng_b, k)),
            self.yield_samples))

    def _on_distill_complete(self, sess: Session) -> None:
        now = self.engine.now
        valid_ids = sess.pool.fresh_raw(now)
        # with no fresh pair m is 0 at any rate, so no yield is sampled
        yield_rate = self._session_yield_rate(sess) if valid_ids else 0.0
        m = distilled_count(len(valid_ids), yield_rate)
        if m == 0:
            self._fail(sess, Failure.INSUFFICIENT_ENTANGLEMENT)
            return
        distilled_ids = range(self._next_pair_id, self._next_pair_id + m)
        self._next_pair_id += m
        sess.pool.replace_raw_with_distilled(distilled_ids, now)
        self._emit(sess.id, "distill_completed",
                   {"n_valid": len(valid_ids), "distilled": m,
                    "yield_rate": yield_rate, "raw_consumed_ids": valid_ids,
                    "distilled_ids": list(distilled_ids), "completion_t": now})
        self._transition(sess, Phase.TELEPORTING)
        self._at(now, "teleport", self._on_teleport, sess)

    # -- step 5: teleportation ---------------------------------------------------

    def _on_teleport(self, sess: Session) -> None:
        now = self.engine.now
        self._emit(sess.id, "teleport_started",
                   {"requested": sess.qubits_requested})
        consumed = sess.pool.consume_distilled(now, sess.qubits_requested)
        delivered = len(consumed)
        sess.qubits_delivered += delivered
        delivery_t = now + self._ground_chord(sess, now) / geom.C_LIGHT
        self._emit(sess.id, "teleport_completed",
                   {"requested": sess.qubits_requested, "delivered": delivered,
                    "classical_bits": 2 * delivered,
                    "consumed_pair_ids": consumed, "consume_t": now,
                    "delivery_t": delivery_t})
        if delivered < sess.qubits_requested:
            self._fail(sess, Failure.INSUFFICIENT_ENTANGLEMENT)
            return
        self._at(delivery_t, "delivery_complete", self._on_delivered, sess)

    def _on_delivered(self, sess: Session) -> None:
        self._transition(sess, Phase.DONE)
        self._emit(sess.id, "session_done",
                   {"qubits_delivered": sess.qubits_delivered,
                    "classical_bits": 2 * sess.qubits_delivered})

    # -- aggregate accounting ------------------------------------------------------

    def summary(self) -> dict:
        out = {"qubits_delivered": 0, "ebits_consumed": 0,
               "pairs_attempted": 0, "pairs_survived": 0,
               "sessions_done": 0, "sessions_failed": 0}
        for sess in self.sessions.values():
            out["qubits_delivered"] += sess.qubits_delivered
            # one ebit per teleported qubit
            out["ebits_consumed"] += sess.qubits_delivered
            out["pairs_attempted"] += sess.pairs_attempted
            out["pairs_survived"] += sess.pairs_survived
            out["sessions_done"] += sess.phase is Phase.DONE
            out["sessions_failed"] += sess.phase is Phase.FAILED
        return out
