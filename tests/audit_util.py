"""Shared test oracles: trace replay audit, composite Gauss-Legendre
quadrature, a brute-force relay-selection scan, the scalar rate and dB
formulas, the closed-form downlink fade mean and the survivor z-score it
gives a trace, and the Monte-Carlo draw and map kernels stated step by
step.

These restate the contracts independently of the implementation so the
tests check the simulator against them rather than against itself.
"""

import math

import numpy as np

PHASE_ORDER = ["IDLE", "REQUESTED", "COORDINATING", "DISTRIBUTING",
               "DISTILLING", "TELEPORTING", "DONE"]
ALLOWED_STEPS = {(a, b) for a, b in zip(PHASE_ORDER[:-1], PHASE_ORDER[1:])}
ALLOWED_STEPS |= {(p, "FAILED") for p in PHASE_ORDER[:-1]}


def rate_per_use(eta):
    """-log2(1 - eta) ebits per use by math.log1p, capped at 60."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if eta == 1.0:
        return 60.0
    return min(60.0, max(0.0, -math.log1p(-eta) / math.log(2.0)))


# The pinned stream formula: value_i = mix(key + (i + 1) * GOLDEN) mod 2**64
_GOLDEN = 0x9E3779B97F4A7C15


def oracle_uniforms(key, idx):
    """Uniforms in [0, 1) of stream key at the counter indices idx, one
    numpy step at a time: splitmix64, top 53 bits, times 2**-53."""
    x = np.asarray(idx, dtype=np.uint64) * np.uint64(_GOLDEN)
    x = x + np.uint64((key + _GOLDEN) % 2**64)
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)) * 2.0**-53


def oracle_standard_normal(key, counter, n):
    """(normals, next counter) of n Box-Muller draws from counter on (one
    float when n is None): radius from the even slots, angle from the odd."""
    m = 1 if n is None else n
    slots = np.arange(counter, counter + 2 * m, 2, dtype=np.uint64)
    u_even = oracle_uniforms(key, slots)
    u_odd = oracle_uniforms(key, slots + np.uint64(1))
    z = np.negative(u_even)
    z = np.log1p(z)
    z = z * -2.0
    z = np.sqrt(z)
    angle = u_odd * (2.0 * np.pi)
    angle = np.cos(angle)
    z = z * angle
    return (float(z[0]) if n is None else z), counter + 2 * m


def oracle_downlink(eta0, b, g):
    """The downlink transmittance eta0 * clip(1 - |g| b, 0, 1)."""
    return eta0 * np.clip(1.0 - np.abs(g) * b, 0.0, 1.0)


def oracle_rci(eta):
    """min(-log1p(-eta) / ln 2, 60) elementwise."""
    with np.errstate(divide="ignore"):
        return np.minimum(-np.log1p(-np.asarray(eta, dtype=float))
                          / math.log(2.0), 60.0)


def eta_from_db(loss_db):
    """Transmittance of a loss given in dB, the inverse of db_from_eta."""
    return 10.0 ** (-loss_db / 10.0)


def composite_leggauss(a, b, panels, order):
    """Gauss-Legendre nodes/weights tiled over equal panels of [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = (edges[1:] - edges[:-1]) / 2
    mid = (edges[1:] + edges[:-1]) / 2
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def quad_mean_rate(eta0, b, total_points=10_000):
    """E[rate(eta0 * clamp(1 - |G|, 0, 1))], G ~ N(0, b^2), by quadrature.

    Uses the half-normal symmetry: 2 * integral over g in [0, 1] of the
    rate at eta0*(1-g) times the normal density (the clamp zeroes the rate
    for g >= 1, so that region contributes nothing).
    """
    g, wg = composite_leggauss(0.0, 1.0, total_points // 50, 50)
    phi = np.exp(-(g**2) / (2.0 * b * b)) / (b * math.sqrt(2.0 * math.pi))
    rate = -np.log1p(-eta0 * (1.0 - g)) / math.log(2.0)
    return float(2.0 * np.sum(wg * phi * rate))


def mean_downlink_fade(b):
    """E[max(0, 1 - |G| b)], G ~ Normal(0, 1), in closed form:
    erf(1/(b sqrt 2)) - b sqrt(2/pi) (1 - exp(-1/(2 b^2))), and 1 at b = 0."""
    if b == 0.0:
        return 1.0
    return (math.erf(1.0 / (b * math.sqrt(2.0)))
            - b * math.sqrt(2.0 / math.pi) * (1.0 - math.exp(-0.5 / b**2)))


def survivor_z_scores(trace):
    """{session id: z} of each session's survivor count, from its
    batch_emitted records alone.  A batch's survivors are
    Binomial(attempted, q) with q = eta0_a E[f] eta0_b E[f] and E[f] the
    downlink fade mean, so a session's count has mean sum(attempted q) and
    variance sum(attempted q (1 - q)); a session with no variance has z = 0
    when it drew exactly its mean, else inf."""
    moments = {}
    for rec in trace:
        if rec.get("event") != "batch_emitted":
            continue
        pl = rec["payload"]
        fade = mean_downlink_fade(pl["b"])
        q = pl["eta0_a"] * fade * pl["eta0_b"] * fade
        drawn, mean, var = moments.get(rec["session_id"], (0, 0.0, 0.0))
        moments[rec["session_id"]] = (drawn + pl["survivors"],
                                      mean + pl["attempted"] * q,
                                      var + pl["attempted"] * q * (1.0 - q))
    return {sid: ((drawn - mean) / math.sqrt(var) if var > 0.0
                  else 0.0 if drawn == mean else math.inf)
            for sid, (drawn, mean, var) in moments.items()}


def brute_force_select(satellites, pos_a, pos_b, positions_at, min_elevation):
    """Exhaustive max-min-elevation scan; ties go to the lowest id.

    positions_at maps a satellite to its position vector.
    """
    best_id = None
    best_score = -math.inf
    for sat in sorted(satellites, key=lambda s: s.id):
        pos_s = positions_at(sat)
        el_a = _elevation(pos_a, pos_s)
        el_b = _elevation(pos_b, pos_s)
        if el_a < min_elevation or el_b < min_elevation:
            continue
        score = min(el_a, el_b)
        if score > best_score:
            best_score = score
            best_id = sat.id
    return best_id


def _elevation(ground, target):
    ground = np.asarray(ground, float)
    los = np.asarray(target, float) - ground
    up = ground / np.linalg.norm(ground)
    return math.asin(float(np.dot(los, up)) / float(np.linalg.norm(los)))


def replay_audit(trace, coherence_time):
    """Replay a session trace and verify the protocol's safety contracts.

    Checks, per session: the state path follows the forward order with
    FAILED absorbing; every consumed pair was within coherence at consume
    time; distilled output equals floor(n_valid * yield); teleported qubits
    equal consumed distilled ebits; and every receive-side event lands
    exactly at its announced send_t + delay.  Returns per-session stats for
    further assertions.
    """
    sessions = {}
    last_t = -math.inf
    for rec in trace:
        assert rec["t"] >= last_t, "trace timestamps must be non-decreasing"
        last_t = rec["t"]
        sid = rec["session_id"]
        s = sessions.setdefault(sid, {
            "phase": "IDLE", "terminal": False, "created": {},
            "raw_deposited": 0, "distilled": 0, "consumed_distilled": 0,
            "delivered": None, "batches": [], "expect": {},
        })
        ev, pl, t = rec["event"], rec["payload"], rec["t"]
        if ev == "state_changed":
            assert not s["terminal"], f"transition after terminal in session {sid}"
            assert pl["from"] == s["phase"], "transition from a stale phase"
            assert (pl["from"], pl["to"]) in ALLOWED_STEPS, \
                f"illegal transition {pl['from']} -> {pl['to']}"
            s["phase"] = pl["to"]
            s["terminal"] = pl["to"] in ("DONE", "FAILED")
        elif ev == "request_sent":
            assert pl["send_t"] == t
            s["expect"]["request_received"] = pl["arrive_t"]
        elif ev == "request_received":
            assert t == s["expect"].pop("request_received")
        elif ev == "leo_command_sent":
            assert pl["send_t"] == t
            s["expect"]["leo_command_received"] = pl["arrive_t"]
        elif ev == "leo_command_received":
            assert t == s["expect"].pop("leo_command_received")
        elif ev == "batch_emitted":
            assert pl["emit_t"] == t
            assert pl["arrival_t"] >= t
            s["batches"].append(pl)
            s["expect"].setdefault("deposits", []).append(pl["arrival_t"])
        elif ev == "pairs_deposited":
            assert t in s["expect"]["deposits"], "deposit at unannounced time"
            s["expect"]["deposits"].remove(t)
            assert pl["created_at"] == t
            for pid in pl["pair_ids"]:
                assert pid not in s["created"], f"duplicate pair id {pid}"
                s["created"][pid] = t
            s["raw_deposited"] += pl["count"]
        elif ev == "distill_started":
            s["expect"]["distill_completed"] = pl["completion_t"]
        elif ev == "distill_completed":
            assert t == s["expect"].pop("distill_completed")
            for pid in pl["raw_consumed_ids"]:
                age = t - s["created"][pid]
                assert age <= coherence_time, \
                    f"raw pair {pid} consumed {age:.4f}s old (> {coherence_time}s)"
            assert pl["distilled"] == math.floor(pl["n_valid"] * pl["yield_rate"])
            assert pl["n_valid"] <= s["raw_deposited"]
            for pid in pl["distilled_ids"]:
                assert pid not in s["created"]
                s["created"][pid] = t
            s["distilled"] += pl["distilled"]
        elif ev == "teleport_completed":
            assert pl["consume_t"] == t
            for pid in pl["consumed_pair_ids"]:
                age = t - s["created"][pid]
                assert age <= coherence_time, \
                    f"ebit {pid} consumed {age:.4f}s old (> {coherence_time}s)"
            assert len(pl["consumed_pair_ids"]) == pl["delivered"]
            assert pl["classical_bits"] == 2 * pl["delivered"]
            s["consumed_distilled"] += pl["delivered"]
            s["expect"]["session_done"] = pl["delivery_t"]
        elif ev == "session_done":
            assert t == s["expect"].pop("session_done")
            s["delivered"] = pl["qubits_delivered"]

    for sid, s in sessions.items():
        assert s["terminal"], f"session {sid} never reached a terminal phase"
        assert s["distilled"] >= s["consumed_distilled"]
        if s["delivered"] is not None:
            assert s["delivered"] == s["consumed_distilled"], \
                "teleported qubits != consumed ebits"
    return sessions
