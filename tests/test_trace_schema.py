"""The trace schema table against the records the Network emits, the line
writer against json.dumps, and the README's event list against the table."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qsatnet.engine import Engine
from qsatnet.proto import ID_LIST, TRACE_SCHEMA, Failure, Network, trace_line
from qsatnet.scenario import load_scenario, run_scenario
from test_proto import geo, leo, small_network, station

ROOT = Path(__file__).resolve().parent.parent
TOP_KEYS = {"t", "session_id", "event", "payload"}


def dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def has_type(value, typ):
    """value is exactly typ: a float is no numpy float, an int no bool, and
    an id list a list of ints."""
    if typ is ID_LIST:
        return type(value) is list and all(type(i) is int for i in value)
    return type(value) is typ


def test_table_shape():
    # the writer copies names into its templates unescaped
    names = re.compile(r"[a-z][a-z0-9_]*")
    assert len(TRACE_SCHEMA) == 15
    for event, fields in TRACE_SCHEMA.items():
        assert all(map(names.fullmatch, [event, *fields])), event
        assert list(fields) == sorted(fields), event
        assert set(fields.values()) <= {float, int, str, ID_LIST}, event


# -- every record a run emits has exactly its schema ---------------------------

def scenario_trace(tmp_path, protocol_lines):
    """The trace of the bundled example with its pairs_target line replaced
    by protocol_lines."""
    text = (ROOT / "scenarios" / "example.ini").read_text()
    path = tmp_path / "s.ini"
    path.write_text(re.sub(r"^pairs_target = .*$", protocol_lines, text,
                           flags=re.M))
    network, _ = run_scenario(load_scenario(str(path)))
    return network.trace


def session_trace(network, engine, t_end, **request):
    network.request(1, 2, **request)
    engine.run_until(t_end)
    return network.trace


def bundled(tmp_path):
    return scenario_trace(tmp_path, "pairs_target = 10000")


def twenty_batches(tmp_path):
    return scenario_trace(tmp_path, "pairs_target = 10000\nbatch_size = 500")


def no_coordinator(tmp_path):
    eng, net = small_network(satellites=[geo(100, 180.0), leo(201, 2.0)])
    return session_trace(net, eng, 1.0, qubits=1, pairs_target=10)


def no_satellite(tmp_path):
    eng, net = small_network(satellites=[geo(100, 2.0), leo(201, 180.0)])
    return session_trace(net, eng, 1.0, qubits=1, pairs_target=10)


def link_lost(tmp_path):
    # the relay starts barely above the mask and sets after the first batch
    eng = Engine(seed=7)
    net = Network(eng, [station(1, 0.0, 30.0), station(2, 1.0, 30.0)],
                  [geo(100, 0.5), leo(201, 13.9, altitude=500e3)],
                  batch_size=500, source_rate_hz=100.0, min_raw_pairs=1000,
                  yield_rate=1.0)
    return session_trace(net, eng, 30.0, qubits=1, pairs_target=1000)


def expired_before_distillation(tmp_path):
    # memories forget in 1 ms but the classical round trip takes ~3 ms
    eng, net = small_network(stations=[station(1, 0.0, 1e-3),
                                       station(2, 4.0, 1e-3)], yield_rate=1.0)
    return session_trace(net, eng, 1.0, qubits=1, pairs_target=1000)


def unmet_qubit_target(tmp_path):
    eng, net = small_network(seed=3)
    return session_trace(net, eng, 1.0, qubits=10**6, pairs_target=10_000)


def integer_reals(tmp_path):
    # reals given as ints are still written as floats
    eng, net = small_network(downlink_b=0, source_rate_hz=10**6,
                             batch_size=500, yield_rate=1)
    return session_trace(net, eng, 1, qubits=1, pairs_target=1000)


RUNS = {
    bundled: None,
    twenty_batches: None,
    no_coordinator: Failure.NO_COORDINATOR,
    no_satellite: Failure.NO_SATELLITE,
    link_lost: Failure.LINK_LOST,
    expired_before_distillation: Failure.INSUFFICIENT_ENTANGLEMENT,
    unmet_qubit_target: Failure.INSUFFICIENT_ENTANGLEMENT,
    integer_reals: None,
}


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__)
def test_emitted_records_have_their_schema(tmp_path, run):
    trace = run(tmp_path)
    failures = [r["payload"]["reason"] for r in trace
                if r["event"] == "session_failed"]
    assert failures == ([] if RUNS[run] is None else [RUNS[run]])
    for record in trace:
        assert set(record) == TOP_KEYS
        assert has_type(record["t"], float)
        assert has_type(record["session_id"], int)
        fields = TRACE_SCHEMA[record["event"]]
        payload = record["payload"]
        assert sorted(payload) == list(fields), record["event"]
        for key, value in payload.items():
            assert has_type(value, fields[key]), (record["event"], key, value)
        assert trace_line(record) == dumps(record)


def test_runs_emit_every_event_kind(tmp_path):
    seen = {r["event"] for run in RUNS for r in run(tmp_path)}
    assert seen == set(TRACE_SCHEMA)


# -- trace_line writes what json.dumps writes -------------------------------------

def as_lists(record):
    """record with every id range as a list, which json.dumps can write."""
    payload = {k: list(v) if isinstance(v, range) else v
               for k, v in record["payload"].items()}
    return {**record, "payload": payload}


ids = st.one_of(
    st.lists(st.integers(), max_size=8),
    st.builds(lambda lo, n: range(lo, lo + n), st.integers(), st.integers(0, 8)))
VALUES = {float: st.floats(), int: st.integers(), str: st.text(),
          ID_LIST: ids}


def records(event):
    payload = {key: VALUES[typ] for key, typ in TRACE_SCHEMA[event].items()}
    return st.fixed_dictionaries({
        "t": st.floats(), "session_id": st.integers(),
        "event": st.just(event), "payload": st.fixed_dictionaries(payload)})


@pytest.mark.parametrize("event", TRACE_SCHEMA)
@given(data=st.data())
def test_trace_line_matches_json_dumps(event, data):
    record = data.draw(records(event))
    assert trace_line(record) == dumps(as_lists(record))


EDGE_FLOATS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
               2.2250738585072009e-308, 1.7e308, -1.7e308, 0.1, 1e16, 1e-5]
EDGE_INTS = [0, -1, 2**63, 2**64, 2**64 + 1, -(2**70), 10**400]
EDGE_IDS = [[], range(0), [0], range(2**64, 2**64 + 3), [-(2**70), -1, 2**65]]
EDGE_STRS = ["", "IDLE", 'a "quoted" \\ back%slash % 100%%', "é \x00\x1f"]


@pytest.mark.parametrize("event", TRACE_SCHEMA)
def test_trace_line_edge_values(event):
    fields = TRACE_SCHEMA[event]

    def record(x, n, k):
        pick = {float: x, int: n, ID_LIST: EDGE_IDS[k % len(EDGE_IDS)],
                str: EDGE_STRS[k % len(EDGE_STRS)]}
        return {"t": x, "session_id": n, "event": event,
                "payload": {key: pick[typ] for key, typ in fields.items()}}

    for k, x in enumerate(EDGE_FLOATS):
        for n in EDGE_INTS:
            r = record(x, n, k)
            assert trace_line(r) == dumps(as_lists(r))
    # one non-finite float among finite ones, in each float slot and in t
    slots = [key for key, typ in fields.items() if typ is float] + ["t"]
    for slot in slots:
        for x in (math.inf, -math.inf, math.nan):
            r = record(0.1, 7, 0)
            if slot == "t":
                r["t"] = x
            else:
                r["payload"][slot] = x
            assert trace_line(r) == dumps(as_lists(r))


def test_trace_line_rejects_other_keys():
    payload = {"from": "IDLE", "to": "REQUESTED"}
    record = {"t": 0.0, "session_id": 1, "event": "state_changed"}
    with pytest.raises(ValueError, match="TRACE_SCHEMA"):
        trace_line({**record, "payload": {**payload, "extra": 1}})
    with pytest.raises(KeyError):
        trace_line({**record, "payload": {"from": "IDLE", "too": "DONE"}})
    with pytest.raises(KeyError):
        trace_line({**record, "event": "no_such_event", "payload": payload})


# -- the docs name the table's events --------------------------------------------

def test_readme_event_list_is_the_schema():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Trace schema", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"Events,\s+in\s+protocol\s+order:(.*?)\.\s", section,
                       re.S)
    assert listed, "README's Trace schema section lists no events"
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(TRACE_SCHEMA)
