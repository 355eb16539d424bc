"""Every name the benchmark's layer tracer wraps exists in the package, and
a traced run of each benchmark workload (a batched run, a threaded sweep, a
calibrated uplink sample and a packet round trip) calls every layer the
benchmark predicts for it.

The tracer records a name it cannot find as missing instead of failing, so
a refactor that drops or moves a wrapped name (say ``qsatnet.proto:rci_array``)
would otherwise surface only in a later benchmark run.  The first test
resolves each target with the tracer's own lookup and installs no wrapper;
the others install the tracer and run a small version of each workload,
so a change that stops calling a predicted layer (say
``geom.ground_position``, or ``channel.sample_downlink`` from a kernel that
draws around it) fails here too.  The last runs each workload's warm-up op
and checks its output against the digest pinned in ``bench/digests.json``,
so a change that moves a workload's bytes fails here as well; like the
other pins, the digests hold under numpy's x86-64 AVX512 dispatch.
"""

import importlib.util
import re
import sys
from argparse import Namespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load("bench_tracer", ROOT / "bench" / "tracer.py")
bench_run = _load("bench_run", ROOT / "bench" / "run.py")
bench_workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py")
TARGETS = [target for _, targets, *_ in tracer.LAYERS for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    owner, attr = tracer._resolve(target)
    # the tracer swaps a method in its class's own dict, any other name by
    # attribute
    found = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    assert callable(found), f"{target} does not resolve to a function"
    module = importlib.import_module(target.partition(":")[0])
    assert Path(module.__file__).resolve().is_relative_to(SRC)


def traced(call):
    """The layer snapshot of call() under the tracer; call looks up the
    package's functions after install, so it enters through the wrappers."""
    layers = tracer.Tracer()
    layers.install()
    try:
        call()
    finally:
        layers.uninstall()
    assert layers.missing == []
    return layers.snapshot()


def traced_main(argv):
    """The layer snapshot of one cli.main call under the tracer."""
    cli = importlib.import_module("qsatnet.cli")

    def call():
        assert cli.main(argv) == 0

    return traced(call)


def assert_predicted_layers_called(snapshot, workload):
    for group in bench_run.PREDICTED[workload]:
        names = group if isinstance(group, tuple) else (group,)
        assert sum(snapshot[name]["calls"] for name in names) > 0, \
            f"{group} read no call"


def test_traced_batched_run_calls_every_predicted_layer(tmp_path):
    text = (ROOT / "scenarios" / "example.ini").read_text()
    scenario = tmp_path / "batched.ini"
    scenario.write_text(re.sub(r"^pairs_target = .*$",
                               "pairs_target = 2000\nbatch_size = 100", text,
                               flags=re.M))
    snapshot = traced_main(["run", str(scenario), "--output",
                            str(tmp_path / "trace.jsonl")])
    assert_predicted_layers_called(snapshot, "batched-run")
    # 20 batches of 100 pairs: one survival draw covers them all
    survival = snapshot["proto.sample_pair_survival"]
    assert (survival["calls"], survival["items"]) == (1, 2000)


def test_traced_threaded_sweep_calls_every_predicted_layer(tmp_path,
                                                           monkeypatch):
    rates = importlib.import_module("qsatnet.rates")
    # two threads whatever the host: the second deals points 1 and 3
    monkeypatch.setattr(rates, "_sweep_threads", lambda: 2)
    samples = 20_000        # two draw chunks per point
    snapshot = traced_main(["rates-sweep", "--distance", "36e6",
                            "--waist-grid", "0.1,0.2", "--rx-grid", "0.5,1.0",
                            "--samples", str(samples), "--output",
                            str(tmp_path / "sweep.csv")])
    assert_predicted_layers_called(snapshot, "rates-sweep")
    # every chunk of every point is drawn, faded and mapped through its layer
    for name in ("engine.standard_normal", "channel.sample_downlink",
                 "rates.rci_array"):
        assert (snapshot[name]["calls"], snapshot[name]["items"]) == \
            (8, 4 * samples), name


def test_traced_uplink_sample_calls_every_predicted_layer(tmp_path):
    snapshot = traced_main(["channel-sample", "--model", "uplink",
                            "--calibrate-target-db", "20", "--n", "1000",
                            "--output", str(tmp_path / "uplink.csv")])
    assert_predicted_layers_called(snapshot, "uplink-sample")


def test_traced_packet_round_trip_calls_every_predicted_layer():
    pk = importlib.import_module("qsatnet.packet")
    spec = {"requesting_station_id": 1, "receiving_station_id": 2,
            "transmit_time_ns": 3,
            "qubits": [{"qubit_id": k, "entanglement_group": 7}
                       for k in range(3)]}

    def call():
        back = pk.packet_to_dict(pk.decode(pk.encode(pk.packet_from_dict(
            spec))))
        assert back["qubits"] == [{**q, "encoding": 0} for q in spec["qubits"]]

    assert_predicted_layers_called(traced(call), "packet-codec")


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_warmup_output_matches_its_pinned_digest(workload):
    bench = bench_run.Bench(Namespace(workload=workload, seed=42, seconds=0,
                                      trace=0), bench_workloads)
    try:
        bench.set_up()
        assert bench.failures == []
        assert bench.setup_ok and bench.digest_checked == 1
    finally:
        bench.close()
