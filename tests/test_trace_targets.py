"""Every name the benchmark's layer tracer wraps exists in the package, and
a traced batched run calls every layer the benchmark predicts for it.

The tracer records a name it cannot find as missing instead of failing, so
a refactor that drops or moves a wrapped name (say ``qsatnet.proto:rci_array``)
would otherwise surface only in a later benchmark run.  The first test
resolves each target with the tracer's own lookup and installs no wrapper;
the second installs the tracer and runs a small batched scenario, so a
change that stops calling a predicted layer (say ``geom.ground_position``)
fails here too.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("bench_tracer", ROOT / "bench" / "tracer.py")
bench_run = _load("bench_run", ROOT / "bench" / "run.py")
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


def test_traced_batched_run_calls_every_predicted_layer(tmp_path):
    cli = importlib.import_module("qsatnet.cli")
    text = (ROOT / "scenarios" / "example.ini").read_text()
    scenario = tmp_path / "batched.ini"
    scenario.write_text(re.sub(r"^pairs_target = .*$",
                               "pairs_target = 2000\nbatch_size = 100", text,
                               flags=re.M))
    layers = tracer.Tracer()
    layers.install()
    try:
        # looked up after install, so the run enters through the wrapper
        rc = cli.main(["run", str(scenario), "--output",
                       str(tmp_path / "trace.jsonl")])
    finally:
        layers.uninstall()
    assert rc == 0
    assert layers.missing == []
    calls = {name: st["calls"] for name, st in layers.snapshot().items()}
    for group in bench_run.PREDICTED["batched-run"]:
        names = group if isinstance(group, tuple) else (group,)
        assert sum(calls[name] for name in names) > 0, f"{group} read no call"
    # 20 batches of 100 pairs: one survival draw covers them all
    survival = layers.snapshot()["proto.sample_pair_survival"]
    assert (survival["calls"], survival["items"]) == (1, 2000)
