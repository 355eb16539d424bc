"""Every name the benchmark's layer tracer wraps exists in the package.

The tracer records a name it cannot find as missing instead of failing, so
a refactor that drops or moves a wrapped name (say ``qsatnet.proto:rci_array``)
would otherwise surface only in a later benchmark run.  This resolves each
target with the tracer's own lookup and installs no wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
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
