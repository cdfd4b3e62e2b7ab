"""The benchmark's traced layers still exist in the package.

``bench/tracer.py`` wraps named functions and methods of ``herdquad`` from
outside.  Removing or renaming one of them would only surface when a traced
benchmark run starts; this test makes it a tier-1 failure instead.
"""

import importlib.util
from pathlib import Path

import herdquad

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_names_an_existing_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = tracer.traced_layers(herdquad)
    assert layers
    missing = [name for name, owner, attr, _ in layers if attr not in vars(owner)]
    assert not missing, f"traced layers without a target: {missing}"
