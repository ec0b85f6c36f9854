"""Every function the benchmark's layer tracer wraps exists.

``perfbench/layers.py`` names the wrapped functions in ``SPANS`` as
(module, attribute path) under ``causaldeco``.  A traced benchmark run
looks each one up when it starts, so a deleted or renamed function would
break only traced runs; this test catches it in the ordinary suite.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_span_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.SPANS
    for mod, path in layers.SPANS:
        obj = importlib.import_module(f"causaldeco.{mod}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"causaldeco.{mod}.{path} is missing"
        assert callable(obj), f"causaldeco.{mod}.{path} is not callable"
