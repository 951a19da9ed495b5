"""The benchmark tracer looks its layer names up only in traced runs, so a
renamed function passes every untraced run; this checks the names directly."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, module, attr in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name
