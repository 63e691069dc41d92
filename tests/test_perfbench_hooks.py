"""The library functions that the benchmark's tracer wraps must exist."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    # tracer.py needs only the standard library; loading it wraps nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module("fluxcoupler." + module)
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert tracer.TRACED and not missing
