"""The benchmark's tracer finds what it wraps by name; a rename or deletion
in the package would break only `bench/run.py --trace 1`, so check here."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    for modname, fname in tracer.FUNCTIONS:
        module = importlib.import_module(f"dehnsurg.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    for modname, clsname, meth, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"dehnsurg.{modname}"), clsname)
        assert meth in cls.__dict__, f"{modname}.{clsname}.{meth}"
    # Looked up with a default, so a missing name would silently zero a counter.
    knots = importlib.import_module("dehnsurg.knots")
    cyclotomic = importlib.import_module("dehnsurg.cyclotomic")
    assert callable(cyclotomic._generator_enclosure)
    assert "__new__" in cyclotomic.RealCyclotomicField.__dict__
