"""The benchmark's tracer rebinds program attributes by name; a rename in the
library would break `perfbench/run.py --trace 1` without failing any test
under tests/, so every name it patches is resolved here."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner_path, attr, _ in tracing.PATCHES:
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"retinassl.{module}")
        for part in rest:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"trace points missing from retinassl: {missing}"
