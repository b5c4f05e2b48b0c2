"""The benchmark's tracer finds every function it names in the package."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer rebinds module attributes and reads methods from the class
    # itself, so a renamed or deleted function would break only traced runs
    tracing = load_tracing()
    missing = []
    for module_name, attr in tracing.TRACED:
        module = importlib.import_module(f"opencospan.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = owner is not None and callable(vars(owner).get(method))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    assert set(tracing.HIT_RATIOS) <= set(tracing.TRACED_NAMES)
