"""Every name the benchmark's tracer wraps (perfbench/tracing.py, TRACED)
still exists in the library, so `perfbench/run.py --trace 1`, which looks
each one up when it installs, keeps running."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # methods are looked up in the class's own __dict__, functions on the
    # module
    missing = [
        name
        for name, owner, attr, _ in load_tracing().TRACED
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert not missing, f"traced names missing from qorbits: {missing}"
