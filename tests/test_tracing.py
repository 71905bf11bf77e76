"""The benchmark tracer rebinds names inside the package, so every name it
wraps must stay bound where it looks for it."""

import importlib.util
from pathlib import Path

import payoffcontrol
import payoffcontrol.cli  # noqa: F401  (the tracer wraps names in cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.boundaries(payoffcontrol)
               if attr not in owner.__dict__]
    assert missing == []
