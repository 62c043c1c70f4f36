"""The benchmark tracer's bindings must all exist in the package.

``perfbench/spans.py`` wraps module-level names of ``bnic`` by looking each
up in its owner's ``__dict__``; a missing name only shows when a traced
benchmark run fails.  This test makes it fail the test suite instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves():
    spans = _load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _count in spans.BINDINGS
        if attr not in owner.__dict__
    ]
    assert spans.BINDINGS and missing == []
