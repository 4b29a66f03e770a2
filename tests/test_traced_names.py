"""The benchmark's traced pass wraps prbox functions by name; a renamed or
removed function breaks it.  Checked here against perfbench/spans.py."""

import importlib
import importlib.util
from pathlib import Path

import prbox

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_wrapped_and_restored():
    spans = load_spans()
    originals = {
        (mod, name): getattr(importlib.import_module(mod), name)
        for mod, name in spans.TRACED
    }
    with spans.Tracer().patched():
        for (mod, name), orig in originals.items():
            current = getattr(importlib.import_module(mod), name)
            assert current is not orig, f"{mod}.{name} not wrapped"
            assert current.__wrapped__ is orig
    for (mod, name), orig in originals.items():
        assert getattr(importlib.import_module(mod), name) is orig


def test_every_exported_name_resolves():
    for name in prbox.__all__:
        assert hasattr(prbox, name), name
