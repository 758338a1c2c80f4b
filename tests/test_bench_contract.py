"""The benchmark's tracer names spreadnet functions; they must all still exist.

``perfbench/spans.py`` wraps ``layer.function`` names from outside the
package, so deleting or renaming one of them breaks the benchmark. This
test reads its tables (without changing anything) and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions():
    spans = load_spans()
    return [(layer, fn) for table in (spans.LAYERS, spans.PRIVATE)
            for layer, fns in table.items() for fn in fns]


@pytest.mark.parametrize("layer, fn", traced_functions())
def test_traced_function_exists(layer, fn):
    module = importlib.import_module(f"spreadnet.{layer}")
    assert callable(getattr(module, fn, None)), f"spreadnet.{layer}.{fn} is gone"
