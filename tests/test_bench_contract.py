"""What the benchmark relies on in the package must keep working.

``perfbench/spans.py`` wraps ``layer.function`` names from outside the
package, so deleting or renaming one of them breaks the benchmark. This
test reads its tables (without changing anything) and fails first.
``perfbench/checks.py`` tests a re-scored ISM by identity with
``PERFECT_STRATEGY`` and builds ``Candidate``s positionally.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from spreadnet.ensemble import Candidate
from spreadnet.metrics import PERFECT_STRATEGY
from spreadnet.neural import NetworkModel
from spreadnet.pipeline import VARIABLES, PipelineConfig, _fit_to_json
from spreadnet.preprocess import TrainingMatrix
from spreadnet.scoring import score_model

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


# ``perfbench/checks.py`` also relies on how the package scores and records a
# failure-free strategy, which no seed-7 run produces, and on Candidate's order.

def perfect_candidate():
    """A model that calls every move of its test rows right (it always goes long
    on rising levels), as a Candidate built positionally."""
    rows = 12
    test_part = TrainingMatrix(base_set_id=1, lag=1, input_names=("x",), inputs=np.zeros((rows, 1)),
                               output=1.05 ** np.arange(rows), months_out=np.arange(rows))
    long_always = NetworkModel((1, 1, 1), (np.zeros((1, 2)), np.array([[0.0, 1e3]])))
    return Candidate(1, 1, 0, long_always, score_model(long_always, test_part))


def test_perfect_score_is_the_constant():
    candidate = perfect_candidate()
    assert candidate.score.ism is PERFECT_STRATEGY
    assert (candidate.base_set_id, candidate.lag, candidate.seed) == (1, 1, 0)


def test_perfect_score_is_written_perfect():
    config = PipelineConfig.from_dict({"data": {"variables": {
        name: {"path": "data.csv", "column": name} for name in VARIABLES}}})
    entry = _fit_to_json(config, perfect_candidate(), "models/set01_lag01.json")
    assert entry["ism"] == "perfect"
    json.loads(json.dumps(entry), parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
