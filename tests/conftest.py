"""Shared fixtures: aligned demo series and small synthetic training matrices."""

from __future__ import annotations

import concurrent.futures
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import settings

from spreadnet import neural, pipeline, series
from spreadnet.demo import synthetic_series
from spreadnet.neural import AffineMap
from spreadnet.preprocess import TrainingMatrix
from spreadnet.series import align, parse_month


# No per-example deadline: an example's time depends on the machine, not on the
# property; each test keeps the max_examples it sets.
settings.register_profile("spreadnet", deadline=None)
settings.load_profile("spreadnet")


def _no_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def _undeclared(value, shape, where=""):
    """The dotted places of the keys in ``value`` that ``shape`` does not declare."""
    if shape.__class__ is dict:
        for key, item in value.items():
            if key in shape:
                yield from _undeclared(item, shape[key], f"{where}{key}.")
            else:
                yield where + key
    elif shape.__class__ is list:
        for i, item in enumerate(value):
            yield from _undeclared(item, shape[0], f"{where}{i}.")


@pytest.fixture(scope="session", autouse=True)
def strict_run_records():
    """Every manifest and serve record a test run writes is standard JSON (no
    Infinity or NaN: a PERFECT_STRATEGY ISM is written "perfect") and has its
    reader's shape key for key: the reader accepts it, a finished run's
    manifest holding every top-level part, and the shape declares every key
    written."""
    write = pipeline._write_json

    def write_checked(target, document):
        write(target, document)
        json.loads(target.read_text(encoding="utf-8"), parse_constant=_no_constant)
        serve = target.name == pipeline.SERVE_NAME
        shape = pipeline._SERVE if serve else pipeline._MANIFEST
        check = pipeline._SERVE_CHECK if serve else pipeline._MANIFEST_CHECK
        # only a run stopped before its master may lack parts (a serve record has one)
        pipeline._read_record(target, check, partial="master" not in document)
        undeclared = list(_undeclared(document, shape))
        assert not undeclared, f"{target} holds keys its shape does not declare: {undeclared}"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_write_json", write_checked)
        yield


_THREADED_FORKS: list[str] = []


def _note_threads_at_fork():
    others = [t.name for t in threading.enumerate() if t is not threading.current_thread()]
    if others:
        _THREADED_FORKS.append(", ".join(others))


os.register_at_fork(before=_note_threads_at_fork)


@pytest.fixture(autouse=True)
def no_fork_while_threads_run():
    """No test forks while another Python thread runs: the child would get a
    copy of every lock that thread held, and no thread to release it."""
    yield
    forks = list(_THREADED_FORKS)
    _THREADED_FORKS.clear()
    assert not forks, f"forked while these threads ran: {forks}"


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each training pool the test starts, in order."""
    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # ``neural._train_blocks`` imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return started


@pytest.fixture(autouse=True)
def cold_decode_memos():
    """Every test starts with empty model and CSV memos, so no test passes only
    because an earlier one decoded its files."""
    neural._decode_model.cache_clear()
    series._parse_csv.cache_clear()


@pytest.fixture(scope="session")
def demo_frame():
    """The four demo series aligned, by name, on one axis (190 months, seeded)."""
    return align(list(synthetic_series().values()))


def unit_scaling(width: int) -> AffineMap:
    """Scale 1, offset 0: the scaling of a hand-built model meant to see its
    inputs and emit its output as they are."""
    return AffineMap(np.ones(width), np.zeros(width))


def make_matrix(
    n_rows: int = 60,
    n_inputs: int = 3,
    seed: int = 0,
    target=None,
    noise: float = 0.0,
    base_set_id: int = 1,
    lag: int = 1,
) -> TrainingMatrix:
    """Small synthetic training matrix; default target is a linear map."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 3.0, size=(n_rows, n_inputs))
    if target is None:
        # keep the default target strictly positive so it can be scored as levels
        coef = np.arange(1, n_inputs + 1, dtype=float)
        output = inputs @ coef + 50.0
    else:
        output = target(inputs)
    if noise:
        output = output + noise * rng.standard_normal(n_rows)
    months = np.arange(parse_month("2000-01"), parse_month("2000-01") + n_rows)
    return TrainingMatrix(
        base_set_id=base_set_id,
        lag=lag,
        input_names=tuple(f"x{i}" for i in range(n_inputs)),
        inputs=inputs,
        output=output,
        months_out=months,
    )
