"""From-scratch feedforward network with gradient training and restarts.

The network family is fixed: tanh hidden units and a linear output. The
trainer is plain reverse-mode gradient descent over full-batch squared
error, with a monotone step rule: an epoch whose loss would rise is
rejected and the rate halved; a successful epoch restores the initial
rate. Inputs and the target are min-max scaled to [-1, 1] on the training
split only; the forward pass inverts the target scaling, so predictions
come back in original units.

Models serialize to a versioned JSON text format whose floats round-trip
bit-exactly.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    AllDiverged,
    ConstantOutput,
    CorruptModel,
    DegenerateInput,
    DimensionMismatch,
    DivergedTraining,
    MissingFile,
    TooFewRows,
)
from .preprocess import TrainingMatrix
from .series import NO_FILE, read_file

MODEL_FORMAT = "spreadnet-model"
MODEL_FORMAT_VERSION = 1

_MIN_LEARNING_RATE = 1e-15
_INIT_WEIGHT_RANGE = 0.5


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """Invertible per-column map y = x * scale + offset."""

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        offset = np.atleast_1d(np.asarray(self.offset, dtype=np.float64))
        if scale.shape != offset.shape:
            raise ValueError("scale and offset must have the same shape")
        if (scale == 0.0).any() or not np.isfinite(scale).all():
            raise ValueError("scale must be finite and nonzero (map must invert)")
        scale.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.scale + self.offset

    def invert(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.offset) / self.scale

    @staticmethod
    def fit_minmax(columns: np.ndarray, names=None) -> "AffineMap":
        """Map each column's [min, max] onto [-1, 1]; constant columns map to 0.
        DegenerateInput names the first column (``names[j]``, else j) whose map
        or mapped values are not finite: a span that overflows, say."""
        cols = np.atleast_2d(np.asarray(columns, dtype=np.float64))
        lo, hi = cols.min(axis=0), cols.max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            span = hi - lo
            scale = np.where(span > 0, 2.0 / np.where(span > 0, span, 1.0), 1.0)
            offset = np.where(span > 0, -(hi + lo) / np.where(span > 0, span, 1.0), -lo)
            mapped = np.vstack([scale, offset, cols * scale + offset])
        ok = (scale != 0.0) & np.isfinite(mapped).all(axis=0)
        if not ok.all():
            j = int(np.argmin(ok))
            raise DegenerateInput(f"column {names[j] if names else j!r} spans [{lo[j]:g}, "
                                  f"{hi[j]:g}]; its min-max scaling is not finite")
        return AffineMap(scale, offset)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkModel:
    """Layer sizes, weight matrices (bias folded in), and both fitted scalings.

    ``weights[l]`` has shape (fan_out, fan_in + 1); the last column is the
    bias. Hidden layers apply tanh and the output layer is linear. The
    target scaling is inverted on the way out, so ``predict`` speaks
    original units.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    input_scaling: AffineMap
    output_scaling: AffineMap

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"bad layer sizes {self.layer_sizes}")
        if self.layer_sizes[-1] != 1:
            raise ValueError("output layer must have exactly one unit")
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ValueError("one weight matrix per layer transition required")
        frozen = []
        for l, w in enumerate(self.weights):
            # C order: a product gets one memory layout, alone or stacked (predict_many)
            w = np.ascontiguousarray(w, dtype=np.float64)
            expect = (self.layer_sizes[l + 1], self.layer_sizes[l] + 1)
            if w.shape != expect:
                raise ValueError(f"weight matrix {l} has shape {w.shape}, expected {expect}")
            if not np.isfinite(w).all():
                raise ValueError(f"weight matrix {l} contains non-finite entries")
            w.setflags(write=False)
            frozen.append(w)
        object.__setattr__(self, "weights", tuple(frozen))
        for scaling, width, name in ((self.input_scaling, self.layer_sizes[0], "input"),
                                     (self.output_scaling, 1, "output")):
            if scaling.scale.shape != (width,):
                raise ValueError(f"{name} scaling maps {scaling.scale.shape} columns, "
                                 f"expected ({width},)")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


def predict(model: NetworkModel, inputs: np.ndarray) -> np.ndarray:
    """Vectorized forward pass over rows of ``inputs`` (original units); the
    one-model case of ``predict_many``."""
    return predict_many((model,), np.atleast_2d(np.asarray(inputs, dtype=np.float64)))[0]


def predict_many(models, inputs: np.ndarray) -> np.ndarray:
    """One forward pass over models that share one ``layer_sizes``: shape (models, rows).

    ``inputs`` (original units) are either shared, as (rows, inputs), or one
    slice per model, as (models, rows, inputs). Each step runs on the models'
    arrays stacked along a leading axis: scalings elementwise, and each
    layer's ``np.matmul`` the 2-D product one model alone gets (its weights
    are C-ordered, see ``NetworkModel``), so every model's predictions are
    bit-identical to ``predict`` on it, whatever else is in the stack.
    Mixed layer sizes or an input width other than the models' raise
    DimensionMismatch.
    """
    models = tuple(models)
    if not models:
        raise ValueError("predict_many needs at least one model")
    sizes = models[0].layer_sizes
    for model in models:
        if model.layer_sizes != sizes:
            raise DimensionMismatch(f"models have layer sizes {sizes} and {model.layer_sizes}; "
                                    "one pass takes one")
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != sizes[0] or (x.ndim == 3 and len(x) != len(models)):
        raise DimensionMismatch(f"inputs have shape {x.shape}, {len(models)} models expect "
                                f"(rows, {sizes[0]}) or ({len(models)}, rows, {sizes[0]})")
    stack = _view_stack if len(models) == 1 else np.array  # a copy, as np.stack, at less cost
    ins = [m.input_scaling for m in models]
    outs = [m.output_scaling for m in models]
    h = x * stack([s.scale for s in ins])[:, None, :] + stack([s.offset for s in ins])[:, None, :]
    for l in range(len(sizes) - 1):
        h = np.matmul(_augment(h), stack([m.weights[l] for m in models]).transpose(0, 2, 1))
        if l < len(sizes) - 2:
            h = np.tanh(h)
    return (h[..., 0] - stack([s.offset for s in outs])) / stack([s.scale for s in outs])


def _view_stack(arrays: list[np.ndarray]) -> np.ndarray:
    """One array as a stack of one: a view, where ``np.array`` would copy."""
    return arrays[0][None]


# ---------------------------------------------------------------------------
# Training configuration and splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Training regime: cycles, stop criterion, rate, restarts, split."""

    cycles: int = 1000
    stop_error: float = 0.10
    learning_rate: float = 0.10
    restarts: int = 5000
    rng_seed: int = 0
    split: float = 0.60
    hidden_size: int | None = None

    def __post_init__(self):
        if not 0.0 < self.stop_error < 1.0:
            raise ValueError(f"stop_error must be in (0, 1), got {self.stop_error}")
        if not 0.0 < self.learning_rate <= sys.float_info.max:  # also NaN, inf, 10**400
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.55 <= self.split <= 0.70:
            raise ValueError(f"split must be in [0.55, 0.70], got {self.split}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be positive, got {self.cycles}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.rng_seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.hidden_size is not None and self.hidden_size < 1:
            raise ValueError(f"hidden_size must be positive, got {self.hidden_size}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, rng_seed=int(seed))


MIN_SPLIT_ROWS = 20
MAX_TEST_FRACTION = 0.45


def split(matrix: TrainingMatrix, cfg: TrainConfig) -> tuple[TrainingMatrix, TrainingMatrix]:
    """Chronological split: the earliest rows train, the rest test.

    No shuffling; the test share is capped at 45% of the rows.
    """
    n = matrix.rows
    if n < MIN_SPLIT_ROWS:
        raise TooFewRows(f"need at least {MIN_SPLIT_ROWS} rows to split, got {n}")
    n_train = int(np.floor(cfg.split * n))
    min_train = int(np.ceil((1.0 - MAX_TEST_FRACTION) * n))
    n_train = max(n_train, min_train)
    n_train = min(n_train, n - 1)
    return matrix.slice_rows(0, n_train), matrix.slice_rows(n_train, n)


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def _augment(x: np.ndarray) -> np.ndarray:
    """Append the bias column of ones along the last axis."""
    x = np.atleast_2d(x)
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


class _Workspace:
    """The arrays one epoch of a stack writes, allocated once for ``block`` networks.

    Each network's parameters are one row of ``n_params`` floats: layer by
    layer, each stored as its (fan_in + 1, fan_out) transpose, so a hidden
    layer's product needs no transposed copy and a step or a select is one
    call on the whole row. ``layers(row)`` views a (B, n_params) stack of
    rows per layer. ``resize(m)`` points every working view at the leading
    ``m`` networks of the buffers, so the epochs of a block allocate
    nothing: at 256 restarts each of these arrays is up to half a megabyte,
    and a fresh one per epoch cost page faults on every call. The bias
    column of each hidden layer's augmented buffer is set to one here, once.
    """

    def __init__(self, sizes: tuple[int, ...], block: int, rows: int):
        self.shapes = [(i + 1, o) for i, o in zip(sizes[:-1], sizes[1:])]  # stored per layer
        self.n_params = sum(i * o for i, o in self.shapes)
        widths = sizes[1:-1]  # hidden layers
        self._full = dict(
            grad=np.empty((block, self.n_params)),
            hidden=[np.empty((block, h, rows)) for h in widths],
            augs=[np.ones((block, rows, h + 1)) for h in widths],
            deltas=[np.empty((block, h, rows)) for h in widths],
            out=np.empty((block, rows, 1)),
            err=np.empty((block, rows)),
            sq=np.empty((block, rows)),
            delta_out=np.empty((block, rows)),
            loss=np.empty(block),
            mae=np.empty(block),
        )
        self.resize(block)

    def layers(self, row: np.ndarray) -> list[np.ndarray]:
        """Views (B, fan_in + 1, fan_out) of a (B, n_params) stack of parameter rows."""
        views, start = [], 0
        for shape in self.shapes:
            end = start + shape[0] * shape[1]
            views.append(row[:, start:end].reshape(len(row), *shape, copy=False))
            start = end
        return views

    def resize(self, m: int) -> None:
        for name, full in self._full.items():
            setattr(self, name, [a[:m] for a in full] if isinstance(full, list) else full[:m])
        self.grads = self.layers(self.grad)


def _epoch_math(weights, aug0, y_scaled, ws: _Workspace):
    """Fused forward + backward over one full batch, for a stack of networks.

    ``weights`` are ``ws.layers`` views of a (B, n_params) stack of
    parameter rows: layer ``l`` of each of B networks as its
    (fan_in + 1, fan_out) transpose. ``aug0`` is the (B, rows, inputs + 1)
    stack of input matrices with the bias column already appended, and
    ``y_scaled`` the (B, rows) stack of targets: network b trains on item
    b. ``ws`` is a ``_Workspace`` for these layer sizes and rows, viewed at
    B networks; every array the epoch computes is written into it through
    ``out=``, so the call allocates no array. Returns per-network (loss,
    gradient row, scaled MAE) as views into ``ws`` with a leading axis of
    length B, valid until the workspace's next epoch: the gradient row is
    laid out as the parameter row, and loss is the half mean squared error
    in scaled space.

    Every product is ``np.matmul`` on the stacked arrays, which runs the
    same 2-D product for each network, and every mean reduces along the
    last axis, so a network's numbers are bit-identical whatever else is
    in the stack. (``einsum`` sums in another order and drifts.) A mean is
    the sum then a divide, exactly as ``np.mean`` computes it.

    A hidden layer's activations and error terms are held as
    (B, units, rows). The product ``W @ aug_in^T`` takes both operands as
    views; ``tanh`` and its derivative ``1 - t*t`` run in place on that
    contiguous buffer, whose rows are then copied into the next layer's
    (B, rows, units + 1) augmented buffer (its bias column the workspace
    set once). The output layer's product and gradient keep that augmented
    layout: fed the transposed buffer, both change bits. The product that
    carries an error term down a layer runs its inner loop along the rows,
    which makes the output layer's k = 1 product cheap. A hidden gradient
    is ``aug_in^T @ delta^T`` on views, written straight into its
    (fan_in + 1, units) place in the gradient row.
    """
    n = aug0.shape[-2]
    augs = [aug0, *ws.augs]
    for l, t in enumerate(ws.hidden):
        np.tanh(np.matmul(weights[l].transpose(0, 2, 1), augs[l].transpose(0, 2, 1), out=t),
                out=t)
        for j in range(t.shape[1]):
            augs[l + 1][..., j] = t[:, j]
    out = np.matmul(augs[-1], weights[-1], out=ws.out)

    err = np.subtract(out[..., 0], y_scaled, out=ws.err)
    np.multiply(err, err, out=ws.sq)
    loss = np.add.reduce(ws.sq, axis=-1, out=ws.loss)
    np.multiply(0.5, np.divide(loss, n, out=loss), out=loss)
    mae = np.add.reduce(np.abs(err, out=ws.sq), axis=-1, out=ws.mae)
    np.divide(mae, n, out=mae)

    # The output error as a (B, 1, rows) view whose unit axis has stride 0.
    # In the output gradient that stride keeps matmul in numpy's own loop,
    # whose summation order the models carry.
    np.divide(err, n, out=ws.delta_out)
    delta = ws.delta_out[:, None, :]
    np.matmul(delta, augs[-1], out=ws.grads[-1].transpose(0, 2, 1))
    for l in range(len(weights) - 1, 0, -1):
        t, below = ws.hidden[l - 1], ws.deltas[l - 1]
        np.matmul(weights[l][:, :-1], delta, out=below)
        np.multiply(t, t, out=t)  # the tanh output becomes its derivative 1 - t*t
        np.multiply(below, np.subtract(1.0, t, out=t), out=below)
        np.matmul(augs[l - 1].transpose(0, 2, 1), below.transpose(0, 2, 1), out=ws.grads[l - 1])
        delta = below
    return loss, ws.grad, mae


def _init_weights(n_inputs: int, cfg: TrainConfig, seed: int):
    rng = np.random.default_rng(seed)
    hidden = cfg.hidden_size if cfg.hidden_size is not None else n_inputs
    sizes = (n_inputs, hidden, 1)
    weights = [
        rng.uniform(-_INIT_WEIGHT_RANGE, _INIT_WEIGHT_RANGE, size=(sizes[l + 1], sizes[l] + 1))
        for l in range(len(sizes) - 1)
    ]
    return sizes, weights


@dataclass(frozen=True)
class _Prepared:
    """Scaled training batch of one matrix, shared by all its restarts."""

    aug0: np.ndarray
    y_scaled: np.ndarray
    input_scaling: AffineMap
    output_scaling: AffineMap
    n_inputs: int


def _prepare(train_data: TrainingMatrix) -> _Prepared:
    y = train_data.output
    if y.max() == y.min():
        raise ConstantOutput("output column is constant; nothing to fit")
    input_scaling = AffineMap.fit_minmax(train_data.inputs, train_data.input_names)
    output_scaling = AffineMap.fit_minmax(y[:, None], ["output"])
    return _Prepared(
        aug0=_augment(input_scaling.apply(train_data.inputs)),
        y_scaled=output_scaling.apply(y[:, None])[:, 0],
        input_scaling=input_scaling,
        output_scaling=output_scaling,
        n_inputs=train_data.n_inputs,
    )


def _model(prep: _Prepared, weights: list[np.ndarray]) -> NetworkModel:
    """The network with these trained weights on the scalings of ``prep``."""
    return NetworkModel(
        layer_sizes=(prep.n_inputs, *(w.shape[0] for w in weights)),
        weights=tuple(weights),
        input_scaling=prep.input_scaling,
        output_scaling=prep.output_scaling,
    )


def _train_stack(preps: list[_Prepared], cfg: TrainConfig, seeds: list[int] | np.ndarray,
                 histories: list[list] | None = None) -> list[list[np.ndarray] | None]:
    """Train one network per (batch, seed) pair, all in lockstep on stacked weights.

    ``preps[i]`` is the training batch of restart i. The batches may come
    from different matrices but must share one shape, and ``cfg`` gives
    every restart its regime (the seed comes from ``seeds``).

    Each restart keeps its own rate, loss and stop test. The gradient
    computed at an accepted candidate is reused for the next step, so each
    epoch costs a single forward+backward. A rejected step keeps the
    current weights and gradient and halves that restart's rate, which
    makes its loss trace non-increasing by construction. The stop
    criterion (training MAE below ``stop_error`` of the output range) is
    evaluated on each accepted candidate; scaled MAE / 2 equals
    range-normalized MAE because targets are scaled onto [-1, 1].

    A restart leaves the stack, with its batch, when it stops, so its
    weights are exactly those it would reach trained alone. The result
    holds each restart's final weight matrices, one per layer, or None for
    a restart whose initial loss is non-finite.
    ``histories[i]``, when given, receives restart i's loss after every
    epoch, accepted or rejected.

    The block allocates its arrays once: a ``_Workspace`` for the kernel
    and the state (parameter rows, gradient rows, candidate rows, batches,
    loss, rate), which every epoch updates in place through ``out=`` and
    ``np.copyto(..., where=)``, one call each on the whole rows. When
    restarts leave, the survivors are compacted to the front of each array
    and the views shrink to them.
    """
    inits = [_init_weights(p.n_inputs, cfg, seed) for p, seed in zip(preps, seeds)]
    sizes = inits[0][0]
    aug0 = np.stack([p.aug0 for p in preps])
    y_scaled = np.stack([p.y_scaled for p in preps])
    ws = _Workspace(sizes, len(seeds), aug0.shape[-2])
    params = _pack(ws, [w for _, w in inits])
    loss, grad, _ = _epoch_math(ws.layers(params), aug0, y_scaled, ws)

    finals: list = [None] * len(seeds)
    live = np.isfinite(loss)
    idx = np.flatnonzero(live)  # batch position of each stacked restart
    # the block's state, sized once; boolean indexing copies out of the workspace
    state = [params[live], grad[live], aug0[live], y_scaled[live], loss[live],
             np.full(len(idx), cfg.learning_rate), idx]
    candidate = np.empty_like(state[0])
    trial = ws.layers(candidate)  # the kernel's per-layer views of it
    ws.resize(len(idx))
    for _ in range(cfg.cycles):
        params, grad, aug0, y_scaled, loss, lr, idx = state
        if len(idx) == 0:
            break
        np.subtract(params, np.multiply(lr[:, None], grad, out=candidate), out=candidate)
        c_loss, c_grad, c_mae = _epoch_math(trial, aug0, y_scaled, ws)
        ok = np.isfinite(c_loss) & (c_loss <= loss)
        pick = ok[:, None]
        np.copyto(params, candidate, where=pick)
        np.copyto(grad, c_grad, where=pick)
        np.copyto(loss, c_loss, where=ok)
        lr *= 0.5
        np.copyto(lr, cfg.learning_rate, where=ok)
        if histories is not None:
            for i, value in zip(idx, loss):
                histories[i].append(float(value))
        done = np.where(ok, c_mae / 2.0 < cfg.stop_error, lr < _MIN_LEARNING_RATE)
        if done.any():
            for k in np.flatnonzero(done):
                finals[idx[k]] = _unpack(ws, params[k])
            keep = ~done
            m = int(np.count_nonzero(keep))
            for a in state:
                a[:m] = a[keep]
            state = [a[:m] for a in state]
            candidate = candidate[:m]
            trial = ws.layers(candidate)
            ws.resize(m)
    params, idx = state[0], state[-1]
    for k, i in enumerate(idx):
        finals[i] = _unpack(ws, params[k])
    return finals


def _pack(ws: _Workspace, networks: list) -> np.ndarray:
    """The (B, n_params) parameter rows of B networks' weight matrices, each
    network given as the model's (fan_out, fan_in + 1) matrices."""
    rows = np.empty((len(networks), ws.n_params))
    for view, layer in zip(ws.layers(rows), zip(*networks)):
        np.copyto(view, np.stack(layer).transpose(0, 2, 1))
    return rows


def _unpack(ws: _Workspace, row: np.ndarray) -> list[np.ndarray]:
    """One parameter row as the model's (fan_out, fan_in + 1) weight matrices, in
    memory of their own: a transpose of a (fan_in + 1, 1) view is already
    contiguous, so ``ascontiguousarray`` would hand back a view of the row."""
    return [w[0].T.copy() for w in ws.layers(row[None])]


def train(
    train_data: TrainingMatrix,
    cfg: TrainConfig,
    seed: int | None = None,
    history: list | None = None,
) -> NetworkModel:
    """Fit one network on the training rows.

    Runs up to ``cfg.cycles`` full-batch epochs; an epoch that would raise
    the loss is rejected and the step halved, so the loss trace is
    non-increasing. Stops early once the training MAE falls below
    ``cfg.stop_error`` of the output range. Same seed + same data give
    bit-identical weights, equal to that seed's restart in
    ``multi_restart_train``. Pass a list as ``history`` to capture the
    post-epoch loss trace (one entry per epoch, accepted or rejected).
    """
    prep = _prepare(train_data)
    seed = cfg.rng_seed if seed is None else int(seed)
    (weights,) = _train_stack([prep], cfg, [seed], None if history is None else [history])
    if weights is None:
        raise DivergedTraining("initial loss is non-finite")
    return _model(prep, weights)


# ---------------------------------------------------------------------------
# Multi-restart search
# ---------------------------------------------------------------------------

# Most restarts per stacked training call. Cost per restart is flat from
# about 40 restarts up, while the working arrays (and peak memory) grow with
# the block, so a bounded block keeps memory bounded at any restart count.
# A job smaller than one such block per worker is cut into blocks of at most
# one worker's share of all its restarts instead (``_plan_blocks``), so every
# CPU gets work. The share is the whole job's, not each shape group's: a
# block's epoch loop has a fixed cost (about 27 us an epoch on a 2-vCPU VM,
# beside under 2 us per restart and epoch), so a group cut finer than the
# share only adds loops. At one CPU the blocks are these.
RESTART_BLOCK = 256


@dataclass(frozen=True)
class Search:
    """One matrix's restart search: the winner (``seed``, ``model``) and, in
    generation order, the ``seeds`` (uint32) and ``scores`` (float64) of the
    restarts that trained. A diverged restart is in neither array, and
    ``len()`` counts the scored ones."""

    seed: int
    model: NetworkModel
    seeds: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)


def restart_seeds(master_seed: int, restarts: int) -> np.ndarray:
    """Deterministic per-restart seeds derived from one master seed."""
    return np.random.SeedSequence(int(master_seed)).generate_state(restarts)


def multi_restart_train(matrix: TrainingMatrix, cfg: TrainConfig, scorer) -> Search:
    """Train ``cfg.restarts`` independently seeded networks and keep the best.

    The one-matrix case of ``multi_matrix_train``; see there.
    """
    return multi_matrix_train([matrix], [cfg], scorer)[0]


def multi_matrix_train(matrices: list[TrainingMatrix], cfgs: list[TrainConfig],
                       scorer) -> list[Search]:
    """Train ``cfg.restarts`` seeded networks per matrix and find each matrix's best.

    Every (matrix, seed) pair whose training batch has the same shape, under
    the same regime, trains in one stack, in blocks of at most one worker's
    share of the whole job, ``min(RESTART_BLOCK, ceil(pairs / workers))``,
    and in a block count that the workers share evenly (see ``_plan_blocks``
    and ``_train_blocks``). The share is the job's, not each group's,
    because every block pays a fixed cost per epoch: a small group stays
    whole rather than being cut once per worker. Each restart's
    weights are bit-identical to ``train`` with its seed, whichever block
    and process it trains in. Restarts whose initial loss is non-finite are
    skipped.

    The scorer runs where the block trained, in a worker process or here,
    once per block and matrix: ``scorer(models, test_part)`` gets the
    models of that matrix's trained restarts in the block and returns their
    out-of-sample scores in the same order (higher is better;
    PERFECT_STRATEGY, +inf, ranks first). It must be a pure function of
    (models, test part), so a score does not depend on the block split. It
    reaches the workers by fork, so it need not pickle.

    Returns one ``Search`` per matrix, in input order. Each block sends
    back its scores as one array and, per matrix, its best restart's
    weights; the winner is the best of those bests by ``_rank_key``.

    Input faults are found before the search, in input order: the first
    matrix that is too short to split (TooFewRows), has a constant output
    (ConstantOutput) or scales to a non-finite batch (DegenerateInput)
    raises before any block trains. AllDiverged comes after training, for
    the first matrix in input order whose restarts all diverged. Each of
    these messages opens with the matrix's name (``set07_lag03: ...``).
    """
    preps, tests = [], []
    for matrix, cfg in zip(matrices, cfgs, strict=True):
        try:
            train_part, test_part = split(matrix, cfg)
            preps.append(_prepare(train_part))
        except (TooFewRows, ConstantOutput, DegenerateInput) as exc:
            raise type(exc)(f"{matrix.name}: {exc}") from exc
        tests.append(test_part)

    # matrices by batch shape and regime, in input order; the job runs group
    # by group, and each matrix's restarts in generation order
    groups: dict[tuple, list[int]] = {}
    for j, (prep, cfg) in enumerate(zip(preps, cfgs)):
        groups.setdefault((prep.aug0.shape, replace(cfg, rng_seed=0, restarts=1)), []).append(j)
    order = [j for members in groups.values() for j in members]
    owner = np.repeat(order, [cfgs[j].restarts for j in order])  # each restart's matrix
    seeds = np.concatenate([restart_seeds(cfgs[j].rng_seed, cfgs[j].restarts) for j in order])
    workers = _worker_count()
    spans = _plan_blocks([sum(cfgs[j].restarts for j in g) for g in groups.values()], workers)
    outcomes = _train_blocks([[preps[j] for j in owner[s]] for s in spans],
                             [cfgs[owner[s.start]] for s in spans], [seeds[s] for s in spans],
                             workers, partial(_score_block, spans, owner, preps, tests, seeds,
                                              scorer))

    searches = []
    for j, (matrix, cfg) in enumerate(zip(matrices, cfgs)):
        found = [outcome[j] for outcome in outcomes if j in outcome]  # in generation order
        if not found:
            raise AllDiverged(f"{matrix.name}: all {cfg.restarts} restarts diverged")
        block_seeds, block_scores, bests = zip(*found)
        (_, seed), weights = min(bests, key=itemgetter(0))  # a total order
        searches.append(Search(int(seed), _model(preps[j], weights),
                               np.concatenate(block_seeds), np.concatenate(block_scores)))
    return searches


def _plan_blocks(sizes: list[int], workers: int) -> list[slice]:
    """The job's blocks: each group cut into contiguous runs of at most one worker's share.

    ``sizes`` are the groups' restart counts; the job runs the groups one
    after another, and each block is a slice of it within one group. With
    ``share = min(RESTART_BLOCK, ceil(total / workers))``, a group of n
    restarts becomes ``ceil(n / share)`` blocks whose sizes differ by at
    most one, the larger first.

    Blocks of about one size finish at about the same pace, so when there
    are more blocks than workers, a worker left with one block more than
    the others sets the stage's end. The count is then rounded up to a
    multiple of the workers, one block at a time to the group whose blocks
    are largest (the demo at 50 restarts and two workers: 14 blocks, not
    13), while any block holds more than one restart.
    """
    share = min(RESTART_BLOCK, -(-sum(sizes) // workers))
    counts = [-(-n // share) for n in sizes]
    while sum(counts) > workers and sum(counts) % workers:
        g = max(range(len(sizes)), key=lambda g: sizes[g] / counts[g])
        if sizes[g] == counts[g]:
            break
        counts[g] += 1
    blocks, start = [], 0
    for n, count in zip(sizes, counts):
        size, extra = divmod(n, count)
        for b in range(count):
            blocks.append(slice(start, start + size + (b < extra)))
            start = blocks[-1].stop
    return blocks


def _score_block(spans, owner, preps, tests, seeds, scorer, b: int, finals: list) -> dict:
    """Block ``b``'s trained restarts scored, one scorer call per matrix in it.

    Returns, per matrix with a trained restart in the block, the seeds and
    scores of those restarts as two arrays in generation order, and the best
    of them as (``_rank_key``, weights).
    """
    matrix, block_seeds = owner[spans[b]], seeds[spans[b]]
    found = {}
    trained = (k for k, weights in enumerate(finals) if weights is not None)
    for j, positions in groupby(trained, key=matrix.__getitem__):
        positions = list(positions)
        models = [_model(preps[j], finals[k]) for k in positions]
        scores = np.array([score for _, score in zip(models, scorer(models, tests[j]),
                                                     strict=True)], dtype=np.float64)
        best = min(((_rank_key(score, int(block_seeds[k])), finals[k])
                    for k, score in zip(positions, scores)), key=itemgetter(0))
        found[int(j)] = block_seeds[positions], scores, best
    return found


def _rank_key(score: float, seed: int) -> tuple:
    """A restart's place in its matrix's ranking: higher score first, then lower seed."""
    return -score, seed


def _worker_count() -> int:
    """The CPUs this process may run on; 1 where ``fork`` is unavailable."""
    import multiprocessing  # imported by training only: a forecast never loads the pool

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# The running ``_train_blocks`` call's job, in a worker it forked.
_job: tuple | None = None


def _adopt(job: tuple) -> None:
    global _job
    _job = job


def _run_block(b: int, job: tuple | None = None):
    batches, cfgs, seeds, finish = _job if job is None else job
    return finish(b, _train_stack(batches[b], cfgs[b], seeds[b]))


def _train_blocks(batches: list[list[_Prepared]], cfgs: list[TrainConfig],
                  seeds: list[np.ndarray], workers: int, finish) -> list:
    """``finish(b, _train_stack(batches[b], cfgs[b], seeds[b]))`` for each block b, in order.

    With more than one block and worker the blocks run in a pool of forked
    processes, at most one per block, that lives only inside this call: a
    worker's exception reaches the caller as its own type once the pool has
    shut down. Children are forked, not spawned, so they train with the
    functions this process holds, patched ones included. The job (batches,
    regimes, seeds and ``finish``) reaches them by that fork, through the
    pool's initializer, and is never pickled: only block numbers go out
    and ``finish``'s results come back. Weight arrays that come back are
    writable; the caller freezes what it keeps by building models.
    """
    job = (batches, cfgs, seeds, finish)
    workers = min(workers, len(cfgs))
    if workers <= 1:
        return [_run_block(b, job) for b in range(len(cfgs))]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(job,)) as pool:
        return list(pool.map(_run_block, range(len(cfgs))))


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def gradient_check(model: NetworkModel, sample: tuple[np.ndarray, float],
                   epsilon: float = 1e-5) -> float:
    """Max relative gap between analytic and central-difference gradients.

    ``sample`` is one (inputs, target) pair in original units; the loss is
    the scaled-space half squared error the trainer minimizes.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    x, y = sample
    x = np.asarray(x, dtype=np.float64)[None, :]
    aug = _augment(model.input_scaling.apply(x))[None]
    y_scaled = model.output_scaling.apply([[y]])[None, :, 0]
    ws = _Workspace(model.layer_sizes, 1, 1)
    row = _pack(ws, [model.weights])

    def loss(params):
        return float(_epoch_math(ws.layers(params), aug, y_scaled, ws)[0][0])

    analytic = _epoch_math(ws.layers(row), aug, y_scaled, ws)[1][0].copy()
    worst = 0.0
    for p, grad in enumerate(analytic):
        bump = np.zeros_like(row)
        bump[0, p] = epsilon
        numeric = (loss(row + bump) - loss(row - bump)) / (2 * epsilon)
        worst = max(worst, abs(grad - numeric) / max(abs(grad), abs(numeric), 1e-8))
    return worst


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; floats round-trip bit-exactly)
# ---------------------------------------------------------------------------

# Format v1 names the activations; the network family only has these two.
_V1_ACTIVATION_FIELDS = {"hidden_activation": "tanh", "output_activation": "identity"}


def model_to_dict(model: NetworkModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        **_V1_ACTIVATION_FIELDS,
        "weights": [w.tolist() for w in model.weights],
        "input_scaling": _scaling_to_dict(model.input_scaling),
        "output_scaling": _scaling_to_dict(model.output_scaling),
    }


def model_from_dict(data: dict) -> NetworkModel:
    if data.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if data.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {data.get('version')}")
    for key, name in _V1_ACTIVATION_FIELDS.items():
        if data.get(key) != name:
            raise ValueError(f"{key} must be {name!r}, got {data.get(key)!r}")
    return NetworkModel(
        layer_sizes=tuple(data["layer_sizes"]),
        weights=tuple(np.asarray(w, dtype=np.float64) for w in data["weights"]),
        input_scaling=_scaling_from_dict(data["input_scaling"]),
        output_scaling=_scaling_from_dict(data["output_scaling"]),
    )


def _scaling_to_dict(scaling: AffineMap) -> dict:
    return {"scale": scaling.scale.tolist(), "offset": scaling.offset.tolist()}


def _scaling_from_dict(data: dict) -> AffineMap:
    return AffineMap(np.asarray(data["scale"]), np.asarray(data["offset"]))


def save_model(model: NetworkModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=1), encoding="utf-8")


def load_model(path: str | Path) -> NetworkModel:
    """The model stored at ``path``; MissingFile or CorruptModel names a file that
    is absent (its path may run through a file) or is not a model document (bad
    JSON, nesting too deep to decode, wrong format, missing keys, a null scaling).

    The file is read on every call, as bytes; they are decoded once per distinct
    content (see ``_decode_model``).
    """
    try:
        return _decode_model(read_file(path))
    except NO_FILE as exc:
        raise MissingFile(f"no model file {path}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise CorruptModel(f"{path} is not a {MODEL_FORMAT} document: {exc!r}") from exc


# Distinct model files kept decoded: a run's members and master number at most 65.
_MODEL_TEXTS = 256


@lru_cache(maxsize=_MODEL_TEXTS)
def _decode_model(content: bytes) -> NetworkModel:
    """The model a document's UTF-8 bytes hold (decoded as UTF-8 only: ``json.loads``
    would take UTF-16 too). Equal bytes decode to equal models, and a model is
    immutable (frozen, read-only arrays), so every caller of one content shares
    one; content that fails raises each time and is not kept."""
    return model_from_dict(json.loads(content.decode("utf-8")))
