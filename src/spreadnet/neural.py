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
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AllDiverged,
    ConstantOutput,
    CorruptModel,
    DimensionMismatch,
    DivergedTraining,
    MissingFile,
    TooFewRows,
)
from .metrics import ism_sort_key
from .preprocess import TrainingMatrix

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
    def fit_minmax(columns: np.ndarray) -> "AffineMap":
        """Map each column's [min, max] onto [-1, 1]; constant columns map to 0."""
        cols = np.atleast_2d(np.asarray(columns, dtype=np.float64))
        lo = cols.min(axis=0)
        hi = cols.max(axis=0)
        span = hi - lo
        scale = np.where(span > 0, 2.0 / np.where(span > 0, span, 1.0), 1.0)
        offset = np.where(span > 0, -(hi + lo) / np.where(span > 0, span, 1.0), -lo)
        return AffineMap(scale, offset)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkModel:
    """Layer sizes, weight matrices (bias folded in), and fitted scalings.

    ``weights[l]`` has shape (fan_out, fan_in + 1); the last column is the
    bias. Hidden layers apply tanh and the output layer is linear. The
    target scaling is inverted on the way out, so ``forward`` speaks
    original units.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    input_scaling: AffineMap | None = None
    output_scaling: AffineMap | None = None

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"bad layer sizes {self.layer_sizes}")
        if self.layer_sizes[-1] != 1:
            raise ValueError("output layer must have exactly one unit")
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ValueError("one weight matrix per layer transition required")
        frozen = []
        for l, w in enumerate(self.weights):
            w = np.asarray(w, dtype=np.float64)
            expect = (self.layer_sizes[l + 1], self.layer_sizes[l] + 1)
            if w.shape != expect:
                raise ValueError(f"weight matrix {l} has shape {w.shape}, expected {expect}")
            if not np.isfinite(w).all():
                raise ValueError(f"weight matrix {l} contains non-finite entries")
            w.setflags(write=False)
            frozen.append(w)
        object.__setattr__(self, "weights", tuple(frozen))

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


def _forward_scaled(model: NetworkModel, x_scaled: np.ndarray) -> np.ndarray:
    """Batch forward pass in scaled space; returns shape (rows,)."""
    h = np.atleast_2d(x_scaled)
    for w in model.weights[:-1]:
        h = np.tanh(_augment(h) @ w.T)
    return (_augment(h) @ model.weights[-1].T)[:, 0]


def forward(model: NetworkModel, inputs: np.ndarray) -> float:
    """Evaluate one input row; scaling in, network, target scaling out."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape != (model.n_inputs,):
        raise DimensionMismatch(
            f"input has shape {x.shape}, model expects ({model.n_inputs},)"
        )
    return float(predict(model, x[None, :])[0])


def predict(model: NetworkModel, inputs: np.ndarray) -> np.ndarray:
    """Vectorized forward pass over rows of ``inputs`` (original units)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != model.n_inputs:
        raise DimensionMismatch(
            f"input rows have width {x.shape[1]}, model expects {model.n_inputs}"
        )
    if model.input_scaling is not None:
        x = model.input_scaling.apply(x)
    out = _forward_scaled(model, x)
    if model.output_scaling is not None:
        out = model.output_scaling.invert(out)
    return out


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
    """Append the bias column of ones along the last axis.

    The values equal ``np.concatenate`` with a float64 ones column. The
    result is filled one long strided copy per column, about twice as fast
    as ``np.concatenate`` on a training stack's hidden layer.
    """
    x = np.atleast_2d(x)
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    for j in range(x.shape[-1]):
        out[..., j] = x[..., j]
    out[..., -1] = 1.0
    return out


def _epoch_math(weights, aug0, y_scaled):
    """Fused forward + backward over one full batch, for a stack of networks.

    ``weights[l]`` has shape (B, fan_out, fan_in + 1): layer ``l`` of each
    of B networks. ``aug0`` is the (B, rows, inputs + 1) stack of input
    matrices with the bias column already appended, and ``y_scaled`` the
    (B, rows) stack of targets: network b trains on item b. Returns
    per-network (loss, grads, scaled MAE) with a leading axis of length B;
    loss is the half mean squared error in scaled space.

    Every product is ``np.matmul`` on the stacked arrays, which runs the
    same 2-D product for each network, and every mean reduces along the
    last axis, so a network's numbers are bit-identical whatever else is
    in the stack. (``einsum`` sums in another order and drifts.) A mean is
    the sum then a divide, exactly as ``np.mean`` computes it.

    Weight operands go to ``matmul`` as contiguous copies: the same bits at
    2-3x less cost per product than a transposed or sliced view. The
    transposed ``delta`` of the gradient product stays a view, because a
    contiguous copy of it changes bits.
    """
    n_layers = len(weights)
    n = aug0.shape[-2]
    augs = [aug0]
    hidden = []  # tanh outputs, reused for the derivative 1 - t*t
    for w in weights[:-1]:
        t = np.tanh(augs[-1] @ np.ascontiguousarray(w.transpose(0, 2, 1)))
        hidden.append(t)
        augs.append(_augment(t))
    out = augs[-1] @ np.ascontiguousarray(weights[-1].transpose(0, 2, 1))

    err = out[..., 0] - y_scaled
    loss = 0.5 * (np.add.reduce(err * err, axis=-1) / n)
    mae = np.add.reduce(np.abs(err), axis=-1) / n

    grads = [None] * n_layers
    delta = (err / n)[..., None]
    for l in range(n_layers - 1, -1, -1):
        grads[l] = delta.transpose(0, 2, 1) @ augs[l]
        if l > 0:
            t = hidden[l - 1]
            delta = (delta @ np.ascontiguousarray(weights[l][..., :-1])) * (1.0 - t * t)
    return loss, grads, mae


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
    if float(y.max() - y.min()) == 0.0:
        raise ConstantOutput("output column is constant; nothing to fit")
    input_scaling = AffineMap.fit_minmax(train_data.inputs)
    output_scaling = AffineMap.fit_minmax(y[:, None])
    return _Prepared(
        aug0=_augment(input_scaling.apply(train_data.inputs)),
        y_scaled=output_scaling.apply(y[:, None])[:, 0],
        input_scaling=input_scaling,
        output_scaling=output_scaling,
        n_inputs=train_data.n_inputs,
    )


def _train_stack(preps: list[_Prepared], cfg: TrainConfig, seeds: list[int],
                 histories: list[list] | None = None) -> list[NetworkModel | None]:
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
    holds None for a restart whose initial loss is non-finite.
    ``histories[i]``, when given, receives restart i's loss after every
    epoch, accepted or rejected.
    """
    inits = [_init_weights(p.n_inputs, cfg, seed) for p, seed in zip(preps, seeds)]
    sizes = inits[0][0]
    weights = [np.stack(layer) for layer in zip(*(w for _, w in inits))]
    aug0 = np.stack([p.aug0 for p in preps])
    y_scaled = np.stack([p.y_scaled for p in preps])
    loss, grads, _ = _epoch_math(weights, aug0, y_scaled)

    finals: list = [None] * len(seeds)
    live = np.isfinite(loss)
    idx = np.flatnonzero(live)  # batch position of each stacked restart
    weights = [w[live] for w in weights]
    grads = [g[live] for g in grads]
    aug0, y_scaled, loss = aug0[live], y_scaled[live], loss[live]
    lr = np.full(len(idx), cfg.learning_rate)
    for _ in range(cfg.cycles):
        if len(idx) == 0:
            break
        step = lr[:, None, None]
        candidate = [w - step * g for w, g in zip(weights, grads)]
        c_loss, c_grads, c_mae = _epoch_math(candidate, aug0, y_scaled)
        ok = np.isfinite(c_loss) & (c_loss <= loss)
        pick = ok[:, None, None]
        weights = [np.where(pick, c, w) for c, w in zip(candidate, weights)]
        grads = [np.where(pick, c, g) for c, g in zip(c_grads, grads)]
        loss = np.where(ok, c_loss, loss)
        lr = np.where(ok, cfg.learning_rate, lr * 0.5)
        if histories is not None:
            for i, value in zip(idx, loss):
                histories[i].append(float(value))
        done = np.where(ok, c_mae / 2.0 < cfg.stop_error, lr < _MIN_LEARNING_RATE)
        if done.any():
            for k in np.flatnonzero(done):
                finals[idx[k]] = [w[k].copy() for w in weights]
            keep = ~done
            idx = idx[keep]
            weights = [w[keep] for w in weights]
            grads = [g[keep] for g in grads]
            aug0, y_scaled = aug0[keep], y_scaled[keep]
            loss, lr = loss[keep], lr[keep]
    for k, i in enumerate(idx):
        finals[i] = [w[k].copy() for w in weights]
    return [
        None if f is None else NetworkModel(
            layer_sizes=sizes,
            weights=tuple(f),
            input_scaling=p.input_scaling,
            output_scaling=p.output_scaling,
        )
        for p, f in zip(preps, finals)
    ]


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
    (model,) = _train_stack([prep], cfg, [seed], None if history is None else [history])
    if model is None:
        raise DivergedTraining("initial loss is non-finite")
    return model


# ---------------------------------------------------------------------------
# Multi-restart search
# ---------------------------------------------------------------------------

# Restarts per stacked training call. Cost per restart is flat from about
# 40 restarts up, while the working arrays (and peak memory) grow with the
# block, so a fixed block keeps memory bounded at any restart count.
RESTART_BLOCK = 256


@dataclass(frozen=True)
class RestartResult:
    """One restart's trained model, its out-of-sample score, and its seed."""

    model: NetworkModel
    score: object  # float or the PERFECT_STRATEGY sentinel
    seed: int


def restart_seeds(master_seed: int, restarts: int) -> np.ndarray:
    """Deterministic per-restart seeds derived from one master seed."""
    return np.random.SeedSequence(int(master_seed)).generate_state(restarts)


def multi_restart_train(matrix: TrainingMatrix, cfg: TrainConfig, scorer) -> list[RestartResult]:
    """Train ``cfg.restarts`` independently seeded networks and rank them.

    The one-matrix case of ``multi_matrix_train``; see there.
    """
    return multi_matrix_train([matrix], [cfg], scorer)[0]


def multi_matrix_train(matrices: list[TrainingMatrix], cfgs: list[TrainConfig],
                       scorer) -> list[list[RestartResult]]:
    """Train ``cfg.restarts`` seeded networks per matrix and rank each matrix's.

    Every (matrix, seed) pair whose training batch has the same shape, under
    the same regime, trains in one stack, in blocks of ``RESTART_BLOCK``
    restarts; each restart's weights are bit-identical to ``train`` with its
    seed. ``scorer(model, test_part)`` returns the out-of-sample score
    (higher is better; the perfect-strategy sentinel ranks first). Restarts
    whose initial loss is non-finite are skipped. Each matrix's list is
    sorted by descending score with the seed as a deterministic tiebreak.

    Errors come as if the matrices were trained one after another: the
    first matrix in input order that is too short to split, has a constant
    output, or whose restarts all diverged (AllDiverged) raises its error.
    """
    preps, tests, failure = [], [], None
    for matrix, cfg in zip(matrices, cfgs, strict=True):
        try:
            train_part, test_part = split(matrix, cfg)
            preps.append(_prepare(train_part))
        except (TooFewRows, ConstantOutput) as exc:
            failure = exc  # the matrices after it are never reached
            break
        tests.append(test_part)
    cfgs = cfgs[:len(preps)]
    seeds = [[int(s) for s in restart_seeds(cfg.rng_seed, cfg.restarts)] for cfg in cfgs]

    # (matrix, restart) pairs by batch shape and regime, in input order
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for j, (prep, cfg) in enumerate(zip(preps, cfgs)):
        key = (prep.aug0.shape, replace(cfg, rng_seed=0, restarts=1))
        groups.setdefault(key, []).extend((j, r) for r in range(cfg.restarts))
    models = [[None] * cfg.restarts for cfg in cfgs]
    for pairs in groups.values():
        for start in range(0, len(pairs), RESTART_BLOCK):
            block = pairs[start:start + RESTART_BLOCK]
            trained = _train_stack([preps[j] for j, _ in block], cfgs[block[0][0]],
                                   [seeds[j][r] for j, r in block])
            for (j, r), model in zip(block, trained):
                models[j][r] = model

    rankings = []
    for test_part, cfg, matrix_seeds, trained in zip(tests, cfgs, seeds, models):
        results = [RestartResult(model=model, score=scorer(model, test_part), seed=seed)
                   for seed, model in zip(matrix_seeds, trained) if model is not None]
        if not results:
            raise AllDiverged(f"all {cfg.restarts} restarts diverged")
        results.sort(key=lambda r: (-ism_sort_key(r.score), r.seed))
        rankings.append(results)
    if failure is not None:
        raise failure
    return rankings


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
    x_scaled = model.input_scaling.apply(x) if model.input_scaling else x
    y_arr = np.asarray([y], dtype=np.float64)
    y_scaled = (
        model.output_scaling.apply(y_arr[:, None])[:, 0]
        if model.output_scaling
        else y_arr
    )

    aug = _augment(x_scaled)[None]
    y_scaled = y_scaled[None]
    _, grads, _ = _epoch_math([w[None] for w in model.weights], aug, y_scaled)

    def loss_with_bump(layer, idx, bump):
        weights = [w[None].copy() for w in model.weights]
        weights[layer][(0, *idx)] += bump
        return float(_epoch_math(weights, aug, y_scaled)[0][0])

    worst = 0.0
    for l, w in enumerate(model.weights):
        for idx in np.ndindex(w.shape):
            up = loss_with_bump(l, idx, epsilon)
            down = loss_with_bump(l, idx, -epsilon)
            numeric = (up - down) / (2 * epsilon)
            analytic = grads[l][(0, *idx)]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
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


def _scaling_to_dict(scaling: AffineMap | None) -> dict | None:
    if scaling is None:
        return None
    return {"scale": scaling.scale.tolist(), "offset": scaling.offset.tolist()}


def _scaling_from_dict(data: dict | None) -> AffineMap | None:
    if data is None:
        return None
    return AffineMap(np.asarray(data["scale"]), np.asarray(data["offset"]))


def save_model(model: NetworkModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=1), encoding="utf-8")


def load_model(path: str | Path) -> NetworkModel:
    """The model stored at ``path``; MissingFile or CorruptModel names a file that
    is absent or is not a model document (bad JSON, wrong format, missing keys)."""
    try:
        return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except FileNotFoundError as exc:
        raise MissingFile(f"no model file {path}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSON errors included
        raise CorruptModel(f"{path} is not a {MODEL_FORMAT} document: {exc!r}") from exc
