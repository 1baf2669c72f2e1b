"""A minimal dense network with manual reverse-mode gradients, plus datasets.

The network is the many-parameter, stochastic-minibatch counterpart to the
analytic objectives: parameters live in one flat vector so the optimizers
drive it through the exact same stepping contract.  Only dense layers are
provided; the update rules under test act per coordinate, so dense layers
exercise them fully.

Activation conventions: tanh, or relu with the gradient at exactly 0 defined
as 0.  Losses: mean squared error against one-hot targets, or softmax
cross-entropy, both averaged over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from angular_optim.numerics import Vector

ACTIVATIONS = ("tanh", "relu")
LOSSES = ("mse", "softmax_cross_entropy")


class NonFiniteLossError(RuntimeError):
    """The loss of a batch evaluated to NaN/Inf: the run diverged."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer sizes (input, hidden..., output), activation, loss."""

    layer_sizes: tuple[int, ...]
    activation: str = "tanh"
    loss: str = "softmax_cross_entropy"

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


@dataclass(frozen=True)
class LayerSlot:
    """Where one layer's weight matrix and bias vector sit in the flat vector."""

    w_start: int
    w_shape: tuple[int, int]  # (fan_out, fan_in)
    b_start: int
    b_end: int


@dataclass
class MlpParams:
    """Flat parameter vector plus the layout that carves it into layers."""

    flat: Vector
    layout: tuple[LayerSlot, ...]

    def weights(self, i: int) -> np.ndarray:
        slot = self.layout[i]
        n = slot.w_shape[0] * slot.w_shape[1]
        return self.flat[slot.w_start : slot.w_start + n].reshape(slot.w_shape)

    def biases(self, i: int) -> np.ndarray:
        slot = self.layout[i]
        return self.flat[slot.b_start : slot.b_end]


def layout_for(spec: MlpSpec) -> tuple[LayerSlot, ...]:
    """Per-layer slots covering the flat vector exactly once, no gaps."""
    slots = []
    offset = 0
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        w_start = offset
        offset += fan_in * fan_out
        b_start = offset
        offset += fan_out
        slots.append(LayerSlot(w_start, (fan_out, fan_in), b_start, offset))
    return tuple(slots)


def n_params(spec: MlpSpec) -> int:
    return sum(
        fi * fo + fo for fi, fo in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:])
    )


def init_params(spec: MlpSpec, rng: np.random.Generator) -> MlpParams:
    """Uniform weights in +-sqrt(6/(fan_in+fan_out)); biases exactly zero."""
    layout = layout_for(spec)
    flat = np.zeros(n_params(spec), dtype=np.float64)
    for slot in layout:
        fan_out, fan_in = slot.w_shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        n = fan_in * fan_out
        flat[slot.w_start : slot.w_start + n] = rng.uniform(-limit, limit, size=n)
        # biases stay zero
    return MlpParams(flat=flat, layout=layout)


# ---------------------------------------------------------------------------
# Datasets


@dataclass
class Dataset:
    """Feature matrix (rows = samples) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature rows and labels must match in count")
        if self.labels.size:
            classes = np.unique(self.labels)
            if classes[0] != 0 or not np.array_equal(
                classes, np.arange(classes.size)
            ):
                raise ValueError("classes must be contiguous from 0")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def make_blobs(
    rng: np.random.Generator, n_per_class: int, classes: int, separation: float
) -> Dataset:
    """Unit-variance Gaussian clusters at fixed centers scaled by separation.

    Centers sit on the unit circle at angles 2*pi*c/classes and are scaled by
    ``separation``; features are 2-D.  Classes are drawn in order, so the
    dataset is a pure function of the generator's stream.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if classes < 1:
        raise ValueError("classes must be >= 1")
    feats = []
    labels = []
    for c in range(classes):
        angle = 2.0 * np.pi * c / classes
        center = separation * np.array([np.cos(angle), np.sin(angle)])
        feats.append(center + rng.normal(size=(n_per_class, 2)))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(features=np.vstack(feats), labels=np.concatenate(labels))


# ---------------------------------------------------------------------------
# Forward / backward


def _forward(params: MlpParams, spec: MlpSpec, X: np.ndarray):
    """Returns (activations per layer, pre-activations per layer)."""
    acts = [X]
    zs = []
    h = X
    last = len(params.layout) - 1
    for i in range(len(params.layout)):
        z = h @ params.weights(i).T + params.biases(i)
        zs.append(z)
        if i < last:
            h = np.tanh(z) if spec.activation == "tanh" else np.maximum(z, 0.0)
        else:
            h = z  # linear output layer; the loss applies any link function
        acts.append(h)
    return acts, zs


def _act_deriv(spec: MlpSpec, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    if spec.activation == "tanh":
        return 1.0 - h * h
    # relu: derivative at exactly 0 is defined as 0
    return (z > 0.0).astype(np.float64)


def loss_and_grad(
    params: MlpParams, spec: MlpSpec, X: np.ndarray, y: np.ndarray
) -> tuple[float, Vector]:
    """Mean batch loss and its gradient w.r.t. the flat parameter vector."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = X.shape[0]
    k = spec.layer_sizes[-1]
    acts, zs = _forward(params, spec, X)
    out = acts[-1]

    onehot = np.zeros((n, k), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    if spec.loss == "softmax_cross_entropy":
        shifted = out - out.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(n), y])))
        delta = (probs - onehot) / n
    else:  # mse against one-hot targets, summed over outputs, mean over batch
        diff = out - onehot
        loss = float(np.mean(np.sum(diff * diff, axis=1)))
        delta = 2.0 * diff / n

    if not np.isfinite(loss):
        raise NonFiniteLossError("non-finite loss")

    grad = np.zeros_like(params.flat)
    for i in range(len(params.layout) - 1, -1, -1):
        slot = params.layout[i]
        gw = delta.T @ acts[i]
        gb = delta.sum(axis=0)
        nw = slot.w_shape[0] * slot.w_shape[1]
        grad[slot.w_start : slot.w_start + nw] = gw.ravel()
        grad[slot.b_start : slot.b_end] = gb
        if i > 0:
            delta = (delta @ params.weights(i)) * _act_deriv(spec, zs[i - 1], acts[i])
    return loss, grad


def predict(params: MlpParams, spec: MlpSpec, X: np.ndarray) -> np.ndarray:
    acts, _ = _forward(params, spec, np.asarray(X, dtype=np.float64))
    return np.argmax(acts[-1], axis=1)


def accuracy(params: MlpParams, spec: MlpSpec, data: Dataset) -> float:
    """Fraction of samples whose argmax output matches the label."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(predict(params, spec, data.features) == data.labels))


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochRecord:
    epoch: int
    mean_batch_loss: float
    train_loss: float
    train_accuracy: float


def train_mlp(
    spec: MlpSpec,
    data: Dataset,
    config,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[MlpParams, list[EpochRecord]]:
    """Minibatch training with a seeded shuffle per epoch.

    The generator drives initialization first and the per-epoch shuffles
    after, so a single seed pins the whole run.  Returns the trained
    parameters and one record per epoch (mean minibatch loss during the
    epoch, then full-train loss and accuracy at the epoch's end).  A diverged
    run raises NonFiniteLossError or NonFiniteStepError.
    """
    from angular_optim.optimizers import init_state, step

    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    params = init_params(spec, rng)
    state = init_state(config, params.flat.size)
    records = []
    n = len(data)
    # divergence is handled (loss_and_grad and step raise), so overflow on an
    # exploding run must not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            batch_losses = []
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                loss, grad = loss_and_grad(
                    params, spec, data.features[idx], data.labels[idx]
                )
                batch_losses.append(loss)
                params.flat = step(state, config, params.flat, grad)
            full_loss, _ = loss_and_grad(params, spec, data.features, data.labels)
            records.append(
                EpochRecord(
                    epoch=epoch,
                    mean_batch_loss=float(np.mean(batch_losses)),
                    train_loss=full_loss,
                    train_accuracy=accuracy(params, spec, data),
                )
            )
    return params, records
