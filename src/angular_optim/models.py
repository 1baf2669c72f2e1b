"""A minimal dense network with manual reverse-mode gradients, plus datasets.

The network is the many-parameter, stochastic-minibatch counterpart to the
analytic objectives: parameters live in one plain (P,) vector so the
optimizers drive it through the exact same stepping contract, and the spec's
``layout`` (built once per spec) carves it into layers.  Only
dense layers are provided; the update rules under test act per coordinate,
so dense layers exercise them fully.

The run axis: R runs train as one stack, an (R, P) array whose weights are
(R, fan_out, fan_in) views, through stacked matmuls and per-row reductions
over the last axes.  A run whose loss or step turns non-finite drops out of
the stack through ``optimizers.Runs``.  Training and ``evaluate`` take only
stacks (a lone run is a one-row stack), and each row is bit for bit its run
trained alone.  The per-epoch records are (R, epochs) arrays, and each run
keeps its row's first columns, one per epoch it finished.
Each minibatch gathers every row's samples from one (S * n, F) table of all
seeds' data, and each epoch ends with one evaluation per seed of that seed's
live rows, a (k, P) stack on its (n, F) data.  The forward and backward
passes work in place where they can (``z += b``, ``np.tanh(z, out=z)``,
``delta *= deriv``): each element meets the same ufunc in the same order as
in the out-of-place form, so the bits stay the same.

Activation conventions: tanh, or relu with the gradient at exactly 0 defined
as 0.  Losses: mean squared error against one-hot targets, or softmax
cross-entropy, both averaged over the batch.  Output-axis reductions are
column folds; sums fold below 8 columns only, where numpy's own sum folds too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from angular_optim.numerics import Vector

ACTIVATIONS = ("tanh", "relu")
LOSSES = ("mse", "softmax_cross_entropy")


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

    @cached_property
    def layout(self) -> tuple[LayerSlot, ...]:
        """Per-layer slots covering the flat vector exactly once, no gaps;
        built once per spec."""
        slots = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w_start = offset
            offset += fan_in * fan_out
            b_start = offset
            offset += fan_out
            slots.append(LayerSlot(w_start, (fan_out, fan_in), b_start, offset))
        return tuple(slots)


@dataclass(frozen=True)
class LayerSlot:
    """Where one layer's weight matrix and bias vector sit in the flat vector."""

    w_start: int
    w_shape: tuple[int, int]  # (fan_out, fan_in)
    b_start: int
    b_end: int


def layer_weights(params: np.ndarray, slot: LayerSlot) -> np.ndarray:
    """The (..., fan_out, fan_in) weight view of a (P,) vector or an (R, P)
    stack; the biases are the slice ``params[..., slot.b_start : slot.b_end]``."""
    block = params[..., slot.w_start : slot.b_start]
    return block.reshape(*block.shape[:-1], *slot.w_shape)


def n_params(spec: MlpSpec) -> int:
    return spec.layout[-1].b_end


def init_params(spec: MlpSpec, rng: np.random.Generator) -> Vector:
    """Uniform weights in +-sqrt(6/(fan_in+fan_out)); biases exactly zero."""
    flat = np.zeros(n_params(spec), dtype=np.float64)
    for slot in spec.layout:
        fan_out, fan_in = slot.w_shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        flat[slot.w_start : slot.b_start] = rng.uniform(-limit, limit, size=fan_in * fan_out)
    return flat


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
            # sorted, they start at 0 and step by at most 1: np.unique would
            # import numpy.ma, and a bincount allocates up to the largest label
            ranked = np.sort(self.labels, axis=None)
            if ranked[0] != 0 or (np.diff(ranked) > 1).any():
                raise ValueError("classes must be contiguous from 0")


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


def _forward(params: np.ndarray, spec: MlpSpec, X: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, the input first and the linear output last."""
    acts = [X]
    last = len(spec.layout) - 1
    for i, slot in enumerate(spec.layout):
        z = np.matmul(acts[-1], layer_weights(params, slot).swapaxes(-1, -2))
        z += params[..., None, slot.b_start : slot.b_end]
        if i < last:
            if spec.activation == "tanh":
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        acts.append(z)  # the loss applies any link function to the output
    return acts


def _act_deriv(spec: MlpSpec, h: np.ndarray) -> np.ndarray:
    """Derivative of the activation at its output h."""
    if spec.activation == "tanh":
        hh = h * h
        return np.subtract(1.0, hh, out=hh)
    # relu: h > 0 exactly where z > 0, so the derivative at 0 is 0
    return (h > 0.0).astype(np.float64)


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` over the last axis as a left fold of its columns (numpy loops per
    sample on so short an axis).  Exact for np.maximum; np.add keeps a.sum's bits
    only below 8 columns, so wider sums reduce: for bit identity, not speed."""
    if ufunc is np.add and a.shape[-1] >= 8:
        return np.add.reduce(a, axis=-1)
    acc = a[..., 0]
    for j in range(1, a.shape[-1]):
        acc = ufunc(acc, a[..., j])
    return acc


def _check_labels(y: np.ndarray, k: int) -> None:
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ValueError(f"labels from {int(y.min())} need {int(y.max()) + 1} classes, "
                         f"but the output layer has {k} units")


def _loss(spec: MlpSpec, out: np.ndarray, y: np.ndarray, grad: bool = True):
    """Mean loss over the batch axis of outputs (..., B, K) against labels
    (..., B) in [0, K), and if ``grad`` its gradient w.r.t. the outputs."""
    n, k = out.shape[-2:]
    # each sample's label cell in the flattened outputs (the labels are
    # checked: an out-of-range one would pick a neighbour's cell)
    at = np.arange(y.size) * k + y.reshape(-1)
    # one-hot targets subtract 1.0 at the label cells and (exactly) nothing
    # elsewhere, so the flat cells ``at`` of one buffer take them in place
    if spec.loss == "softmax_cross_entropy":
        probs = np.subtract(out, _fold(np.maximum, out)[..., None])
        np.exp(probs, out=probs)
        probs /= _fold(np.add, probs)[..., None]
        flat = probs.reshape(-1)
        loss = -(np.add.reduce(np.log(flat[at].reshape(y.shape)), axis=-1) / n)
        if not grad:
            return loss, None
        flat[at] -= 1.0
        probs /= n
        return loss, probs
    # mse against one-hot targets, summed over outputs, mean over batch
    diff = out.copy()
    diff.reshape(-1)[at] -= 1.0
    loss = np.add.reduce(_fold(np.add, diff * diff), axis=-1) / n
    if not grad:
        return loss, None
    diff *= 2.0
    diff /= n
    return loss, diff


def loss_and_grad(
    params: np.ndarray, spec: MlpSpec, X: np.ndarray, y: np.ndarray
) -> tuple[float, Vector]:
    """Mean batch loss and its gradient w.r.t. the flat parameter vector.

    (R, P) parameters with (R, B, F) inputs and (R, B) labels give R losses
    and an (R, P) gradient; a lone call gives a float loss and checks its labels.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[-2] == 0:
        raise ValueError("batch must be non-empty")
    lone = params.ndim == 1
    if lone:  # train_mlp checks its labels once per dataset
        _check_labels(y, spec.layer_sizes[-1])
    acts = _forward(params, spec, X)
    loss, delta = _loss(spec, acts[-1], y)

    grad = np.empty_like(params)
    for i in range(len(spec.layout) - 1, -1, -1):
        slot = spec.layout[i]
        gw = np.matmul(delta.swapaxes(-1, -2), acts[i])
        grad[..., slot.w_start : slot.b_start] = gw.reshape(*gw.shape[:-2], -1)
        if lone or delta.shape[-1] < 2:
            grad[..., slot.b_start : slot.b_end] = delta.sum(axis=-2)
        else:
            # numpy sums a stacked delta's batch axis left to right when it is
            # at least 2 wide, as a batch-major reduce does, only faster; one
            # column wide it folds the batch pairwise, so that stays a sum
            np.add.reduce(np.ascontiguousarray(delta.swapaxes(0, 1)), axis=0,
                          out=grad[..., slot.b_start : slot.b_end])
        if i > 0:
            delta = np.matmul(delta, layer_weights(params, slot))
            delta *= _act_deriv(spec, acts[i])
    return (float(loss) if lone else loss), grad


def evaluate(params: np.ndarray, spec: MlpSpec, X: np.ndarray, y: np.ndarray):
    """Loss and argmax accuracy on all of (X, y), with no gradient, of each row
    of (k, P) params on the same data, as arrays of k."""
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    y = np.asarray(y)
    _check_labels(y, spec.layer_sizes[-1])
    out = _forward(params, spec, X)[-1]
    accuracy = np.count_nonzero(np.argmax(out, axis=-1) == y, axis=-1) / n
    return _loss(spec, out, np.broadcast_to(y, out.shape[:-1]), grad=False)[0], accuracy


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class MlpRun:
    """One row of a trained stack: its params where it ended or aborted, and
    for each epoch it finished its mean minibatch loss, then its full-train
    loss and accuracy at the epoch's end."""

    params: Vector
    mean_batch_loss: np.ndarray
    train_loss: np.ndarray
    train_accuracy: np.ndarray
    status: str = "ok"


def train_mlp(spec: MlpSpec, datasets, stack, epochs: int, batch_size: int, rngs) -> list[MlpRun]:
    """Minibatch training with a seeded shuffle per epoch of a stack of runs.

    Takes a Dataset and a Generator per seed and a ConfigStack of (optimizer,
    seed) rows, row r on seed r % S, and returns an MlpRun per row: its records
    of each epoch it reached the end of and status "ok", or why the row aborted.
    Each seed's generator draws the init, then a shuffle per epoch, for all
    its rows; each minibatch makes one loss_and_grad and one step call, and a
    row whose loss or step turns non-finite drops out.  A loss status names
    the epoch and the step: the step a minibatch's loss was for, or the last
    step before the epoch's full-train loss.
    """
    from angular_optim.optimizers import Runs, nonfinite_rows

    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    n_runs, seeds = len(stack.configs), len(rngs)
    if not seeds or n_runs % seeds or len(datasets) != seeds:
        raise ValueError("need one dataset and one generator per seed, and runs for each")
    inputs = np.stack([d.features for d in datasets])
    labels = np.stack([d.labels for d in datasets])
    _check_labels(labels, spec.layer_sizes[-1])
    n, width = inputs.shape[1:]
    if width != spec.layer_sizes[0]:
        raise ValueError(f"layer_sizes[0] is {spec.layer_sizes[0]}, but the data have "
                         f"{width} features per sample")
    # every seed's samples in one (S * n, F) table: seed s's sample i is row s * n + i
    flat_inputs, flat_labels = inputs.reshape(-1, width), labels.reshape(-1)
    seed_of = np.arange(n_runs) % seeds
    runs = Runs(stack, np.array([init_params(spec, g) for g in rngs])[seed_of])
    mean_batch_loss, train_loss, train_accuracy = np.empty((3, n_runs, epochs))
    finished = np.zeros(n_runs, dtype=np.int64)  # each run's epochs with records
    n_batches = -(-n // batch_size)
    diverged = lambda epoch, step: f"non-finite loss at epoch {epoch}, step {step}"

    # divergence is handled (the row drops out), so overflow on an exploding
    # run must not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, epochs + 1):
            orders = np.array([g.permutation(n) for g in rngs]) + (np.arange(seeds) * n)[:, None]
            batch_losses = np.empty((n_runs, n_batches))
            for j, lo in enumerate(range(0, n, batch_size)):
                at = orders[seed_of[runs.live], lo : lo + batch_size]
                loss, grad = loss_and_grad(runs.params, spec, np.take(flat_inputs, at, axis=0),
                                           np.take(flat_labels, at))
                batch_losses[runs.live, j] = loss
                # a row's non-finite loss stops it before its step
                failed = nonfinite_rows(loss, diverged(epoch, runs.state.t + 1))
                runs.params = runs.step(grad, failed)
                if not runs.live.size:
                    break
            live, col = runs.live, epoch - 1
            mean_batch_loss[live, col] = np.add.reduce(batch_losses[live], axis=1) / n_batches
            # one evaluate per seed on its k live rows: each temporary holds k x n
            # x widest-layer floats, 0.69 MB at the default against 0.12 MB row by row
            for s in range(seeds):
                rows = np.flatnonzero(seed_of[live] == s)
                if rows.size:
                    train_loss[live[rows], col], train_accuracy[live[rows], col] = evaluate(
                        runs.params[rows], spec, inputs[s], labels[s])
            finished[live] = epoch
            if failed := nonfinite_rows(train_loss[live, col], diverged(epoch, runs.state.t)):
                runs.drop(failed, runs.state.t)
            if not runs.live.size:
                break
    runs.finish()
    return [MlpRun(final, mean_batch_loss[run, :done], train_loss[run, :done],
                   train_accuracy[run, :done], status)
            for run, (final, done, status) in enumerate(zip(runs.final, finished.tolist(),
                                                              runs.status))]
