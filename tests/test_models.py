"""Network layout, hand-checked losses, finite-difference gradients, datasets."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from angular_optim import models
from angular_optim.models import (
    ACTIVATIONS,
    LOSSES,
    Dataset,
    MlpRun,
    MlpSpec,
    evaluate,
    init_params,
    layer_weights,
    layout_for,
    loss_and_grad,
    make_blobs,
    n_params,
    train_mlp,
)
from angular_optim.numerics import finite_diff_grad, make_rng, relative_error
from angular_optim.optimizers import (
    ANGLE_VARIANTS,
    RULES,
    ConfigStack,
    NonFiniteStepError,
    OptimizerConfig,
    init_state,
    step,
)


def zero_params(spec: MlpSpec) -> np.ndarray:
    return np.zeros(n_params(spec), dtype=np.float64)


def biases(params, slot):
    return params[..., slot.b_start : slot.b_end]


def record_hex(run: MlpRun) -> list[list[str]]:
    """A run's per-epoch records, each float as its exact hex."""
    return [list(map(float.hex, records.tolist()))
            for records in (run.mean_batch_loss, run.train_loss, run.train_accuracy)]


def evaluate_alone(params, spec, X, y):
    """evaluate on the one-row stack of ``params``: its loss and accuracy."""
    losses, accuracies = evaluate(params[None], spec, X, y)
    return float(losses[0]), accuracies[0]


def train_alone(spec, data, config, epochs, batch_size, rng) -> MlpRun:
    """train_mlp on the one-row stack of ``config``: its only run."""
    return train_mlp(spec, [data], config.stack, epochs, batch_size, [rng])[0]


class TestSpecAndLayout:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4,))
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4, 0, 2))
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4, 2), activation="sigmoid")
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4, 2), loss="hinge")

    def test_param_count(self):
        # [2,4,2]: 2*4 + 4 + 4*2 + 2 = 22
        assert n_params(MlpSpec(layer_sizes=(2, 4, 2))) == 22
        # [4,8,8,3]: 4*8+8 + 8*8+8 + 8*3+3 = 40 + 72 + 27 = 139
        assert n_params(MlpSpec(layer_sizes=(4, 8, 8, 3))) == 139

    def test_layout_covers_flat_vector_exactly(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2))
        layout = layout_for(spec)
        assert layout[0].w_start == 0
        assert layout[0].w_shape == (4, 2)
        assert layout[0].b_start == 8
        assert layout[0].b_end == 12
        assert layout[1].w_start == 12
        assert layout[1].w_shape == (2, 4)
        assert layout[1].b_start == 20
        assert layout[1].b_end == 22
        # the spec builds its layout once
        assert spec.layout == layout and spec.layout is spec.layout

    def test_views_share_storage(self):
        spec = MlpSpec(layer_sizes=(2, 3, 2))
        params = zero_params(spec)
        layer_weights(params, spec.layout[0])[1, 0] = 7.0
        assert params[2] == 7.0
        stack = np.zeros((2, n_params(spec)))
        layer_weights(stack, spec.layout[1])[1, 1, 2] = 5.0
        assert layer_weights(stack, spec.layout[1]).shape == (2, 2, 3)
        assert stack[1, spec.layout[1].w_start + 5] == 5.0

    def test_init_params(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3))
        params = init_params(spec, make_rng(0))
        assert params.shape == (n_params(spec),)
        for slot, (fan_in, fan_out) in zip(spec.layout, [(2, 4), (4, 3)]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer_weights(params, slot)) <= limit)
            assert np.array_equal(biases(params, slot), np.zeros(fan_out))
        again = init_params(spec, make_rng(0))
        assert np.array_equal(params, again)


class TestLosses:
    def test_zero_network_cross_entropy_is_log_k(self):
        spec = MlpSpec(layer_sizes=(2, 3, 2))
        params = zero_params(spec)
        X = np.array([[0.5, -1.0], [2.0, 0.0]])
        loss, _ = loss_and_grad(params, spec, X, np.array([0, 1]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zero_network_mse_is_one(self):
        spec = MlpSpec(layer_sizes=(2, 3, 3), loss="mse")
        params = zero_params(spec)
        X = np.array([[1.0, 2.0]])
        loss, _ = loss_and_grad(params, spec, X, np.array([2]))
        assert loss == 1.0

    def test_softmax_shift_invariance(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3))
        base = init_params(spec, make_rng(1))
        shifted = base.copy()
        biases(shifted, spec.layout[1])[:] += 5.0
        X = make_rng(2).normal(size=(6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        l0, _ = loss_and_grad(base, spec, X, y)
        l1, _ = loss_and_grad(shifted, spec, X, y)
        assert l0 == pytest.approx(l1, abs=1e-12)

    def test_batch_duplication_invariance(self):
        spec = MlpSpec(layer_sizes=(3, 5, 2))
        params = init_params(spec, make_rng(3))
        X = make_rng(4).normal(size=(4, 3))
        y = np.array([0, 1, 1, 0])
        l1, g1 = loss_and_grad(params, spec, X, y)
        l2, g2 = loss_and_grad(params, spec, np.vstack([X, X]), np.concatenate([y, y]))
        assert l1 == pytest.approx(l2, abs=1e-14)
        assert np.allclose(g1, g2, atol=1e-14)

    def test_empty_batch_rejected(self):
        spec = MlpSpec(layer_sizes=(2, 2))
        with pytest.raises(ValueError):
            loss_and_grad(zero_params(spec), spec, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_relu_derivative_at_zero_is_zero(self):
        # all-zero [1,1,1] relu net: the hidden pre-activation is exactly 0,
        # so no gradient flows back to the first layer
        spec = MlpSpec(layer_sizes=(1, 1, 1), activation="relu", loss="mse")
        params = zero_params(spec)
        _, grad = loss_and_grad(params, spec, np.array([[1.0]]), np.array([0]))
        slot0 = spec.layout[0]
        assert np.array_equal(grad[slot0.w_start : slot0.b_end], np.zeros(2))
        # output bias still learns: d/db of (out - 1)^2 at out = 0 is -2
        assert grad[spec.layout[1].b_start] == -2.0


def frozen_loss(spec, out, y):
    """models._loss as it was before its output-axis reductions became
    column folds: the bitwise reference for the folded one."""
    n, k = out.shape[-2:]
    onehot = np.eye(k)[y]
    if spec.loss == "softmax_cross_entropy":
        expz = np.exp(out - out.max(axis=-1, keepdims=True))
        probs = expz / expz.sum(axis=-1, keepdims=True)
        picked = np.take_along_axis(probs, y[..., None], axis=-1)[..., 0]
        return -np.mean(np.log(picked), axis=-1), (probs - onehot) / n
    diff = out - onehot
    return np.mean(np.sum(diff * diff, axis=-1), axis=-1), 2.0 * diff / n


# one NaN bit pattern: with two in a row, which one propagates depends on the
# order of the operands, and a row with a NaN loss drops out of training
# before its loss or gradient reaches an artifact
_OUTPUT_VALUES = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]),
)


@st.composite
def outputs_and_labels(draw):
    """(B, K) or (R, B, K) outputs and labels in [0, K), K on both sides of
    the 8-column switch of numpy's summation."""
    k = draw(st.integers(1, 12))
    shape = (*draw(st.sampled_from([(), (1,), (2,), (3,)])), draw(st.integers(1, 6)))
    out = draw(hnp.arrays(np.float64, (*shape, k), elements=_OUTPUT_VALUES))
    y = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, k - 1)))
    return out, y


class TestFoldedLoss:
    @settings(max_examples=300, deadline=None)
    @given(case=outputs_and_labels(), loss=st.sampled_from(LOSSES))
    def test_matches_frozen_loss_bitwise(self, case, loss):
        out, y = case
        spec = MlpSpec((2, out.shape[-1]), loss=loss)
        with np.errstate(all="ignore"):
            value, grad = models._loss(spec, out, y)
            want_value, want_grad = frozen_loss(spec, out, y)
            no_grad = models._loss(spec, out, y, grad=False)
        assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert np.asarray(no_grad[0]).tobytes() == np.asarray(value).tobytes()
        assert no_grad[1] is None

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0]])
    def test_label_without_output_unit_rejected(self, labels):
        spec = MlpSpec(layer_sizes=(2, 3))
        with pytest.raises(ValueError, match="output layer has 3 units"):
            loss_and_grad(zero_params(spec), spec, np.zeros((2, 2)), np.array(labels))

    def test_training_rejects_more_classes_than_outputs(self):
        spec = MlpSpec(layer_sizes=(2, 3))
        data = make_blobs(make_rng(0), 2, 4, 4.0)
        with pytest.raises(ValueError, match="need 4 classes"):
            train_alone(spec, data, OptimizerConfig(), 1, 4, make_rng(0))


def frozen_forward(params, spec, X):
    """models._forward as it was before its temporaries went in place: the
    bitwise reference for the in-place one."""
    acts = [X]
    last = len(spec.layout) - 1
    for i, slot in enumerate(spec.layout):
        z = (np.matmul(acts[-1], layer_weights(params, slot).swapaxes(-1, -2))
             + biases(params, slot)[..., None, :])
        if i < last:
            z = np.tanh(z) if spec.activation == "tanh" else np.maximum(z, 0.0)
        acts.append(z)
    return acts


def frozen_act_deriv(spec, h):
    if spec.activation == "tanh":
        return 1.0 - h * h
    return (h > 0.0).astype(np.float64)


def frozen_loss_and_grad(params, spec, X, y):
    """models.loss_and_grad as it was before its batch-major bias sums and
    in-place temporaries, scored by frozen_loss."""
    acts = frozen_forward(params, spec, X)
    loss, delta = frozen_loss(spec, acts[-1], y)
    grad = np.empty_like(params)
    for i in range(len(spec.layout) - 1, -1, -1):
        slot = spec.layout[i]
        gw = np.matmul(delta.swapaxes(-1, -2), acts[i])
        grad[..., slot.w_start : slot.b_start] = gw.reshape(*gw.shape[:-2], -1)
        grad[..., slot.b_start : slot.b_end] = delta.sum(axis=-2)
        if i > 0:
            delta = np.matmul(delta, layer_weights(params, slot)) * frozen_act_deriv(spec, acts[i])
    return (float(loss) if params.ndim == 1 else loss), grad


def frozen_evaluate(params, spec, X, y):
    """models.evaluate of one run as it was before it took stacks."""
    out = frozen_forward(params, spec, X)[-1]
    accuracy = np.count_nonzero(np.argmax(out, axis=-1) == y) / y.size
    return float(frozen_loss(spec, out, y)[0]), accuracy


def random_network(layer_sizes, activation, loss, rows, batch, seed=0):
    """Normal params (one run, or a stack of ``rows``), inputs and labels."""
    spec = MlpSpec(layer_sizes, activation, loss)
    rng = make_rng(seed)
    lead = () if rows is None else (rows,)
    params = rng.normal(size=(*lead, n_params(spec)))
    X = rng.normal(size=(*lead, batch, layer_sizes[0]))
    y = rng.integers(0, layer_sizes[-1], size=(*lead, batch))
    return spec, params, X, y


class TestFrozenForwardBackward:
    """loss_and_grad and evaluate keep the bits of the frozen forms, alone and
    on stacks, for hidden widths on both sides of the width-1 reduction."""

    @pytest.mark.parametrize("rows", [None, 1, 5, 30], ids=lambda r: f"R{r or '-lone'}")
    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("hidden", [1, 2, 3, 16])
    @pytest.mark.parametrize("classes", [1, 3])
    def test_loss_and_grad_match_frozen_bitwise(self, rows, batch, hidden, classes):
        for activation in ACTIVATIONS:
            for loss in LOSSES:
                spec, params, X, y = random_network(
                    (3, hidden, hidden, classes), activation, loss, rows, batch)
                value, grad = loss_and_grad(params, spec, X, y)
                want_value, want_grad = frozen_loss_and_grad(params, spec, X, y)
                assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
                assert grad.tobytes() == want_grad.tobytes()
                assert type(value) is type(want_value)

    @pytest.mark.parametrize("hidden", [1, 16])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_lone_evaluate_matches_frozen(self, hidden, loss):
        spec, params, X, y = random_network((2, hidden, 3), "tanh", loss, None, 40)
        got, want = evaluate_alone(params, spec, X, y), frozen_evaluate(params, spec, X, y)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
        assert list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize("hidden", [1, 16])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_stacked_evaluate_matches_lone_calls(self, hidden, loss):
        spec, params, X, y = random_network((2, hidden, 3), "tanh", loss, 4, 40, seed=5)
        params[1] = 0.0  # every logit ties: argmax takes class 0
        # classes 1 and 2 tie on every sample of row 2
        weights, bias = layer_weights(params, spec.layout[1]), biases(params, spec.layout[1])
        weights[2, 2], bias[2, 2] = weights[2, 1], bias[2, 1]
        X, y = X[0], y[0]  # one seed's data
        for rows in (slice(0, 1), slice(None)):
            stacked = params[rows]
            losses, accuracies = evaluate(stacked, spec, X, y)
            assert losses.shape == accuracies.shape == (len(stacked),)
            for row, flat in enumerate(stacked):
                want = frozen_evaluate(flat, spec, X, y)
                assert [float.hex(losses[row]), float.hex(accuracies[row])] == list(map(float.hex, want))
        assert accuracies[1] == np.count_nonzero(y == 0) / y.size

    def test_width_one_bias_keeps_its_own_fold(self):
        # numpy folds a width-1 delta's batch pairwise; a batch-major sum folds
        # it left to right, and on this data the two differ in the last bits
        spec, params, X, y = random_network((2, 1, 1), "tanh", "mse", 30, 32)
        _, grad = loss_and_grad(params, spec, X, y)
        assert grad.tobytes() == frozen_loss_and_grad(params, spec, X, y)[1].tobytes()
        delta = frozen_loss(spec, frozen_forward(params, spec, X)[-1], y)[1]
        batch_major = np.add.reduce(np.ascontiguousarray(np.moveaxis(delta, -2, 0)), axis=0)
        assert batch_major.tobytes() != delta.sum(axis=-2).tobytes()


class TestGradCheck:
    @pytest.mark.parametrize(
        "activation,loss", [("tanh", "softmax_cross_entropy"), ("tanh", "mse")]
    )
    def test_against_finite_differences(self, activation, loss):
        spec = MlpSpec(layer_sizes=(4, 8, 8, 3), activation=activation, loss=loss)
        params = init_params(spec, make_rng(0))
        X = make_rng(1).normal(size=(8, 4))
        y = np.arange(8) % 3
        _, analytic = loss_and_grad(params, spec, X, y)
        fd = finite_diff_grad(lambda flat: loss_and_grad(flat, spec, X, y)[0], params, h=1e-6)
        assert relative_error(analytic, fd) <= 1e-4

    def test_relu_against_finite_differences(self):
        # relu kinks make FD fragile in general; this seed keeps all hidden
        # pre-activations comfortably away from zero
        spec = MlpSpec(layer_sizes=(3, 6, 2), activation="relu")
        params = init_params(spec, make_rng(2))
        X = make_rng(3).normal(size=(6, 3)) + 0.5
        y = np.array([0, 1, 0, 1, 0, 1])
        _, analytic = loss_and_grad(params, spec, X, y)
        fd = finite_diff_grad(lambda flat: loss_and_grad(flat, spec, X, y)[0], params, h=1e-6)
        assert relative_error(analytic, fd) <= 1e-4


class TestDatasets:
    def test_blob_shapes_and_labels(self):
        data = make_blobs(make_rng(0), n_per_class=50, classes=3, separation=4.0)
        assert data.features.shape == (150, 2)
        assert np.array_equal(np.unique(data.labels), [0, 1, 2])
        assert np.array_equal(data.labels[:50], np.zeros(50, dtype=np.int64))

    def test_blobs_deterministic(self):
        a = make_blobs(make_rng(7), 20, 3, 4.0)
        b = make_blobs(make_rng(7), 20, 3, 4.0)
        assert np.array_equal(a.features, b.features)

    def test_blobs_separable_at_high_separation(self):
        data = make_blobs(make_rng(0), 100, 3, 10.0)
        centers = 10.0 * np.array(
            [[np.cos(2 * np.pi * c / 3), np.sin(2 * np.pi * c / 3)] for c in range(3)]
        )
        d2 = ((data.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d2, axis=1), data.labels)

    def test_blob_means_near_centers(self):
        data = make_blobs(make_rng(1), 2000, 2, 5.0)
        mean0 = data.features[data.labels == 0].mean(axis=0)
        assert np.allclose(mean0, [5.0, 0.0], atol=0.1)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros(4), labels=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((4, 2)), labels=np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 2]))

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2], [10**12, 0]],
                             ids=["negative", "gap", "huge"])
    def test_labels_not_contiguous_from_0(self, labels):
        # the rule holds without memory that grows with the largest label
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^classes must be contiguous from 0$"):
                Dataset(features=np.zeros((2, 2)), labels=np.array(labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("labels", [[0, 0], [], [2, 0, 1, 1]],
                             ids=["one-class", "empty", "unsorted"])
    def test_labels_contiguous_from_0(self, labels):
        data = Dataset(features=np.zeros((len(labels), 2)), labels=np.array(labels, dtype=int))
        assert data.labels.tolist() == labels


class TestPredictAndAccuracy:
    def test_zero_network_predicts_class_zero(self):
        spec = MlpSpec(layer_sizes=(2, 3))
        params = zero_params(spec)
        _, acc = evaluate_alone(params, spec, np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([0, 0]))
        assert acc == 1.0

    def test_accuracy_values(self):
        spec = MlpSpec(layer_sizes=(2, 2))
        params = zero_params(spec)
        data = Dataset(features=np.zeros((4, 2)), labels=np.array([0, 0, 1, 1]))
        assert evaluate_alone(params, spec, data.features, data.labels)[1] == 0.5

    @pytest.mark.parametrize("labels", [[3, 1, 2, 0, 1, 0], [0, 1, 2, -1, 1, 0]])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_label_without_output_unit_rejected(self, labels, loss):
        # the loss picks each sample's cell by a flat index, where an
        # out-of-range label would land on a neighbour's cell
        spec = MlpSpec(layer_sizes=(2, 3), loss=loss)
        with pytest.raises(ValueError, match="output layer has 3 units"):
            evaluate_alone(zero_params(spec), spec, np.zeros((6, 2)), np.array(labels))

    def test_accuracy_empty_rejected(self):
        spec = MlpSpec(layer_sizes=(2, 2))
        data = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate_alone(zero_params(spec), spec, data.features, data.labels)


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(make_rng(0), 30, 3, 4.0)


class TestTraining:
    @pytest.mark.parametrize("rule", RULES)
    def test_loss_decreases_for_every_rule(self, blobs, rule):
        spec = MlpSpec(layer_sizes=(2, 8, 3))
        lr = 0.01 if rule in ("sgd", "sgdm") else 1e-3
        config = OptimizerConfig(rule=rule, alpha=lr)
        run = train_alone(spec, blobs, config, epochs=5, batch_size=16, rng=make_rng(0))
        # one record per epoch
        records = (run.mean_batch_loss, run.train_loss, run.train_accuracy)
        assert [r.shape for r in records] == [(5,)] * 3
        assert run.train_loss[-1] < run.train_loss[0]
        assert np.isfinite(run.train_loss).all()
        assert run.params.shape == (n_params(spec),)

    def test_training_deterministic(self, blobs):
        spec = MlpSpec(layer_sizes=(2, 8, 3))
        config = OptimizerConfig(rule="angulargrad", alpha=1e-3)
        one = train_alone(spec, blobs, config, epochs=3, batch_size=16, rng=make_rng(4))
        two = train_alone(spec, blobs, config, epochs=3, batch_size=16, rng=make_rng(4))
        assert np.array_equal(one.params, two.params)
        assert one.train_loss.tolist() == two.train_loss.tolist()
        three = train_alone(spec, blobs, config, epochs=3, batch_size=16, rng=make_rng(5))
        assert not np.array_equal(one.params, three.params)

    def test_record_fields(self, blobs):
        spec = MlpSpec(layer_sizes=(2, 8, 3))
        config = OptimizerConfig(rule="adam", alpha=1e-3)
        run = train_alone(spec, blobs, config, epochs=2, batch_size=32, rng=make_rng(0))
        records = (run.mean_batch_loss, run.train_loss, run.train_accuracy)
        assert all(r.dtype == np.float64 and r.shape == (2,) for r in records)
        assert 0.0 <= run.train_accuracy[0] <= 1.0
        assert run.mean_batch_loss[0] > 0.0

    def test_bad_arguments(self, blobs):
        spec = MlpSpec(layer_sizes=(2, 8, 3))
        config = OptimizerConfig()
        with pytest.raises(ValueError):
            train_alone(spec, blobs, config, epochs=0, batch_size=16, rng=make_rng(0))
        with pytest.raises(ValueError):
            train_alone(spec, blobs, config, epochs=1, batch_size=0, rng=make_rng(0))
        # the input layer must match the data's features, as the output layer its labels
        with pytest.raises(ValueError, match=r"^layer_sizes\[0\] is 3, but the data have 2 "):
            train_alone(MlpSpec((3, 8, 3)), blobs, config, epochs=1, batch_size=16,
                        rng=make_rng(0))


class TestAbortedRow:
    def test_row_that_aborts_after_epoch_one_keeps_its_records(self):
        # HGD at omega 0.5 drives seed 1's rate up until a minibatch loss
        # overflows in epoch 45 (29 minibatches an epoch); seed 0 runs all 50
        spec = MlpSpec((2, 16, 3))
        config = OptimizerConfig(rule="adam", alpha=0.01, hypergrad_omega=0.5)

        def train(epochs):
            rngs = [make_rng(0), make_rng(1)]
            data = [make_blobs(g, 300, 3, 4.0) for g in rngs]
            return train_mlp(spec, data, ConfigStack([config] * 2), epochs, 32, rngs)

        finished, aborted = train(50)
        assert finished.status == "ok"
        assert all(len(records) == 50 for records in record_hex(finished))
        assert aborted.status == "aborted: non-finite loss at epoch 45, step 1283"
        # it keeps exactly the 44 epochs it finished, those of the same run
        # stopped before epoch 45
        stopped = train(44)[1]
        assert stopped.status == "ok"
        assert all(len(records) == 44 for records in record_hex(aborted))
        assert record_hex(aborted) == record_hex(stopped)


    @pytest.mark.filterwarnings("error")
    def test_exploding_rates_abort_without_a_warning(self):
        # sgd at 1.7e308 overflows in its first step, at 1e3 in its second
        # minibatch loss; the angular rows run on
        spec = MlpSpec((2, 8, 3))
        rngs = [make_rng(0), make_rng(1)]
        data = [make_blobs(g, 20, 3, 4.0) for g in rngs]
        configs = [OptimizerConfig(rule="angulargrad", alpha=0.01),
                   OptimizerConfig(rule="sgd", alpha=1.7e308),
                   OptimizerConfig(rule="sgd", alpha=1e3)]
        runs = train_mlp(spec, data, ConfigStack([c for c in configs for _ in rngs]), 3, 8, rngs)
        assert [(r.status, len(r.train_loss)) for r in runs] == [
            ("ok", 3), ("ok", 3),
            ("aborted: non-finite parameter at iteration 1, coordinate 9, rule sgd", 0),
            *[("aborted: non-finite loss at epoch 1, step 2", 0)] * 3,
        ]


class Diverged(RuntimeError):
    """reference_training's own abort: a NaN/Inf batch or full-train loss, or
    a hypergradient rate that is not positive."""


def finite_loss_and_grad(params, spec, X, y, where):
    loss, grad = loss_and_grad(params, spec, X, y)
    if not np.isfinite(loss):
        raise Diverged(f"non-finite loss at {where}")
    return loss, grad


@mock.patch.object(models, "_loss", frozen_loss)
def reference_training(spec, data, config, epochs, batch_size, rng) -> MlpRun:
    """The one-run loop on lone vectors, scored by frozen_loss: lone
    loss_and_grad and step calls, then a full loss_and_grad and the argmax
    accuracy at each epoch's end.  A run that diverges (Diverged or
    NonFiniteStepError) stops with the records of the epochs it reached the
    end of and why it stopped."""
    params = init_params(spec, rng)
    state = init_state(config, params.size)
    records = []
    n = data.labels.size
    try:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            losses = []
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for lo in range(0, n, batch_size):
                    idx = order[lo : lo + batch_size]
                    X, y = data.features[idx], data.labels[idx]
                    where = f"epoch {epoch}, step {state.t + 1}"
                    loss, grad = finite_loss_and_grad(params, spec, X, y, where)
                    losses.append(loss)
                    params = step(state, config, params, grad)
                    if config.hypergrad_omega > 0 and state.alpha_t[0, 0] <= 0:
                        raise Diverged(f"non-positive learning rate at iteration {state.t}")
                full_loss, _ = loss_and_grad(params, spec, data.features, data.labels)
                out = models._forward(params, spec, data.features)[-1]
                acc = float(np.mean(np.argmax(out, axis=1) == data.labels))
            records.append((float(np.mean(losses)), full_loss, acc))
            if not np.isfinite(full_loss):
                raise Diverged(f"non-finite loss at epoch {epoch}, step {state.t}")
    except (Diverged, NonFiniteStepError) as err:
        params, status = None, f"aborted: {err}"
    else:
        status = "ok"
    # one (mean batch loss, train loss, accuracy) row per epoch, as three columns
    return MlpRun(params, *np.array(records).reshape(-1, 3).T, status)


_MLP_CONFIGS = st.fixed_dictionaries({
    "rule": st.sampled_from(RULES),
    # up to rates that diverge on a non-finite loss or a non-finite parameter
    "alpha": st.one_of(st.floats(-4.0, 6.0).map(lambda e: 10.0**e), st.just(1.7e308)),
    "beta1": st.sampled_from([0.0, 0.9]),
    "beta2": st.sampled_from([0.9, 0.999]),
    "momentum_gamma": st.sampled_from([0.0, 0.9]),
    "weight_decay_lambda": st.sampled_from([0.0, 0.0, 0.01]),
    "hypergrad_omega": st.sampled_from([0.0, 0.0, 1e-6, 1e-2]),
    "angle_variant": st.sampled_from(ANGLE_VARIANTS),
    "gc_enabled": st.booleans(),
})


class TestStackedTraining:
    """Each row of a stacked train_mlp equals the same run trained alone: as a
    one-row stack and by reference_training."""

    @settings(max_examples=60, deadline=None)
    @given(
        configs=st.lists(_MLP_CONFIGS, min_size=1, max_size=4),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=3, unique=True),
        hidden=st.lists(st.integers(1, 8), max_size=2),
        classes=st.sampled_from([1, 2, 3, 4, 9]),
        activation=st.sampled_from(ACTIVATIONS),
        loss=st.sampled_from(LOSSES),
        n_per_class=st.integers(1, 10),
        batch_size=st.integers(1, 20),
        epochs=st.integers(1, 4),
    )
    def test_rows_match_lone_runs(
        self, configs, seeds, hidden, classes, activation, loss, n_per_class,
        batch_size, epochs,
    ):
        spec = MlpSpec((2, *hidden, classes), activation, loss)
        configs = [OptimizerConfig(**c) for c in configs]

        def blobs(rng):
            return make_blobs(rng, n_per_class, classes, 4.0)

        def alone(config, seed, train):
            rng = make_rng(seed)
            return train(spec, blobs(rng), config, epochs, batch_size, rng)

        rngs = [make_rng(seed) for seed in seeds]
        stack = ConfigStack(c for c in configs for _ in seeds)
        runs = iter(train_mlp(spec, [blobs(g) for g in rngs], stack, epochs, batch_size, rngs))
        for config in configs:
            for seed, run in zip(seeds, runs):
                for train in (train_alone, reference_training):
                    lone = alone(config, seed, train)
                    assert run.status == lone.status
                    assert record_hex(run) == record_hex(lone)
                    if lone.status == "ok":
                        assert run.params.tobytes() == lone.params.tobytes()
        assert next(runs, None) is None
