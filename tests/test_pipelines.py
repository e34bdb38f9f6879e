"""Checkpoint selection, extended-space deferral training, and committee
feature construction."""

import numpy as np
import pytest

from deferbench import nnet, pipelines
from deferbench.errors import (
    ConfigError,
    DeferBenchError,
    InputShapeError,
    StratificationError,
)
from deferbench.losses import LossSpec
from deferbench.metrics import DEFER, pauc
from deferbench.uq import positive_probability

CE = LossSpec("cross_entropy")
ONE_STAGE = LossSpec("one_stage", alpha=0.8)
LOG2 = 0.6931471805599453


def separable_problem(seed=0, n=240, margin=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    y = rng.integers(0, 2, n)
    x[:, 0] = np.where(y == 1, 1.0, -1.0) * (margin + np.abs(x[:, 0]))
    return x, y.astype(np.int64)


def noisy_problem(seed=1, n=240, flip=0.25):
    x, y = separable_problem(seed, n, margin=0.1)
    rng = np.random.default_rng(seed + 1000)
    flips = rng.random(n) < flip
    return x, np.where(flips, 1 - y, y)


def constant_extended_net(probs):
    """Three-output network whose softmax equals probs for every input."""
    net = nnet.init_network(
        nnet.NetConfig(input_dim=3, hidden_dims=(2,), output_dim=3, seed=0)
    )
    nnet.set_params(net, np.zeros(net.parameter_count))
    net.biases[-1][:] = np.log(probs)
    return net


def constant_binary_net(logit, input_dim=3):
    net = nnet.init_network(
        nnet.NetConfig(input_dim=input_dim, hidden_dims=(2,), output_dim=2, seed=0)
    )
    nnet.set_params(net, np.zeros(net.parameter_count))
    net.biases[-1][:] = [0.0, logit]
    return net


# ---------------------------------------------------------------------------
# checkpoint selection
# ---------------------------------------------------------------------------


def selection_setup(seed=2, outputs=2):
    x, y = noisy_problem(seed)
    x_train, y_train = x[:160], y[:160]
    x_val, y_val = x[160:], y[160:]
    config = nnet.NetConfig(input_dim=3, hidden_dims=(8,), output_dim=outputs, seed=seed)
    sgd = nnet.SgdConfig(learning_rate=0.1, epochs=6, batch_size=64, seed=seed)
    return x_train, y_train, x_val, y_val, config, sgd


def replayed_checkpoints(x_train, y_train, config, sgd, loss=CE):
    net = nnet.init_network(config)
    return nnet.train(net, x_train, y_train, loss, sgd)


def test_select_by_partial_auc_takes_argmax_of_val_curve():
    x_train, y_train, x_val, y_val, config, sgd = selection_setup()
    selected = pipelines.train_classifier(x_train, y_train, x_val, y_val, config, sgd)

    result = replayed_checkpoints(x_train, y_train, config, sgd)
    probe = result.network.copy()
    curve = []
    for params in result.checkpoints:
        nnet.set_params(probe, params)
        curve.append(pauc(positive_probability(probe, x_val), y_val))
    assert selected.val_curve == curve
    assert selected.epoch == int(np.argmax(curve))
    assert selected.criterion == "pauc"
    np.testing.assert_array_equal(
        nnet.get_params(selected.network), result.checkpoints[selected.epoch]
    )


def test_select_by_loss_takes_argmin():
    # a deferral loss selects by its own mean validation loss
    x_train, y_train, x_val, y_val, config, sgd = selection_setup(seed=3, outputs=3)
    selected = pipelines.train_classifier(
        x_train, y_train, x_val, y_val, config, sgd, loss=ONE_STAGE
    )
    result = replayed_checkpoints(x_train, y_train, config, sgd, ONE_STAGE)
    probe = result.network.copy()
    curve = []
    for params in result.checkpoints:
        nnet.set_params(probe, params)
        curve.append(nnet.mean_loss(probe, x_val, y_val, ONE_STAGE))
    assert selected.val_curve == curve
    assert selected.epoch == int(np.argmin(curve))
    assert selected.criterion == "loss"


@pytest.mark.parametrize(
    "loss, criterion", [(CE, "pauc"), (ONE_STAGE, "loss")], ids=["pauc", "loss"]
)
def test_selected_model_keeps_no_per_epoch_checkpoints(loss, criterion):
    outputs = 2 if loss is CE else 3
    x_train, y_train, x_val, y_val, config, sgd = selection_setup(outputs=outputs)
    selected = pipelines.train_classifier(
        x_train, y_train, x_val, y_val, config, sgd, loss=loss
    )
    result = replayed_checkpoints(x_train, y_train, config, sgd, loss)
    assert selected.criterion == criterion
    assert selected.epoch_losses == result.epoch_losses
    assert len(selected.val_curve) == sgd.epochs
    # the chosen network is the only set of parameters left; the traces are scalars
    assert set(vars(selected)) == {"network", "epoch", "criterion", "val_curve", "epoch_losses"}
    assert all(np.ndim(v) == 0 for v in selected.val_curve + selected.epoch_losses)


def test_single_class_validation_cannot_drive_selection():
    x_train, y_train, x_val, y_val, config, sgd = selection_setup()
    with pytest.raises(StratificationError):
        pipelines.train_classifier(
            x_train, y_train, x_val, np.zeros_like(y_val), config, sgd
        )


def test_selection_sees_weighted_training():
    x_train, y_train, x_val, y_val, config, sgd = selection_setup(seed=5)
    weights = np.where(y_train == 1, 2.0, 1.0)
    weights = weights / weights.sum()
    plain = pipelines.train_classifier(x_train, y_train, x_val, y_val, config, sgd)
    weighted = pipelines.train_classifier(
        x_train, y_train, x_val, y_val, config, sgd, sample_weights=weights
    )
    assert not np.array_equal(
        nnet.get_params(plain.network), nnet.get_params(weighted.network)
    )


# ---------------------------------------------------------------------------
# extended-space prediction
# ---------------------------------------------------------------------------


def test_predict_extended_defer_row():
    net = constant_extended_net([0.125, 0.375, 0.5])
    out = pipelines.predict_extended(net, np.zeros((4, 3)))
    np.testing.assert_array_equal(out.decisions, DEFER)
    np.testing.assert_allclose(out.scores, 0.75, atol=1e-12)  # 0.375 / (0.125 + 0.375)


def test_predict_extended_kept_row():
    net = constant_extended_net([0.6, 0.3, 0.1])
    out = pipelines.predict_extended(net, np.zeros((2, 3)))
    np.testing.assert_array_equal(out.decisions, 0)
    np.testing.assert_allclose(out.scores, 1.0 / 3.0, atol=1e-12)


def test_predict_extended_needs_three_outputs():
    net = constant_binary_net(0.0)
    with pytest.raises(InputShapeError):
        pipelines.predict_extended(net, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# one-stage training
# ---------------------------------------------------------------------------


def extended_config(seed, input_dim=3, hidden=(8,)):
    return nnet.NetConfig(input_dim=input_dim, hidden_dims=hidden, output_dim=3, seed=seed)


def test_one_stage_full_alpha_rarely_defers_when_separable():
    x, y = separable_problem(seed=6, n=400, margin=1.0)
    sgd = nnet.SgdConfig(learning_rate=0.1, epochs=8, batch_size=64, seed=6)
    selected = pipelines.train_classifier(
        x[:300], y[:300], x[300:], y[300:], extended_config(6), sgd,
        loss=LossSpec("one_stage", alpha=1.0),
    )
    assert selected.criterion == "loss"
    out = pipelines.predict_extended(selected.network, x)
    assert np.mean(out.decisions == DEFER) < 0.01


def test_one_stage_needs_three_outputs():
    x, y = separable_problem()
    config = nnet.NetConfig(input_dim=3, hidden_dims=(8,), output_dim=2, seed=0)
    with pytest.raises(ConfigError, match="one_stage.*3-output"):
        pipelines.train_classifier(
            x, y, x, y, config, nnet.SgdConfig(learning_rate=0.1, epochs=1, seed=0),
            loss=ONE_STAGE,
        )


# ---------------------------------------------------------------------------
# committee features and the two-stage head
# ---------------------------------------------------------------------------


def test_binary_entropy_values():
    np.testing.assert_array_equal(pipelines.binary_entropy([0.0, 1.0]), [0.0, 0.0])
    assert pipelines.binary_entropy(np.array(0.5)) == pytest.approx(LOG2, abs=1e-15)
    grid = np.linspace(0.0, 1.0, 101)
    ent = pipelines.binary_entropy(grid)
    np.testing.assert_allclose(ent, ent[::-1], atol=1e-12)
    assert np.argmax(ent) == 50


def test_two_stage_features_confident_disagreement():
    # one member certain-positive, one certain-negative: the mean probability
    # is maximally ambiguous while each member alone is confident
    members = [constant_binary_net(40.0), constant_binary_net(-40.0)]
    feats = pipelines.two_stage_features(members, np.zeros((3, 3)))
    assert feats.shape == (3, len(members) + 2)
    np.testing.assert_allclose(feats[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(feats[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(feats[:, 2], LOG2, atol=1e-12)  # entropy of the mean
    np.testing.assert_allclose(feats[:, 3], 0.0, atol=1e-12)  # mean member entropy


def test_two_stage_features_member_order_is_column_order():
    members = [constant_binary_net(np.log(0.25 / 0.75)), constant_binary_net(np.log(3.0))]
    feats = pipelines.two_stage_features(members, np.zeros((1, 3)))
    np.testing.assert_allclose(feats[0, :2], [0.25, 0.75], atol=1e-12)
    with pytest.raises(ConfigError):
        pipelines.two_stage_features([], np.zeros((1, 3)))


def committee_for(x, y, seed, n_members=2):
    members = []
    for i in range(n_members):
        config = nnet.NetConfig(input_dim=3, hidden_dims=(8,), output_dim=2, seed=seed + i)
        sgd = nnet.SgdConfig(learning_rate=0.1, epochs=4, batch_size=64, seed=seed + i)
        members.append(nnet.train(nnet.init_network(config), x, y, CE, sgd).network)
    return members


def test_two_stage_large_beta_mostly_defers():
    x, y = noisy_problem(seed=7, n=400)
    members = committee_for(x[:300], y[:300], seed=7)
    head_config = extended_config(7, input_dim=len(members) + 2, hidden=(8,))
    sgd = nnet.SgdConfig(learning_rate=0.1, epochs=10, batch_size=64, seed=7)
    feats = pipelines.two_stage_features(members, x)
    selected = pipelines.train_classifier(
        feats[:300], y[:300], feats[300:], y[300:], head_config, sgd,
        loss=LossSpec("two_stage", beta=10.0),
    )
    out = pipelines.predict_extended(selected.network, feats)
    assert np.mean(out.decisions == DEFER) > 0.9


def test_two_stage_head_config_validation():
    x, y = separable_problem()
    members = [constant_binary_net(0.0), constant_binary_net(0.0)]
    feats = pipelines.two_stage_features(members, x)
    sgd = nnet.SgdConfig(learning_rate=0.1, epochs=1, seed=0)
    loss = LossSpec("two_stage", beta=1.0)
    with pytest.raises(ConfigError, match="two_stage.*3-output"):
        pipelines.train_classifier(
            feats, y, feats, y,
            nnet.NetConfig(input_dim=4, hidden_dims=(4,), output_dim=2, seed=0),
            sgd, loss=loss,
        )
    # a head as wide as the raw inputs, not as the committee features
    with pytest.raises(DeferBenchError, match=r"\(B, 3\).*\(240, 4\)"):
        pipelines.train_classifier(
            feats, y, feats, y,
            nnet.NetConfig(input_dim=3, hidden_dims=(4,), output_dim=3, seed=0),
            sgd, loss=loss,
        )
