"""Network engine: forward math, backprop vs finite differences, SGD training,
dropout and sampling statistics, and the weight container format."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from deferbench import nnet, pipelines, uq
from deferbench.errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    InputShapeError,
    LabelError,
)
from deferbench.losses import LossSpec

CE = LossSpec("cross_entropy")


def tiny_net(input_dim=4, hidden=(5, 3), output_dim=2, dropout=0.0, seed=0):
    return nnet.init_network(
        nnet.NetConfig(
            input_dim=input_dim,
            hidden_dims=hidden,
            output_dim=output_dim,
            dropout_rate=dropout,
            seed=seed,
        )
    )


def toy_problem(n=64, input_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, input_dim))
    y = (x[:, 0] > 0.0).astype(np.int64)
    return x, y


# ---------------------------------------------------------------------------
# initialization and the flat parameter view
# ---------------------------------------------------------------------------


def test_init_shapes_and_determinism():
    net = tiny_net()
    assert [w.shape for w in net.weights] == [(4, 5), (5, 3), (3, 2)]
    assert [b.shape for b in net.biases] == [(5,), (3,), (2,)]
    assert all(not b.any() for b in net.biases)
    again = tiny_net()
    for a, b in zip(net.weights, again.weights):
        np.testing.assert_array_equal(a, b)
    other = tiny_net(seed=1)
    assert any((a != b).any() for a, b in zip(net.weights, other.weights))


def test_init_he_scale():
    net = tiny_net(input_dim=200, hidden=(300,), seed=7)
    observed = net.weights[0].std()
    assert observed == pytest.approx(np.sqrt(2.0 / 200), rel=0.05)


def test_param_roundtrip_is_bitwise():
    net = tiny_net(seed=3)
    flat = nnet.get_params(net)
    assert flat.shape == (net.parameter_count,)
    other = tiny_net(seed=4)
    nnet.set_params(other, flat)
    for a, b in zip(net.weights, other.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(net.biases, other.biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(nnet.get_params(other), flat)


def test_set_params_rejects_wrong_length():
    net = tiny_net()
    with pytest.raises(InputShapeError):
        nnet.set_params(net, np.zeros(net.parameter_count + 1))
    with pytest.raises(InputShapeError):
        nnet.Network(net.config, np.zeros(net.parameter_count - 1))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_forward_matches_manual_computation():
    net = tiny_net(input_dim=3, hidden=(4,), output_dim=2, seed=11)
    x = np.random.default_rng(12).standard_normal((6, 3))
    hidden = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
    expected = hidden @ net.weights[1] + net.biases[1]
    np.testing.assert_allclose(nnet.forward(net, x), expected, atol=1e-14)


def test_forward_single_coordinate_sensitivity():
    # moving one input coordinate moves the logits through that column only
    net = tiny_net(input_dim=3, hidden=(4,), seed=13)
    x = np.zeros((1, 3))
    base = nnet.forward(net, x)
    x2 = x.copy()
    x2[0, 1] = 0.5
    moved = nnet.forward(net, x2)
    relu_grad = (x2 @ net.weights[0] + net.biases[0] > 0)[0]
    expected = base + 0.5 * ((net.weights[0][1] * relu_grad) @ net.weights[1])[None, :]
    np.testing.assert_allclose(moved, expected, atol=1e-12)


def test_forward_rejects_wrong_width():
    net = tiny_net(input_dim=4)
    with pytest.raises(InputShapeError):
        nnet.forward(net, np.zeros((2, 5)))


def test_forward_dropout_needs_rng():
    net = tiny_net(dropout=0.5)
    with pytest.raises(ConfigError):
        nnet.forward(net, np.zeros((2, 4)), dropout_on=True)


def test_forward_dropout_off_is_deterministic():
    net = tiny_net(dropout=0.5)
    x = np.random.default_rng(0).standard_normal((8, 4))
    np.testing.assert_array_equal(nnet.forward(net, x), nnet.forward(net, x))


B = nnet._ROW_BLOCK
BLOCKED_NETS = {
    # name: (input_dim, hidden_dims, output_dim, loss for mean_loss)
    "classifier": (256, (64, 64), 2, CE),
    "one_stage": (256, (64, 64), 3, LossSpec("one_stage", alpha=0.7)),
    "deferral_head": (12, (32,), 3, LossSpec("two_stage", beta=0.3)),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_NETS))
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_blocked_inference_equals_one_whole_batch_pass(name, n):
    input_dim, hidden, output_dim, loss = BLOCKED_NETS[name]
    net = tiny_net(input_dim, hidden, output_dim, dropout=0.2, seed=n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, input_dim))
    y = rng.integers(0, 2, size=n)

    whole, _ = nnet._forward_cached(net, x)
    assert np.array_equal(nnet.forward(net, x), whole)
    assert nnet.mean_loss(net, x, y, loss) == float(loss.loss(whole, y).mean())

    mask = nnet.draw_dropout_mask(np.random.default_rng(7), (n, hidden[-1]), 0.2)
    whole, _ = nnet._forward_cached(net, x, mask)
    blocked = nnet.forward(net, x, dropout_on=True, rng=np.random.default_rng(7))
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("name", sorted(BLOCKED_NETS))
@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1, 2 * B + 2])
def test_reused_block_buffers_give_the_whole_batch_logits(name, n):
    # every block overwrites the same activation buffers, and a one-row
    # remainder widens the last block to B + 1 rows
    input_dim, hidden, output_dim, _ = BLOCKED_NETS[name]
    net = tiny_net(input_dim, hidden, output_dim, dropout=0.2, seed=n)
    raw, mapped = raw_rows(n, input_dim, n)
    mask = nnet.draw_dropout_mask(np.random.default_rng(7), (n, hidden[-1]), 0.2)
    for m in (None, mask):
        whole, _ = nnet._forward_cached(net, mapped, m)
        for x in (raw, mapped):
            assert np.array_equal(nnet._inference_logits(net, x, m), whole), (x.dtype, m is None)


def test_forward_memory_stays_below_one_whole_batch_layer():
    # 7,000 x 256 rows through 64-wide hidden layers: one hidden activation
    # of the whole batch is 3.6 MB, and a whole-batch pass holds several;
    # the blocked pass holds the logits and one (B + 1)-row buffer per layer
    net = tiny_net(256, (64, 64), 2, seed=3)
    x = np.random.default_rng(4).standard_normal((7000, 256))
    tracemalloc.start()
    try:
        nnet.forward(net, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7000 * 64 * 8 / 4, peak


# ---------------------------------------------------------------------------
# dropout and minibatch sampling statistics
# ---------------------------------------------------------------------------


def test_dropout_mask_values_and_mean():
    rng = np.random.default_rng(21)
    rate = 0.2
    mask = nnet.draw_dropout_mask(rng, (400, 300), rate)  # 1.2e5 draws
    values = np.unique(mask)
    np.testing.assert_allclose(values, [0.0, 1.0 / (1.0 - rate)], atol=1e-12)
    # inverted scaling keeps the expected activation unchanged
    assert abs(mask.mean() - 1.0) < 1e-2


def test_minibatch_sampling_frequencies_follow_weights():
    rng = np.random.default_rng(22)
    weights = np.array([1.0, 1.0, 2.0])
    idx = nnet.draw_minibatch_indices(rng, nnet.sampling_cdf(weights, 3), 200_000)
    freq = np.bincount(idx, minlength=3) / idx.shape[0]
    np.testing.assert_allclose(freq, [0.25, 0.25, 0.5], rtol=0.02)


# ---------------------------------------------------------------------------
# backprop against central differences
# ---------------------------------------------------------------------------


def relu_margin(net, x):
    """Smallest |pre-activation|; zero means a kink sits on the FD point."""
    h = x
    worst = np.inf
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ W + b
        worst = min(worst, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return worst


def test_backward_matches_finite_differences():
    net = tiny_net(input_dim=3, hidden=(4, 3), output_dim=2, seed=69)
    x, y = toy_problem(n=16, input_dim=3, seed=73)
    # central differences are only valid away from the ReLU kinks; a sample
    # with a fully dead first layer would park a second-layer kink at exactly 0
    assert relu_margin(net, x) > 1e-3
    analytic = nnet.backward(net, x, y, CE)

    params = nnet.get_params(net)
    probe = net.copy()
    h = 1e-6
    numeric = np.zeros_like(params)
    for i in range(params.shape[0]):
        up = params.copy()
        up[i] += h
        nnet.set_params(probe, up)
        f_up = nnet.mean_loss(probe, x, y, CE)
        down = params.copy()
        down[i] -= h
        nnet.set_params(probe, down)
        f_down = nnet.mean_loss(probe, x, y, CE)
        numeric[i] = (f_up - f_down) / (2.0 * h)

    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    assert rel < 1e-6


def test_backward_with_dropout_mask_matches_masked_loss():
    # gradient of the masked forward, checked against differences through it
    net = tiny_net(input_dim=3, hidden=(4,), output_dim=2, seed=33)
    x, y = toy_problem(n=8, input_dim=3, seed=34)
    mask = nnet.draw_dropout_mask(np.random.default_rng(35), (8, 4), 0.5)
    analytic = nnet.backward(net, x, y, CE, dropout_mask=mask)

    def masked_loss(flat):
        probe = nnet.Network(net.config, flat)
        logits, _ = nnet._forward_cached(probe, x, mask)
        return float(CE.loss(logits, y).mean())

    params = nnet.get_params(net)
    h = 1e-6
    numeric = np.zeros_like(params)
    for i in range(params.shape[0]):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        numeric[i] = (masked_loss(up) - masked_loss(down)) / (2.0 * h)
    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_reduces_loss_and_checkpoints_every_epoch():
    net = tiny_net(input_dim=4, hidden=(8,), seed=41)
    x, y = toy_problem(n=256, seed=42)
    sgd = nnet.SgdConfig(learning_rate=0.05, epochs=10, batch_size=64, seed=43)
    result = nnet.train(net, x, y, CE, sgd)
    assert len(result.checkpoints) == 10
    assert len(result.epoch_losses) == 10
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    np.testing.assert_array_equal(nnet.get_params(result.network), result.checkpoints[-1])
    # the input net is untouched
    assert not np.array_equal(nnet.get_params(net), result.checkpoints[-1])


def test_train_is_deterministic_under_seed():
    x, y = toy_problem(n=128, seed=44)
    sgd = nnet.SgdConfig(learning_rate=0.05, epochs=3, batch_size=32, seed=45)
    a = nnet.train(tiny_net(seed=46), x, y, CE, sgd)
    b = nnet.train(tiny_net(seed=46), x, y, CE, sgd)
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        np.testing.assert_array_equal(ca, cb)
    assert a.epoch_losses == b.epoch_losses


def test_train_weight_decay_shrinks_parameters():
    x, y = toy_problem(n=128, seed=47)
    base = nnet.SgdConfig(learning_rate=0.05, epochs=10, batch_size=32, seed=48)
    free = nnet.train(tiny_net(seed=49), x, y, CE, base)
    decayed = nnet.train(
        tiny_net(seed=49), x, y, CE,
        nnet.SgdConfig(learning_rate=0.05, weight_decay=0.1, epochs=10, batch_size=32, seed=48),
    )
    assert np.linalg.norm(decayed.checkpoints[-1]) < np.linalg.norm(free.checkpoints[-1])


def test_train_divergence_names_the_epoch():
    # lr * weight_decay >> 1 multiplies every parameter by about -1e4 per
    # step, so the explosion is geometric regardless of the gradient values
    net = tiny_net(seed=51)
    x, y = toy_problem(n=64, seed=52)
    sgd = nnet.SgdConfig(
        learning_rate=1.0, weight_decay=1e4, epochs=200, batch_size=32, seed=53
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"diverged at epoch \d+"):
            nnet.train(net, x, y, CE, sgd)


def test_train_weighted_sampling_upweights_the_rare_class():
    # 5% positives with 1/count weights: positives fill about half of each batch
    rng = np.random.default_rng(54)
    y = (rng.random(1000) < 0.05).astype(np.int64)
    weights = np.where(y == 1, 1.0 / max(y.sum(), 1), 1.0 / (y.shape[0] - y.sum()))
    cdf = nnet.sampling_cdf(weights, y.shape[0])
    idx = nnet.draw_minibatch_indices(np.random.default_rng(55), cdf, 100_000)
    assert abs(y[idx].mean() - 0.5) < 0.01


def test_train_validates_inputs():
    net = tiny_net()
    x, y = toy_problem(n=32)
    sgd = nnet.SgdConfig(learning_rate=0.1, epochs=1, seed=0)
    with pytest.raises(InputShapeError):
        nnet.train(net, x, y, CE, sgd, sample_weights=np.ones(31))
    with pytest.raises(ConfigError):
        nnet.train(net, x, y, CE, sgd, sample_weights=np.zeros(32))


def _bnn(net, x, y, loss, sgd, sample_weights=None):
    return uq.bnn_train(net, x, y, loss, sgd, sample_weights=sample_weights)


TRAINERS = {"train": nnet.train, "bnn_train": _bnn}


@pytest.mark.parametrize("trainer", list(TRAINERS))
@pytest.mark.parametrize(
    "weights, error",
    [
        (np.ones(9), InputShapeError),  # 9 weights for 10 rows
        (np.ones((10, 1)), InputShapeError),
        (np.r_[np.ones(9), np.nan], ConfigError),
        (np.r_[np.ones(9), np.inf], ConfigError),
        (np.r_[np.ones(9), -1.0], ConfigError),
        (np.r_[np.ones(9), 0.0], ConfigError),
        (np.full(10, 1e308), ConfigError),  # every weight finite, the sum is not
    ],
)
def test_trainers_reject_bad_sample_weights_at_entry(trainer, weights, error):
    net = tiny_net()
    x, y = toy_problem(n=10)
    sgd = nnet.SgdConfig(learning_rate=0.1, batch_size=4, epochs=1, seed=0)
    with pytest.raises(error):
        TRAINERS[trainer](net, x, y, CE, sgd, sample_weights=weights)


@pytest.mark.parametrize("trainer", list(TRAINERS))
def test_trainers_check_every_target_once_at_entry(trainer):
    # out-of-range labels are rejected even where no minibatch would draw them
    net = tiny_net(output_dim=3)
    x, y = toy_problem(n=40)
    sgd = nnet.SgdConfig(learning_rate=0.1, batch_size=4, epochs=1, seed=0)
    weights = np.r_[np.ones(39), 1e-300]
    bad = y.copy()
    bad[-1] = 2  # the deferral index, which the surrogates never take as a target
    one_stage = LossSpec("one_stage", alpha=0.5)
    with pytest.raises(LabelError):
        TRAINERS[trainer](net, x, bad, one_stage, sgd, sample_weights=weights)
    TRAINERS[trainer](net, x, bad, CE, sgd, sample_weights=weights)  # valid for plain CE
    bad[-1] = -1
    with pytest.raises(LabelError):
        TRAINERS[trainer](net, x, bad, CE, sgd, sample_weights=weights)
    with pytest.raises(LabelError):
        TRAINERS[trainer](net, x, y[:-1], CE, sgd)


def test_cdf_draws_equal_weighted_choice():
    weights = np.random.default_rng(3).gamma(0.5, size=777) + 1e-3
    cdf = nnet.sampling_cdf(weights, weights.shape[0])
    ours, numpys = np.random.default_rng(4), np.random.default_rng(4)
    p = weights / weights.sum()
    for step in range(2000):
        size = 1 + step % 130
        expected = numpys.choice(weights.shape[0], size=size, replace=True, p=p)
        assert np.array_equal(nnet.draw_minibatch_indices(ours, cdf, size), expected)


# Trajectories recorded before training moved to one sampling CDF per run, the
# fused loss kernels, in-place updates of a flat parameter buffer and backprop
# into a preallocated gradient: every checkpoint and loss must keep its bytes.
LOSSES = {
    "cross_entropy": LossSpec("cross_entropy"),
    "one_stage": LossSpec("one_stage", alpha=0.7),
    "two_stage": LossSpec("two_stage", beta=0.4),
}
FROZEN_TRAJECTORIES = {
    ("train", "cross_entropy"): "a20675e15cc1667de4d9f2ec70a584316b480930690f862f8c5dc7c45469a7d9",
    ("train", "one_stage"): "5f426d3d378fa64705698f7149ef1c2c372fd5def12b1294e9605a68a23a6f50",
    ("train", "two_stage"): "80c983d39f93dc3483da8a3236a3db6254dcab53f54c341f6c3b6a705721b8fd",
    ("bnn_train", "cross_entropy"): "3407932407ac49424727ffec64cc8bb41db020ff968d7f8b498f1bb16c89270a",
    ("bnn_train", "one_stage"): "d5dbf43f41792180ae12ec7455c0c76362733edbf13c91fd5117f7b4b9e88d2c",
    ("bnn_train", "two_stage"): "52dd21d11805052fe79d661bdf5001d1536aa42e8827063d5d364be967ae9988",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def trajectory_digest(trainer, x, y, loss) -> str:
    """SHA-256 of a 3-epoch run with dropout 0.25, weight decay and
    non-uniform sample weights: every checkpoint and loss of ``nnet.train``,
    or the posterior and losses of ``uq.bnn_train``."""
    weights = np.where(y == 1, 1.0 / y.sum(), 1.0 / (y.shape[0] - y.sum()))
    net = nnet.init_network(nnet.NetConfig(6, (10, 7), 3, dropout_rate=0.25, seed=3))
    sgd = nnet.SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=1e-3,
                         batch_size=32, epochs=3, seed=11)
    if trainer == "train":
        result = nnet.train(net, x, y, loss, sgd, sample_weights=weights)
        return _digest(*result.checkpoints, nnet.get_params(result.network), result.epoch_losses)
    result = uq.bnn_train(net, x, y, loss, sgd, sample_weights=weights)
    posterior = result.posterior
    return _digest(posterior.mean, posterior.log_stddev, result.epoch_losses)


@pytest.mark.parametrize("trainer, kind", sorted(FROZEN_TRAJECTORIES))
def test_training_trajectories_are_frozen(trainer, kind):
    rng = np.random.default_rng(71)
    x = rng.standard_normal((300, 6))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0.8).astype(np.int64)
    assert trajectory_digest(trainer, x, y, LOSSES[kind]) == FROZEN_TRAJECTORIES[(trainer, kind)]


# ---------------------------------------------------------------------------
# float32 rows: raw intensities, mapped to model inputs as a network reads them
# ---------------------------------------------------------------------------


def raw_rows(n, input_dim, seed):
    """float32 intensities in [0, 1], and 2x - 1 of their whole float64 copy."""
    raw = np.random.default_rng(seed).random((n, input_dim), dtype=np.float32)
    return raw, 2.0 * raw.astype(np.float64) - 1.0


@pytest.mark.parametrize("trainer, kind", sorted(FROZEN_TRAJECTORIES))
def test_float32_rows_train_as_their_mapped_float64_copy(trainer, kind):
    raw, mapped = raw_rows(300, 6, 72)
    y = (mapped[:, 0] + 0.5 * mapped[:, 1] > 0.4).astype(np.int64)
    assert trajectory_digest(trainer, raw, y, LOSSES[kind]) == trajectory_digest(
        trainer, mapped, y, LOSSES[kind]
    )


@pytest.mark.parametrize("name", sorted(BLOCKED_NETS))
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
def test_float32_rows_infer_as_their_mapped_float64_copy(name, n):
    input_dim, hidden, output_dim, loss = BLOCKED_NETS[name]
    net = tiny_net(input_dim, hidden, output_dim, dropout=0.2, seed=n)
    raw, mapped = raw_rows(n, input_dim, n)
    y = np.random.default_rng(n).integers(0, 2, size=n)

    assert nnet.forward(net, raw).tobytes() == nnet.forward(net, mapped).tobytes()
    assert nnet.mean_loss(net, raw, y, loss) == nnet.mean_loss(net, mapped, y, loss)
    masked = [nnet.forward(net, x, dropout_on=True, rng=np.random.default_rng(7))
              for x in (raw, mapped)]
    assert masked[0].tobytes() == masked[1].tobytes()


def test_float32_rows_are_never_widened_whole():
    # 7,000 x 256 float32 rows: a float64 copy of them is 14.3 MB, and the
    # trainer and an inference pass widen one minibatch or one block at a time
    net = tiny_net(256, (64, 64), 2, dropout=0.25, seed=3)
    raw = np.random.default_rng(4).random((7000, 256), dtype=np.float32)
    y = (raw[:, 0] > 0.9).astype(np.int64)
    sgd = nnet.SgdConfig(learning_rate=0.05, weight_decay=1e-3, epochs=1, seed=5)
    widened = raw.size * 8
    peaks = {}
    tracemalloc.start()
    try:
        nnet.forward(net, raw)
        peaks["forward"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        nnet.train(net, raw, y, CE, sgd, sample_weights=np.where(y == 1, 5.0, 1.0))
        peaks["train"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for where, peak in peaks.items():
        assert peak < widened / 4, (where, peak / widened)


def test_layers_are_views_of_params():
    net = tiny_net(seed=8)
    before = nnet.get_params(net)
    net.params += 1.0
    np.testing.assert_array_equal(nnet.get_params(net), before + 1.0)
    rebuilt = tiny_net(seed=8)
    nnet.set_params(rebuilt, before + 1.0)
    x, _ = toy_problem(n=5)
    np.testing.assert_array_equal(nnet.forward(net, x), nnet.forward(rebuilt, x))
    # Network(config, params) wraps the vector it is given, and get_params copies it
    assert nnet.Network(net.config, net.params).params is net.params
    assert not np.shares_memory(nnet.get_params(net), net.params)


def assert_layers_view_params(net):
    """Every layer of net is a view of net.params, in get_params's layout."""
    saved = net.params.copy()
    net.params[...] = np.arange(net.parameter_count)
    offset = 0
    for w, b in zip(net.weights, net.biases):
        for layer in (w, b):
            np.testing.assert_array_equal(layer.ravel(), np.arange(offset, offset + layer.size))
            offset += layer.size
    assert offset == net.parameter_count
    net.params[...] = saved


def test_every_network_the_package_returns_is_one_vector():
    config = nnet.NetConfig(3, (4, 5), 2, seed=1)
    net = nnet.init_network(config)
    x, y = toy_problem(n=60, input_dim=3, seed=2)
    sgd = nnet.SgdConfig(learning_rate=0.05, epochs=2, batch_size=16, seed=3)
    mean = nnet.get_params(net)
    posterior = uq.BnnPosterior(config, mean, np.full(mean.shape[0], -2.0), 1.0)
    copy = net.copy()
    networks = [
        net,
        copy,
        nnet._gradient_buffer(net),
        nnet.train(net, x, y, CE, sgd).network,
        *uq.posterior_networks(posterior, 2, seed=4),
        pipelines.train_classifier(x, y, x, y, config, sgd).network,
    ]
    for network in networks:
        assert_layers_view_params(network)
    assert not np.shares_memory(copy.params, net.params)
    copy.params += 1.0
    np.testing.assert_array_equal(net.params, mean)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def test_net_config_text_roundtrip():
    config = nnet.NetConfig(input_dim=7, hidden_dims=(64, 32), output_dim=3,
                            dropout_rate=0.2, seed=99)
    assert nnet.NetConfig.from_text(config.to_text()) == config
    with pytest.raises(FormatError):
        nnet.NetConfig.from_text("input_dim=3\n")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"input_dim": 0, "hidden_dims": (4,), "output_dim": 2},
        {"input_dim": 3, "hidden_dims": (0,), "output_dim": 2},
        {"input_dim": 3, "hidden_dims": (4,), "output_dim": 1},
        {"input_dim": 3, "hidden_dims": (4,), "output_dim": 2, "dropout_rate": 1.0},
    ],
)
def test_net_config_validation(kwargs):
    with pytest.raises(ConfigError):
        nnet.NetConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": -0.1},
        {"learning_rate": 0.1, "momentum": 1.0},
        {"learning_rate": 0.1, "weight_decay": -1.0},
        {"learning_rate": 0.1, "batch_size": 0},
        {"learning_rate": 0.1, "epochs": 0},
    ],
)
def test_sgd_config_validation(kwargs):
    with pytest.raises(ConfigError):
        nnet.SgdConfig(**kwargs)


# ---------------------------------------------------------------------------
# weight container
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    net = tiny_net(seed=61)
    params = nnet.get_params(net)
    sections = {"aux": np.array([1.5, -2.25]), "scalar": np.array([3.0])}
    path = tmp_path / "model.dfb1"
    nnet.write_checkpoint(path, net.config, params, sections)
    config, loaded, got = nnet.read_checkpoint(path)
    assert config == net.config
    np.testing.assert_array_equal(loaded, params)
    assert set(got) == {"aux", "scalar"}
    np.testing.assert_array_equal(got["aux"], sections["aux"])


def test_checkpoint_without_sections(tmp_path):
    net = tiny_net(seed=62)
    path = tmp_path / "model.dfb1"
    nnet.write_checkpoint(path, net.config, nnet.get_params(net))
    _, _, sections = nnet.read_checkpoint(path)
    assert sections == {}


def test_load_network_restores_forward(tmp_path):
    # a network rebuilt from what write_checkpoint wrote computes the same logits
    net = tiny_net(seed=63)
    path = tmp_path / "model.dfb1"
    nnet.write_checkpoint(path, net.config, nnet.get_params(net))
    config, params, _ = nnet.read_checkpoint(path)
    loaded = nnet.Network(config, params)
    x = np.random.default_rng(64).standard_normal((5, 4))
    np.testing.assert_array_equal(nnet.forward(loaded, x), nnet.forward(net, x))


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.dfb1"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic"):
        nnet.read_checkpoint(path)

    net = tiny_net(seed=65)
    good = tmp_path / "good.dfb1"
    nnet.write_checkpoint(good, net.config, nnet.get_params(net))
    clipped = tmp_path / "clipped.dfb1"
    clipped.write_bytes(good.read_bytes()[:-16])
    with pytest.raises(FormatError, match="truncated"):
        nnet.read_checkpoint(clipped)


def _checkpoint_bytes(tmp_path, sections=None):
    net = tiny_net(seed=66)
    path = tmp_path / "source.dfb1"
    nnet.write_checkpoint(path, net.config, nnet.get_params(net), sections)
    return path.read_bytes(), net.parameter_count


def test_checkpoint_every_truncation_is_a_format_error(tmp_path):
    blob, n_params = _checkpoint_bytes(tmp_path, {"aux": np.array([1.5, -2.25])})
    config_len = int.from_bytes(blob[16:20], "little")
    params_end = 20 + config_len + 8 * n_params
    path = tmp_path / "cut.dfb1"
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        if size == params_end:
            # a cut right after the parameters is a valid file without sections
            assert nnet.read_checkpoint(path)[2] == {}
            continue
        with pytest.raises(FormatError):
            nnet.read_checkpoint(path)


def test_checkpoint_bit_flips_raise_only_format_errors(tmp_path):
    blob, n_params = _checkpoint_bytes(tmp_path, {"aux": np.array([1.5, -2.25])})
    config_len = int.from_bytes(blob[16:20], "little")
    params = range(8 * (20 + config_len), 8 * (20 + config_len + 8 * n_params))
    path = tmp_path / "flipped.dfb1"
    # a flip inside the parameter payload only changes a weight, so skip it
    for bit in (b for b in range(8 * len(blob)) if b not in params):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(damaged))
        try:
            nnet.read_checkpoint(path)
        except FormatError:
            pass


def test_checkpoint_damaged_headers_and_config(tmp_path):
    blob, _ = _checkpoint_bytes(tmp_path)
    config_len = int.from_bytes(blob[16:20], "little")
    text = blob[20 : 20 + config_len]
    rest = blob[20 + config_len :]

    def with_config(new_text):
        return blob[:16] + len(new_text).to_bytes(4, "little") + new_text + rest

    cases = [
        (b"DFB1\x01\x00\x00\x00\x05\x00", "truncated header"),
        (with_config(b"\xff" + text[1:]), "not UTF-8"),
        (with_config(text.replace(b"input_dim=4", b"input_dim=four")), "bad NetConfig field"),
        (with_config(text.replace(b"input_dim=4\n", b"")), "missing NetConfig field"),
        (with_config(text.replace(b"output_dim=2", b"output_dim=1")), "bad NetConfig field"),
        (with_config(text + b"input_dim=7\n"), "repeated NetConfig field 'input_dim'"),
        (with_config(text + b"width=7\n"), "unknown NetConfig field 'width'"),
        (with_config(text + b"input_dim\n"), "NetConfig line without '='"),
        (with_config(text + b"\n"), "NetConfig line without '='"),
        # a well-formed config whose network is not the payload's size
        (with_config(text.replace(b"input_dim=4", b"input_dim=7")), "parameters in the payload"),
        (blob + b"\x01\x00\x00\x00\x03\x00", "truncated section header"),
        (blob + b"\x00\x00\x00\x00\x00", "trailing bytes"),
    ]
    path = tmp_path / "damaged.dfb1"
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            nnet.read_checkpoint(path)
