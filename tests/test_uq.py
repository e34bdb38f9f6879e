"""Uncertainty machinery: score spreads, SWAG moments and sampling, the
variational posterior, threshold deferral, and posterior files."""

import numpy as np
import pytest

from deferbench import nnet, uq
from deferbench.errors import (
    CollectionError,
    ConfigError,
    DivergenceError,
    InputShapeError,
    RankError,
)
from deferbench.losses import LossSpec
from deferbench.metrics import DEFER
from deferbench.rng import child_rng

CE = LossSpec("cross_entropy")
LOG2 = 0.6931471805599453


def constant_net(p1: float, input_dim=3) -> nnet.Network:
    """Two-output network that outputs class-1 probability p1 for any input.

    All weights are zero, so the logits equal the biases.
    """
    net = nnet.init_network(
        nnet.NetConfig(input_dim=input_dim, hidden_dims=(2,), output_dim=2, seed=0)
    )
    nnet.set_params(net, np.zeros(net.parameter_count))
    net.biases[-1][:] = [0.0, np.log(p1 / (1.0 - p1))]
    return net


def trained_dropout_net(rate=0.3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((128, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    net = nnet.init_network(
        nnet.NetConfig(input_dim=3, hidden_dims=(8,), output_dim=2,
                       dropout_rate=rate, seed=seed)
    )
    return nnet.train(net, x, y, CE, nnet.SgdConfig(learning_rate=0.1, epochs=3, seed=seed)).network


# ---------------------------------------------------------------------------
# score-based uncertainty and committee reduction
# ---------------------------------------------------------------------------


def test_softmax_uncertainty_hand_values():
    scores = np.array([0.5, 0.0, 1.0, 0.25, 0.75])
    np.testing.assert_allclose(uq.softmax_uncertainty(scores), [1.0, 0.0, 0.0, 0.5, 0.5])
    with pytest.raises(InputShapeError):
        uq.softmax_uncertainty(np.array([1.2]))


def test_positive_probability_constant_net():
    net = constant_net(0.4)
    x = np.random.default_rng(0).standard_normal((7, 3))
    np.testing.assert_allclose(uq.positive_probability(net, x), 0.4, atol=1e-12)


def test_positive_probability_requires_two_outputs():
    net = nnet.init_network(nnet.NetConfig(input_dim=3, hidden_dims=(2,), output_dim=3, seed=0))
    with pytest.raises(InputShapeError):
        uq.positive_probability(net, np.zeros((2, 3)))


def test_ensemble_mean_and_population_variance():
    members = [constant_net(0.4), constant_net(0.6)]
    mean, variance, samples = uq.ensemble_predict(members, np.zeros((5, 3)))
    np.testing.assert_allclose(mean, 0.5, atol=1e-12)
    np.testing.assert_allclose(variance, 0.01, atol=1e-12)  # divides by N, not N-1
    assert samples.shape == (2, 5)
    with pytest.raises(ConfigError):
        uq.ensemble_predict([], np.zeros((5, 3)))


def test_committee_variance_stays_in_bernoulli_range():
    members = [constant_net(p) for p in (0.05, 0.5, 0.95)]
    _, variance, _ = uq.ensemble_predict(members, np.zeros((4, 3)))
    assert np.all(variance >= 0.0)
    assert np.all(variance <= 0.25)


# ---------------------------------------------------------------------------
# inference-time dropout
# ---------------------------------------------------------------------------


def test_mc_dropout_zero_rate_warns_and_collapses():
    net = constant_net(0.7)  # dropout_rate 0
    with pytest.warns(UserWarning, match="dropout rate is 0"):
        mean, variance, samples = uq.mc_dropout_predict(net, np.zeros((4, 3)), 5, seed=0)
    np.testing.assert_allclose(variance, 0.0, atol=1e-15)
    assert np.ptp(samples, axis=0).max() == 0.0


def test_mc_dropout_spreads_and_is_seeded():
    net = trained_dropout_net()
    x = np.random.default_rng(1).standard_normal((16, 3))
    mean_a, var_a, samples = uq.mc_dropout_predict(net, x, 8, seed=5)
    mean_b, var_b, _ = uq.mc_dropout_predict(net, x, 8, seed=5)
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_array_equal(var_a, var_b)
    assert samples.shape == (8, 16)
    assert var_a.max() > 0.0
    mean_c, _, _ = uq.mc_dropout_predict(net, x, 8, seed=6)
    assert not np.array_equal(mean_a, mean_c)
    with pytest.raises(ConfigError):
        uq.mc_dropout_predict(net, x, 0, seed=0)


# ---------------------------------------------------------------------------
# SWAG
# ---------------------------------------------------------------------------


def net_config_for(params: int) -> nnet.NetConfig:
    # any config; only the parameter count matters for posterior algebra here.
    # A posterior file needs the real count: this network has 6 parameters.
    return nnet.NetConfig(input_dim=1, hidden_dims=(1,), output_dim=2, seed=0)


def test_swag_collect_two_point_oracle():
    v = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    posterior = uq.swag_collect(
        [v, -v], net_config_for(5), uq.SwagCollectConfig(burn_in_frac=0.0, max_rank=20)
    )
    np.testing.assert_allclose(posterior.mean, 0.0, atol=1e-15)
    np.testing.assert_allclose(posterior.second_moment, v**2, atol=1e-15)
    np.testing.assert_allclose(posterior.diagonal_variance(), v**2, atol=1e-15)
    assert posterior.collected == 2
    # deviations are taken against the running mean: first v-v=0, then -v-0=-v
    np.testing.assert_allclose(posterior.deviations[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(posterior.deviations[:, 1], -v, atol=1e-15)


def test_swag_collect_matches_batch_moments():
    rng = np.random.default_rng(2)
    checkpoints = [rng.standard_normal(7) for _ in range(30)]
    posterior = uq.swag_collect(
        checkpoints, net_config_for(7), uq.SwagCollectConfig(burn_in_frac=0.4, max_rank=10)
    )
    kept = np.stack(checkpoints[12:])  # floor(0.4 * 30)
    assert posterior.collected == 18
    np.testing.assert_allclose(posterior.mean, kept.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(posterior.second_moment, (kept**2).mean(axis=0), atol=1e-12)
    assert posterior.rank == 10  # capped at max_rank, keeping the last ones


def test_swag_collect_needs_two_snapshots_after_burn_in():
    checkpoints = [np.zeros(3)] * 5
    with pytest.raises(CollectionError):
        uq.swag_collect(checkpoints[:1], net_config_for(3))
    with pytest.raises(CollectionError):
        uq.swag_collect(
            checkpoints, net_config_for(3), uq.SwagCollectConfig(burn_in_frac=0.9, max_rank=5)
        )


def manual_posterior(params=3, k=4, seed=3):
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(params)
    var = rng.random(params) * 0.2 + 0.05
    deviations = 0.5 * rng.standard_normal((params, k))
    return uq.SwagPosterior(
        net_config=net_config_for(params),
        mean=mean,
        second_moment=var + mean**2,
        deviations=deviations,
        collected=k,
    )


def test_swag_covariance_formula():
    posterior = manual_posterior()
    d = posterior.deviations
    expected = 0.5 * np.diag(posterior.diagonal_variance()) + d @ d.T / (2.0 * (4 - 1))
    np.testing.assert_allclose(uq.swag_covariance(posterior), expected, atol=1e-14)


def test_swag_low_rank_needs_two_columns():
    posterior = manual_posterior()
    posterior.deviations = posterior.deviations[:, :1]
    with pytest.raises(RankError):
        uq.swag_covariance(posterior)
    with pytest.raises(RankError):
        uq.swag_sample(posterior, np.random.default_rng(0))


def test_swag_sample_first_moment():
    posterior = manual_posterior()
    rng = np.random.default_rng(4)
    draws = np.stack([uq.swag_sample(posterior, rng) for _ in range(4000)])
    scale = np.sqrt(np.diag(uq.swag_covariance(posterior)) / 4000)
    assert np.all(np.abs(draws.mean(axis=0) - posterior.mean) < 5.0 * scale)


def test_swag_predict_deterministic_per_seed():
    # posterior over a real network's parameters
    config = nnet.NetConfig(input_dim=3, hidden_dims=(4,), output_dim=2, seed=7)
    base = nnet.get_params(nnet.init_network(config))
    rng = np.random.default_rng(5)
    checkpoints = [base + 0.05 * rng.standard_normal(base.shape[0]) for _ in range(10)]
    posterior = uq.swag_collect(checkpoints, config, uq.SwagCollectConfig(0.0, 10))
    x = np.random.default_rng(6).standard_normal((9, 3))
    mean_a, var_a, samples = uq.swag_predict(posterior, x, 6, seed=11)
    mean_b, var_b, _ = uq.swag_predict(posterior, x, 6, seed=11)
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_array_equal(var_a, var_b)
    assert samples.shape == (6, 9)
    assert var_a.max() > 0.0


# ---------------------------------------------------------------------------
# variational posterior
# ---------------------------------------------------------------------------


def make_bnn_posterior(mean, log_stddev, prior=1.0):
    n = np.asarray(mean).shape[0]
    return uq.BnnPosterior(
        net_config=net_config_for(n),
        mean=np.asarray(mean, dtype=np.float64),
        log_stddev=np.asarray(log_stddev, dtype=np.float64),
        prior_stddev=prior,
    )


def test_bnn_kl_hand_values():
    # q == prior: zero divergence
    assert uq.bnn_kl(make_bnn_posterior([0.0], [0.0])) == pytest.approx(0.0, abs=1e-15)
    # unit-variance posterior shifted by 1: KL = mean^2 / 2
    assert uq.bnn_kl(make_bnn_posterior([1.0], [0.0])) == pytest.approx(0.5, abs=1e-12)
    # mean 0, stddev 1/2: log 2 + (1/4 - 1)/2
    expected = LOG2 + (0.25 - 1.0) / 2.0
    assert uq.bnn_kl(make_bnn_posterior([0.0], [np.log(0.5)])) == pytest.approx(expected, abs=1e-12)
    # sums over independent coordinates
    both = make_bnn_posterior([1.0, 0.0], [0.0, np.log(0.5)])
    assert uq.bnn_kl(both) == pytest.approx(0.5 + expected, abs=1e-12)


def test_bnn_kl_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        posterior = make_bnn_posterior(
            rng.standard_normal(6), rng.uniform(-3, 1, 6), prior=rng.uniform(0.5, 2.0)
        )
        assert uq.bnn_kl(posterior) >= -1e-12


def bnn_training_setup(seed=9, n=96):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    y = (x[:, 0] + 0.3 * rng.standard_normal(n) > 0).astype(np.int64)
    net = nnet.init_network(nnet.NetConfig(input_dim=3, hidden_dims=(6,), output_dim=2, seed=seed))
    return net, x, y


def test_bnn_collapsed_posterior_tracks_plain_training():
    # kl weight 0 and a near-deterministic posterior reproduce plain SGD
    net, x, y = bnn_training_setup()
    sgd = nnet.SgdConfig(learning_rate=0.05, weight_decay=0.0, epochs=5, batch_size=32, seed=10)
    plain = nnet.train(net, x, y, CE, sgd)
    collapsed = uq.bnn_train(
        net, x, y, CE, sgd, uq.BnnConfig(kl_weight=0.0, init_log_stddev=-20.0)
    )
    for a, b in zip(collapsed.epoch_losses, plain.epoch_losses):
        assert abs(a - b) / b < 0.05
    np.testing.assert_allclose(
        collapsed.posterior.mean, plain.checkpoints[-1], rtol=1e-4, atol=1e-6
    )


def test_bnn_kl_term_enters_the_objective():
    net, x, y = bnn_training_setup()
    sgd = nnet.SgdConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=11)
    light = uq.bnn_train(net, x, y, CE, sgd, uq.BnnConfig(kl_weight=0.0, init_log_stddev=-20.0))
    heavy = uq.bnn_train(net, x, y, CE, sgd, uq.BnnConfig(kl_weight=10.0, init_log_stddev=-20.0))
    assert heavy.epoch_losses[0] > light.epoch_losses[0] + 1.0


def test_bnn_default_kl_weight_is_one_over_steps():
    # with n=96 and batch 32 there are 3 steps per epoch; an explicit 1/3
    # must reproduce the default exactly
    net, x, y = bnn_training_setup()
    sgd = nnet.SgdConfig(learning_rate=0.02, epochs=2, batch_size=32, seed=12)
    auto = uq.bnn_train(net, x, y, CE, sgd, uq.BnnConfig(kl_weight=None))
    explicit = uq.bnn_train(net, x, y, CE, sgd, uq.BnnConfig(kl_weight=1.0 / 3.0))
    np.testing.assert_array_equal(auto.posterior.mean, explicit.posterior.mean)
    np.testing.assert_array_equal(auto.posterior.log_stddev, explicit.posterior.log_stddev)


def test_bnn_train_divergence_names_epoch():
    # exp(710) overflows, so every sampled weight is non-finite from the start
    net, x, y = bnn_training_setup()
    sgd = nnet.SgdConfig(learning_rate=0.01, epochs=3, batch_size=32, seed=13)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"diverged at epoch 1:"):
            uq.bnn_train(net, x, y, CE, sgd, uq.BnnConfig(init_log_stddev=710.0))


def redraw_per_batch(posterior, batch, n_samples, seed):
    """Reference: reseed and redraw every weight sample for each batch, as
    prediction did before the networks were drawn once per task."""
    swag = isinstance(posterior, uq.SwagPosterior)
    rng = child_rng(seed, "swag-sample" if swag else "bnn-sample")
    net = nnet.init_network(posterior.net_config)
    rows = []
    for _ in range(n_samples):
        if swag:
            params = uq.swag_sample(posterior, rng)
        else:
            eps = rng.standard_normal(posterior.mean.shape[0])
            params = posterior.mean + posterior.stddev() * eps
        nnet.set_params(net, params)
        rows.append(uq.positive_probability(net, batch))
    return np.stack(rows)


def test_networks_drawn_once_predict_every_batch_as_a_fresh_draw_would():
    config = nnet.NetConfig(input_dim=3, hidden_dims=(4,), output_dim=2, seed=7)
    base = nnet.get_params(nnet.init_network(config))
    rng = np.random.default_rng(5)
    checkpoints = [base + 0.05 * rng.standard_normal(base.shape[0]) for _ in range(10)]
    swag = uq.swag_collect(checkpoints, config, uq.SwagCollectConfig(0.0, 10))
    bnn = uq.BnnPosterior(config, base, np.full(base.shape[0], -2.0), 1.0)
    batches = [rng.standard_normal((n, 3)) for n in (9, 1, 30)]
    for posterior, predict in ((swag, uq.swag_predict), (bnn, uq.bnn_predict)):
        nets = uq.posterior_networks(posterior, 6, seed=11)
        for batch in batches:
            expected = redraw_per_batch(posterior, batch, 6, 11)
            once = uq.ensemble_predict(nets, batch)[2]
            assert once.tobytes() == expected.tobytes()
            assert predict(posterior, batch, 6, 11)[2].tobytes() == expected.tobytes()
    with pytest.raises(ConfigError, match="n_samples"):
        uq.posterior_networks(swag, 0, seed=11)


def test_bnn_predict_seeded_and_spread_follows_stddev():
    config = nnet.NetConfig(input_dim=3, hidden_dims=(4,), output_dim=2, seed=14)
    mean = nnet.get_params(nnet.init_network(config))
    x = np.random.default_rng(15).standard_normal((10, 3))

    tight = uq.BnnPosterior(config, mean, np.full(mean.shape[0], -8.0), 1.0)
    wide = uq.BnnPosterior(config, mean, np.full(mean.shape[0], -1.0), 1.0)
    _, var_tight, _ = uq.bnn_predict(tight, x, 8, seed=16)
    _, var_wide, _ = uq.bnn_predict(wide, x, 8, seed=16)
    assert var_tight.mean() < var_wide.mean()

    mean_a, _, _ = uq.bnn_predict(wide, x, 8, seed=17)
    mean_b, _, _ = uq.bnn_predict(wide, x, 8, seed=17)
    np.testing.assert_array_equal(mean_a, mean_b)


def test_bnn_config_validation():
    with pytest.raises(ConfigError):
        uq.BnnConfig(prior_stddev=0.0)
    with pytest.raises(ConfigError):
        uq.BnnConfig(kl_weight=-1.0)


# ---------------------------------------------------------------------------
# threshold deferral
# ---------------------------------------------------------------------------


def test_decisions_from_scores():
    scores = np.array([0.2, 0.5, 0.8, 0.4])
    mask = np.array([False, False, True, True])
    np.testing.assert_array_equal(
        uq.decisions_from_scores(scores, mask), [0, 1, DEFER, DEFER]
    )
    with pytest.raises(InputShapeError):
        uq.decisions_from_scores(scores, mask[:-1])


# ---------------------------------------------------------------------------
# posterior files
# ---------------------------------------------------------------------------


def test_swag_posterior_roundtrip(tmp_path):
    posterior = manual_posterior(params=6, k=3)
    path = tmp_path / "posterior.dfb1"
    uq.save_swag_posterior(path, posterior)
    back = uq.load_swag_posterior(path)
    np.testing.assert_array_equal(back.mean, posterior.mean)
    np.testing.assert_array_equal(back.second_moment, posterior.second_moment)
    np.testing.assert_array_equal(back.deviations, posterior.deviations)
    assert back.collected == posterior.collected
    assert back.net_config == posterior.net_config


def test_bnn_posterior_roundtrip(tmp_path):
    posterior = make_bnn_posterior(
        [0.5, -1.0, 2.0, 0.25, 0.0, -0.75], [-5.0, -4.0, -3.0, -2.5, -4.5, -3.5], prior=1.5
    )
    path = tmp_path / "posterior.dfb1"
    uq.save_bnn_posterior(path, posterior)
    back = uq.load_bnn_posterior(path)
    np.testing.assert_array_equal(back.mean, posterior.mean)
    np.testing.assert_array_equal(back.log_stddev, posterior.log_stddev)
    assert back.prior_stddev == posterior.prior_stddev


def test_posterior_files_reject_missing_sections(tmp_path):
    config = net_config_for(6)
    path = tmp_path / "plain.dfb1"
    nnet.write_checkpoint(path, config, np.zeros(6))
    with pytest.raises(CollectionError, match="missing posterior section"):
        uq.load_swag_posterior(path)
    with pytest.raises(CollectionError, match="missing posterior section"):
        uq.load_bnn_posterior(path)
