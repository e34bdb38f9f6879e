"""Uncertainty estimates for deferral on binary classifiers.

A single deterministic model defers on its own softmax score via
u(x) = 1 - 2*|s1(x) - 0.5|, which is 0 at a confident score and 1 at 0.5.
The sampling strategies (deep ensemble, weight-space Gaussian fitted to an
SGD trajectory, inference-time dropout, mean-field variational posterior)
all reduce N positive-class probabilities to their mean (the prediction)
and population variance (the uncertainty, in [0, 0.25]).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from deferbench import nnet
from deferbench.errors import (
    CollectionError,
    ConfigError,
    DivergenceError,
    InputShapeError,
    RankError,
)
from deferbench.losses import LossSpec, softmax
from deferbench.rng import child_rng


def positive_probability(net: nnet.Network, batch: np.ndarray) -> np.ndarray:
    """Softmax probability of class 1 under a two-output network."""
    logits = nnet.forward(net, batch)
    if logits.shape[1] != 2:
        raise InputShapeError(f"expected 2 outputs, got {logits.shape[1]}")
    return softmax(logits)[:, 1]


def softmax_uncertainty(scores: np.ndarray) -> np.ndarray:
    """u = 1 - 2*|s - 0.5| in [0, 1]: distance of the score from a hard call."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise InputShapeError("scores must be probabilities in [0, 1]")
    return 1.0 - 2.0 * np.abs(scores - 0.5)


def _reduce_samples(samples: np.ndarray):
    """Mean and population variance over axis 0 of (N, S) member scores."""
    mean = samples.mean(axis=0)
    variance = samples.var(axis=0)  # divides by N: variance of the committee itself
    return mean, variance, samples


def ensemble_predict(members, batch: np.ndarray):
    """Member positive-class scores reduced to (mean, variance, samples)."""
    if len(members) == 0:
        raise ConfigError("ensemble needs at least one member")
    samples = np.stack([positive_probability(m, batch) for m in members])
    return _reduce_samples(samples)


def mc_dropout_predict(net: nnet.Network, batch: np.ndarray, n_samples: int, seed: int):
    """N stochastic forward passes with dropout left on at inference."""
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    if net.config.dropout_rate == 0.0 and n_samples > 1:
        warnings.warn("dropout rate is 0; all stochastic passes are identical")
    rng = child_rng(seed, "mc-dropout")
    rows = []
    for _ in range(n_samples):
        logits = nnet.forward(net, batch, dropout_on=True, rng=rng)
        if logits.shape[1] != 2:
            raise InputShapeError(f"expected 2 outputs, got {logits.shape[1]}")
        rows.append(softmax(logits)[:, 1])
    return _reduce_samples(np.stack(rows))


# ---------------------------------------------------------------------------
# SWAG: Gaussian posterior fitted to the SGD trajectory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwagCollectConfig:
    """Which part of the trajectory feeds the posterior and its rank cap."""

    burn_in_frac: float = 0.4
    max_rank: int = 20

    def __post_init__(self):
        if not (0.0 <= self.burn_in_frac < 1.0):
            raise ConfigError(f"burn_in_frac must lie in [0, 1), got {self.burn_in_frac}")
        if self.max_rank < 2:
            raise ConfigError("max_rank must be at least 2")


@dataclass
class SwagPosterior:
    """Running first/second moments plus the last K deviations from the mean.

    Covariance is half diagonal, half low rank:
    cov = 0.5 * diag(var) + D @ D.T / (2 * (K - 1)).
    """

    net_config: nnet.NetConfig
    mean: np.ndarray  # (P,)
    second_moment: np.ndarray  # (P,)
    deviations: np.ndarray  # (P, K)
    collected: int

    SAMPLE_STREAM = "swag-sample"  # child_rng stream of the weight draws

    @property
    def rank(self) -> int:
        return self.deviations.shape[1]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return swag_sample(self, rng)

    def diagonal_variance(self) -> np.ndarray:
        return np.maximum(self.second_moment - self.mean**2, 0.0)


def swag_collect(
    checkpoints, net_config: nnet.NetConfig, collect: SwagCollectConfig = SwagCollectConfig()
) -> SwagPosterior:
    """Fold per-epoch weight snapshots into a SWAG posterior.

    The first burn_in_frac of the trajectory is discarded; each remaining
    snapshot updates the running mean and raw second moment, and its
    deviation from the running mean is kept (last max_rank of them).
    """
    checkpoints = list(checkpoints)
    start = int(np.floor(collect.burn_in_frac * len(checkpoints)))
    kept = checkpoints[start:]
    if len(kept) < 2:
        raise CollectionError(
            f"need at least 2 snapshots after burn-in, got {len(kept)} of {len(checkpoints)}"
        )
    mean = np.zeros_like(kept[0])
    second = np.zeros_like(kept[0])
    devs = []
    for i, theta in enumerate(kept, start=1):
        mean += (theta - mean) / i
        second += (theta**2 - second) / i
        devs.append(theta - mean)
    devs = devs[-collect.max_rank :]
    return SwagPosterior(
        net_config=net_config,
        mean=mean,
        second_moment=second,
        deviations=np.stack(devs, axis=1),
        collected=len(kept),
    )


def swag_sample(posterior: SwagPosterior, rng: np.random.Generator) -> np.ndarray:
    """One weight draw: mean + sqrt(diag/2)*z1 + D z2 / sqrt(2(K-1))."""
    if posterior.rank < 2:
        raise RankError(f"rank {posterior.rank} posterior has no low-rank part")
    k = posterior.rank
    z1 = rng.standard_normal(posterior.mean.shape[0])
    z2 = rng.standard_normal(k)
    return (
        posterior.mean
        + np.sqrt(0.5 * posterior.diagonal_variance()) * z1
        + posterior.deviations @ z2 / np.sqrt(2.0 * (k - 1))
    )


def posterior_networks(posterior, n_samples: int, seed: int) -> list:
    """N deterministic networks with weights drawn from a SWAG or variational
    posterior, from the posterior's own stream of ``seed``.

    Drawing once and predicting every batch with ``ensemble_predict`` over
    the result gives what a fresh ``swag_predict`` or ``bnn_predict`` with
    the same seed gives for each batch.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    rng = child_rng(seed, posterior.SAMPLE_STREAM)
    return [nnet.Network(posterior.net_config, posterior.draw(rng)) for _ in range(n_samples)]


def swag_predict(posterior: SwagPosterior, batch: np.ndarray, n_samples: int, seed: int):
    """N weight draws, each run as a deterministic network."""
    return ensemble_predict(posterior_networks(posterior, n_samples, seed), batch)


# ---------------------------------------------------------------------------
# Mean-field variational posterior trained by the reparameterization trick
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BnnConfig:
    """Mean-field Gaussian posterior settings.

    kl_weight scales the KL(q || prior) penalty added to the mean batch loss;
    None picks 1 / steps-per-epoch so one epoch accumulates one full KL.
    Weights start near-deterministic (small initial stddev) at the usual
    He-initialized means.
    """

    prior_stddev: float = 1.0
    kl_weight: float | None = None
    init_log_stddev: float = -5.0

    def __post_init__(self):
        if self.prior_stddev <= 0.0:
            raise ConfigError("prior_stddev must be positive")
        if self.kl_weight is not None and self.kl_weight < 0.0:
            raise ConfigError("kl_weight must be non-negative")


@dataclass
class BnnPosterior:
    net_config: nnet.NetConfig
    mean: np.ndarray  # (P,)
    log_stddev: np.ndarray  # (P,)
    prior_stddev: float

    SAMPLE_STREAM = "bnn-sample"  # child_rng stream of the weight draws

    def stddev(self) -> np.ndarray:
        return np.exp(self.log_stddev)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One weight draw: mean + stddev * eps."""
        return self.mean + self.stddev() * rng.standard_normal(self.mean.shape[0])


def _kl_to_prior(mean, log_std, std, prior_stddev: float):
    """KL(N(mean, std^2) || N(0, prior_stddev^2)) summed over independent
    weights, with std = exp(log_std): the penalty ``bnn_train`` minimizes."""
    p2 = prior_stddev**2
    return (np.log(prior_stddev) - log_std + (std**2 + mean**2) / (2.0 * p2) - 0.5).sum()


@dataclass
class BnnTrainResult:
    posterior: BnnPosterior
    epoch_losses: list  # mean data loss + kl_weight * KL, per epoch


def bnn_train(
    net: nnet.Network,
    batch: np.ndarray,
    targets: np.ndarray,
    loss: LossSpec,
    sgd: nnet.SgdConfig,
    bnn: BnnConfig = BnnConfig(),
    sample_weights=None,
) -> BnnTrainResult:
    """Fit mean and log-stddev of a factorized Gaussian over the weights.

    Each step samples weights theta = mean + stddev * eps, backpropagates the
    data loss through theta, and adds analytic KL gradients. Minibatch
    indices come from the same stream layout as plain training, and weight
    noise from its own stream, so collapsing the posterior (kl_weight 0,
    stddev underflowing to 0) reproduces the deterministic trajectory.
    The SGD weight_decay setting is ignored: the prior already shrinks means.
    Inputs are checked once, at entry, by ``nnet._training_inputs`` as in ``nnet.train``,
    and float32 rows are mapped to model inputs one minibatch at a time.
    """
    rows, targets, cdf, steps_per_epoch = nnet._training_inputs(
        net, batch, targets, loss, sgd, sample_weights
    )
    rng_batches = child_rng(sgd.seed, "batches")
    rng_weights = child_rng(sgd.seed, "weights")
    kl_w = bnn.kl_weight if bnn.kl_weight is not None else 1.0 / steps_per_epoch
    p2 = bnn.prior_stddev**2

    mean = nnet.get_params(net)
    log_std = np.full_like(mean, bnn.init_log_stddev)
    v_mean = np.zeros_like(mean)
    v_log = np.zeros_like(log_std)
    theta = np.empty_like(mean)  # the sampled weights, set every step
    work = nnet.Network(net.config, theta)
    grad = nnet._gradient_buffer(work)
    g = grad.params
    epoch_losses = []

    for epoch in range(1, sgd.epochs + 1):
        total = 0.0
        for _ in range(steps_per_epoch):
            idx = nnet.draw_minibatch_indices(rng_batches, cdf, sgd.batch_size)
            std = np.exp(log_std)
            eps = rng_weights.standard_normal(mean.shape[0])
            np.add(mean, std * eps, out=theta)
            xb, yb = rows(idx), targets[idx]
            kl = _kl_to_prior(mean, log_std, std, bnn.prior_stddev)
            logits, cache = nnet._forward_cached(work, xb, None)
            if not np.all(np.isfinite(logits)):
                raise DivergenceError(f"training diverged at epoch {epoch}: non-finite logits")
            sample_loss, dlogits = loss.unchecked_loss_and_grad(logits, yb)
            step_loss = float(sample_loss.mean()) + kl_w * kl
            if not np.isfinite(step_loss):
                raise DivergenceError(f"training diverged at epoch {epoch}: loss={step_loss}")
            nnet._backward_cached(work, cache, dlogits / xb.shape[0], grad)
            g_mean = g + kl_w * mean / p2
            g_log = g * eps * std + kl_w * (std**2 / p2 - 1.0)
            v_mean *= sgd.momentum
            v_mean += g_mean
            v_log *= sgd.momentum
            v_log += g_log
            mean -= sgd.learning_rate * v_mean
            log_std -= sgd.learning_rate * v_log
            total += step_loss
        epoch_losses.append(total / steps_per_epoch)

    posterior = BnnPosterior(
        net_config=net.config, mean=mean, log_stddev=log_std, prior_stddev=bnn.prior_stddev
    )
    return BnnTrainResult(posterior=posterior, epoch_losses=epoch_losses)


def bnn_predict(posterior: BnnPosterior, batch: np.ndarray, n_samples: int, seed: int):
    """N posterior weight draws, each run as a deterministic network."""
    return ensemble_predict(posterior_networks(posterior, n_samples, seed), batch)
