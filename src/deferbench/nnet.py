"""Small feed-forward network engine: dense ReLU layers, softmax-ready logits,
inverted dropout after the last hidden layer, and momentum SGD with weight
decay and weighted minibatch sampling.

Everything is double precision and deterministic under a seed. Float32
input rows are raw [0, 1] intensities: a network widens them and maps them
with ``model_inputs`` as they enter it, one minibatch or one inference block
at a time; rows of any other type already are model inputs. A network is
one flat parameter vector, and its layers are views of it; SGD, the
weight-posterior methods (SWAG, variational nets), checkpoint selection and
the DFB1 container all work on that vector. Gradients are hand-derived
backprop for this fixed topology; no autodiff.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from deferbench.atomic import atomic_open
from deferbench.errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    InputShapeError,
    LabelError,
)
from deferbench.losses import LossSpec
from deferbench.rng import child_rng

_MAGIC = b"DFB1"
_VERSION = 1

_ROW_BLOCK = 512  # rows per block of an inference pass; see ``_inference_logits``


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.output_dim < 2:
            raise ConfigError(f"output_dim must be >= 2, got {self.output_dim}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def to_text(self) -> str:
        """Canonical single-definition text form (sorted keys, one per line)."""
        fields = {
            "dropout_rate": repr(float(self.dropout_rate)),
            "hidden_dims": ",".join(str(h) for h in self.hidden_dims),
            "input_dim": str(self.input_dim),
            "output_dim": str(self.output_dim),
            "seed": str(int(self.seed)),
        }
        return "".join(f"{k}={v}\n" for k, v in sorted(fields.items()))

    @property
    def layer_dims(self) -> list:
        """(fan_in, fan_out) of each dense layer, input to output."""
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return list(zip(dims[:-1], dims[1:]))

    @property
    def parameter_count(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims)

    @classmethod
    def from_text(cls, text: str) -> "NetConfig":
        """Parse to_text's form; a line without '=', an unknown or a repeated
        key, a missing key or a bad value raises FormatError."""
        names = {f.name for f in fields(cls)}
        kv = {}
        for line in text.splitlines():
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise FormatError(f"NetConfig line without '=': {line!r}")
            if key not in names:
                raise FormatError(f"unknown NetConfig field {key!r}")
            if key in kv:
                raise FormatError(f"repeated NetConfig field {key!r}")
            kv[key] = value.strip()
        try:
            hidden = tuple(int(h) for h in kv["hidden_dims"].split(",") if h)
            return cls(
                input_dim=int(kv["input_dim"]),
                hidden_dims=hidden,
                output_dim=int(kv["output_dim"]),
                dropout_rate=float(kv["dropout_rate"]),
                seed=int(kv["seed"]),
            )
        except KeyError as exc:
            raise FormatError(f"missing NetConfig field {exc}") from exc
        except (ValueError, ConfigError) as exc:
            raise FormatError(f"bad NetConfig field: {exc}") from exc


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0.0:
            raise ConfigError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


class Network:
    """Dense feed-forward net held as one float64 vector, ``params``: per
    layer, row-major weights then bias. ``weights[i]`` (fan_in, fan_out) and
    ``biases[i]`` (fan_out,) are views of it, so updating ``params`` in place
    updates every layer. ``Network(config, params)`` wraps a float64 vector
    without copying it."""

    def __init__(self, config: NetConfig, params: np.ndarray):
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (config.parameter_count,):
            raise InputShapeError(
                f"expected {config.parameter_count} parameters, got shape {params.shape}"
            )
        self.config = config
        self.params = params
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in config.layer_dims:
            end = offset + fan_in * fan_out
            self.weights.append(params[offset:end].reshape(fan_in, fan_out))
            self.biases.append(params[end : end + fan_out])
            offset = end + fan_out

    @property
    def parameter_count(self) -> int:
        return self.config.parameter_count

    def copy(self) -> "Network":
        return Network(self.config, self.params.copy())


def init_network(config: NetConfig) -> Network:
    """He-initialized network, deterministic under config.seed."""
    rng = child_rng(config.seed, "init")
    net = Network(config, np.zeros(config.parameter_count))
    for w, (fan_in, fan_out) in zip(net.weights, config.layer_dims):
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
    return net


def get_params(net: Network) -> np.ndarray:
    """A copy of the flat parameter vector: per layer, row-major weights then bias."""
    return net.params.copy()


def set_params(net: Network, flat: np.ndarray) -> None:
    """Load a flat vector back into the network (in place)."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (net.parameter_count,):
        raise InputShapeError(
            f"expected {net.parameter_count} parameters, got shape {flat.shape}"
        )
    net.params[...] = flat


def draw_dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, survivors scaled 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def model_inputs(features: np.ndarray, out=None) -> np.ndarray:
    """Fixed affine map 2x - 1 from the [0,1] intensity scale to model inputs,
    computed in float64; out=features maps a float64 array in place.

    Centering the intensities at zero removes the large common-mode
    component that otherwise makes the output bias, and with it the 0.5-score
    operating point, swing between epochs under resampled minibatches.
    Widening float32 is exact, so mapping float32 rows block by block gives
    the bytes of mapping their float64 copy whole.
    """
    out = np.multiply(features, 2.0, out=out, dtype=np.float64)
    out -= 1.0
    return out


def _check_batch(net: Network, batch) -> np.ndarray:
    """The batch as an array: float32 rows stay raw intensities, for the
    caller to map a minibatch or a block at a time; anything else becomes
    float64 model inputs."""
    batch = np.asarray(batch)
    if batch.dtype != np.float32:
        batch = batch.astype(np.float64, copy=False)
    if batch.ndim != 2 or batch.shape[1] != net.config.input_dim:
        raise InputShapeError(
            f"batch must be (B, {net.config.input_dim}), got shape {batch.shape}"
        )
    return batch


def _forward_cached(net: Network, batch: np.ndarray, dropout_mask=None):
    """Forward pass over float64 model inputs, keeping the intermediates
    backprop needs.

    dropout_mask, when given, multiplies the last hidden activation and must
    already include the 1/(1-p) survivor scaling.
    """
    activations = [batch]
    a = batch
    n_hidden = len(net.weights) - 1
    for i in range(n_hidden):
        z = a @ net.weights[i] + net.biases[i]
        a = np.maximum(z, 0.0)
        activations.append(a)
    if dropout_mask is not None and n_hidden > 0:
        a = a * dropout_mask
    logits = a @ net.weights[-1] + net.biases[-1]
    return logits, (activations, a, dropout_mask)


def _inference_logits(net: Network, batch: np.ndarray, dropout_mask=None) -> np.ndarray:
    """The logits of ``_forward_cached``, computed _ROW_BLOCK rows at a time.

    One set of buffers serves the whole pass: a float64 input buffer when the
    rows are float32 (mapped block by block), and one activation buffer per
    hidden layer, each of at most _ROW_BLOCK + 1 rows, that every block
    overwrites in place; the output layer writes straight into the logits.
    Every block runs the operations of ``_forward_cached`` in its order, so
    the logits are bit-identical to one whole-batch pass: blocks start at
    multiples of _ROW_BLOCK, so every row keeps its place in the BLAS
    kernel's row tiling, and a one-row remainder joins the block before it,
    because numpy hands a one-row product to a matrix-vector routine that
    rounds differently.
    """
    n = batch.shape[0]
    rows = min(n, _ROW_BLOCK + 1)
    logits = np.empty((n, net.config.output_dim))
    inputs = None
    if batch.dtype == np.float32:
        inputs = np.empty((rows, batch.shape[1]))
    hidden = [np.empty((rows, w.shape[1])) for w in net.weights[:-1]]
    start = 0
    while start < n:
        stop = start + _ROW_BLOCK
        if n - stop <= 1:
            stop = n
        k = stop - start
        a = batch[start:stop]
        if inputs is not None:
            a = model_inputs(a, out=inputs[:k])
        for w, b, h in zip(net.weights[:-1], net.biases[:-1], hidden):
            h = h[:k]
            np.matmul(a, w, out=h)
            h += b
            a = np.maximum(h, 0.0, out=h)
        if dropout_mask is not None and hidden:
            a *= dropout_mask[start:stop]
        out = logits[start:stop]
        np.matmul(a, net.weights[-1], out=out)
        out += net.biases[-1]
        start = stop
    return logits


def forward(net: Network, batch, dropout_on: bool = False, rng=None) -> np.ndarray:
    """Logits for a batch; with dropout_on and rate > 0 a fresh mask is drawn from rng.

    The mask is drawn once for the whole batch, and the pass runs in row
    blocks (see ``_inference_logits``): same logits as one pass, with one
    block's activations in memory instead of the whole batch's.
    """
    batch = _check_batch(net, batch)
    mask = None
    rate = net.config.dropout_rate
    if dropout_on and rate > 0.0 and len(net.weights) > 1:
        if rng is None:
            raise ConfigError("dropout_on with rate > 0 requires an rng")
        mask = draw_dropout_mask(rng, (batch.shape[0], net.weights[-1].shape[0]), rate)
    return _inference_logits(net, batch, mask)


def _gradient_buffer(net: Network) -> Network:
    """A network shaped like ``net`` whose ``params`` is an unset gradient
    vector, for ``_backward_cached`` to write through its layer views."""
    return Network(net.config, np.empty(net.parameter_count))


def _backward_cached(net: Network, cache, dlogits: np.ndarray, grad: Network) -> None:
    """Write the gradient of the (already reduced) loss into the layers of
    ``grad``, a ``_gradient_buffer``; ``grad.params`` is then the flat gradient."""
    activations, last_input, dropout_mask = cache
    n_layers = len(net.weights)

    delta = dlogits
    np.matmul(last_input.T, delta, out=grad.weights[-1])
    delta.sum(axis=0, out=grad.biases[-1])

    for i in range(n_layers - 2, -1, -1):
        delta = delta @ net.weights[i + 1].T
        if i == n_layers - 2 and dropout_mask is not None:
            delta = delta * dropout_mask
        delta = delta * (activations[i + 1] > 0.0)
        np.matmul(activations[i].T, delta, out=grad.weights[i])
        delta.sum(axis=0, out=grad.biases[i])


def backward(net: Network, batch, targets, loss: LossSpec, dropout_mask=None) -> np.ndarray:
    """Gradient of the mean batch loss with respect to the flat parameter
    vector; the batch is one minibatch, so float32 rows are mapped whole."""
    batch = _check_batch(net, batch)
    if batch.dtype == np.float32:
        batch = model_inputs(batch)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (batch.shape[0],):
        raise LabelError(f"expected {batch.shape[0]} targets, got shape {targets.shape}")
    logits, cache = _forward_cached(net, batch, dropout_mask)
    dlogits = loss.grad(logits, targets) / batch.shape[0]
    grad = _gradient_buffer(net)
    _backward_cached(net, cache, dlogits, grad)
    return grad.params


def mean_loss(net: Network, batch, targets, loss: LossSpec) -> float:
    """Mean loss over a batch with dropout off; the pass runs as ``forward``'s does."""
    batch = _check_batch(net, batch)
    logits = _inference_logits(net, batch)
    return float(loss.loss(logits, np.asarray(targets, dtype=np.int64)).mean())


def sampling_cdf(sample_weights, n: int) -> np.ndarray:
    """Checked cumulative distribution of ``n`` sample weights (None: uniform).

    Built as ``Generator.choice`` builds it from ``p = weights / weights.sum()``,
    so ``draw_minibatch_indices(rng, cdf, b)`` draws what
    ``rng.choice(n, b, p=p)`` draws from the same generator state. Raises
    InputShapeError unless there is one weight per sample, and ConfigError
    unless every weight is positive and finite with a finite sum.
    """
    weights = np.ones(n) if sample_weights is None else sample_weights
    weights = np.asarray(weights, dtype=np.float64)
    if n < 1 or weights.shape != (n,):
        raise InputShapeError(f"expected {n} sample weights, got shape {weights.shape}")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        total = weights.sum()
    if not (np.all(weights > 0.0) and np.isfinite(total)):
        raise ConfigError("sample weights must all be positive and finite, with a finite sum")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_minibatch_indices(
    rng: np.random.Generator, cdf: np.ndarray, batch_size: int
) -> np.ndarray:
    """Weighted sampling with replacement from a ``sampling_cdf``; this is the
    oversampling mechanism."""
    return cdf.searchsorted(rng.random(batch_size), side="right")


def _training_inputs(net: Network, batch, targets, loss: LossSpec, sgd: SgdConfig, sample_weights):
    """Checked (rows, targets, sampling cdf, steps per epoch) of a training run;
    ``train`` and ``uq.bnn_train`` check their inputs here, once, at entry.

    The first item is ``rows(idx)``, the model inputs of the minibatch at row
    indices idx. Float32 rows are gathered and mapped into one float64
    buffer that every step reuses, valid until the next call: a fresh
    minibatch array per step costs more than the map itself."""
    x = _check_batch(net, batch)
    n = x.shape[0]
    y = np.asarray(targets, dtype=np.int64)
    if y.shape != (n,):
        raise LabelError(f"expected {n} targets, got shape {y.shape}")
    y = loss.check_targets(y, net.config.output_dim)
    if x.dtype == np.float32:
        inputs = np.empty((sgd.batch_size, x.shape[1]))

        def rows(idx):
            return model_inputs(x[idx], out=inputs)

    else:
        rows = x.__getitem__
    return rows, y, sampling_cdf(sample_weights, n), max(1, -(-n // sgd.batch_size))


@dataclass
class TrainResult:
    network: Network
    checkpoints: list  # one flat parameter vector per epoch, post-update
    epoch_losses: list  # mean training loss per epoch


def train(
    net: Network,
    batch,
    targets,
    loss: LossSpec,
    sgd: SgdConfig,
    sample_weights=None,
) -> TrainResult:
    """Momentum SGD with weighted minibatch sampling; one checkpoint per epoch.

    The update is v = momentum*v + (grad + weight_decay*theta); theta -= lr*v.
    Batch, targets and sample weights are checked once, at entry (``_training_inputs``);
    float32 rows are mapped to model inputs one minibatch at a time.
    Raises DivergenceError naming the epoch if any batch loss goes non-finite.
    """
    rows, y, cdf, steps_per_epoch = _training_inputs(net, batch, targets, loss, sgd, sample_weights)
    net = net.copy()
    rng_batches = child_rng(sgd.seed, "batches")
    rng_dropout = child_rng(sgd.seed, "dropout")
    rate = net.config.dropout_rate
    use_dropout = rate > 0.0 and len(net.weights) > 1

    params = net.params  # the layers are views of it
    grad = _gradient_buffer(net)
    velocity = np.zeros_like(params)
    checkpoints, epoch_losses = [], []

    for epoch in range(1, sgd.epochs + 1):
        loss_sum = 0.0
        for _ in range(steps_per_epoch):
            idx = draw_minibatch_indices(rng_batches, cdf, sgd.batch_size)
            xb, yb = rows(idx), y[idx]
            mask = None
            if use_dropout:
                mask = draw_dropout_mask(
                    rng_dropout, (xb.shape[0], net.weights[-1].shape[0]), rate
                )
            logits, cache = _forward_cached(net, xb, mask)
            if not np.all(np.isfinite(logits)):
                raise DivergenceError(f"training diverged at epoch {epoch}: non-finite logits")
            sample_loss, dlogits = loss.unchecked_loss_and_grad(logits, yb)
            batch_loss = float(sample_loss.mean())
            if not np.isfinite(batch_loss):
                raise DivergenceError(f"training diverged at epoch {epoch}: loss={batch_loss}")
            loss_sum += batch_loss
            _backward_cached(net, cache, dlogits / xb.shape[0], grad)
            grad.params += sgd.weight_decay * params
            velocity *= sgd.momentum
            velocity += grad.params
            params -= sgd.learning_rate * velocity
        checkpoints.append(params.copy())
        epoch_losses.append(loss_sum / steps_per_epoch)

    return TrainResult(network=net, checkpoints=checkpoints, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# Checkpoint container ("DFB1"): header, canonical NetConfig text, float64
# parameter payload, then optional named float64 sections (used by the weight
# posteriors to stash second moments, deviation matrices, log-stddevs, ...).
# ---------------------------------------------------------------------------


def write_checkpoint(path, config: NetConfig, params: np.ndarray, sections=None) -> None:
    params = np.ascontiguousarray(params, dtype="<f8")
    config_text = config.to_text().encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", params.size))
        fh.write(struct.pack("<I", len(config_text)))
        fh.write(config_text)
        fh.write(params.tobytes())
        if sections:
            fh.write(struct.pack("<I", len(sections)))
            for name, payload in sections.items():
                payload = np.ascontiguousarray(payload, dtype="<f8")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<Q", payload.size))
                fh.write(payload.ravel().tobytes())


class _ByteReader:
    """Bounds-checked little-endian reads from an in-memory file image."""

    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.path = path
        self.pos = 0

    def take(self, size: int, what: str) -> bytes:
        if size > len(self.buf) - self.pos:
            raise FormatError(f"{self.path}: truncated {what}")
        chunk = self.buf[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def uint(self, size: int, what: str) -> int:
        return int.from_bytes(self.take(size, what), "little")

    def text(self, size: int, what: str) -> str:
        try:
            return self.take(size, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} is not UTF-8") from exc

    def float64s(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(count * 8, what), dtype="<f8").copy()

    @property
    def at_end(self) -> bool:
        return self.pos == len(self.buf)


def read_checkpoint(path):
    """Returns (NetConfig, params, sections) where sections maps name -> 1-D array.

    Damaged input (a short file or header, text that is not UTF-8, a bad
    NetConfig text, a payload that is not the configured network's parameter
    count, a repeated section or trailing bytes) raises FormatError.
    """
    with open(path, "rb") as fh:
        reader = _ByteReader(fh.read(), path)
    if reader.take(4, "header") != _MAGIC:
        raise FormatError(f"{path}: bad magic, not a DFB1 checkpoint")
    version = reader.uint(4, "header")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported DFB1 version {version}")
    count = reader.uint(8, "header")
    config_len = reader.uint(4, "header")
    try:
        config = NetConfig.from_text(reader.text(config_len, "config text"))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if count != config.parameter_count:
        raise FormatError(f"{path}: {count} parameters in the payload, the configured "
                          f"network has {config.parameter_count}")
    params = reader.float64s(count, "parameter payload")
    sections = {}
    if not reader.at_end:
        for _ in range(reader.uint(4, "section count")):
            name = reader.text(reader.uint(4, "section header"), "section name")
            if name in sections:
                raise FormatError(f"{path}: repeated section {name!r}")
            size = reader.uint(8, f"section {name!r} header")
            sections[name] = reader.float64s(size, f"section {name!r}")
    if not reader.at_end:
        raise FormatError(f"{path}: trailing bytes after the last section")
    return config, params, sections
