"""Small spatio-temporal convolutional classifier, implemented in numpy.

The network sees a causality image as a (height, time) matrix. Block 1
splits the usual 2-d convolution into a spatial filtering layer (full
height, no activation in between) and a temporal convolution, followed
by batch normalization, an exponential-linear activation, and max
pooling over time. Every later block doubles the filter count and adds
input dropout. A dense softmax head produces two class probabilities.

Everything — forward pass, backpropagation, batch normalization,
dropout, and the adaptive-moment optimizer — is written directly
against numpy so the arithmetic is fully inspectable and seeded runs
are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConfigError, DataError, Range, check_ranges, ranged


# the paper's fixed optimizer, batch-norm and pooling constants
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPSILON = 1e-8
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5
POOL_FACTOR = 2


@dataclass(frozen=True)
class ConvNetConfig:
    """Architecture and optimization settings."""

    temporal_kernel: int = ranged(15, Range(10, 20))
    first_block_filters: int = ranged(10, Range(1))
    block_count: int = ranged(2, Range(1, 5))
    spatial_height: int = 90
    dropout_rate: float = ranged(0.5, Range(0, 1, "[)"))
    batch_size: int = ranged(16, Range(1))
    max_epochs: int = 200
    early_stop_patience: int = ranged(50, Range(0))
    seed: int = 0

    def __post_init__(self) -> None:
        # the [10, 20] kernel range applies to the standard 90-row images;
        # toy configurations with other heights may use shorter kernels
        toy = {} if self.spatial_height == 90 else {"temporal_kernel": Range(2)}
        check_ranges(self, **toy)

    def block_filters(self, block: int) -> int:
        """Filter count of 1-based block index; doubles every block."""
        return self.first_block_filters * 2 ** (block - 1)


def _time_lengths(config: ConvNetConfig, n_time: int) -> list[int]:
    """Time extent after each block; raises if any stage collapses."""
    lengths = []
    t = n_time
    for block in range(1, config.block_count + 1):
        t = t - config.temporal_kernel + 1
        if t < 1:
            raise ConfigError(
                f"block {block}: temporal convolution needs "
                f"{config.temporal_kernel} samples, have {t + config.temporal_kernel - 1}"
            )
        t = t // POOL_FACTOR
        if t < 1:
            raise ConfigError(f"block {block}: pooling empties the signal")
        lengths.append(t)
    return lengths


@dataclass
class ConvNetModel:
    """Parameter tensors plus batch-norm running statistics."""

    config: ConvNetConfig
    input_shape: tuple[int, int]
    params: dict[str, np.ndarray]
    running: dict[str, np.ndarray]
    history: list[dict] = field(default_factory=list)

    def clone(self) -> "ConvNetModel":
        return ConvNetModel(
            self.config,
            self.input_shape,
            {k: v.copy() for k, v in self.params.items()},
            {k: v.copy() for k, v in self.running.items()},
            [dict(h) for h in self.history],
        )


def build_convnet(config: ConvNetConfig, input_shape: tuple[int, int]) -> ConvNetModel:
    """Initialize all tensors from a seeded fan-in-scaled uniform scheme."""
    height, n_time = input_shape
    if height != config.spatial_height:
        raise DataError(
            f"input height {height} != configured {config.spatial_height}"
        )
    lengths = _time_lengths(config, n_time)
    rng = np.random.default_rng(config.seed)

    def uniform(shape, fan_in):
        bound = np.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    p1 = config.first_block_filters
    tau = config.temporal_kernel
    params: dict[str, np.ndarray] = {}
    running: dict[str, np.ndarray] = {}
    params["spatial/W"] = uniform((p1, height), height)
    params["spatial/b"] = np.zeros(p1)
    in_ch = p1
    for block in range(1, config.block_count + 1):
        out_ch = config.block_filters(block)
        params[f"block{block}/W"] = uniform((out_ch, in_ch, tau), in_ch * tau)
        params[f"block{block}/b"] = np.zeros(out_ch)
        params[f"block{block}/gamma"] = np.ones(out_ch)
        params[f"block{block}/beta"] = np.zeros(out_ch)
        running[f"block{block}/mean"] = np.zeros(out_ch)
        running[f"block{block}/var"] = np.ones(out_ch)
        in_ch = out_ch
    flat = in_ch * lengths[-1]
    params["dense/W"] = uniform((2, flat), flat)
    params["dense/b"] = np.zeros(2)
    return ConvNetModel(config, (height, n_time), params, running)


def _temporal_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid 1-d convolution over time: (B,Cin,L) x (Cout,Cin,tau).

    One matrix product per tap over a strided view of the input. An
    im2col unfold would make it one product, but would copy the input
    tau times, which large eval batches cannot afford.
    """
    tau = w.shape[2]
    l_out = x.shape[2] - tau + 1
    out = np.matmul(w[:, :, 0], x[:, :, :l_out])
    for k in range(1, tau):
        out += np.matmul(w[:, :, k], x[:, :, k : k + l_out])
    out += b[:, None]
    return out


def _temporal_conv_backward(grad, x, w):
    tau = w.shape[2]
    l_out = grad.shape[2]
    # taps[k] is tap k's product, shifted by k; the sum adds in tap order
    taps = np.zeros((tau,) + x.shape)
    s0, s1, s2, s3 = taps.strides
    shifted = as_strided(taps, (tau, *x.shape[:2], l_out), (s0 + s3, s1, s2, s3))
    np.matmul(w.transpose(2, 1, 0)[:, None], grad, out=shifted)
    dx = np.add.reduce(taps, axis=0, initial=0.0)
    # windows[b, p, k, t] = x[b, p, k + t]; the unfold copies only a
    # training batch
    windows = sliding_window_view(x, l_out, axis=2)
    dw = np.tensordot(grad, windows, axes=([0, 2], [0, 3]))
    db = grad.sum(axis=(0, 2))
    return dx, dw, db


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _elu_backward(grad, y):
    # derivative is 1 for positive inputs, exp(x) = y + 1 otherwise
    return np.where(y > 0, grad, grad * (y + 1.0))


def _max_pool(x):
    # the pairs (2t, 2t + 1) as two strided views, so POOL_FACTOR must be
    # 2; a tie keeps the first element, as argmax does
    l_out = x.shape[2] // POOL_FACTOR
    first, second = x[:, :, 0 : 2 * l_out : 2], x[:, :, 1 : 2 * l_out : 2]
    idx = second > first
    return np.where(idx, second, first), idx


def _max_pool_backward(grad, idx, l_in):
    dx = np.zeros(grad.shape[:2] + (l_in,))
    dx[:, :, 0 : 2 * grad.shape[2] : 2] = np.where(idx, 0.0, grad)
    dx[:, :, 1 : 2 * grad.shape[2] : 2] = np.where(idx, grad, 0.0)
    return dx


def forward(
    model: ConvNetModel,
    images: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
    return_cache: bool = False,
):
    """Run the network; returns class probabilities (and a cache if asked).

    Train mode uses batch statistics (updating the running ones) and
    applies inverted dropout; eval mode uses running statistics and no
    dropout.
    """
    cfg = model.config
    x = np.asarray(images, dtype=float)
    if x.ndim == 2:
        x = x[None]
    if x.shape[1:] != model.input_shape:
        raise DataError(
            f"expected images of shape {model.input_shape}, got {x.shape[1:]}"
        )
    train = mode == "train"
    if train and cfg.dropout_rate > 0 and rng is None and dropout_masks is None:
        raise ConfigError("training forward pass needs an rng or fixed masks")
    cache: dict = {"masks": [], "x_in": x}
    h = np.matmul(model.params["spatial/W"], x)
    h = h + model.params["spatial/b"][None, :, None]
    for block in range(1, cfg.block_count + 1):
        if train and block >= 2 and cfg.dropout_rate > 0:
            if dropout_masks is not None:
                mask = dropout_masks[block - 2]
            else:
                keep = rng.random(h.shape) >= cfg.dropout_rate
                mask = keep / (1.0 - cfg.dropout_rate)
            cache["masks"].append(mask)
            h = h * mask
        w = model.params[f"block{block}/W"]
        cache[f"b{block}/conv_in"] = h
        h = _temporal_conv(h, w, model.params[f"block{block}/b"])
        if train:
            # np.mean's and np.var's own steps, keeping the centred batch
            count = h.shape[0] * h.shape[2]
            mean = h.sum(axis=(0, 2)) / count
            centred = h - mean[None, :, None]
            var = (centred * centred).sum(axis=(0, 2)) / count
            m = BN_MOMENTUM
            model.running[f"block{block}/mean"] = (
                m * model.running[f"block{block}/mean"] + (1 - m) * mean
            )
            model.running[f"block{block}/var"] = (
                m * model.running[f"block{block}/var"] + (1 - m) * var
            )
        else:
            mean = model.running[f"block{block}/mean"]
            var = model.running[f"block{block}/var"]
            centred = h - mean[None, :, None]
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = centred * inv_std[None, :, None]
        cache[f"b{block}/xhat"] = xhat
        cache[f"b{block}/inv_std"] = inv_std
        gamma = model.params[f"block{block}/gamma"]
        h = gamma[None, :, None] * xhat + model.params[f"block{block}/beta"][None, :, None]
        h = _elu(h)
        cache[f"b{block}/act"] = h
        h, idx = _max_pool(h)
        cache[f"b{block}/pool_idx"] = idx
        cache[f"b{block}/out"] = h
    flat = h.reshape(h.shape[0], -1)
    cache["flat"] = flat
    logits = flat @ model.params["dense/W"].T + model.params["dense/b"]
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    if return_cache:
        return probs, cache
    return probs


def loss_and_gradients(
    model: ConvNetModel,
    images: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
):
    """Weighted cross-entropy and gradients for every trainable tensor.

    Labels are in {-1, +1}; -1 maps to class index 0. Per-sample weights
    are normalized to sum to one within the batch.
    """
    cfg = model.config
    labels = np.asarray(labels)
    targets = (labels > 0).astype(int)
    n = len(targets)
    if sample_weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(sample_weights, dtype=float)
        total = w.sum()
        if total <= 0:
            raise DataError("sample weights must have positive sum")
        w = w / total
    probs, cache = forward(
        model, images, mode="train", rng=rng, dropout_masks=dropout_masks,
        return_cache=True,
    )
    eps = 1e-12
    loss = -np.sum(w * np.log(probs[np.arange(n), targets] + eps))
    dlogits = probs.copy()
    dlogits[np.arange(n), targets] -= 1.0
    dlogits *= w[:, None]

    grads: dict[str, np.ndarray] = {}
    flat = cache["flat"]
    grads["dense/W"] = dlogits.T @ flat
    grads["dense/b"] = dlogits.sum(axis=0)
    dflat = dlogits @ model.params["dense/W"]
    h_last = cache[f"b{cfg.block_count}/out"]
    grad = dflat.reshape(h_last.shape)
    for block in range(cfg.block_count, 0, -1):
        grad = _max_pool_backward(
            grad, cache[f"b{block}/pool_idx"], cache[f"b{block}/act"].shape[2]
        )
        grad = _elu_backward(grad, cache[f"b{block}/act"])
        xhat = cache[f"b{block}/xhat"]
        gamma = model.params[f"block{block}/gamma"]
        grads[f"block{block}/gamma"] = np.sum(grad * xhat, axis=(0, 2))
        grads[f"block{block}/beta"] = grad.sum(axis=(0, 2))
        dxhat = grad * gamma[None, :, None]
        inv_std = cache[f"b{block}/inv_std"]
        m_count = xhat.shape[0] * xhat.shape[2]
        grad = (
            inv_std[None, :, None]
            / m_count
            * (
                m_count * dxhat
                - dxhat.sum(axis=(0, 2))[None, :, None]
                - xhat * np.sum(dxhat * xhat, axis=(0, 2))[None, :, None]
            )
        )
        grad, dw, db = _temporal_conv_backward(
            grad, cache[f"b{block}/conv_in"], model.params[f"block{block}/W"]
        )
        grads[f"block{block}/W"] = dw
        grads[f"block{block}/b"] = db
        if block >= 2 and cfg.dropout_rate > 0:
            grad = grad * cache["masks"][block - 2]
    grads["spatial/W"] = np.tensordot(grad, cache["x_in"], axes=([0, 2], [0, 2]))
    grads["spatial/b"] = grad.sum(axis=(0, 2))
    return loss, grads


class AdamState:
    """First/second moment accumulators, flat over the tensors in key order."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = np.zeros(sum(v.size for v in params.values()))
        self.v = np.zeros_like(self.m)
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        g = np.concatenate([grads[key].ravel() for key in params])
        self.m = BETA1 * self.m + (1 - BETA1) * g
        self.v = BETA2 * self.v + (1 - BETA2) * g * g
        mhat = self.m / (1 - BETA1**self.t)
        vhat = self.v / (1 - BETA2**self.t)
        update = LEARNING_RATE * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
        start = 0
        for p in params.values():
            p -= update[start : start + p.size].reshape(p.shape)
            start += p.size


def predict(model: ConvNetModel, images: np.ndarray) -> np.ndarray:
    """Hard labels in {-1, +1} from the eval-mode forward pass."""
    probs = forward(model, images, mode="eval")
    return np.where(probs[:, 1] >= probs[:, 0], 1, -1)


def accuracy(model: ConvNetModel, images: np.ndarray, labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    return float(np.mean(predict(model, images) == np.asarray(labels)))


def train(
    model: ConvNetModel,
    images: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray | None = None,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> ConvNetModel:
    """Mini-batch training with early stopping on validation accuracy.

    Returns the best-validation snapshot (or the final state when no
    validation fold is supplied, in which case early stopping watches
    the training loss instead). The input model is left untouched.
    """
    cfg = model.config
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        raise DataError("training fold must contain both classes")
    n = len(labels)
    if sample_weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(sample_weights, dtype=float)
        weights = weights / weights.sum()
    work = model.clone()
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(work.params)
    best = work.clone()
    best_score = -np.inf
    best_epoch = -1
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_gradients(
                work, images[idx], labels[idx], weights[idx], rng=rng
            )
            adam.step(work.params, grads)
            epoch_loss += loss * weights[idx].sum()
        if validation is not None and len(validation[1]) > 0:
            score = accuracy(work, validation[0], validation[1])
        else:
            score = -epoch_loss
        work.history.append(
            {"epoch": epoch, "train_loss": float(epoch_loss), "score": float(score)}
        )
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best = work.clone()
        if epoch - best_epoch >= max(cfg.early_stop_patience, 1):
            break
    if best_epoch < 0:
        return work
    return best


def train_val_split(
    n: int, val_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled index split; validation gets the declared fraction."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = int(round(n * val_fraction))
    return order[n_val:], order[:n_val]
