"""Layer primitives for the matching model.

Convolution and pooling operate on (channels, length) tensors. The length
axis may hold several sentences side by side, given as segment lengths;
each segment is zero-padded at its own edges, so a segment's output is what
it would be alone. Pooling geometry is window 3 / stride 2 / zero pad 1,
which gives output length ceil(L/2) per segment and a 5-token receptive
field after the first block.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, EmptyInputError, ShapeError
from .tensor import Tensor, _make, matmul, row_block_product, segment_lengths

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _segments(x: Tensor, lengths, what: str) -> np.ndarray:
    """The segment lengths of a (channels, length) input; one segment
    spanning the length axis when `lengths` is None."""
    if x.ndim != 2:
        raise ShapeError(f"{what} expects (channels, length), got {x.shape}")
    return segment_lengths([x.shape[1]] if lengths is None else lengths, x.shape[1], what)


def _pad_segments(data: np.ndarray, lengths: np.ndarray, pad: int):
    """`data` with `pad` zero columns before each segment and after the last
    (a gap between two segments pads both); also each data column's index in
    the padded copy."""
    segment = np.repeat(np.arange(lengths.size), lengths)
    cols = np.arange(data.shape[1]) + pad * (segment + 1)
    padded = np.zeros((data.shape[0], data.shape[1] + pad * (lengths.size + 1)), dtype=data.dtype)
    padded[:, cols] = data
    return padded, cols


def conv1d(x: Tensor, w: Tensor, b: Tensor, lengths=None) -> Tensor:
    """Cross-correlation over the length axis, stride 1, same-length zero pad
    at every segment's edges.

    x: (c_in, L), w: (c_out, c_in, k) with odd k, b: (c_out,) -> (c_out, L);
    `lengths` splits L into segments (default: one).
    """
    lengths = _segments(x, lengths, "conv1d")
    c_in, length = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d: input has {c_in} channels, kernel expects {c_in_w}")
    pad = k // 2
    xp, cols = _pad_segments(x.data, lengths, pad)
    starts = cols - pad  # each output's window start in the padded copy
    # patches[t] = flattened window of output t: (L, c_in*k)
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)  # (c_in, Lp-k+1, k)
    patches = windows.transpose(1, 0, 2)[starts].reshape(length, c_in * k)
    w_flat = w.data.reshape(c_out, c_in * k)
    # a product per segment gives each sentence the bits it gets alone
    data = (row_block_product(patches, w_flat.T, lengths) + b.data).T.copy()  # (c_out, L)

    def backward(g):
        gy = g.T  # (L, c_out)
        gw = (gy.T @ patches).reshape(w.shape)
        gb = gy.sum(axis=0)
        gpk = (gy @ w_flat).reshape(length, c_in, k)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, starts + j] += gpk[:, :, j].T
        return gxp[:, cols], gw, gb

    return _make(data, (x, w, b), backward)


def maxpool1d(x: Tensor, lengths=None) -> Tensor:
    """Windowed max, window 3 / stride 2 / zero pad 1 within each segment:
    (C, L) -> (C, sum of ceil(L_i/2)); `lengths` splits L into segments
    (default: one).

    Backward routes each window's gradient to its first argmax; gradient
    landing on a pad frame is dropped.
    """
    lengths = _segments(x, lengths, "maxpool1d")
    channels = x.shape[0]
    xp, cols = _pad_segments(x.data, lengths, 1)
    # a window opens left of every other column of a segment, from its first
    within = np.arange(x.shape[1]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    starts = cols[within % 2 == 0] - 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, 3, axis=1)[:, starts]  # (C, out, 3)
    data = windows.max(axis=2)

    def backward(g):
        gxp = np.zeros_like(xp)
        at = starts[None, :] + windows.argmax(axis=2)  # absolute padded index
        np.add.at(gxp, (np.arange(channels)[:, None], at), g)
        return (gxp[:, cols],)

    return _make(data, (x,), backward)


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept values scaled by 1/(1-rate); identity in eval.

    One `rng.random(x.shape)` draw decides which values are kept."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    return apply_dropout(x, rng.random(x.shape) >= rate, rate)


def apply_dropout(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout under a given boolean mask shaped like x: values
    where `keep` is false are zeroed, the rest scaled by 1/(1-rate). The
    graph holds the boolean mask and one scalar, not a float mask."""
    scale = 1.0 / (1.0 - rate)
    data = x.data * keep
    data *= scale

    def backward(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _make(data, (x,), backward)


def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = BN_EPS):
    """Train-mode batch normalization of a (C, L) tensor over its length axis.

    Returns (out, batch_mean, batch_var); variance is biased. Gradients cover
    x, gamma and beta.
    """
    if x.ndim != 2:
        raise ShapeError(f"batchnorm expects (channels, length), got {x.shape}")
    n = x.shape[1]
    if n == 0:
        raise EmptyInputError("batchnorm on a zero-length sequence")
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    data = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(g):
        gxhat = g * gamma.data[:, None]
        # d/dx of (x - mean)/sqrt(var + eps) with mean/var over axis 1
        gx = inv_std / n * (
            n * gxhat
            - gxhat.sum(axis=1, keepdims=True)
            - xhat * (gxhat * xhat).sum(axis=1, keepdims=True)
        )
        ggamma = (g * xhat).sum(axis=1)
        gbeta = g.sum(axis=1)
        return gx, ggamma, gbeta

    out = _make(data, (x, gamma, beta), backward)
    return out, mean.ravel(), var.ravel()


class BatchNorm1d:
    """Per-channel normalization with learned scale/shift and running stats."""

    def __init__(self, channels: int, dtype=np.float64):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = BN_MOMENTUM
        self.eps = BN_EPS

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if train:
            out, mean, var = batchnorm_train(x, self.gamma, self.beta, self.eps)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
            return out
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = (x - Tensor(self.running_mean[:, None])) * Tensor(scale[:, None])
        return self.gamma.reshape((-1, 1)) * xhat + self.beta.reshape((-1, 1))

    def parameters(self):
        return [self.gamma, self.beta]


class Linear:
    """Affine map on (N, in) rows: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 dtype=np.float64):
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)).astype(dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor, rows=None) -> Tensor:
        """`rows`: see `matmul`."""
        return matmul(x, self.weight, rows) + self.bias

    def parameters(self):
        return [self.weight, self.bias]


class Conv1d:
    """Kernel-3, stride-1, same-length convolution layer."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
                 kernel: int = 3, dtype=np.float64):
        bound = 1.0 / np.sqrt(in_channels * kernel)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel)).astype(dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        return conv1d(x, self.weight, self.bias, lengths)

    def parameters(self):
        return [self.weight, self.bias]
