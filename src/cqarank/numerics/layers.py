"""Layer primitives for the matching model.

Convolution and pooling operate on (channels, length) tensors, one sentence
at a time. Pooling geometry is window 3 / stride 2 / zero pad 1, which gives
output length ceil(L/2) and a 5-token receptive field after the first block.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, EmptyInputError, ShapeError
from .tensor import Tensor, _make

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Cross-correlation over the length axis, stride 1, same-length zero pad.

    x: (c_in, L), w: (c_out, c_in, k) with odd k, b: (c_out,) -> (c_out, L).
    """
    if x.ndim != 2:
        raise ShapeError(f"conv1d expects (channels, length), got {x.shape}")
    c_in, length = x.shape
    if length == 0:
        raise EmptyInputError("conv1d on a zero-length sequence")
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d: input has {c_in} channels, kernel expects {c_in_w}")
    pad = k // 2
    xp = np.zeros((c_in, length + 2 * pad), dtype=x.data.dtype)
    xp[:, pad:pad + length] = x.data
    # patches[t] = flattened window starting at t: (L, c_in*k)
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)  # (c_in, L, k)
    patches = windows.transpose(1, 0, 2).reshape(length, c_in * k)
    w_flat = w.data.reshape(c_out, c_in * k)
    data = (patches @ w_flat.T + b.data).T.copy()  # (c_out, L)

    def backward(g):
        gy = g.T  # (L, c_out)
        gw = (gy.T @ patches).reshape(w.shape)
        gb = gy.sum(axis=0)
        gp = gy @ w_flat  # (L, c_in*k)
        gxp = np.zeros_like(xp)
        gpk = gp.reshape(length, c_in, k)
        for j in range(k):
            gxp[:, j:j + length] += gpk[:, :, j].T
        return gxp[:, pad:pad + length], gw, gb

    return _make(data, (x, w, b), backward)


def maxpool1d(x: Tensor) -> Tensor:
    """Windowed max, window 3 / stride 2 / zero pad 1: (C, L) -> (C, ceil(L/2)).

    Backward routes each window's gradient to its first argmax; gradient
    landing on a pad frame is dropped.
    """
    if x.ndim != 2:
        raise ShapeError(f"maxpool1d expects (channels, length), got {x.shape}")
    channels, length = x.shape
    if length == 0:
        raise EmptyInputError("maxpool1d on a zero-length sequence")
    out_len = (length - 1) // 2 + 1
    xp = np.zeros((channels, length + 2), dtype=x.data.dtype)
    xp[:, 1:1 + length] = x.data
    starts = 2 * np.arange(out_len)
    windows = np.lib.stride_tricks.sliding_window_view(xp, 3, axis=1)[:, starts]  # (C, out, 3)
    data = windows.max(axis=2)
    argmax = windows.argmax(axis=2)  # offset within window

    def backward(g):
        gxp = np.zeros_like(xp)
        cols = starts[None, :] + argmax  # absolute padded index
        np.add.at(gxp, (np.arange(channels)[:, None], cols), g)
        return (gxp[:, 1:1 + length],)

    return _make(data, (x,), backward)


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept values scaled by 1/(1-rate); identity in eval.

    One `rng.random(x.shape)` draw decides which values are kept; the graph
    holds that boolean mask and one scalar, not a float mask."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
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

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

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

    def __call__(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]
