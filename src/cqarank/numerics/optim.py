"""Adam optimizer and the step-decay learning-rate schedule."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

LR_DECAY_FACTOR = 5.0


def learning_rate(epoch: int, base: float = 1e-4, every: int = 10) -> float:
    """Step decay: base divided by LR_DECAY_FACTOR once per `every` epochs."""
    return base / LR_DECAY_FACTOR ** (epoch // every)


class Adam:
    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # first and second moment buffers, one per parameter
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One bias-corrected update from the accumulated .grad buffers."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
