"""Central finite-difference gradient checker.

The forward function is re-evaluated with elements perturbed in place, so it
must be deterministic (dropout off or drawn from a freshly seeded rng on every
call, batchnorm in eval mode or a fixed batch) and should run at float64 for
the comparison to be meaningful.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from .tensor import Tensor, no_grad


def gradcheck(f, tensors, h: float = 1e-5) -> float:
    """Max relative error between analytic and numeric gradients.

    f() -> scalar Tensor, closing over `tensors`; error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    tensors = list(tensors)
    for t in tensors:
        t.zero_grad()
    out = f()
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("gradcheck target must return a scalar Tensor")
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else None for t in tensors]

    worst = 0.0
    for t, ana in zip(tensors, analytic):
        if ana is None:
            continue
        # index t.data itself: ravel() of a non-contiguous array is a copy
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + h
            with no_grad():
                up = f().item()
            t.data[i] = orig - h
            with no_grad():
                down = f().item()
            t.data[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = ana[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
