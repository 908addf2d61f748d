"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array plus an optional gradient buffer. Operations
that touch a grad-requiring input record their parents and a backward
closure on the output; calling ``backward()`` on a scalar result walks the
recorded graph once in reverse topological order, accumulating gradients
additively at fan-out points.

Default element type is float64 so finite-difference checks are meaningful;
pass dtype=np.float32 (or set_default_dtype) for speed.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import ConfigError, ContractError, EmptyInputError, DivergenceError, ShapeError

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True
_STRICT = False


def set_default_dtype(dtype):
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


def set_strict(flag: bool):
    """In strict mode every op result is checked for NaN/Inf."""
    global _STRICT
    _STRICT = bool(flag)


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None and isinstance(data, np.ndarray) and data.dtype in (
            np.float32,
            np.float64,
        ):
            arr = data
        else:
            arr = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._parents = ()
        self._backward = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), dtype=self.data.dtype)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from a scalar; gradients accumulate into leaf .grad."""
        if self.size != 1:
            raise ContractError(f"backward() requires a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = _toposort(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None or node._backward is None:
                if g is not None and node.grad is not None:
                    node.grad += g
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._backward is None:
                    # leaf: accumulate into the exposed grad buffer
                    parent.grad += pg
                else:
                    key = id(parent)
                    if key in grads:
                        # closures may hand back views/shared buffers: never += in place
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self):
        return transpose(self)

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)

    def max(self, axis):
        return reduce_max(self, axis)


def _toposort(root: Tensor):
    """Iterative DFS postorder, reversed: each node visited exactly once."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def _wrap(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward):
    """Build an op result; records the graph only if some input needs grad."""
    if _STRICT and not np.all(np.isfinite(data)):
        raise DivergenceError("non-finite values produced by a tensor operation")
    out = Tensor.__new__(Tensor)
    out.data = data
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = requires
    out.grad = None
    if requires:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic -------------------------------------------------------------


def add(a, b):
    a = _wrap(a, _DEFAULT_DTYPE)
    b = _wrap(b, a.dtype)
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), backward)


def mul(a, b):
    a = _wrap(a, _DEFAULT_DTYPE)
    b = _wrap(b, a.dtype)
    data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _make(data, (a, b), backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g):
        return (g / x.data,)

    return _make(data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def backward(g):
        return (g * data,)

    return _make(data, (x,), backward)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    data = np.maximum(x.data, lo)

    def backward(g):
        return (g * (x.data > lo),)

    return _make(data, (x,), backward)


# -- activations ------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(g):
        return (g * (x.data > 0),)

    return _make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # stable in both tails
    data = np.where(x.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                    np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))

    def backward(g):
        return (g * data * (1.0 - data),)

    return _make(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        soft = np.exp(data)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _make(data, (x,), backward)


# -- shape manipulation -------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got shape {x.shape}")
    data = x.data.T.copy()

    def backward(g):
        return (g.T,)

    return _make(data, (x,), backward)


def concat(xs, axis: int = 0) -> Tensor:
    xs = list(xs)
    if not xs:
        raise EmptyInputError("concat of zero tensors")
    for t in xs[1:]:
        if t.ndim != xs[0].ndim or any(
            i != axis % t.ndim and t.shape[i] != xs[0].shape[i] for i in range(t.ndim)
        ):
            raise ShapeError(
                f"concat: non-axis extents differ ({t.shape} vs {xs[0].shape} on axis {axis})"
            )
    data = np.concatenate([t.data for t in xs], axis=axis)
    sizes = [t.shape[axis % t.ndim] for t in xs]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        ax = axis % g.ndim
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(xs)):
            slicer[ax] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return grads

    return _make(data, tuple(xs), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)
    data = x.data[slicer].copy()

    def backward(g):
        full = np.zeros_like(x.data)
        full[slicer] = g
        return (full,)

    return _make(data, (x,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-d tensor; backward scatter-adds (repeats accumulate)."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-d tensor, got shape {x.shape}")
    data = x.data[idx]

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, (x,), backward)


def take(x: Tensor, indices) -> Tensor:
    """Gather elements of a 1-d tensor."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.ndim != 1:
        raise ShapeError(f"take expects a 1-d tensor, got shape {x.shape}")
    data = x.data[idx]

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, (x,), backward)


# -- reductions ---------------------------------------------------------------


def _check_axis(x: Tensor, axis):
    if axis is not None:
        if x.shape[axis] == 0:
            raise EmptyInputError(f"reduction over empty axis {axis} of shape {x.shape}")
    elif x.size == 0:
        raise EmptyInputError("reduction over an empty tensor")


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    _check_axis(x, axis)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full_like(x.data, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _make(np.asarray(data), (x,), backward)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    _check_axis(x, axis)
    denom = x.size if axis is None else x.shape[axis]
    data = x.data.mean(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full_like(x.data, g / denom),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape) / denom,)

    return _make(np.asarray(data), (x,), backward)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max along an axis; ties route the gradient to the first argmax."""
    _check_axis(x, axis)
    data = x.data.max(axis=axis)
    argmax = np.expand_dims(x.data.argmax(axis=axis), axis)

    def backward(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, argmax, np.expand_dims(g, axis), axis=axis)
        return (full,)

    return _make(data, (x,), backward)
