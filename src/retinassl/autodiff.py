"""Dense-tensor library with reverse-mode automatic differentiation.

Just enough machinery to express a small vision transformer, its projection
head, and a softmax cross-entropy distillation loss, while staying verifiable
against central finite differences. Arrays are float64 throughout: the 1e-4
gradient-check tolerance is not reachable in float32 for multi-layer graphs.

Operations executed while a :class:`Tape` is active are recorded on it;
calling :func:`backward` sweeps the tape in reverse execution order (which is
a reverse topological order by construction). Operations executed with no
active tape produce plain value tensors and keep no graph state, which is the
path used for teacher forward passes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, ParameterError, ShapeMismatchError

DTYPE = np.float64

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """N-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; the heavy lifting lives in the module-level ops.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return mul(self, _as_tensor(1.0 / np.asarray(other, dtype=DTYPE))) \
            if not isinstance(other, Tensor) else mul(self, reciprocal(other))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of executed operations for one forward pass.

    Used as a context manager; at most one tape is active per thread of
    execution. Each entry is an ``(out, backward_fn)`` pair: the op's output
    tensor and the closure that pushes ``out.grad`` to the op's inputs.
    """

    _active: "Tape | None" = None

    def __init__(self):
        self.nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise ContractError("nested tapes are not supported")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False


def _record(out: Tensor, parents: Sequence[Tensor], backward_fn) -> Tensor:
    tape = Tape._active
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.nodes.append((out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward_fn)


def reciprocal(a: Tensor) -> Tensor:
    out = Tensor(1.0 / a.data)

    def backward_fn(g):
        _accum(a, -g / (a.data * a.data))

    return _record(out, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.data)
    out = Tensor(val)

    def backward_fn(g):
        _accum(a, g * out.data)

    return _record(out, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward_fn(g):
        _accum(a, g / a.data)

    return _record(out, (a,), backward_fn)


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)

    def backward_fn(g):
        _accum(a, 2.0 * g * a.data)

    return _record(out, (a,), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    out = Tensor(a.data.reshape(shape))

    def backward_fn(g):
        _accum(a, g.reshape(a.data.shape))

    return _record(out, (a,), backward_fn)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))

    def backward_fn(g):
        _accum(a, g.transpose(inv))

    return _record(out, (a,), backward_fn)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(np.broadcast_to(a.data, shape).copy())

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _record(out, (a,), backward_fn)


def getitem(a: Tensor, idx) -> Tensor:
    out = Tensor(a.data[idx])

    def backward_fn(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] += g  # indices used here are slices/ints, never duplicated
            _accum(a, full)

    return _record(out, (a,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _record(out, tensors, backward_fn)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward_fn(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return _record(out, (a,), backward_fn)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), _as_tensor(1.0 / n))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(
            f"matmul requires ndim >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward_fn(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _record(out, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# neural-net primitives
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax of x / temperature along the last axis.

    Max-subtraction keeps the exponentials bounded for any finite input.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    tau = float(temperature)
    e = x.data / tau
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    out = Tensor(e)

    def backward_fn(g):
        y = out.data
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - dot) / tau)

    return _record(out, (x,), backward_fn)


def log_softmax_rows(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Fused row-wise log-softmax of x / temperature; avoids log(0)."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    tau = float(temperature)
    z = x.data / tau
    z = z - z.max(axis=-1, keepdims=True)
    out = Tensor(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))

    def backward_fn(g):
        p = np.exp(out.data)
        _accum(x, (g - p * g.sum(axis=-1, keepdims=True)) / tau)

    return _record(out, (x,), backward_fn)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Per-row (last axis) zero-mean unit-variance normalization, then affine."""
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    d = x.shape[-1]
    if scale.shape != (d,) or shift.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm affine params must have shape ({d},), "
            f"got {scale.shape} and {shift.shape}")

    # the same reductions as mean() then var(), without var's second mean
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    sq = xhat * xhat
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / d + epsilon)
    xhat *= inv
    np.multiply(xhat, scale.data, out=sq)
    sq += shift.data
    out = Tensor(sq)

    def backward_fn(g):
        dxhat = g * scale.data
        if x.requires_grad:
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(x, (dxhat - m1 - xhat * m2) * inv)
        if scale.requires_grad:
            _accum(scale, (g * xhat).reshape(-1, d).sum(axis=0))
        if shift.requires_grad:
            _accum(shift, g.reshape(-1, d).sum(axis=0))

    return _record(out, (x, scale, shift), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x). The tanh approximation is deliberately
    not used; it differs in the 4th decimal and the pinned values assume erf.
    """
    phi_cdf = x.data * _INV_SQRT2
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    out = Tensor(x.data * phi_cdf)

    def backward_fn(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        _accum(x, g * (phi_cdf + x.data * pdf))

    return _record(out, (x,), backward_fn)


def l2_normalize_rows(x: Tensor, guard: float = 1e-12) -> Tensor:
    """Normalize each row (last axis) to unit Euclidean norm.

    Rows with norm below `guard` pass through unchanged instead of dividing
    by ~0; their gradient is the identity.
    """
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    small = norms < guard
    safe = np.where(small, 1.0, norms)
    out = Tensor(x.data / safe)

    def backward_fn(g):
        dot = (g * x.data).sum(axis=-1, keepdims=True)
        gx = g / safe - x.data * dot / (safe ** 3)
        _accum(x, np.where(small, g, gx))

    return _record(out, (x,), backward_fn)


def cross_entropy_rows(p, log_q: Tensor) -> Tensor:
    """Per-row cross entropy -sum_i p_i * log_q_i.

    `p` is a probability array (rows summing to 1 within 1e-6) and is treated
    as a constant; gradients flow through `log_q` only.
    """
    p_arr = p.data if isinstance(p, Tensor) else np.asarray(p, dtype=DTYPE)
    if p_arr.shape != log_q.shape:
        raise ShapeMismatchError(
            f"cross_entropy_rows shapes differ: {p_arr.shape} vs {log_q.shape}")
    if not np.allclose(p_arr.sum(axis=-1), 1.0, atol=1e-6):
        raise ContractError("cross_entropy_rows: p rows must sum to 1 within 1e-6")
    return tensor_sum(mul(Tensor(-p_arr), log_q), axis=-1)


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape, leaves: Iterable[Tensor] = ()) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Leaves listed in `leaves` that are not on the loss's dependency cone get
    an explicit zero gradient.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    # Interior tensors are created with requires_grad=True by _record, so the
    # per-tensor grad slots double as the sweep's accumulation buffers.
    loss.grad = np.ones((), dtype=DTYPE)
    for out, backward_fn in reversed(tape.nodes):
        if out.grad is not None:
            backward_fn(np.asarray(out.grad, dtype=DTYPE))

    for leaf in leaves:
        if leaf.requires_grad and leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)


def finite_difference(f: Callable[[], float], params: Sequence[Tensor],
                      epsilon: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of the scalar function `f` w.r.t. params.

    `f` must be deterministic and read the current contents of each param's
    `.data`. Used as the independent oracle for gradient checks.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = f()
            flat[i] = orig - epsilon
            f_minus = f()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        grads.append(g)
    return grads
