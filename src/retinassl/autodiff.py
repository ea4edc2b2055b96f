"""Dense-tensor library with reverse-mode automatic differentiation.

Just enough machinery to express a small vision transformer, its projection
head, and a softmax cross-entropy distillation loss, while staying verifiable
against central finite differences. Arrays are float64 throughout: the 1e-4
gradient-check tolerance is not reachable in float32 for multi-layer graphs.

Operations executed while a :class:`Tape` is active are recorded on it;
calling :func:`backward` sweeps the tape in reverse execution order (which is
a reverse topological order by construction). The tape holds gradient slots
and gradient functions, not values: each gradient function keeps only the
arrays it reads, so an op's output lives only as long as the forward's own
variables or a later op's gradient function hold it. Operations executed with
no active tape produce plain value tensors and keep no graph state, which is
the path used for teacher forward passes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, ParameterError

DTYPE = np.float64

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

LN_EPSILON = 1e-6  # added to layer_norm's variance
L2_GUARD = 1e-12   # l2_normalize_rows leaves a row with a smaller norm as it is


class Tensor:
    """N-dimensional float64 array with an optional gradient.

    A leaf that requires a gradient is its own gradient slot: backward fills
    its `grad`. A recorded op's output has a separate `_Slot` instead, and
    its own `grad` stays None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._slot: _Slot | None = None

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

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self):
        return tensor_sum(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


GradFn = Callable[[np.ndarray], np.ndarray]


class _Slot:
    """Where backward accumulates a recorded op output's gradient; it holds
    the output's shape, not its value."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.shape = shape


def _slot_of(t: Tensor) -> "_Slot | Tensor | None":
    """t's gradient slot: its op's `_Slot`, the leaf itself, or None for a
    tensor that needs no gradient."""
    if t._slot is not None:
        return t._slot
    return t if t.requires_grad else None


class Tape:
    """Ordered record of executed operations for one forward pass.

    Used as a context manager; at most one tape is active in the process,
    and the ops of every thread record on it. Each entry is an
    ``(out, inputs, grad_fns)`` triple: the op output's slot, one slot per
    input (None for an input that needs no gradient), and one function per
    input that maps ``out.grad`` to that input's gradient before
    unbroadcasting (None where the slot is None).
    """

    _active: "Tape | None" = None

    def __init__(self):
        self.nodes: list[tuple[_Slot, Sequence["_Slot | Tensor | None"],
                               Sequence[GradFn | None]]] = []

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise ContractError("nested tapes are not supported")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False

    @staticmethod
    def active() -> "Tape | None":
        """The tape that ops record on now, or None."""
        return Tape._active


def _record(value, parents: Sequence[Tensor], *grad_fns: GradFn) -> Tensor:
    """Wrap `value` as an op's output; record the op if a parent needs a gradient.

    Only the gradient functions of inputs that need a gradient are kept, so
    the arrays that only the others read are not held by the tape.
    """
    out = Tensor(value)
    tape = Tape._active
    if tape is not None:
        inputs = tuple(_slot_of(p) for p in parents)
        if any(s is not None for s in inputs):
            out.requires_grad = True
            out._slot = _Slot(out.data.shape)
            tape.nodes.append((out._slot, inputs, tuple(
                fn if s is not None else None for s, fn in zip(inputs, grad_fns))))
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


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data + b.data, (a, b), lambda g: g, lambda g: g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _record(x * y, (a, b), lambda g: g * y, lambda g: g * x)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    a_shape = a.shape
    return _record(a.data.reshape(shape), (a,), lambda g: g.reshape(a_shape))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record(a.data.transpose(axes), (a,), lambda g: g.transpose(inv))


def broadcast_to(a: Tensor, shape) -> Tensor:
    return _record(np.broadcast_to(a.data, tuple(shape)).copy(), (a,), lambda g: g)


def getitem(a: Tensor, idx) -> Tensor:
    a_shape = a.shape

    def grad_a(g):
        full = np.zeros(a_shape, dtype=DTYPE)
        full[idx] += g  # indices used here are slices/ints, never duplicated
        return full

    return _record(a.data[idx], (a,), grad_a)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    value = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def piece(lo, hi):
        sl = [slice(None)] * value.ndim
        sl[axis] = slice(lo, hi)
        return lambda g: g[tuple(sl)]

    return _record(value, tensors,
                   *(piece(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])))


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element. The gradient is a read-only broadcast view of
    the incoming scalar, not an input-sized array of copies."""
    a_shape = a.shape
    return _record(a.data.sum(), (a,), lambda g: np.broadcast_to(g, a_shape))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(
            f"matmul requires ndim >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    x, y = a.data, b.data
    return _record(np.matmul(x, y), (a, b),
                   lambda g: np.matmul(g, np.swapaxes(y, -1, -2)),
                   lambda g: np.matmul(np.swapaxes(x, -1, -2), g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, as one 2-D GEMM over every row.

    The weight gradient is then one GEMM over all leading rows too, rather
    than a batched product reduced over the batch afterwards.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ContractError(
            f"linear needs x (..., d), w (d, k) and b (k,), "
            f"got {x.shape}, {w.shape} and {b.shape}")
    d, k = w.shape
    x_shape, wd = x.shape, w.data
    x2 = x.data.reshape(-1, d)
    out = x2 @ wd
    out += b.data
    return _record(out.reshape(*x_shape[:-1], k), (x, w, b),
                   lambda g: (g.reshape(-1, k) @ wd.T).reshape(x_shape),
                   lambda g: x2.T @ g.reshape(-1, k),
                   lambda g: g.reshape(-1, k).sum(axis=0))


# ---------------------------------------------------------------------------
# neural-net primitives
# ---------------------------------------------------------------------------

def log_softmax_rows(x: Tensor, temperature: float) -> Tensor:
    """Fused row-wise log-softmax of x / temperature; avoids log(0)."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    tau = float(temperature)
    z = x.data / tau
    z = z - z.max(axis=-1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def grad_x(g):
        # (g - exp(log_p) * rowsum(g)) / tau, written into one buffer
        dx = np.exp(log_p)
        dx *= g.sum(axis=-1, keepdims=True)
        np.subtract(g, dx, out=dx)
        dx /= tau
        return dx

    return _record(log_p, (x,), grad_x)


def attention(qkv: Tensor, n_heads: int, scale: float,
              rows: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention core on a (B, T, 3d) q|k|v projection.

    Only the leading `rows` tokens (1..T) are queries; every
    token is still a key and a value. Returns the (B, rows, d) head outputs,
    recorded as one tape entry, and the (B, heads, rows, T) probabilities
    softmax(scale * q k^T) as a plain array. The backward works from those
    saved probabilities, as FlashAttention's does (Dao et al. 2022), and
    writes dq, dk and dv into one buffer; dq is zero on the rows that are
    not queried.
    """
    if qkv.ndim != 3 or n_heads < 1 or qkv.shape[-1] % (3 * n_heads) != 0:
        raise ContractError(
            f"attention needs a (B, T, 3d) input with d divisible by "
            f"{n_heads} heads, got {qkv.shape}")
    b, t, d3 = qkv.shape
    if not 1 <= rows <= t:
        raise ContractError(f"attention query rows must be in 1..{t}, got {rows}")
    d = d3 // 3
    hd = d // n_heads
    # views of qkv laid out as the per-head chain would index them, so that
    # every product below sees the same strides and gives the same bits
    q, k, v = qkv.data.reshape(b, t, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)
    q = q[:, :, :rows]
    probs = np.matmul(q, k.transpose(0, 1, 3, 2))
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, v).transpose(0, 2, 1, 3).reshape(b, rows, d)

    def grad_qkv(g):
        gh = g.reshape(b, rows, n_heads, hd).transpose(0, 2, 1, 3)
        dqkv = np.empty((3, b, n_heads, t, hd))
        np.matmul(probs.swapaxes(-1, -2), gh, out=dqkv[2])
        ds = np.matmul(gh, v.swapaxes(-1, -2))
        dot = (ds * probs).sum(axis=-1, keepdims=True)
        ds -= dot
        ds *= probs
        ds *= scale
        np.matmul(ds, k, out=dqkv[0, :, :, :rows])
        dqkv[0, :, :, rows:] = 0.0
        dqkv[1] = np.matmul(q.swapaxes(-1, -2), ds).transpose(0, 1, 3, 2)
        return dqkv.transpose(1, 3, 0, 2, 4).reshape(b, t, d3)

    return _record(out, (qkv,), grad_qkv), probs


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Per-row (last axis) zero-mean unit-variance normalization, then affine;
    LN_EPSILON is added to the variance."""
    d = x.shape[-1]
    if scale.shape != (d,) or shift.shape != (d,):
        raise ContractError(
            f"layer_norm affine params must have shape ({d},), "
            f"got {scale.shape} and {shift.shape}")

    # the same reductions as mean() then var(), without var's second mean
    gamma = scale.data
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    sq = xhat * xhat
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / d + LN_EPSILON)
    xhat *= inv
    np.multiply(xhat, gamma, out=sq)
    sq += shift.data

    def grad_x(g):
        # (dxhat - m1 - xhat * m2) * inv, evaluated in that order in place
        dxhat = g * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        scratch = dxhat * xhat
        m2 = scratch.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=scratch)
        dxhat -= m1
        dxhat -= scratch
        dxhat *= inv
        return dxhat

    return _record(sq, (x, scale, shift), grad_x,
                   lambda g: (g * xhat).reshape(-1, d).sum(axis=0),
                   lambda g: g.reshape(-1, d).sum(axis=0))


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x). The tanh approximation is deliberately
    not used; it differs in the 4th decimal and the pinned values assume erf.
    """
    xd = x.data
    phi_cdf = xd * _INV_SQRT2
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5

    def grad_x(g):
        # g * (phi_cdf + x * pdf(x)) in one buffer; -0.5 * (x * x) has the
        # bits of (-0.5 * x) * x, as scaling by a power of two is exact
        out = xd * xd
        out *= -0.5
        np.exp(out, out=out)
        out *= _INV_SQRT_2PI
        out *= xd
        out += phi_cdf
        out *= g
        return out

    return _record(xd * phi_cdf, (x,), grad_x)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Normalize each row (last axis) to unit Euclidean norm.

    Rows with norm below L2_GUARD pass through unchanged instead of dividing
    by ~0; their gradient is the identity.
    """
    xd = x.data
    norms = np.sqrt((xd * xd).sum(axis=-1, keepdims=True))
    small = norms < L2_GUARD
    safe = np.where(small, 1.0, norms)

    def grad_x(g):
        dot = (g * xd).sum(axis=-1, keepdims=True)
        return np.where(small, g, g / safe - xd * dot / (safe ** 3))

    return _record(xd / safe, (x,), grad_x)


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape, leaves: Iterable[Tensor] = ()) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Only here are constant inputs skipped and gradients unbroadcast and
    accumulated. Leaves listed in `leaves` that are not on the loss's
    dependency cone get an explicit zero gradient.

    The sweep reads only the tape's slots: their `grad` and `shape`. It
    consumes the tape: each entry is popped as it is reached, so its
    gradient functions and the arrays they saved are freed, and each
    interior slot's grad is reset to None once its inputs have their share.
    Afterwards `tape.nodes` is empty and only leaves hold gradients, which
    nothing writes into.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    root = loss._slot if loss._slot is not None else loss
    root.grad = np.ones((), dtype=DTYPE)
    nodes = tape.nodes
    while nodes:
        out, inputs, grad_fns = nodes.pop()
        if out.grad is None:
            continue
        g = np.asarray(out.grad, dtype=DTYPE)
        out.grad = None
        for slot, grad_fn in zip(inputs, grad_fns):
            if slot is not None:
                gp = _unbroadcast(grad_fn(g), slot.shape)
                slot.grad = gp if slot.grad is None else slot.grad + gp

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
