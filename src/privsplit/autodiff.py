"""Dense float64 or float32 tensors with reverse-mode automatic differentiation.

Just enough machinery for small fully-connected networks: 1-D/2-D arrays,
broadcasting limited to what bias vectors need, and gradients accumulated by
walking the operation graph in reverse topological order. Everything is
value-semantic and single-threaded; determinism comes from numpy's fixed
reduction order.

An op's output keeps a closure that :func:`backward` calls with the output's
gradient as its argument. The closure refers to the op's inputs but never to
its own output, so a graph holds no reference cycle: once the last name bound
to its loss goes, reference counting frees every node and its arrays at once,
without waiting for the cyclic garbage collector.

Dtypes follow the data. A float32 array stays float32: every op on float32
operands yields a float32 output, :func:`backward` seeds a float32 loss
with a float32 one, and every gradient an op routes is float32. Any other
input (Python numbers, integer, bool or float16 arrays) becomes float64 as
before, so float64 graphs compute exactly what they did. A constant made
inside an op takes its operand's dtype by an explicit cast rather than by
NumPy's promotion of a 0-d array against a Python number, which changed
with NEP 50 in NumPy 2 (the legacy rule widens a 0-d float32 to float64).
Mixing float32 and float64 operands promotes to float64; keep one graph in
one dtype.

``matmul`` and ``dense`` reject a NaN or infinite operand with
:class:`NonFiniteError`, but they scan only the product, which is far
smaller than the operands (64 x 128 values against 64 x 1024 + 1024 x 128
in an image layer). That is exact under IEEE arithmetic: a NaN or an
infinity in row i of the left operand, or in column j of the right one,
turns every entry of row i, or of column j, of a non-empty product into a
NaN or an infinity, since NaN times anything is NaN and 0 times infinity
is NaN too. This needs a matmul kernel that skips no zero term;
``tests/test_autodiff.py::TestNonFiniteOperands`` checks the linked BLAS,
zero partners included, at every layer shape. Only when the product is
not finite, or is empty, are the operands scanned, which names the op
that saw them; a product that overflowed from finite operands passes as
it did before.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

# Probabilities are kept strictly inside (0, 1) so log never sees 0 or 1.
# Shared by the sigmoid op here and the cross-entropy losses downstream.
PROB_EPS = 1e-7

_FLOAT32 = np.dtype(np.float32)


def _const(value: float, like: np.ndarray):
    """`value` as a NumPy scalar of `like`'s dtype, so that it cannot widen a 0-d operand."""
    return like.dtype.type(value)


class Tensor:
    """A node of the computation graph.

    ``data`` is a float32 or float64 ndarray (anything else is converted to
    float64), ``grad`` (same shape and dtype) is populated by
    :func:`backward` for nodes with ``requires_grad``. Leaf tensors are
    parameters or constants; op outputs carry a closure that takes the
    output gradient and routes it to the parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != _FLOAT32:
            arr = arr.astype(np.float64, copy=False)
        if arr.ndim > 2:
            raise ValueError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the actual rules live in the module-level functions
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data: np.ndarray, parents: Sequence[Tensor],
        backprop: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


class NonFiniteError(ValueError):
    """An op saw a NaN or infinite input."""


def _require_finite(t: Tensor, op: str) -> None:
    if not np.isfinite(t.data).all():
        raise NonFiniteError(f"{op}: non-finite input values")


def _checked_product(a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``a @ b``, raising NonFiniteError when either operand is not finite.

    Only the product is scanned; the operands are scanned, in the order
    a then b, only when the product is empty or not finite. See the module
    docstring for why that finds every non-finite operand.
    """
    # 0 * inf raises the invalid flag; the operand scan below reports it instead
    with np.errstate(invalid="ignore"):
        out = a.data @ b.data
    if out.size == 0 or not np.isfinite(out).all():
        _require_finite(a, op)
        _require_finite(b, op)
    return out


def _accumulate(t: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add `grad` into ``t.grad``.

    The first gradient of a pass is stored rather than added to zeros. It is
    copied unless the caller `owned` it (a fresh array no one else holds),
    because an op's output gradient, a view of one or a broadcast can be
    shared by several parents.
    """
    if t.grad is not None:
        t.grad += grad
    elif grad.shape != t.data.shape:
        t.grad = np.broadcast_to(grad, t.data.shape).copy()
    else:
        t.grad = grad if owned else grad.copy()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Graph:
    """Ordered view of every op reachable from a root tensor.

    ``nodes`` is a topological order built by post-order traversal, so each
    tensor appears after all of its parents; the backward pass walks it once
    in reverse.
    """

    def __init__(self, root: Tensor):
        nodes: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)


def backward(loss: Tensor, graph: Graph | None = None) -> dict[Tensor, np.ndarray]:
    """Populate gradients of everything `loss` depends on.

    Grads of tensors inside the graph are cleared first and each node's
    first incoming gradient is stored, later ones added, so repeated calls
    from the same state are bitwise identical. Returns the gradient map for
    the requires-grad leaves (the parameters).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if graph is None:
        graph = Graph(loss)
    for node in graph.nodes:
        if node.requires_grad:
            node.grad = None
    if not loss.requires_grad:
        return {}
    loss.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._backprop is not None and node.requires_grad:
            node._backprop(node.grad)
    return {n: n.grad for n in graph.nodes if n.requires_grad and not n._parents}


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out_grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out_grad, b.data.shape))

    return _op(out_data, (a, b), backprop)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out_grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(out_grad, b.data.shape), owned=True)

    return _op(out_data, (a, b), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out_grad * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out_grad * a.data, b.data.shape), owned=True)

    return _op(out_data, (a, b), backprop)


def neg(a: Tensor) -> Tensor:
    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, -out_grad, owned=True)

    return _op(-a.data, (a,), backprop)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out_data = _checked_product(a, b, "matmul")

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, out_grad @ b.data.T, owned=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ out_grad, owned=True)

    return _op(out_data, (a, b), backprop)


# Each activation is (forward(x, out=None), grad(y, out_grad)); the gradient
# is written in terms of the output y, so the input need not be kept.


def _tanh_grad(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    d = y * y
    np.subtract(1.0, d, out=d)
    d *= grad
    return d


def _relu_forward(x: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(x, _const(0.0, x), out=out)


def _relu_grad(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return (y > 0.0) * grad


def _sigmoid_forward(x: np.ndarray, out=None) -> np.ndarray:
    """Numerically stable logistic, clamped into [PROB_EPS, 1-PROB_EPS].

    The clamp keeps outputs strictly inside (0, 1) even for inputs like
    +-1e6 where float64 would round to exactly 0 or 1.
    """
    one = _const(1.0, x)
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, one / (one + e), e / (one + e))
    return np.clip(y, _const(PROB_EPS, x), _const(1.0 - PROB_EPS, x), out=out)


def _sigmoid_grad(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    d = _const(1.0, y) - y
    d *= y
    d *= grad
    return d


_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_grad),
    "relu": (_relu_forward, _relu_grad),
    "sigmoid": (_sigmoid_forward, _sigmoid_grad),
}


def _activation_fns(kind: str):
    try:
        return _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None


def _elementwise(a: Tensor, kind: str) -> Tensor:
    forward, grad_of = _ACTIVATIONS[kind]
    y = forward(a.data)

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, grad_of(y, out_grad), owned=True)

    return _op(y, (a,), backprop)


def tanh(a: Tensor) -> Tensor:
    return _elementwise(a, "tanh")


def relu(a: Tensor) -> Tensor:
    return _elementwise(a, "relu")


def sigmoid(a: Tensor) -> Tensor:
    """Logistic clamped into [PROB_EPS, 1-PROB_EPS], strictly inside (0, 1)."""
    return _elementwise(a, "sigmoid")


def activation(t: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity, one of tanh / relu / sigmoid."""
    _activation_fns(kind)
    _require_finite(t, f"activation[{kind}]")
    return _elementwise(t, kind)


def dense(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """``act(x @ w + b)`` as one graph node; `act` None keeps it linear.

    Output and gradients equal the matmul -> add -> activation chain
    bitwise, and the same finiteness checks run: on the matmul inputs (by
    way of their product), and on the pre-activation when there is an
    activation. The bias gradient is the column sum of the pre-activation
    gradient.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"dense shape mismatch: {x.data.shape} x {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"dense bias shape {b.data.shape}, expected ({w.data.shape[1]},)")
    grad_of = None
    if act is not None:
        forward, grad_of = _activation_fns(act)
    y = _checked_product(x, w, "dense")
    y += b.data
    if act is not None:
        if not np.isfinite(y).all():
            raise NonFiniteError(f"dense[{act}]: non-finite pre-activation values")
        forward(y, out=y)

    def backprop(out_grad):
        g = out_grad if grad_of is None else grad_of(y, out_grad)
        if x.requires_grad:
            _accumulate(x, g @ w.data.T, owned=True)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g, owned=True)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0), owned=True)

    return _op(y, (x, w, b), backprop)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, y * out_grad, owned=True)

    return _op(y, (a,), backprop)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: inputs must be strictly positive")

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, out_grad / a.data, owned=True)

    return _op(np.log(a.data), (a,), backprop)


def square(a: Tensor) -> Tensor:
    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, _const(2.0, a.data) * a.data * out_grad, owned=True)

    return _op(a.data * a.data, (a,), backprop)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes through the interior only."""
    mask = (a.data >= lo) & (a.data <= hi)

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, mask * out_grad, owned=True)

    return _op(np.clip(a.data, _const(lo, a.data), _const(hi, a.data)), (a,), backprop)


def tsum(a: Tensor) -> Tensor:
    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, out_grad.reshape(()))

    return _op(np.asarray(a.data.sum()), (a,), backprop)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, out_grad.reshape(()) / _const(n, out_grad))

    return _op(np.asarray(a.data.mean()), (a,), backprop)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = list(parts)
    widths = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backprop(out_grad):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                if axis == 1:
                    _accumulate(p, out_grad[:, start:stop])
                else:
                    _accumulate(p, out_grad[start:stop])

    return _op(np.concatenate([p.data for p in parts], axis=axis), parts, backprop)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"slice_cols needs a 2-D tensor, got shape {a.data.shape}")

    def backprop(out_grad):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[:, start:stop] += out_grad

    return _op(a.data[:, start:stop].copy(), (a,), backprop)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of row-wise softmax against integer labels."""
    labels = np.asarray(labels)
    z = logits.data
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ValueError(f"cross entropy shape mismatch: logits {z.shape}, labels {labels.shape}")
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    loss = np.asarray((lse[:, 0] - z[rows, labels]).mean(), dtype=z.dtype)

    def backprop(out_grad):
        if logits.requires_grad:
            soft = np.exp(z - lse)
            soft[rows, labels] -= 1.0
            _accumulate(logits, soft * (out_grad.reshape(()) / _const(z.shape[0], z)),
                        owned=True)

    return _op(loss, (logits,), backprop)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be a deterministic zero-argument closure over `params` returning
    a scalar tensor. Relative error per entry is
    |analytic - numeric| / max(1e-12, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = list(params)
    grads = backward(f())
    analytic = [grads[p].copy() if p in grads else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = f().item()
            flat[i] = saved - eps
            lo = f().item()
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(a_flat[i] - numeric) / max(1e-12, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
