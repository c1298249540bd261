"""Dense tensors with reverse-mode automatic differentiation.

Every network operation in this package is built from the primitives here.
Arrays are numpy; the graph is define-by-run. backward() ACCUMULATES into
the ``.grad`` of leaf tensors only (call ``zero_grads`` before each optimizer
step); an intermediate's gradient is freed once it has been passed on.

A tensor keeps the float dtype it is given (integer data becomes float64)
and an op computes in its operands' dtype, so precision belongs to the
parameters: float64 for gradient checking, float32 for faster training.

Importing this module fixes glibc's malloc thresholds (see
:func:`fix_malloc_thresholds`).
"""

from __future__ import annotations

import ctypes
import math
import sys
from typing import Callable, Optional

import numpy as np

PRECISIONS = {"float32": np.float32, "float64": np.float64}

# glibc mallopt parameters (malloc.h) and the values this package fixes:
# the highest its sliding thresholds reach on 64-bit (mmap 32 MiB, trim
# twice that)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # bytes; larger blocks get their own mapping
TRIM_THRESHOLD = 64 << 20  # bytes of free heap top kept before any is returned


def fix_malloc_thresholds(libc=None, platform: str = sys.platform) -> None:
    """Fix glibc's mmap and trim thresholds instead of letting them slide.

    Left to itself, glibc moves both thresholds as memory is freed and hands
    free heap back to the kernel whenever it exceeds the trim threshold, so
    an op's temporaries go back after the op and the next op faults them in
    again (about 2,700 minor faults in each batch of 16 tagged documents).
    With fixed thresholds, freed arrays stay in the heap and are reused.
    Elsewhere than Linux, or where the C library has no `mallopt` (not
    glibc), this does nothing."""
    if platform != "linux":
        return
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


fix_malloc_thresholds()


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def set_dtype(dtype) -> None:
    """Does nothing: a tensor keeps the dtype of its data. Kept only because
    the benchmark's workloads (perfbench/workloads.py) still call it."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to `shape` by summing the
    broadcast axes."""
    lead = grad.ndim - len(shape)
    if lead > 0:
        grad = grad.sum(axis=tuple(range(lead)))
    kept = tuple(axis for axis, size in enumerate(shape)
                 if size == 1 and grad.shape[axis] != 1)
    if kept:
        grad = grad.sum(axis=kept, keepdims=True)
    return grad


class Tensor:
    """N-d array plus the bookkeeping needed for reverse-mode autodiff.

    `grad` is populated by :func:`backward` for every leaf tensor (one no
    op produced) with ``requires_grad`` reachable from the loss; repeated
    backward calls without :func:`zero_grads` add up.
    """

    # __weakref__ lets a caller watch when a graph is freed
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float64)
        elif arr.dtype.kind != "f":
            raise TypeError(f"tensor data must be numeric, got dtype {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = _parents
        self._backward: Optional[Callable] = _backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        requires = False
        for p in parents:
            if p.requires_grad:
                requires = True
                break
        if type(data) is not np.ndarray:
            return Tensor(
                data,
                requires_grad=requires,
                _parents=tuple(parents) if requires else (),
                _backward=backward if requires else None,
            )
        # an op's own output array: already of its operands' float dtype
        out = object.__new__(Tensor)
        out.data = data
        out.requires_grad = requires
        out.grad = None
        out._parents = tuple(parents) if requires else ()
        out._backward = backward if requires else None
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Tensor"):
        out = self.data + other.data

        def back(g):
            # a constant operand (e.g. the attention mask bias) gets no
            # gradient, so its broadcast is not reduced
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        return Tensor._result(out, (self, other), back)

    def __mul__(self, factor):
        """Scaling by a constant (a number or an array)."""
        factor = np.asarray(factor, dtype=self.data.dtype)
        out = self.data * factor
        return Tensor._result(
            out, (self,), lambda g: (_unbroadcast(g * factor, self.shape),)
        )

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out = self.data.reshape(shape)
        return Tensor._result(out, (self,), lambda g: (g.reshape(old),))

    def swapaxes(self, a: int, b: int):
        out = self.data.swapaxes(a, b)
        return Tensor._result(out, (self,), lambda g: (g.swapaxes(a, b),))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch semantics ([..., m, k] @ [..., k, n])."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    out = ad @ bd

    def back(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return Tensor._result(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` in one op: rows `x` [..., k], a weight [k, n] and a bias
    [n]. The product runs as one 2-d matrix product over all rows, and the
    bias is added to it in place."""
    xd, wd = x.data, w.data
    k, n = wd.shape
    if xd.shape[-1] != k or b.shape != (n,):
        raise ShapeError(f"linear: {x.shape} x {w.shape} + {b.shape}")
    x2 = xd.reshape(-1, k)
    out = x2 @ wd
    out += b.data

    def back(g):
        g2 = g.reshape(-1, n)
        return (g2 @ wd.T).reshape(xd.shape), x2.T @ g2, g2.sum(axis=0)

    return Tensor._result(out.reshape(xd.shape[:-1] + (n,)), (x, w, b), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Standardize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm: empty last axis")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}"
        )
    # each temporary is updated in place; the arithmetic and its order are
    # those of the plain formulas, so the bits are too
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv

    out = xhat * gamma.data
    out += beta.data

    def back(g):
        dgamma = _unbroadcast(g * xhat, gamma.shape)
        dbeta = _unbroadcast(g, beta.shape)
        dx = g * gamma.data  # d/dxhat
        m1 = dx.sum(axis=-1, keepdims=True) / d
        m2 = (dx * xhat).sum(axis=-1, keepdims=True) / d
        dx -= m1
        dx -= xhat * m2
        dx *= inv
        return dx, dgamma, dbeta

    return Tensor._result(out, (x, gamma, beta), back)


# tanh-approximation constants; fixed so runs are reproducible bit-for-bit
_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, tanh approximation:
    0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    # computed in place, in the order of the formula (and of its
    # derivative), so the bits are those of the plain expressions
    xd = x.data
    t = xd * xd * xd
    t *= _GELU_C
    t += xd
    t *= _GELU_K
    np.tanh(t, out=t)
    out = 0.5 * xd
    out *= 1.0 + t

    def back(g):
        # 0.5*(1 + t) + 0.5*x*(1 - t^2)*du, du = K*(1 + 3C*x^2)
        du = 3.0 * _GELU_C * xd
        du *= xd
        du += 1.0
        du *= _GELU_K
        rest = t * t
        np.subtract(1.0, rest, out=rest)
        rest *= 0.5 * xd
        rest *= du
        dx = 1.0 + t
        dx *= 0.5
        dx += rest
        dx *= g
        return (dx,)

    return Tensor._result(out, (x,), back)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Rows of `table` at `ids`; gradients of repeated ids sum into the row."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        ids = ids.astype(np.int64)
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids.reshape(-1)[np.argmax((ids < 0) | (ids >= vocab))])
        raise IndexError(f"embedding id {bad} out of range for table of {vocab} rows")
    out = table.data[ids]

    def back(g):
        # sort the ids so each distinct row is one contiguous run, then sum
        # the runs; cheaper than an unbuffered scatter-add
        flat = ids.reshape(-1)
        rows = g.reshape((len(flat),) + table.shape[1:])
        gt = np.zeros(table.shape, dtype=g.dtype)
        if len(flat):
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            gt[sorted_ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
        return (gt,)

    return Tensor._result(out, (table,), back)


# Packed rows: a batch's real tokens as rows [N, d], in row-major order of
# their [B, L] positions. `index` names those positions as np.nonzero gives
# them, (batch indices, sequence indices); each appears at most once, so a
# scatter needs no accumulation.


def _scatter(rows: np.ndarray, index, shape: tuple) -> np.ndarray:
    """A zero array of `shape` holding `rows` at `index`."""
    out = np.zeros(shape, dtype=rows.dtype)
    out[index] = rows.reshape((len(rows),) + tuple(shape[len(index):]))
    return out


def scatter_rows(x: Tensor, index, shape: tuple) -> Tensor:
    """Rows `x` placed at `index` of a zero array of `shape`."""
    return Tensor._result(_scatter(x.data, index, shape), (x,),
                          lambda g: (g[index],))


def gather_rows(x: Tensor, index) -> Tensor:
    """The rows of `x` at `index`, distinct positions of its leading axes."""
    shape = x.shape
    return Tensor._result(x.data[index], (x,),
                          lambda g: (_scatter(g, index, shape),))


def split_heads(x: Tensor, index, batch: int, seq_len: int, n_heads: int) -> Tensor:
    """Packed rows [N, d] to attention heads [batch, n_heads, seq_len,
    d / n_heads], zero at every position `index` does not name."""
    n, d = x.shape
    shape = (batch, seq_len, n_heads, d // n_heads)
    return Tensor._result(
        _scatter(x.data, index, shape).swapaxes(1, 2), (x,),
        lambda g: (g.swapaxes(1, 2)[index].reshape(n, d),),
    )


def merge_heads(x: Tensor, index) -> Tensor:
    """Heads [B, H, L, e] merged back to packed rows [N, H * e] at `index`;
    the inverse of :func:`split_heads`."""
    batch, n_heads, seq_len, e = x.shape
    shape = (batch, seq_len, n_heads, e)
    return Tensor._result(
        x.data.swapaxes(1, 2)[index].reshape(-1, n_heads * e), (x,),
        lambda g: (_scatter(g, index, shape).swapaxes(1, 2),),
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def back(g):
        # (g - sum(g * y)) * y, in place
        dx = g * y
        np.subtract(g, dx.sum(axis=axis, keepdims=True), out=dx)
        dx *= y
        return (dx,)

    return Tensor._result(y, (x,), back)


def softmax_cross_entropy(logits: Tensor, targets, ignore_label: int = -100) -> Tensor:
    """Mean negative log-softmax probability over positions whose target is
    not `ignore_label`. All positions ignored -> 0 with zero gradient.

    `logits` may have any leading shape; the class axis is last. `targets`
    must have the matching leading shape.
    """
    num_classes = logits.shape[-1]
    targets = np.asarray(targets)
    if targets.dtype.kind not in "iu":
        targets = targets.astype(np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    flat_t = targets.reshape(-1)
    valid = flat_t != ignore_label
    bad = valid & ((flat_t < 0) | (flat_t >= num_classes))
    if bad.any():
        raise IndexError(
            f"target {int(flat_t[np.argmax(bad)])} out of range for {num_classes} classes"
        )

    flat = logits.data.reshape(-1, num_classes)
    n = int(valid.sum())
    if n == 0:
        return Tensor._result(
            np.zeros((), dtype=logits.data.dtype),
            (logits,),
            lambda g: (np.zeros(logits.shape, dtype=g.dtype),),
        )

    # ignored rows take no part in the loss, so only the valid ones are
    # normalized
    rows = np.nonzero(valid)[0]
    sel = flat if n == len(flat) else flat[rows]
    tgt = flat_t[rows]
    m = sel.max(axis=-1, keepdims=True)
    z = sel - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    picked = np.arange(n)
    loss = -logp[picked, tgt].sum() / n

    def back(g):
        # d/dlogits = (softmax - onehot)/n on valid rows, 0 elsewhere
        p = np.exp(logp)
        p[picked, tgt] -= 1.0
        p *= float(g) / n
        if n == len(flat):
            return (p.reshape(logits.shape),)
        grad = np.zeros_like(flat)
        grad[rows] = p
        return (grad.reshape(logits.shape),)

    return Tensor._result(np.asarray(loss), (logits,), back)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; p == 0 returns the input tensor unchanged."""
    if p == 0.0:
        return x
    if not 0.0 < p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout with p > 0 needs an explicit rng for determinism")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x.data * mask
    return Tensor._result(out, (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every requires_grad leaf reachable from `loss`.

    Accumulates: each call adds the full dLoss/dTensor on top of whatever is
    already in `.grad`. Intermediate tensors keep no `.grad`: each one's
    gradient is dropped as soon as it has been passed to its parents.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {
        id(loss): np.ones(loss.shape, dtype=loss.data.dtype)
    }
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            # a leaf. g is exclusively ours after the pop; accumulations
            # build new arrays, so aliasing it into .grad is safe
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def detached(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Graph-free stand-ins for `params`, for forward-only work.

    Returns a new dict of ``requires_grad=False`` tensors that share each
    parameter's array (no copy), so in-place updates to a parameter show
    through. Ops on them record no parents or backward closures, so each
    intermediate is freed as soon as the next op has read it. The
    originals are left as they are, so this is safe while other threads
    train or predict with them."""
    return {name: Tensor(p.data) for name, p in params.items()}


def zero_grads(params) -> None:
    """Clear grads on a dict or iterable of tensors."""
    values = params.values() if hasattr(params, "values") else params
    for t in values:
        t.grad = None
