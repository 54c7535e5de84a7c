"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy float64 array. Every operation records
its inputs and a vector-Jacobian closure on the output tensor whenever any
input requires gradients, building an implicit tape. A closure returns one
gradient per input and may return ``None`` for an input that does not require
gradients, so it computes only what backward uses. ``backward`` replays the
tape in reverse topological order, accumulates gradients into leaf tensors, and
frees each node's closure and inputs as soon as it has been processed. Work
only backward needs, such as the arg index of ``reduce_max``/``reduce_min``,
is done inside the closure, so a forward-only pass never pays for it.

Inside ``with no_grad():`` no op records anything: results are plain tensors
without closures or inputs, so a forward-only pass keeps no activation alive
beyond the tensors it returns. The context nests and restores the previous
state on exit, also after an exception.

Each op, each ``Tensor(...)`` and each gradient that backward computes or
sums is checked for NaN/Inf, and a non-finite value raises ``NumericsError``
naming the op. ``run_deferred`` skips these per-op checks for a whole pass and
checks only what leaves it. On a non-finite output it replays the pass with the
per-op checks on, so the abort still names the first op that went wrong; the
replay recomputes instead of keeping state (arXiv 1604.06174). Training steps
and forward-only model passes run this way.
"""

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Operand shapes are invalid for the requested op."""


class NumericsError(ArithmeticError):
    """An op produced NaN or Inf; ``op`` names it (None when unknown)."""

    def __init__(self, message, op=None):
        super().__init__(message)
        self.op = op


class GraphError(RuntimeError):
    """Backward called on an invalid or already-consumed graph."""


_recording = True   # False inside no_grad()
_deferred = False   # True inside run_deferred's pass: only its outputs are checked


@contextmanager
def no_grad():
    """Run ops without recording the tape; results never require grad."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


@contextmanager
def _deferring():
    """Per-op finiteness checks off, restored on exit."""
    global _deferred
    previous, _deferred = _deferred, True
    try:
        # the outputs' check reports what floating-point warnings would have
        with np.errstate(all="ignore"):
            yield
    finally:
        _deferred = previous


def _check_finite(data, op):
    if not _deferred and not np.isfinite(data).all():
        raise NumericsError(f"{op}: produced non-finite values", op=op)


def run_deferred(fn, outputs):
    """``fn()`` with the per-op finiteness checks deferred to what leaves it.

    ``outputs(result)`` is a dict of named arrays. If one holds NaN or Inf,
    ``fn()`` runs again with per-op checks, so the first op that made a
    non-finite value raises ``NumericsError``. That replay is exact only if
    ``fn`` is deterministic and its first run changed nothing it reads. A
    replay that raises nothing raises ``NumericsError`` naming the output.
    Values are the same with the checks on or off. The replay runs in the
    caller's mode, so a deferred pass must not run inside another one.
    """
    with _deferring():
        result = fn()
    for name, data in outputs(result).items():
        if not np.isfinite(data).all():
            fn()
            raise NumericsError(f"{name}: non-finite values that no op check caught", op=name)
    return result


class Tensor:
    """Float64 array with optional gradient tracking.

    ``data`` is always a C-contiguous float64 ndarray. ``grad`` is filled by
    ``backward`` for leaf tensors with ``requires_grad`` and accumulates
    across successive backward calls until ``grad`` is cleared.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op", "_done")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape, unlike unconditional copy
        _check_finite(arr, "tensor")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None
        self._op = "leaf"
        self._done = False

    @classmethod
    def _wrap(cls, arr):
        # internal fast path: arr is a float64 ndarray already validated by the op
        t = object.__new__(cls)
        t.data = arr
        t.grad = None
        t.requires_grad = False
        t._parents = ()
        t._vjp = None
        t._op = "leaf"
        t._done = False
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and ndarrays are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes=None):
        return transpose(self, axes)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _result(op, data, parents, vjp, check=True):
    # check=False is reserved for pure data-movement ops, which cannot
    # introduce non-finite values into already-validated inputs
    if check:
        _check_finite(data, op)
    out = Tensor._wrap(np.asarray(data, dtype=np.float64))
    if not _recording:
        return out
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
            out._op = op
            break
    return out


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _result("add", data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def neg(a):
    a = _as_tensor(a)
    return _result("neg", -a.data, (a,), lambda g: (-g,), check=False)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return _result("mul", data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def power(a, exponent):
    """Elementwise a**c for a real scalar exponent."""
    a = _as_tensor(a)
    c = float(exponent)
    data = a.data ** c
    return _result("power", data, (a,), lambda g: (g * c * a.data ** (c - 1.0),))


def exp(a):
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)  # overflow surfaces via the finite check
    return _result("exp", data, (a,), lambda g: (g * data,))


def log(a):
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _result("log", data, (a,), lambda g: (g / a.data,))


def gelu(a):
    """Gaussian error linear unit, exact erf form, in place on its own temporaries.

    The op order is that of ``x * (0.5 * (1 + erf(x * (1 / sqrt(2)))))``, bit for bit."""
    a = _as_tensor(a)
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))  # an array also when x is 0-d
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not _recording:
        cdf *= x          # no vjp keeps cdf, and cdf * x is x * cdf bit for bit
        return _result("gelu", cdf, (a,), None)
    data = x * cdf

    def vjp(g):
        t = np.multiply(x, -0.5, out=np.empty_like(x))
        t *= x
        np.exp(t, out=t)
        t *= _INV_SQRT2PI     # pdf
        t *= x
        t += cdf
        t *= g
        return (t,)

    return _result("gelu", data, (a,), vjp)


def minimum(a, b):
    """Elementwise min; at ties the gradient routes to the first argument."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        take_a = a.data <= b.data
    except ValueError:
        raise ShapeError(f"minimum: shapes {a.shape} and {b.shape} do not broadcast")
    data = np.where(take_a, a.data, b.data)
    return _result("minimum", data, (a, b), lambda g: (
        _unbroadcast(g * take_a, a.shape), _unbroadcast(g * ~take_a, b.shape)),
        check=False)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape):
    a = _as_tensor(a)
    if isinstance(shape, int):
        shape = (shape,)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    old = a.shape
    return _result("reshape", data, (a,), lambda g: (g.reshape(old),), check=False)


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _result("transpose", a.data.transpose(axes), (a,),
                   lambda g: (g.transpose(inverse),), check=False)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in tensors]} mismatch on axis {axis}")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result("concat", data, tensors, vjp, check=False)


def gather(a, indices, axis=0):
    """Select rows along ``axis`` by integer index; duplicates accumulate in backward.

    Backward adds ``g`` into zeros, so a zero row takes ``0.0 + g`` (``-0.0``
    becomes ``0.0``). Indices of any shape naming distinct rows add with one
    fancy ``+=``; duplicates, including a negative index aliasing a positive one,
    take ``np.add.at``. Both give the same bits.
    """
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    n = a.shape[axis]
    axis %= a.ndim
    if idx.size and (idx.min() < -n or idx.max() >= n):
        raise ShapeError(f"gather: index out of range for axis {axis} of {a.shape}")
    data = np.take(a.data, idx, axis=axis)

    def vjp(g):
        ga = np.zeros_like(a.data)
        # the index's axes of g go to the front, where add.at expects them
        moved = np.moveaxis(ga, axis, 0)
        g = np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim))
        rows = idx % n
        if np.unique(rows).size == rows.size:
            moved[rows] += g
        else:
            np.add.at(moved, idx, g)
        return (ga,)

    return _result("gather", data, (a,), vjp, check=False)


def broadcast_to(a, shape):
    a = _as_tensor(a)
    try:
        data = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {tuple(shape)}")
    return _result("broadcast_to", data, (a,), lambda g: (_unbroadcast(g, a.shape),), check=False)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product with numpy batching semantics; operands must be >= 2-D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are not aligned")

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _result("matmul", data, (a, b), vjp)


def linear(x, weight, bias):
    """x @ weight + bias; x is (..., in) and weight is (in, out).

    All leading axes of ``x`` are flattened into the rows of one GEMM, so the
    weight gradient is one GEMM too rather than a per-item sum. ``bias`` is
    (out,) or any shape that broadcasts to the (..., out) result without
    enlarging it, such as a per-item (v, 1, out) term; it is added in place.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if weight.ndim != 2:
        raise ShapeError(f"linear: weight {weight.shape} is not 2-D")
    if x.ndim < 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {weight.shape}")
    n_in, n_out = weight.shape
    shape = x.shape[:-1] + (n_out,)
    dims = zip(bias.shape[::-1], shape[::-1])
    if bias.ndim > len(shape) or any(b not in (1, o) for b, o in dims):
        raise ShapeError(f"linear: bias {bias.shape} does not broadcast to output {shape}")
    x2 = x.data.reshape(math.prod(x.shape[:-1]), n_in)
    data = (x2 @ weight.data).reshape(shape)
    data += bias.data

    def vjp(g):
        g2 = g.reshape(x2.shape[0], n_out)
        gx = (g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if weight.requires_grad else None
        gb = None
        if bias.requires_grad:
            gb = g2.sum(axis=0) if bias.shape == (n_out,) else _unbroadcast(g, bias.shape)
        return (gx, gw, gb)

    return _result("linear", data, (x, weight, bias), vjp)


def sqdist(a, b):
    """Pairwise squared Euclidean distances.

    ``a`` is (..., p, d) and ``b`` is (..., q, d); the result is (..., p, q)
    with entry [i, j] = ||a_i - b_j||^2, a sum of squares (``pairwise_sqdist``)
    so values are exactly non-negative. Only the vjp builds the (..., p, q, d)
    difference array, so the tape does not hold it.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"sqdist: shapes {a.shape} and {b.shape} are incompatible")
    data = pairwise_sqdist(a.data, b.data)

    def vjp(g):
        diff = a.data[..., :, None, :] - b.data[..., None, :, :]
        weighted = 2.0 * g[..., None] * diff
        ga = _unbroadcast(weighted.sum(axis=-2), a.shape)
        gb = _unbroadcast(-weighted.sum(axis=-3), b.shape)
        return (ga, gb)

    return _result("sqdist", data, (a, b), vjp)


def pairwise_sqdist(a, b):
    """Plain-numpy squared distances (..., m, q) of (..., m, d) and (..., q, d) arrays.

    Leading axes broadcast. The sum runs per coordinate plane, dx*dx + dy*dy +
    dz*dz in that order: for d < 8 the bits of ``np.sum(diff * diff, axis=-1)``
    without its (..., m, q, d) difference array (numpy sums 8+ terms pairwise).
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    lead = max(a.ndim, b.ndim)
    a, b = a[(None,) * (lead - a.ndim)], b[(None,) * (lead - b.ndim)]
    return plane_sqdist(coordinate_planes(a)[..., :, None], coordinate_planes(b)[..., None, :])


def coordinate_planes(x):
    """(..., d) coordinates as d contiguous (...) coordinate planes."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def plane_sqdist(a, b):
    """sum over c of (a[c] - b[c])**2 for broadcastable stacks of coordinate planes."""
    d = a[0] - b[0]
    d *= d
    t = np.empty_like(d)
    for c in range(1, a.shape[0]):
        np.subtract(a[c], b[c], out=t)
        t *= t
        d += t
    return d


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _expand_reduced(g, shape, axis):
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    return np.broadcast_to(np.expand_dims(g, axis), shape).copy()


def reduce_sum(a, axis=None):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)
    shape = a.shape
    return _result("reduce_sum", data, (a,),
                   lambda g: (_expand_reduced(g, shape, axis),))


def reduce_mean(a, axis=None):
    a = _as_tensor(a)
    data = a.data.mean(axis=axis)
    shape = a.shape
    count = a.size if axis is None else shape[axis]
    return _result("reduce_mean", data, (a,),
                   lambda g: (_expand_reduced(g / count, shape, axis),))


def _reduce_extreme(op, a, axis, arg_fn, np_fn):
    # the arg index is computed in the vjp, so a forward-only pass never pays for it
    a = _as_tensor(a)
    if a.size == 0:
        raise ShapeError(f"{op}: empty input")
    data = np_fn(a.data, axis=axis)

    def vjp(g):
        ga = np.zeros(a.shape)
        if axis is None:
            ga.reshape(-1)[arg_fn(a.data)] = g
        else:
            idx = np.expand_dims(arg_fn(a.data, axis=axis), axis)
            np.put_along_axis(ga, idx, np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return _result(op, data, (a,), vjp, check=False)


def reduce_max(a, axis=None):
    """Max along ``axis``; gradient routes to the first (lowest-index) argmax."""
    return _reduce_extreme("reduce_max", a, axis, np.argmax, np.max)


def reduce_min(a, axis=None):
    """Min along ``axis``; gradient routes to the first (lowest-index) argmin."""
    return _reduce_extreme("reduce_min", a, axis, np.argmin, np.min)


# ---------------------------------------------------------------------------
# neural-net ops
# ---------------------------------------------------------------------------

def softmax(a):
    """Numerically stable softmax over the last axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - inner),)

    return _result("softmax", data, (a,), vjp, check=False)


def layer_norm(x, gain, bias):
    """Layer normalization over the last axis (eps 1e-5) with learnable gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match last axis {dim}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    data = gain.data * xhat + bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead)
        g_bias = g.sum(axis=lead)
        gx_hat = g * gain.data
        gx = inv_std * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return (gx, g_gain, g_bias)

    return _result("layer_norm", data, (x, gain, bias), vjp)


def dropout(x, p, train, rng=None):
    """Inverted-scaling dropout; identity when not training or p == 0."""
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout: rate {p} outside [0, 1)")
    if not train or p == 0.0:
        return _result("dropout", x.data.copy(), (x,), lambda g: (g,), check=False)
    if rng is None:
        raise ShapeError("dropout: rng required in train mode with p > 0")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return _result("dropout", x.data * keep, (x,), lambda g: (g * keep,), check=False)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topo_order(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss):
    """Run reverse-mode differentiation from a scalar loss.

    Gradients accumulate into ``.grad`` of every reachable leaf tensor that
    requires grad. The tape is freed as backward goes; a second backward
    through the same graph raises ``GraphError``, also after a backward that
    failed midway.
    """
    if not isinstance(loss, Tensor):
        raise GraphError("backward: loss must be a Tensor")
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._done:
        raise GraphError("backward: graph already consumed")
    if not loss.requires_grad:
        raise GraphError("backward: loss does not require grad "
                         "(computed under no_grad, or a model call with train=False?)")

    order = _topo_order(loss)
    for node in order:
        # freed intermediates keep their op tag; catching them here prevents
        # silently treating a consumed subgraph as a constant leaf
        if node._op != "leaf" and node._vjp is None:
            raise GraphError("backward: graph already consumed")
    loss._done = True

    # each node is freed as soon as it is processed: all of its consumers come
    # before it in reverse topological order, so nothing reads its closure again
    grads = {id(loss): np.ones_like(loss.data)}
    for i in range(len(order) - 1, -1, -1):
        node, order[i] = order[i], None
        g = grads.pop(id(node), None)
        vjp, parents = node._vjp, node._parents
        node._vjp, node._parents = None, ()
        if g is None:
            continue
        if vjp is None:
            # leaf: accumulate across backward calls
            if node.grad is not None:
                g = node.grad + g
                _check_finite(g, "backward(leaf)")
            node.grad = g
            continue
        op = f"backward({node._op})"
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            _check_finite(pg, op)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
                _check_finite(grads[key], op)   # two finite halves can overflow
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def numeric_gradient(fn, tensors, index, eps=1e-5):
    """Central-difference gradient of scalar ``fn(*tensors)`` w.r.t. one input."""
    base = tensors[index].data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = float(fn(*tensors).data)
        flat[i] = keep - eps
        lo = float(fn(*tensors).data)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def gradient_check(fn, tensors, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must map the given tensors to a scalar tensor. Entries where both
    gradients are below 1e-6 in magnitude are treated as agreeing.
    """
    for t in tensors:
        t.zero_grad()
    loss = fn(*tensors)
    backward(loss)
    worst = 0.0
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(fn, tensors, i, eps=eps)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        err = np.abs(analytic - numeric)
        mask = scale > 1e-6
        if np.any(mask):
            worst = max(worst, float((err[mask] / scale[mask]).max()))
    return worst
