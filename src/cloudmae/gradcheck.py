"""Finite-difference verification of every differentiable op in the catalog.

Each entry builds a scalar-valued function of random tensors; analytic
gradients from the tape are compared against central differences. Random
projection weights keep the scalarization well conditioned.
"""

import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, gradient_check


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _proj(rng, shape):
    # fixed random weights so the reduction to a scalar has no symmetry
    return Tensor(rng.normal(size=shape))


def _check_add(rng):
    a, b = _t(rng, 4, 5), _t(rng, 5)
    w = _proj(rng, (4, 5))
    return lambda: ad.reduce_sum(ad.add(a, b) * w), (a, b)


def _check_mul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    w = _proj(rng, (3, 4))
    return lambda: ad.reduce_sum(ad.mul(a, b) * w), (a, b)


def _check_scalar_ops(rng):
    a = _t(rng, 6)
    w = _proj(rng, (6,))
    c = float(rng.uniform(0.5, 2.0))
    return lambda: ad.reduce_sum((2.0 * a + c - a / 3.0) * w), (a,)


def _check_power(rng):
    a = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
    w = _proj(rng, (5,))
    return lambda: ad.reduce_sum(ad.power(a, 1.7) * w), (a,)


def _check_exp(rng):
    a = _t(rng, 7)
    w = _proj(rng, (7,))
    return lambda: ad.reduce_sum(ad.exp(a) * w), (a,)


def _check_log(rng):
    a = Tensor(rng.uniform(0.5, 3.0, size=(7,)), requires_grad=True)
    w = _proj(rng, (7,))
    return lambda: ad.reduce_sum(ad.log(a) * w), (a,)


def _check_matmul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    w = _proj(rng, (3, 2))
    return lambda: ad.reduce_sum(ad.matmul(a, b) * w), (a, b)


def _check_matmul_batched(rng):
    a, b = _t(rng, 2, 3, 4), _t(rng, 2, 4, 3)
    w = _proj(rng, (2, 3, 3))
    return lambda: ad.reduce_sum(ad.matmul(a, b) * w), (a, b)


def _check_linear(rng):
    x, w_, b = _t(rng, 4, 3), _t(rng, 3, 5), _t(rng, 5)
    w = _proj(rng, (4, 5))
    return lambda: ad.reduce_sum(ad.linear(x, w_, b) * w), (x, w_, b)


def _check_linear_3d(rng):
    x, w_, b = _t(rng, 2, 3, 4), _t(rng, 4, 5), _t(rng, 5)
    w = _proj(rng, (2, 3, 5))
    return lambda: ad.reduce_sum(ad.linear(x, w_, b) * w), (x, w_, b)


def _check_linear_const_x(rng):
    # a constant input (raw point offsets, centers) gets no gradient computed
    x, w_, b = _proj(rng, (2, 4, 3)), _t(rng, 3, 5), _t(rng, 5)
    w = _proj(rng, (2, 4, 5))
    return lambda: ad.reduce_sum(ad.linear(x, w_, b) * w), (w_, b)


def _check_linear_bias_broadcast(rng):
    # a per-item bias broadcast over the middle axis, as the patch embedder's pooled term
    x, w_, b = _t(rng, 2, 3, 4), _t(rng, 4, 5), _t(rng, 2, 1, 5)
    w = _proj(rng, (2, 3, 5))
    return lambda: ad.reduce_sum(ad.linear(x, w_, b) * w), (x, w_, b)


def _check_reshape(rng):
    a = _t(rng, 4, 6)
    w = _proj(rng, (3, 8))
    return lambda: ad.reduce_sum(ad.reshape(a, (3, 8)) * w), (a,)


def _check_transpose(rng):
    a = _t(rng, 2, 3, 4)
    w = _proj(rng, (4, 2, 3))
    return lambda: ad.reduce_sum(ad.transpose(a, (2, 0, 1)) * w), (a,)


def _check_concat(rng):
    a, b = _t(rng, 2, 3), _t(rng, 4, 3)
    w = _proj(rng, (6, 3))
    return lambda: ad.reduce_sum(ad.concat([a, b], axis=0) * w), (a, b)


def _check_gather(rng):
    a = _t(rng, 6, 3)
    idx = rng.integers(0, 6, size=5)  # duplicates exercise accumulation
    w = _proj(rng, (5, 3))
    return lambda: ad.reduce_sum(ad.gather(a, idx, axis=0) * w), (a,)


def _check_gather_unique(rng):
    a = _t(rng, 3, 6)
    idx = rng.permutation(6)[:4] - 3  # distinct rows, some named by negative indices
    w = _proj(rng, (3, 4))
    return lambda: ad.reduce_sum(ad.gather(a, idx, axis=1) * w), (a,)


def _check_broadcast_to(rng):
    a = _t(rng, 1, 4)
    w = _proj(rng, (3, 4))
    return lambda: ad.reduce_sum(ad.broadcast_to(a, (3, 4)) * w), (a,)


def _check_softmax(rng):
    a = _t(rng, 3, 5)
    w = _proj(rng, (3, 5))
    return lambda: ad.reduce_sum(ad.softmax(a) * w), (a,)


def _check_layer_norm(rng):
    x, g, b = _t(rng, 4, 6), _t(rng, 6), _t(rng, 6)
    w = _proj(rng, (4, 6))
    return lambda: ad.reduce_sum(ad.layer_norm(x, g, b) * w), (x, g, b)


def _check_gelu(rng):
    a = _t(rng, 8)
    w = _proj(rng, (8,))
    return lambda: ad.reduce_sum(ad.gelu(a) * w), (a,)


def _check_reduce_sum(rng):
    a = _t(rng, 4, 5)
    w = _proj(rng, (5,))
    return lambda: ad.reduce_sum(ad.reduce_sum(a, axis=0) * w), (a,)


def _check_reduce_mean(rng):
    a = _t(rng, 4, 5)
    w = _proj(rng, (4,))
    return lambda: ad.reduce_sum(ad.reduce_mean(a, axis=1) * w), (a,)


def _check_reduce_max(rng):
    a = _t(rng, 5, 6)
    w = _proj(rng, (5,))
    return lambda: ad.reduce_sum(ad.reduce_max(a, axis=1) * w), (a,)


def _check_reduce_min(rng):
    a = _t(rng, 5, 6)
    w = _proj(rng, (6,))
    return lambda: ad.reduce_sum(ad.reduce_min(a, axis=0) * w), (a,)


def _check_minimum(rng):
    a, b = _t(rng, 4, 4), _t(rng, 4, 4)
    w = _proj(rng, (4, 4))
    return lambda: ad.reduce_sum(ad.minimum(a, b) * w), (a, b)


def _check_sqdist(rng):
    a, b = _t(rng, 5, 3), _t(rng, 4, 3)
    w = _proj(rng, (5, 4))
    return lambda: ad.reduce_sum(ad.sqdist(a, b) * w), (a, b)


def _check_dropout(rng):
    a = _t(rng, 6, 4)
    w = _proj(rng, (6, 4))
    mask_seed = int(rng.integers(1 << 31))
    return lambda: ad.reduce_sum(
        ad.dropout(a, 0.4, train=True, rng=np.random.default_rng(mask_seed)) * w), (a,)


OP_CHECKS = {
    "add": _check_add,
    "mul": _check_mul,
    "scalar_ops": _check_scalar_ops,
    "power": _check_power,
    "exp": _check_exp,
    "log": _check_log,
    "matmul": _check_matmul,
    "matmul_batched": _check_matmul_batched,
    "linear": _check_linear,
    "linear_3d": _check_linear_3d,
    "linear_const_x": _check_linear_const_x,
    "linear_bias_broadcast": _check_linear_bias_broadcast,
    "reshape": _check_reshape,
    "transpose": _check_transpose,
    "concat": _check_concat,
    "gather": _check_gather,
    "gather_unique": _check_gather_unique,
    "broadcast_to": _check_broadcast_to,
    "softmax": _check_softmax,
    "layer_norm": _check_layer_norm,
    "gelu": _check_gelu,
    "reduce_sum": _check_reduce_sum,
    "reduce_mean": _check_reduce_mean,
    "reduce_max": _check_reduce_max,
    "reduce_min": _check_reduce_min,
    "minimum": _check_minimum,
    "sqdist": _check_sqdist,
    "dropout": _check_dropout,
}


def run_gradient_suite(trials=10, eps=1e-5, seed=20240):
    """Max relative FD error per op over ``trials`` random inputs each."""
    results = {}
    for name, builder in OP_CHECKS.items():
        worst = 0.0
        for trial in range(trials):
            rng = np.random.default_rng(seed + 1000 * trial + zlib.crc32(name.encode()) % 997)
            fn, tensors = builder(rng)
            worst = max(worst, gradient_check(lambda *_: fn(), tensors, eps=eps))
        results[name] = worst
    return results
