"""Finite-difference verification of every differentiable op in the catalog.

Each entry builds a scalar-valued function of random tensors; analytic
gradients from the tape are compared against central differences. Random
projection weights keep the scalarization well conditioned.

A table row ``_check(op, *inputs, out, positive=None, const=())`` checks
``reduce_sum(op(*args) * w)``. Its arguments are drawn from the rng in order:
a shape gives a ``normal`` tensor, or a ``uniform(*positive)`` one when
``positive`` is set, differentiable unless its position is in ``const``; a
callable ``spec(rng)`` gives a non-tensor argument such as gather indices.
The projection ``w`` of shape ``out`` is drawn last. The two entries that
draw after ``w`` are written as functions.
"""

import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, gradient_check


def _check(op, *inputs, out, positive=None, const=()):
    def build(rng):
        args = [spec(rng) if callable(spec) else
                Tensor(rng.uniform(*positive, size=spec) if positive else rng.normal(size=spec),
                       requires_grad=i not in const)
                for i, spec in enumerate(inputs)]
        w = Tensor(rng.normal(size=out))  # fixed weights: the scalar has no symmetry
        tensors = tuple(a for a in args if isinstance(a, Tensor) and a.requires_grad)
        return lambda: ad.reduce_sum(op(*args) * w), tensors
    return build


def _check_scalar_ops(rng):
    a, w = Tensor(rng.normal(size=6), requires_grad=True), Tensor(rng.normal(size=6))
    c = float(rng.uniform(0.5, 2.0))
    return lambda: ad.reduce_sum((2.0 * a + c - a * (1.0 / 3.0)) * w), (a,)


def _check_dropout(rng):
    a, w = Tensor(rng.normal(size=(6, 4)), requires_grad=True), Tensor(rng.normal(size=(6, 4)))
    mask_seed = int(rng.integers(1 << 31))
    return lambda: ad.reduce_sum(
        ad.dropout(a, 0.4, train=True, rng=np.random.default_rng(mask_seed)) * w), (a,)


def _gather(axis):
    return lambda a, idx: ad.gather(a, idx, axis=axis)


OP_CHECKS = {
    "add": _check(ad.add, (4, 5), (5,), out=(4, 5)),
    "mul": _check(ad.mul, (3, 4), (3, 4), out=(3, 4)),
    "scalar_ops": _check_scalar_ops,
    "power": _check(lambda a: ad.power(a, 1.7), (5,), out=(5,), positive=(0.5, 2.0)),
    "exp": _check(ad.exp, (7,), out=(7,)),
    "log": _check(ad.log, (7,), out=(7,), positive=(0.5, 3.0)),
    "matmul": _check(ad.matmul, (3, 4), (4, 2), out=(3, 2)),
    "matmul_batched": _check(ad.matmul, (2, 3, 4), (2, 4, 3), out=(2, 3, 3)),
    "linear": _check(ad.linear, (4, 3), (3, 5), (5,), out=(4, 5)),
    "linear_3d": _check(ad.linear, (2, 3, 4), (4, 5), (5,), out=(2, 3, 5)),
    # a constant input (raw point offsets, centers) gets no gradient computed
    "linear_const_x": _check(ad.linear, (2, 4, 3), (3, 5), (5,), out=(2, 4, 5), const=(0,)),
    # a per-item bias broadcast over the middle axis, as the patch embedder's pooled term
    "linear_bias_broadcast": _check(ad.linear, (2, 3, 4), (4, 5), (2, 1, 5), out=(2, 3, 5)),
    "reshape": _check(lambda a: ad.reshape(a, (3, 8)), (4, 6), out=(3, 8)),
    "transpose": _check(lambda a: ad.transpose(a, (2, 0, 1)), (2, 3, 4), out=(4, 2, 3)),
    "concat": _check(lambda a, b: ad.concat([a, b], axis=0), (2, 3), (4, 3), out=(6, 3)),
    # duplicates exercise accumulation
    "gather": _check(_gather(0), (6, 3), lambda rng: rng.integers(0, 6, size=5), out=(5, 3)),
    # distinct rows, some named by negative indices
    "gather_unique": _check(_gather(1), (3, 6), lambda rng: rng.permutation(6)[:4] - 3,
                            out=(3, 4)),
    "gather_scalar": _check(_gather(1), (3, 4), lambda rng: int(rng.integers(-4, 4)), out=(3,)),
    # every row named twice, once by a negative index
    "gather_2d": _check(_gather(1), (3, 5), lambda rng: rng.permutation(10).reshape(2, 5) - 5,
                        out=(3, 2, 5)),
    "broadcast_to": _check(lambda a: ad.broadcast_to(a, (3, 4)), (1, 4), out=(3, 4)),
    "softmax": _check(ad.softmax, (3, 5), out=(3, 5)),
    "layer_norm": _check(ad.layer_norm, (4, 6), (6,), (6,), out=(4, 6)),
    "gelu": _check(ad.gelu, (8,), out=(8,)),
    "reduce_sum": _check(lambda a: ad.reduce_sum(a, axis=0), (4, 5), out=(5,)),
    "reduce_mean": _check(lambda a: ad.reduce_mean(a, axis=1), (4, 5), out=(4,)),
    "reduce_max": _check(lambda a: ad.reduce_max(a, axis=1), (5, 6), out=(5,)),
    "reduce_min": _check(lambda a: ad.reduce_min(a, axis=0), (5, 6), out=(6,)),
    "minimum": _check(ad.minimum, (4, 4), (4, 4), out=(4, 4)),
    "sqdist": _check(ad.sqdist, (5, 3), (4, 3), out=(5, 4)),
    "dropout": _check_dropout,
}


def run_gradient_suite(trials=10, eps=1e-5, seed=20240):
    """Max relative FD error per op over ``trials`` random inputs each."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    results = {}
    for name, builder in OP_CHECKS.items():
        worst = 0.0
        for trial in range(trials):
            rng = np.random.default_rng(seed + 1000 * trial + zlib.crc32(name.encode()) % 997)
            fn, tensors = builder(rng)
            worst = max(worst, gradient_check(lambda *_: fn(), tensors, eps=eps))
        results[name] = worst
    return results
