import inspect
import re

import numpy as np
import pytest

from cloudmae import autodiff as ad
from cloudmae.autodiff import (GraphError, NumericsError, ShapeError, Tensor,
                               backward, gradient_check)
from cloudmae.gradcheck import OP_CHECKS, run_gradient_suite
from cloudmae.params import ParamStore


def test_softmax_uniform_on_zeros():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_layer_norm_constant_vector_is_zero():
    x = Tensor([5.0, 5.0, 5.0, 5.0])
    out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.reduce_sum(w * w)
    backward(loss)
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_gradient_accumulation_is_exactly_double():
    x = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)

    def g(t):
        return ad.reduce_sum(ad.gelu(t) * 1.7)

    loss = g(x) + g(x)
    backward(loss)
    twice = x.grad.copy()
    x.zero_grad()
    backward(g(x))
    assert np.array_equal(twice, 2.0 * x.grad)


def test_unused_parameter_gets_zero_gradient():
    store = ParamStore(0)
    used = store.add("used", (3,))
    store.add("unused", (2, 2))
    backward(ad.reduce_sum(used * used))
    grads = store.gradients()
    assert grads["used"].shape == (3,)
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        backward(x * 2.0)


def test_backward_rejects_consumed_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.reduce_sum(x * x)
    backward(loss)
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)


def test_backward_through_consumed_intermediate_fails():
    x = Tensor([1.0, 2.0], requires_grad=True)
    mid = x * x
    backward(ad.reduce_sum(mid))
    with pytest.raises(GraphError):
        backward(ad.reduce_sum(mid * 2.0))


def test_linear_matches_broadcast_matmul_on_leading_axes():
    rng = np.random.default_rng(2)
    x, w, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
    out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
    expected = np.matmul(x, w) + b
    assert out.shape == (3, 5, 6)
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()


def test_linear_computes_no_gradient_for_constant_input():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w, b = Tensor(rng.normal(size=(4, 5)), requires_grad=True), Tensor(np.zeros(5))
    out = ad.linear(x, w, b)
    gx, gw, gb = out._vjp(np.ones(out.shape))
    assert gx is None and gb is None and gw.shape == (4, 5)
    backward(ad.reduce_sum(out))
    assert x.grad is None and b.grad is None
    assert np.allclose(w.grad, x.data.reshape(-1, 4).sum(axis=0)[:, None])


def test_backward_frees_each_intermediate():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(4, 5)), requires_grad=True), Tensor(np.zeros(5))
    mid = [ad.linear(x, w, b)]
    mid.append(ad.gelu(mid[-1]))
    mid.append(ad.reduce_sum(mid[-1] * mid[0]))
    backward(mid[-1])
    for node in mid:
        assert node._vjp is None and node._parents == ()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_backward_failed_midway_leaves_graph_consumed():
    x = Tensor([0.0, 4.0], requires_grad=True)
    scaled = ad.power(x, 0.5) * 3.0
    loss = ad.reduce_sum(scaled)
    with np.errstate(divide="ignore"), pytest.raises(NumericsError, match="power"):
        backward(loss)  # d sqrt(x)/dx is infinite at 0
    assert scaled._vjp is None and scaled._parents == ()
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)


def test_nan_result_raises():
    with pytest.raises(NumericsError):
        ad.log(Tensor([-1.0]))
    with pytest.raises(NumericsError):
        ad.exp(Tensor([1e9]))
    with pytest.raises(NumericsError):
        Tensor([np.nan])


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError, match="concat"):
        ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)
    with pytest.raises(ShapeError, match="layer_norm"):
        ad.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(Tensor(np.zeros(4)), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 8)))
        g, b = Tensor(np.ones(8)), Tensor(np.zeros(8))
        out = ad.softmax(ad.layer_norm(ad.gelu(x), g, b))
        return out.data.tobytes()

    assert run() == run()


def test_reduce_max_routes_gradient_to_first_argmax():
    x = Tensor([[1.0, 3.0, 3.0]], requires_grad=True)
    backward(ad.reduce_sum(ad.reduce_max(x, axis=1)))
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


@pytest.mark.parametrize("op, ties, want", [
    (ad.reduce_max, [[1.0, 3.0, 3.0], [5.0, 5.0, 0.0]], [[0, 1, 0], [1, 0, 0]]),
    (ad.reduce_min, [[2.0, 1.0, 1.0], [0.0, 4.0, 0.0]], [[0, 1, 0], [1, 0, 0]]),
])
def test_reduce_extreme_ties_route_to_lowest_index(op, ties, want):
    x = Tensor(ties, requires_grad=True)
    backward(ad.reduce_sum(op(x, axis=1)))
    assert np.array_equal(x.grad, want)
    x.zero_grad()
    backward(op(x))  # whole array: the extreme ties at flat indices 3 and 5
    assert np.array_equal(x.grad.reshape(-1), np.eye(6)[3])


def test_gather_negative_index_aliasing_accumulates():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    backward(ad.reduce_sum(ad.gather(x, [-1, 2, 0], axis=0)))
    assert np.array_equal(x.grad, [[1, 1], [0, 0], [2, 2]])


def test_gather_accumulates_duplicate_indices():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.gather(x, [1, 1, 2], axis=0)
    backward(ad.reduce_sum(out))
    assert np.array_equal(x.grad, [[0, 0], [2, 2], [1, 1]])


def test_gather_unique_rows_backward_matches_add_at_bits():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 3, 5))  # upstream gradient, gathered axis first
    g[0, 1] = -0.0
    g[:, :, 2] = -0.0
    for axis, idx in [(0, [3, 0, -1, 1]), (1, [4, -5, 2, 0]), (2, [2, 2, 0, -1])]:
        shape = [3, 5]
        shape.insert(axis, 6)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        upstream = np.moveaxis(g, 0, axis)
        backward(ad.reduce_sum(ad.mul(ad.gather(x, idx, axis=axis), Tensor(upstream))))
        want = np.zeros_like(x.data)
        np.add.at(np.moveaxis(want, axis, 0), np.asarray(idx), g)
        assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis, idx", [
    (1, 2), (1, -4), (0, 0), (-1, 3),                   # scalar: the axis is dropped
    (1, [[0, 3], [1, 1]]), (1, [[4, -2], [0, 1]]),      # 2-D, duplicates and distinct
    (2, [[-1, 5], [2, 0], [1, -6]]), (-2, [[3], [-2]]),
])
def test_gather_backward_any_index_shape_matches_add_at_bits(axis, idx):
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 6, 6)), requires_grad=True)
    out = ad.gather(x, idx, axis=axis)
    assert out.data.tobytes() == np.take(x.data, idx, axis=axis).tobytes()
    upstream = rng.normal(size=out.shape)
    backward(ad.reduce_sum(ad.mul(out, Tensor(upstream))))
    lead = np.ndim(idx)
    start = axis % 3
    want = np.zeros_like(x.data)
    np.add.at(np.moveaxis(want, axis, 0), np.asarray(idx),
              np.moveaxis(upstream, range(start, start + lead), range(lead)))
    assert x.grad.tobytes() == want.tobytes()


def test_linear_broadcast_bias_matches_matmul_plus_add_bits():
    rng = np.random.default_rng(9)
    x, w = rng.normal(size=(5, 7, 4)), rng.normal(size=(4, 6))
    upstream = Tensor(rng.normal(size=(5, 7, 6)))
    for bias_shape in [(5, 1, 6), (1, 7, 6), (7, 1), (6,), ()]:
        bias = rng.normal(size=bias_shape)
        results = []
        for fused in (True, False):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, bias))
            if fused:
                out = ad.linear(xt, wt, bt)
            else:
                out = ad.reshape(ad.matmul(ad.reshape(xt, (35, 4)), wt), (5, 7, 6)) + bt
            backward(ad.reduce_sum(ad.mul(out, upstream)))
            results.append([t.tobytes() for t in (out.data, xt.grad, wt.grad, bt.grad)])
        assert results[0] == results[1], bias_shape


@pytest.mark.parametrize("bias_shape", [(5, 7, 6), (2, 5, 1, 6), (7,), (5, 2, 6)])
def test_linear_bias_that_would_enlarge_output_rejected(bias_shape):
    x, w = Tensor(np.zeros((5, 1, 4))), Tensor(np.zeros((4, 6)))
    with pytest.raises(ShapeError, match="linear: bias"):
        ad.linear(x, w, Tensor(np.zeros(bias_shape)))


def test_dropout_eval_is_identity_and_train_scales():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    out = ad.dropout(x, 0.5, train=False)
    assert np.array_equal(out.data, x.data)
    out = ad.dropout(x, 0.5, train=True, rng=np.random.default_rng(0))
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 2.0)  # inverted scaling


@pytest.mark.parametrize("name", sorted(OP_CHECKS))
def test_finite_difference_per_op(name):
    rng = np.random.default_rng(123)
    fn, tensors = OP_CHECKS[name](rng)
    err = gradient_check(lambda *_: fn(), tensors)
    assert err < 1e-4, f"{name}: max rel err {err:.3e}"


@pytest.mark.parametrize("name", sorted(OP_CHECKS))
def test_no_grad_records_no_tape_and_same_values(name, monkeypatch):
    fn, tensors = OP_CHECKS[name](np.random.default_rng(5))
    recorded = fn().data
    made = []
    result = ad._result

    def spy(*args, **kwargs):
        made.append(result(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(ad, "_result", spy)
    with ad.no_grad():
        out = fn()
    assert made and out is made[-1]
    for t in made:
        assert t._vjp is None and t._parents == () and not t.requires_grad
    assert out.data.tobytes() == recorded.tobytes()
    assert all(t.requires_grad for t in tensors)   # leaves keep their flag


def test_every_op_has_a_finite_difference_row(monkeypatch):
    source = inspect.getsource(ad)
    tags = set(re.findall(r'_(?:result|reduce_extreme)\("(\w+)"', source))
    assert {"neg", "gather", "reduce_max", "dropout"} <= tags
    seen = set()
    result = ad._result

    def spy(op, *args, **kwargs):
        seen.add(op)
        return result(op, *args, **kwargs)

    monkeypatch.setattr(ad, "_result", spy)
    for builder in OP_CHECKS.values():
        fn, _ = builder(np.random.default_rng(0))
        fn()
    assert tags - seen == set()


def test_gradient_suite_rejects_fewer_than_one_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            run_gradient_suite(trials=trials)


def test_no_grad_nests_and_restores_after_exception():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not (w * w).requires_grad
        assert not (w * w).requires_grad
    assert (w * w).requires_grad
    with pytest.raises(NumericsError):
        with ad.no_grad():
            ad.log(Tensor([0.0]))     # the finite check still runs
    assert (w * w).requires_grad
    with pytest.raises(KeyError):
        with ad.no_grad():
            with ad.no_grad():
                raise KeyError("inner")
    assert (w * w).requires_grad


def test_backward_on_tape_free_loss_raises_graph_error():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        loss = ad.reduce_sum(w * w)
    with pytest.raises(GraphError, match="no_grad"):
        backward(loss)
    assert w.grad is None


def _explicit_sqdist(a, b, g):
    """Squared distances and their vjp from the explicit (..., p, q, d) difference array."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    weighted = 2.0 * g[..., None] * diff
    return (np.sum(diff * diff, axis=-1),
            ad._unbroadcast(weighted.sum(axis=-2), a.shape),
            ad._unbroadcast(-weighted.sum(axis=-3), b.shape))


@pytest.mark.parametrize("shape_a, shape_b", [
    ((256, 3), (256, 3)), ((8, 10, 16, 3), (8, 10, 16, 3)),   # reconstruction, pretraining
    ((5, 3), (2, 4, 3)), ((3, 1, 5, 3), (4, 6, 3)),          # broadcast leading axes
    ((6, 2), (7, 2))])
def test_sqdist_bits_match_explicit_differences(shape_a, shape_b):
    rng = np.random.default_rng(sum(shape_a + shape_b))
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
    b[..., :2, :] = a.reshape(-1, a.shape[-1])[:2]    # coincident points: exact zeros
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    d = ad.sqdist(ta, tb)
    g = rng.normal(size=d.shape)
    backward(ad.reduce_sum(d * Tensor(g)))
    want, want_ga, want_gb = _explicit_sqdist(a, b, g)
    assert d.shape == want.shape and d.data.tobytes() == want.tobytes()
    assert ta.grad.tobytes() == want_ga.tobytes() and tb.grad.tobytes() == want_gb.tobytes()
    first = d.data[(0,) * (d.ndim - 2)]
    assert first[0, 0] == 0.0 and first[1, 1] == 0.0


def test_sqdist_forward_and_tape_hold_no_difference_array():
    import tracemalloc
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(256, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(256, 3)), requires_grad=True)
    result_bytes = 256 * 256 * 8                       # the difference array is 3x this
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = ad.sqdist(a, b)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.requires_grad
    assert peak - base < 2.5 * result_bytes         # result plus one plane temporary
    assert held - base < 1.5 * result_bytes         # the result only, no closure-held diff


def _plain_gelu(x, g):
    """GELU forward and vjp as the plain erf formula."""
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return x * cdf, g * (cdf + x * pdf)


@pytest.mark.parametrize("shape", [(512, 64), (7,), ()])
def test_gelu_bits_match_plain_formula_and_inputs_stay(shape):
    rng = np.random.default_rng(4)
    x = np.asarray(rng.normal(size=shape) * 4.0)
    g = np.asarray(rng.normal(size=shape))
    x0, g0 = x.copy(), g.copy()
    t = Tensor(x, requires_grad=True)
    y = ad.gelu(t)
    (gx,) = y._vjp(g)
    want_y, want_gx = _plain_gelu(x0, g0)
    assert y.data.tobytes() == want_y.tobytes() and gx.tobytes() == want_gx.tobytes()
    assert t.data.tobytes() == x0.tobytes() and g.tobytes() == g0.tobytes()
    (again,) = y._vjp(g)                     # the closure's cdf was left intact
    assert again.tobytes() == want_gx.tobytes()
