import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cloudmae.autodiff import Tensor
from cloudmae.params import (AdamW, ParamStore, cosine_lr, read_container,
                             truncated_normal, write_container)


def make_store(values):
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
    store = ParamStore.from_arrays(arrays)
    for name, v in arrays.items():
        store.add(name, v.shape)
    return store


def test_zero_grad_zero_decay_leaves_parameter():
    store = make_store({"w": [1.0, -2.0]})
    opt = AdamW(store, lr=0.1, weight_decay=0.0)
    store["w"].grad = np.zeros(2)
    opt.step()
    assert np.array_equal(store["w"].data, [1.0, -2.0])


def test_single_step_matches_hand_arithmetic():
    store = make_store({"w": [1.0]})
    opt = AdamW(store, lr=0.1, weight_decay=0.0)
    g = 0.5
    store["w"].grad = np.array([g])
    opt.step()
    # independent arithmetic for one bias-corrected step
    m = 0.1 * g
    v = 0.001 * g * g
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert store["w"].data[0] == pytest.approx(expected, rel=1e-15)


def test_decoupled_decay_shrinks_without_gradient():
    store = make_store({"w": [4.0, -4.0]})
    opt = AdamW(store, lr=0.01, weight_decay=0.5)
    store["w"].grad = np.zeros(2)
    opt.step()
    assert np.allclose(store["w"].data, np.array([4.0, -4.0]) * (1 - 0.01 * 0.5))


def test_moment_shapes_and_step_counter():
    store = make_store({"a": np.zeros((2, 3)), "b": np.zeros(4)})
    opt = AdamW(store)
    assert opt.m["a"].shape == (2, 3) and opt.v["b"].shape == (4,)
    opt.step()
    opt.step()
    assert opt.step_count == 2


def test_gradient_shape_mismatch_raises():
    store = make_store({"w": [1.0, 2.0]})
    opt = AdamW(store)
    store["w"].grad = np.zeros(3)
    with pytest.raises(Exception, match="adamw"):
        opt.step()


class TestCosineSchedule:
    def test_boundaries(self):
        assert cosine_lr(100, 1000, 1e-3, 1e-6, 100) == 1e-3
        assert cosine_lr(1000, 1000, 1e-3, 1e-6, 100) == pytest.approx(1e-6)
        assert cosine_lr(0, 1000, 1e-3, 1e-6, 100) == 0.0

    def test_cosine_midpoint(self):
        lr = cosine_lr(550, 1000, 1e-3, 1e-6, 100)
        assert lr == pytest.approx((1e-3 + 1e-6) / 2)

    def test_warmup_is_linear(self):
        assert cosine_lr(50, 1000, 1e-3, 0.0, 100) == pytest.approx(5e-4)

    def test_warmup_not_shorter_than_run(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 100, 1e-3, 0.0, 100)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(1001, 1000, 1e-3, 0.0, 100)


def test_param_store_roundtrip_bit_exact():
    store = ParamStore(41)
    store.add("layer.w", (7, 5))
    store.add("layer.b", (5,), init="zeros")
    store.add("gain", (5,), init="ones")
    blob = write_container(store.state_arrays(), {"note": "x"})

    other = ParamStore(99)
    other.add("layer.w", (7, 5))
    other.add("layer.b", (5,))
    other.add("gain", (5,))
    arrays, meta = read_container(blob)
    other.load_arrays(arrays)
    assert meta == {"note": "x"}
    for name, value in store.state_arrays().items():
        assert value.tobytes() == other[name].data.tobytes()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(), lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(), kids, max_size=3), max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(arrays=st.dictionaries(
           st.text(min_size=1),
           hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                      elements=st.floats(allow_subnormal=True)), max_size=4),
       meta=st.dictionaries(st.text(), _JSON, max_size=4))
def test_container_round_trip_bit_exact(arrays, meta):
    got, got_meta = read_container(write_container(arrays, meta))
    assert got_meta == meta and list(got) == list(arrays)
    for name, value in arrays.items():
        assert got[name].shape == value.shape and got[name].tobytes() == value.tobytes()


def test_container_rejects_bad_magic_and_truncation():
    blob = write_container({"a": np.arange(3.0)}, {})
    with pytest.raises(ValueError, match="magic"):
        read_container(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="truncated"):
        read_container(blob[:-8])


def _blob(header, payload=b""):
    raw = json.dumps(header).encode("utf-8")
    return b"CMAE" + struct.pack("<Q", len(raw)) + raw + payload


ONE = [{"name": "a", "shape": [1]}]


@pytest.mark.parametrize("blob, message", [
    (b"CMAE\x01\x00", "truncated header length"),
    (b"CMAE" + struct.pack("<Q", 99) + b"{}", "truncated header"),
    (b"CMAE" + struct.pack("<Q", 3) + b"{x}", "not valid JSON"),
    (b"CMAE" + struct.pack("<Q", 2) + b"\xff\xfe", "not valid JSON"),
    (_blob({"meta": {}}), "'arrays' list"),
    (_blob({"arrays": ONE}, bytes(8)), "'meta' object"),
    (_blob([1, 2]), "'arrays' list"),
    (_blob({"arrays": [7], "meta": {}}), "not an object"),
    (_blob({"arrays": [{"shape": [1]}], "meta": {}}, bytes(8)), "array name None"),
    (_blob({"arrays": [{"name": "", "shape": [1]}], "meta": {}}, bytes(8)), "array name ''"),
    (_blob({"arrays": ONE * 2, "meta": {}}, bytes(16)), "duplicate"),
    (_blob({"arrays": [{"name": "a", "shape": [-1]}], "meta": {}}), "bad shape"),
    (_blob({"arrays": [{"name": "a", "shape": [1.5]}], "meta": {}}), "bad shape"),
    (_blob({"arrays": [{"name": "a"}], "meta": {}}), "bad shape"),
    (_blob({"arrays": ONE, "meta": {}}, bytes(9)), "1 trailing bytes"),
], ids=["short", "header_past_end", "bad_json", "bad_utf8", "no_arrays", "no_meta",
        "not_object", "entry_not_object", "no_name", "empty_name", "duplicate_name",
        "negative_dim", "float_dim", "no_shape", "trailing_bytes"])
def test_container_rejects_malformed_blob(blob, message):
    with pytest.raises(ValueError, match=message):
        read_container(blob)


def test_container_reads_exact_hand_built_blob():
    arrays, meta = read_container(_blob({"arrays": ONE, "meta": {"k": 1}},
                                        struct.pack("<d", 2.5)))
    assert meta == {"k": 1} and arrays["a"].tolist() == [2.5]


def test_duplicate_parameter_name_rejected():
    store = ParamStore(0)
    store.add("w", (2,))
    with pytest.raises(KeyError):
        store.add("w", (2,))


def test_truncated_normal_bounds_and_determinism():
    a = truncated_normal(np.random.default_rng(5), (1000,))
    b = truncated_normal(np.random.default_rng(5), (1000,))
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.04
