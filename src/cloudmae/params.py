"""Parameter registry, AdamW optimizer, cosine LR schedule, container format.

Containers hold a JSON metadata header (names, shapes, arbitrary metadata)
followed by little-endian float64 payloads in header order, so a round trip
is bit-exact. ``training.Checkpoint`` is the only writer of run state: it
names, copies, checks and restores parameters and AdamW moments.
"""

import json
import math
import struct

import numpy as np

from .autodiff import ShapeError, Tensor

_MAGIC = b"CMAE"


def truncated_normal(rng, shape):
    """Normal(0, 0.02) resampled until within two standard deviations (0.04)."""
    out = rng.normal(0.0, 0.02, size=shape)
    while True:
        bad = np.abs(out) > 0.04
        if not bad.any():
            return out
        out[bad] = rng.normal(0.0, 0.02, size=int(bad.sum()))


class ParamStore:
    """Named trainable tensors with deterministic, seeded initialization.

    A store made by ``from_arrays`` takes every parameter from its arrays
    instead and draws nothing.
    """

    def __init__(self, seed=0):
        self._params = {}
        self._rng = np.random.default_rng(seed)
        self._arrays = None

    @classmethod
    def from_arrays(cls, arrays):
        """A store whose ``add`` takes each parameter from ``arrays`` by name.

        A model built on it holds the same values as one built on a seeded
        store and then given ``load_arrays(arrays)``, without the RNG draws;
        a registered name missing from ``arrays`` raises ``KeyError``.
        """
        store = cls.__new__(cls)
        store._params, store._rng, store._arrays = {}, None, arrays
        return store

    def add(self, name, shape, init="trunc_normal"):
        if name in self._params:
            raise KeyError(f"parameter {name!r} already registered")
        if self._arrays is not None:
            data = _loaded(self._arrays, name, tuple(shape))
        elif init == "trunc_normal":
            data = truncated_normal(self._rng, shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def gradients(self):
        """name -> gradient array; zeros where no gradient has flowed."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._params.items()
        }

    def state_arrays(self):
        return {name: t.data for name, t in self._params.items()}

    def load_arrays(self, arrays):
        for name, t in self._params.items():
            t.data = _loaded(arrays, name, t.data.shape)


def _loaded(arrays, name, shape):
    """``arrays[name]`` as a contiguous float64 array of the registered shape."""
    if name not in arrays:
        raise KeyError(f"missing parameter {name!r} in loaded arrays")
    if arrays[name].shape != shape:
        raise ShapeError(f"parameter {name!r}: loaded shape {arrays[name].shape} != {shape}")
    return np.ascontiguousarray(arrays[name], dtype=np.float64)


def write_container(arrays, meta):
    """Pack named float64 arrays behind a JSON header. Returns bytes."""
    header = {
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
        "meta": meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes]
    for v in arrays.values():
        parts.append(np.ascontiguousarray(v, dtype="<f8").tobytes())
    return b"".join(parts)


def read_container(blob):
    """Inverse of ``write_container``. Returns (arrays dict, meta dict).

    Anything but exactly one well-formed header followed by its payloads, with
    no bytes after the last one, raises ``ValueError``.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("container: bad magic bytes")
    if len(blob) < 12:
        raise ValueError("container: truncated header length")
    (hlen,) = struct.unpack_from("<Q", blob, 4)
    offset = 12 + hlen
    if len(blob) < offset:
        raise ValueError("container: truncated header")
    try:
        header = json.loads(blob[12:offset].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"container: header is not valid JSON ({exc})") from None
    arrays = {}
    for name, shape in _header_entries(header):
        n = math.prod(shape)
        if len(blob) - offset < 8 * n:
            raise ValueError(f"container: truncated payload for {name!r}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=n,
                                     offset=offset).reshape(shape).copy()
        offset += 8 * n
    if offset != len(blob):
        raise ValueError(f"container: {len(blob) - offset} trailing bytes after the payloads")
    return arrays, header["meta"]


def _header_entries(header):
    """(name, shape) per declared array; a malformed header raises ValueError."""
    if not (isinstance(header, dict) and isinstance(header.get("arrays"), list)
            and isinstance(header.get("meta"), dict)):
        raise ValueError("container: header needs an 'arrays' list and a 'meta' object")
    entries = {}
    for entry in header["arrays"]:
        if not isinstance(entry, dict):
            raise ValueError(f"container: array entry {entry!r} is not an object")
        name, shape = entry.get("name"), entry.get("shape")
        if not isinstance(name, str) or not name or name in entries:
            raise ValueError(f"container: missing, empty or duplicate array name {name!r}")
        if not (isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"container: bad shape {shape!r} for {name!r}")
        entries[name] = tuple(shape)
    return entries.items()


class AdamW:
    """Adam with decoupled weight decay.

    p <- p - lr * (m_hat / (sqrt(v_hat) + 1e-8) + wd * p), with bias-corrected
    first/second moments (betas 0.9, 0.999); buffers shape-match their parameters.
    """

    def __init__(self, store, lr=1e-3, weight_decay=0.05):
        self.store = store
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}

    def step(self, lr=None):
        """Apply one update from the store's gradients."""
        grads = self.store.gradients()
        lr = self.lr if lr is None else lr
        b1, b2 = 0.9, 0.999
        self.step_count += 1
        t = self.step_count
        inv_bc1 = 1.0 / (1.0 - b1 ** t)
        inv_bc2 = 1.0 / (1.0 - b2 ** t)
        for name, p in self.store.items():
            g = grads[name]
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"adamw: gradient shape {g.shape} != parameter {name!r} {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            denom = np.sqrt(v * inv_bc2)
            denom += 1e-8
            update = m * (lr * inv_bc1)
            update /= denom
            if self.weight_decay:
                update += (lr * self.weight_decay) * p.data
            p.data = p.data - update


def cosine_lr(step, total_steps, lr_max, lr_min=0.0, warmup_steps=0):
    """Linear warmup 0 -> lr_max, then cosine decay lr_max -> lr_min.

    ``step`` counts from 0 to ``total_steps`` inclusive; the value at
    ``warmup_steps`` is exactly ``lr_max`` and at ``total_steps`` exactly
    ``lr_min``.
    """
    if warmup_steps >= total_steps:
        raise ValueError(
            f"cosine_lr: warmup_steps {warmup_steps} >= total_steps {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr_max * step / warmup_steps
    span = total_steps - warmup_steps
    t = (step - warmup_steps) / span
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t))
