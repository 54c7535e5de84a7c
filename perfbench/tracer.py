"""Outside-in span tracer for cloudmae.

The tracer replaces public functions and methods of the ``cloudmae`` modules
with timing wrappers at run time and restores the originals afterwards; the
program itself is not modified. Each call becomes a span (name, start, end,
parent, run id) kept in memory; ``save`` writes them out and ``layer_metrics``
turns them into the per-layer split of a step.

Autodiff ops are leaves: their spans also carry the output bytes, the matmul
flop count and whether the result joined the graph, and each recorded
vector-Jacobian closure is wrapped so that backward time is split by op.
"""

import importlib
import itertools
import sys
import weakref
from time import perf_counter

import numpy as np

# primitive autodiff ops (every op that produces its result through ``_result``)
OPS = ("add", "neg", "mul", "power", "exp", "log", "gelu", "minimum", "reshape",
       "transpose", "concat", "gather", "broadcast_to", "matmul", "sqdist",
       "reduce_sum", "reduce_mean", "reduce_max", "reduce_min", "softmax",
       "layer_norm", "dropout")

# op kinds reported together (matmul has its own flop-aware metrics)
OP_GROUPS = {
    "gelu": ("gelu",),
    "layer_norm": ("layer_norm",),
    "softmax": ("softmax",),
    "sqdist": ("sqdist",),
    "reduce": ("reduce_sum", "reduce_mean", "reduce_max", "reduce_min"),
    "shape": ("reshape", "transpose", "concat", "gather", "broadcast_to"),
}

# module attribute -> span name; every cloudmae module that imported the same
# function object gets the wrapper too, so ``from .x import f`` callers are seen
FUNCTIONS = (
    ("data", "build_dataset", "data.build_dataset"),
    ("data", "augment", "data.augment"),
    ("data", "load_points", "data.load_points"),
    ("data", "save_ply", "data.save_ply"),
    ("geometry", "build_patches", "geometry.build_patches"),
    ("geometry", "farthest_point_sampling", "geometry.fps"),
    ("geometry", "knn", "geometry.knn"),
    ("geometry", "chamfer_l2", "geometry.chamfer"),
    ("geometry", "batch_chamfer", "geometry.chamfer"),
    ("masking", "make_mask", "masking.make_mask"),
    ("masking", "split_patches", "masking.split_patches"),
    ("params", "read_container", "params.read_container"),
    ("params", "write_container", "params.write_container"),
    ("autodiff", "backward", "autodiff.backward"),
    ("training", "pretrain", "training.pretrain"),
    ("training", "fewshot_eval", "training.fewshot_eval"),
    ("training", "reconstruct", "training.reconstruct"),
    ("training", "reconstruction_report", "training.reconstruction_report"),
    ("training", "chamfer_value", "training.chamfer_value"),
)

METHODS = (
    ("embed", "PatchEmbedder", "__call__", "embed.patch_embedder"),
    ("embed", "PositionalMLP", "__call__", "embed.positional_mlp"),
    ("model", "MaskedAutoencoder", "__init__", "model.build"),
    ("model", "MaskedAutoencoder", "pretrain_forward_batch", "model.forward"),
    ("model", "MaskedAutoencoder", "pretrain_forward", "model.forward"),
    ("model", "MaskedAutoencoder", "encode", "model.forward"),
    ("model", "MaskedAutoencoder", "decode", "model.forward"),
    ("model", "PointCloudClassifier", "logits_batch", "model.forward"),
    ("model", "PointCloudClassifier", "logits", "model.forward"),
    ("model", "PointCloudClassifier", "features", "model.forward"),
    ("params", "AdamW", "step", "params.adamw"),
    ("training", "Checkpoint", "save", "training.checkpoint_save"),
    ("training", "Checkpoint", "build_model", "training.checkpoint_build_model"),
)

BLOCK = ("model", "TransformerBlock", "__call__")

# spans whose time is not the model's own head/loss/glue work
MODEL_SUBLAYERS = ("model.encoder_block", "model.decoder_block", "model.block",
                   "embed.patch_embedder", "embed.positional_mlp",
                   "geometry.build_patches", "masking.make_mask",
                   "masking.split_patches")

def _module(name):
    return importlib.import_module(f"cloudmae.{name}")


def _amount(name, args, out):
    """(nbytes, flop, grad) columns of a layer span: its work count, if any.

    Points read or written, tokens, container bytes, or AdamW arrays and
    elements (in the flop column).
    """
    if name == "data.load_points":
        return out.points.shape[0], 0.0, 0
    if name == "data.save_ply":
        groups = args[1]
        groups = [groups] if isinstance(groups, np.ndarray) else groups
        return sum(np.asarray(g).reshape(-1, 3).shape[0] for g in groups), 0.0, 0
    if name == "embed.patch_embedder":
        return out.shape[0], 0.0, 0
    if name == "params.read_container":
        return len(args[0]), 0.0, 0
    if name == "params.write_container":
        return len(out), 0.0, 0
    if name == "params.adamw":
        store = args[0].store
        return len(store), sum(t.data.size for t in store.tensors()), 0
    return 0, 0.0, 0


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    A span's index is taken when it starts, so that its children can name
    it as parent; its record is appended when it ends. Records are flat
    tuples of numbers, which keeps the garbage collector's work small.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.records = []    # (index, name id, t0, t1, parent, run, nbytes, flop, grad)
        self.stack = [-1]
        self.run = -1
        self._counter = itertools.count()
        self._open = {}      # index -> (name id, t0, parent, run) of begin() spans
        self._saved = []     # (owner, attribute, original) to restore
        self._roles = weakref.WeakKeyDictionary()   # TransformerBlock -> name id

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- explicit spans (benchmark-level: steps and requests) -----------------

    def begin(self, name):
        idx = next(self._counter)
        self._open[idx] = (self.name_id(name), perf_counter(), self.stack[-1], self.run)
        self.stack.append(idx)
        return idx

    def end(self, idx):
        t1 = perf_counter()
        if self.stack[-1] != idx:
            raise RuntimeError("tracer: spans ended out of order")
        self.stack.pop()
        nid, t0, parent, run = self._open.pop(idx)
        self.records.append((idx, nid, t0, t1, parent, run, 0, 0.0, 0))

    def close_open(self):
        """End every begin() span still open, after an exception cut a pass short."""
        while len(self.stack) > 1 and self.stack[-1] in self._open:
            self.end(self.stack[-1])
        del self.stack[1:]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, nid, after=None, name_of=None):
        """Time every call of ``fn`` as a span.

        ``after(args, out)`` returns the span's (nbytes, flop, grad) numbers;
        ``name_of(args)`` picks the name id per call.
        """
        records, stack, counter, tracer = self.records, self.stack, self._counter, self

        def traced(*args, **kwargs):
            idx = next(counter)
            parent = stack[-1]
            run = tracer.run
            span_nid = nid if name_of is None else name_of(args)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                records.append((idx, span_nid, t0, perf_counter(), parent, run, 0, 0.0, 0))
                raise
            t1 = perf_counter()
            stack.pop()
            extra = (0, 0.0, 0) if after is None else after(args, out)
            records.append((idx, span_nid, t0, t1, parent, run) + extra)
            return out

        traced.__wrapped__ = fn
        return traced

    def _span_wrapper(self, fn, name):
        return self._wrap(fn, self.name_id(name), after=lambda args, out: _amount(name, args, out))

    def _op_wrapper(self, fn, op):
        vjp_nid = self.name_id(f"autodiff.vjp.{op}")
        records, stack, counter, tracer = self.records, self.stack, self._counter, self
        is_matmul = op == "matmul"

        def after(args, out):
            flop = 2.0 * out.data.size * args[0].shape[-1] if is_matmul else 0.0
            vjp = out._vjp
            if vjp is None:
                return (out.data.nbytes, flop, 0)

            def timed_vjp(g):
                idx = next(counter)
                parent = stack[-1]
                stack.append(idx)
                t0 = perf_counter()
                try:
                    return vjp(g)
                finally:
                    stack.pop()
                    # backward runs two GEMMs of the forward's size per matmul
                    records.append((idx, vjp_nid, t0, perf_counter(), parent, tracer.run,
                                    0, 2.0 * flop, 0))

            out._vjp = timed_vjp
            return (out.data.nbytes, flop, 1)

        return self._wrap(fn, self.name_id(f"autodiff.{op}"), after=after)

    def _block_wrapper(self, fn):
        roles, default = self._roles, self.name_id("model.block")
        return self._wrap(fn, default, name_of=lambda args: roles.get(args[0], default))

    def _build_wrapper(self, fn):
        traced_init = self._wrap(fn, self.name_id("model.build"))
        enc, dec, roles = (self.name_id("model.encoder_block"),
                           self.name_id("model.decoder_block"), self._roles)

        def init(model, *args, **kwargs):
            traced_init(model, *args, **kwargs)
            for block in model.encoder_blocks:
                roles[block] = enc
            for block in getattr(model, "decoder_blocks", ()):
                roles[block] = dec

        return init

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "cloudmae" and not modname.startswith("cloudmae."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        ad = _module("autodiff")
        for op in OPS:
            fn = getattr(ad, op)
            self._replace_everywhere(fn, self._op_wrapper(fn, op))
        for modname, attr, name in FUNCTIONS:
            fn = getattr(_module(modname), attr)
            self._replace_everywhere(fn, self._span_wrapper(fn, name))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(_module(modname), cls_name)
            fn = cls.__dict__[attr]
            if attr == "__init__":
                wrapper = self._build_wrapper(fn)
            else:
                wrapper = self._span_wrapper(fn, name)
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
        cls = getattr(_module(BLOCK[0]), BLOCK[1])
        fn = cls.__dict__[BLOCK[2]]
        self._saved.append((cls, BLOCK[2], fn))
        setattr(cls, BLOCK[2], self._block_wrapper(fn))

    @property
    def installed(self):
        return bool(self._saved)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output -----------------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns, row i being the span with index i."""
        recs = sorted(self.records)
        if [r[0] for r in recs] != list(range(len(recs))):
            raise RuntimeError("tracer: a span was never ended")
        cols = np.array(recs, dtype=np.float64).reshape(-1, 9)
        return {
            "names": np.array(self.names),
            "name": cols[:, 1].astype(np.int32),
            "t0": cols[:, 2],
            "t1": cols[:, 3],
            "parent": cols[:, 4].astype(np.int64),
            "run": cols[:, 5].astype(np.int64),
            "nbytes": cols[:, 6],
            "flop": cols[:, 7],
            "grad": cols[:, 8].astype(np.int8),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def self_times(cols):
    """Span duration minus the time its direct children cover."""
    dur = cols["t1"] - cols["t0"]
    child = np.zeros_like(dur)
    has_parent = cols["parent"] >= 0
    np.add.at(child, cols["parent"][has_parent], dur[has_parent])
    return dur - child


def check_tree(cols, slack=1e-6):
    """Problems in the span tree: children outside parents, negative self time."""
    problems = []
    t0, t1, parent = cols["t0"], cols["t1"], cols["parent"]
    if np.any(t1 < t0):
        problems.append("span ends before it starts")
    idx = np.nonzero(parent >= 0)[0]
    if np.any(parent[idx] >= idx):
        problems.append("parent recorded after child")
    p = parent[idx]
    if np.any(t0[idx] < t0[p] - slack) or np.any(t1[idx] > t1[p] + slack):
        problems.append("child span lies outside its parent")
    if np.any(self_times(cols) < -slack):
        problems.append("negative self time")
    return problems


def layer_metrics(cols, steps):
    """Per-layer split, per timed step, from spans whose run id is in ``steps``.

    ``steps`` is the collection of traced timed step (or request) indices.
    Times are milliseconds per step, work counts are per step; only
    ``data.build_dataset_s`` is the median over all set-ups, in seconds.
    """
    names = list(cols["names"])
    name = cols["name"]
    dur = cols["t1"] - cols["t0"]
    selft = self_times(cols)
    timed = np.isin(cols["run"], np.asarray(list(steps), dtype=np.int64))
    n = max(len(steps), 1)

    def mask(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return timed & np.isin(name, ids)

    def per_step(values, m):
        return float(values[m].sum()) / n

    def ms(*span_names):
        return 1000.0 * per_step(dur, mask(*span_names))

    def count(*span_names):
        return float(mask(*span_names).sum()) / n

    fwd = mask(*(f"autodiff.{op}" for op in OPS))
    mm = mask("autodiff.matmul", "autodiff.vjp.matmul")
    mm_s = float(dur[mm].sum())
    mm_flop = float(cols["flop"][mm].sum())
    adamw = mask("params.adamw")
    builds = np.isin(name, [i for i, s in enumerate(names) if s == "data.build_dataset"])
    out = {
        "autodiff.forward_ops": float(fwd.sum()) / n,
        "autodiff.forward_ms": 1000.0 * per_step(dur, fwd),
        "autodiff.graph_nodes": per_step(cols["grad"].astype(np.float64), fwd),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.vjp_ms": ms(*(f"autodiff.vjp.{op}" for op in OPS)),
        "autodiff.matmul_ms": 1000.0 * mm_s / n,
        "autodiff.matmul_gflop": mm_flop / n / 1e9,
        "autodiff.matmul_gflops_per_s": mm_flop / mm_s / 1e9 if mm_s > 0 else 0.0,
        "autodiff.output_mb": per_step(cols["nbytes"], fwd) / 1e6,
    }
    for group, ops in OP_GROUPS.items():
        out[f"autodiff.{group}_ms"] = ms(*(f"autodiff.{op}" for op in ops),
                                         *(f"autodiff.vjp.{op}" for op in ops))
    elements = per_step(cols["flop"], adamw)
    out.update({
        "params.adamw_ms": ms("params.adamw"),
        "params.adamw_arrays": per_step(cols["nbytes"], adamw),
        "params.adamw_elements": elements,
        # read p, g, m, v and write m, v, p: seven float64 passes per element
        "params.adamw_mb": elements * 7 * 8 / 1e6,
        "params.read_container_ms": ms("params.read_container"),
        "params.write_container_ms": ms("params.write_container"),
        "params.container_mb": per_step(
            cols["nbytes"], mask("params.read_container", "params.write_container")) / 1e6,
        "geometry.build_patches_ms": ms("geometry.build_patches"),
        "geometry.fps_ms": ms("geometry.fps"),
        "geometry.knn_ms": ms("geometry.knn"),
        "geometry.chamfer_ms": _outermost_ms(cols, dur, timed, names, ("geometry.chamfer",), n),
        "masking.make_mask_ms": ms("masking.make_mask"),
        "masking.split_patches_ms": ms("masking.split_patches"),
        "embed.patch_embedder_ms": ms("embed.patch_embedder"),
        "embed.positional_mlp_ms": ms("embed.positional_mlp"),
        "embed.patch_tokens": per_step(cols["nbytes"], mask("embed.patch_embedder")),
        "model.build_ms": ms("model.build"),
        "model.forward_ms": _outermost_ms(cols, dur, timed, names, ("model.forward",), n),
        "model.encoder_ms": ms("model.encoder_block"),
        "model.decoder_ms": ms("model.decoder_block"),
        "model.block_calls": count("model.encoder_block", "model.decoder_block",
                                   "model.block"),
        "model.head_loss_self_ms": _head_loss_self_ms(cols, dur, timed, names, n),
        "data.augment_ms": ms("data.augment"),
        "data.build_dataset_s": float(np.median(dur[builds])) if builds.any() else 0.0,
        "data.load_points_ms": ms("data.load_points"),
        "data.points_read": per_step(cols["nbytes"], mask("data.load_points")),
        "data.save_ply_ms": ms("data.save_ply"),
        "data.points_written": per_step(cols["nbytes"], mask("data.save_ply")),
    })
    training = [s for s in names if s.startswith("training.") and s != "training.fewshot_eval"]
    out["training.self_ms"] = 1000.0 * per_step(selft, mask(*training))
    out["training.fewshot_self_ms"] = 1000.0 * per_step(selft, mask("training.fewshot_eval"))
    return out


def _outermost(cols, names, span_names):
    """Spans named in ``span_names`` that have no ancestor of those names."""
    ids = [names.index(s) for s in span_names if s in names]
    hit = np.isin(cols["name"], ids)
    inside = np.zeros(hit.size, dtype=bool)   # some ancestor is a hit
    parent = cols["parent"]
    for i in range(hit.size):                 # parents precede children
        p = parent[i]
        if p >= 0:
            inside[i] = inside[p] or hit[p]
    return hit & ~inside


def _outermost_ms(cols, dur, timed, names, span_names, n):
    m = _outermost(cols, names, span_names) & timed
    return 1000.0 * float(dur[m].sum()) / n


def _head_loss_self_ms(cols, dur, timed, names, n):
    """Model forward time outside blocks, embedders, patching and masking."""
    stop_ids = [names.index(s) for s in MODEL_SUBLAYERS if s in names]
    stop = np.isin(cols["name"], stop_ids)
    covered = np.zeros_like(dur)
    parent = cols["parent"]
    for i in range(dur.size - 1, -1, -1):     # children follow their parents
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i] if stop[i] else covered[i]
    top = _outermost(cols, names, ("model.forward",)) & timed
    return 1000.0 * float((dur[top] - covered[top]).sum()) / n
