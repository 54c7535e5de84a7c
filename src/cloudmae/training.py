"""Training and evaluation orchestration.

Pretraining, classification fine-tuning, few-shot episodes, masking
ablations, and reconstruction export. Every run is a pure function of
(config, master seed): data order, augmentation, patchification, and masking
all draw from seeds derived per (epoch, item), so resuming from a checkpoint
replays the identical stream.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import NumericsError, Tensor, backward, no_grad, run_deferred
from .config import RunConfig, apply_overrides
from .data import augment, build_dataset, save_ply
from .embed import MLP
from .geometry import chamfer_l2
from .masking import check_mask_ratio
from .model import MaskedAutoencoder, PointCloudClassifier, cross_entropy_batch, forward_only
from .params import AdamW, ParamStore, cosine_lr, read_container, write_container
from .seeding import derive_rng, derive_seed


class TrainingAbort(RuntimeError):
    """Raised on NaN/Inf during training; carries the batch seeds and the failing op."""

    def __init__(self, message, item_seed=None, epoch=None, op=None):
        super().__init__(message)
        self.item_seed = item_seed
        self.epoch = epoch
        self.op = op


@dataclass
class Metrics:
    """Append-only per-epoch records with strictly increasing epoch index."""

    records: list = field(default_factory=list)

    def append(self, **fields):
        if self.records and fields["epoch"] <= self.records[-1]["epoch"]:
            raise ValueError("epoch indices must be strictly increasing")
        self.records.append(fields)

    def to_jsonl(self):
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)

    def save(self, path):
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    def deterministic_records(self):
        """Records minus wall-clock fields, for run-to-run comparison."""
        return [{k: v for k, v in r.items() if k != "wall_time"}
                for r in self.records]

    def final(self, key):
        return self.records[-1][key]


_CHECKPOINT_META = ("config", "epoch", "opt_step_count")
_CHECKPOINT_KINDS = ("param", "opt_m", "opt_v")  # array name prefixes, in file order


@dataclass
class Checkpoint:
    """Model parameters, optimizer moments, config, and progress counters."""

    params: dict
    opt_m: dict
    opt_v: dict
    meta: dict

    @classmethod
    def capture(cls, model, opt, config, epoch):
        meta = {"config": config.to_dict(), "epoch": epoch, "opt_step_count": opt.step_count}
        meta = json.loads(json.dumps(meta, sort_keys=True))  # normalize tuples
        return cls(
            params={k: v.copy() for k, v in model.store.state_arrays().items()},
            opt_m={k: v.copy() for k, v in opt.m.items()},
            opt_v={k: v.copy() for k, v in opt.v.items()},
            meta=meta,
        )

    def to_bytes(self):
        groups = zip(_CHECKPOINT_KINDS, (self.params, self.opt_m, self.opt_v))
        return write_container({f"{kind}/{k}": v for kind, group in groups
                                for k, v in group.items()}, self.meta)

    @classmethod
    def from_bytes(cls, blob):
        arrays, meta = read_container(blob)
        groups = {kind: {} for kind in _CHECKPOINT_KINDS}
        for k, v in arrays.items():
            kind, _, name = k.partition("/")
            if kind not in groups or not name:
                raise ValueError(f"checkpoint: unexpected array name {k!r}")
            groups[kind][name] = v
        missing = [key for key in _CHECKPOINT_META if key not in meta]
        if missing:
            raise ValueError(f"checkpoint: meta lacks {', '.join(map(repr, missing))}")
        for key in ("epoch", "opt_step_count"):
            if isinstance(meta[key], bool) or not isinstance(meta[key], int) or meta[key] < 0:
                raise ValueError(f"checkpoint: meta {key!r} must be a non-negative int, "
                                 f"got {meta[key]!r}")
        if not isinstance(meta["config"], dict):
            raise ValueError(f"checkpoint: meta 'config' must be an object, "
                             f"got {meta['config']!r}")
        shapes = {k: v.shape for k, v in groups["param"].items()}
        for kind in _CHECKPOINT_KINDS[1:]:
            moments = {k: v.shape for k, v in groups[kind].items()}
            bad = sorted(k for k in shapes.keys() | moments.keys()
                         if shapes.get(k) != moments.get(k))
            if bad:
                raise ValueError(f"checkpoint: {kind}/ does not match param/ at "
                                 + ", ".join(map(repr, bad)))
        return cls(params=groups["param"], opt_m=groups["opt_m"],
                   opt_v=groups["opt_v"], meta=meta)

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path):
        blob = Path(path).read_bytes()
        try:
            return cls.from_bytes(blob)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def config(self):
        return RunConfig.from_dict(self.meta["config"])

    def build_model(self):
        """The pretrained model, its parameters taken from the checkpoint without RNG draws."""
        cfg = self.config()
        return MaskedAutoencoder(cfg.model, cfg.patch_size,
                                 store=ParamStore.from_arrays(self.params))

    def resume(self, config):
        """(model, AdamW, epoch) that continue this run under ``config``.

        A ``config`` that differs from the stored one in anything but ``epochs``
        and ``out_dir`` raises a ``ValueError`` naming the fields.
        """
        stored, given = _flat(self.config().to_dict()), _flat(config.to_dict())
        changed = [k for k in given if given[k] != stored[k] and k not in ("epochs", "out_dir")]
        if changed:
            raise ValueError("resume: config differs from the checkpoint's in "
                             + ", ".join(changed))
        if config.epochs <= self.meta["epoch"]:
            raise ValueError(f"resume: epochs {config.epochs} leaves nothing to train "
                             f"after the checkpoint's epoch {self.meta['epoch']}")
        model = self.build_model()
        opt = AdamW(model.store, lr=config.lr_max, weight_decay=config.weight_decay)
        opt.m = {k: self.opt_m[k].copy() for k in opt.m}
        opt.v = {k: self.opt_v[k].copy() for k in opt.v}
        opt.step_count = self.meta["opt_step_count"]
        return model, opt, self.meta["epoch"]


def _train_step(store, forward):
    """Zero the gradients, run ``forward()`` and the backward of its loss; return the loss.

    The per-op finiteness checks are deferred: only the loss and each
    parameter's gradient are checked. A non-finite one clears the gradients
    and replays the step with per-op checks, so the first bad op raises
    ``NumericsError``. The replay is exact, since the optimizer has not yet
    touched the parameters and ``forward`` reuses its inputs and seeds.
    """
    def step():
        store.zero_grad()
        loss = forward()
        if loss.requires_grad:
            backward(loss)
        return loss

    def outputs(loss):
        grads = {f"{name}.grad": t.grad for name, t in store.items() if t.grad is not None}
        return {"loss": loss.data, **grads}

    return run_deferred(step, outputs)


def _flat(d, prefix=""):
    """Nested config dict -> {"model.dim": ..., "seed": ...}."""
    out = {}
    for k, v in d.items():
        out.update(_flat(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k: v})
    return out


def pretrain(config: RunConfig, resume: Checkpoint | None = None,
             out_dir=None, checkpoint_every=0, dataset=None, quiet=True):
    """Masked-reconstruction pretraining. Returns (Checkpoint, Metrics).

    Per batch: augment, patchify, mask, forward, backward, AdamW step under a
    warmup+cosine schedule. Logs the per-epoch mean loss (x1000). A NaN/Inf
    raises TrainingAbort with the batch's item seeds and the op that made it;
    with ``out_dir`` set, ``abort.json`` records them first.
    """
    seed = config.seed
    if dataset is None:
        dataset = build_dataset(config.data, config.points, derive_seed(seed, "dataset"))
    train = dataset.train
    if resume is None:
        model = MaskedAutoencoder(config.model, config.patch_size,
                                  seed=derive_seed(seed, "init"))
        opt = AdamW(model.store, lr=config.lr_max, weight_decay=config.weight_decay)
        start_epoch = 0
    else:
        model, opt, start_epoch = resume.resume(config)

    steps_per_epoch = max(1, math.ceil(len(train) / config.batch_size))
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    metrics = Metrics()
    lr = 0.0
    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        order = derive_rng(seed, "order", epoch).permutation(len(train))
        epoch_losses = []
        for b in range(steps_per_epoch):
            batch = order[b * config.batch_size:(b + 1) * config.batch_size]
            if batch.size == 0:
                continue
            item_seeds = [derive_seed(seed, "item", epoch, int(idx)) for idx in batch]
            clouds = [augment(train[idx], derive_seed(s, "aug"))
                      for idx, s in zip(batch, item_seeds)]
            try:
                loss = _train_step(model.store, lambda: model.pretrain_forward_batch(
                    clouds, config.n_patches, config.mask_ratio,
                    seeds=item_seeds, mask_type=config.mask_type)[0])
            except NumericsError as exc:
                _dump_abort(out_path, epoch, item_seeds, exc)
                raise TrainingAbort(
                    f"non-finite loss at epoch {epoch}, batch seeds {item_seeds}: {exc}",
                    item_seed=item_seeds, epoch=epoch, op=exc.op) from exc
            epoch_losses.extend([float(loss.data)] * batch.size)
            lr = cosine_lr(opt.step_count, total_steps, config.lr_max,
                           config.lr_min, warmup_steps)
            opt.step(lr=lr)
        record = {
            "epoch": epoch,
            "loss_x1000": float(np.mean(epoch_losses)) * 1000.0,
            "lr": lr,
            "wall_time": time.perf_counter() - t0,
        }
        metrics.append(**record)
        if not quiet:
            print(f"epoch {epoch:4d}  loss(x1000) {record['loss_x1000']:9.4f}  "
                  f"lr {lr:.2e}")
        if out_path is not None and checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            Checkpoint.capture(model, opt, config, epoch + 1).save(
                out_path / f"checkpoint_{epoch + 1:04d}.bin")

    final = Checkpoint.capture(model, opt, config, config.epochs)
    if out_path is not None:
        final.save(out_path / "checkpoint_final.bin")
        metrics.save(out_path / "metrics.jsonl")
    return final, metrics


def _dump_abort(out_path, epoch, item_seed, exc):
    if out_path is None:
        return
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "abort.json").write_text(json.dumps({
        "epoch": epoch, "item_seed": item_seed, "op": exc.op, "error": str(exc)}, indent=2))


def finetune_classify(dataset, config: RunConfig, checkpoint: Checkpoint | None = None,
                      seed=None, quiet=True):
    """Train a classifier (encoder + pooled head) and report test accuracy.

    With ``checkpoint`` the encoder starts from pretrained weights, otherwise
    from scratch. No masking and no augmentation at evaluation time.
    Returns (accuracy, classifier, Metrics).
    """
    seed = config.seed if seed is None else seed
    labels = sorted({c.label for c in dataset.train})
    label_pos = {lab: i for i, lab in enumerate(labels)}
    clf = PointCloudClassifier(config.model, config.patch_size, config.n_patches,
                               len(labels), seed=derive_seed(seed, "cls_init"))
    if checkpoint is not None:
        clf.load_backbone(checkpoint.params)
    opt = AdamW(clf.store, lr=config.finetune_lr, weight_decay=config.weight_decay)

    train = dataset.train
    steps_per_epoch = max(1, math.ceil(len(train) / config.batch_size))
    total_steps = config.finetune_epochs * steps_per_epoch
    warmup_steps = min(max(1, total_steps // 10), total_steps - 1)  # one step: no warmup
    metrics = Metrics()
    lr = 0.0
    for epoch in range(config.finetune_epochs):
        t0 = time.perf_counter()
        order = derive_rng(seed, "ft_order", epoch).permutation(len(train))
        epoch_losses = []
        for b in range(steps_per_epoch):
            batch = order[b * config.batch_size:(b + 1) * config.batch_size]
            if batch.size == 0:
                continue
            # patch views are fixed per item; only the augmentation varies
            view_seeds = [derive_seed(seed, "view", int(idx)) for idx in batch]
            clouds = [augment(train[idx], derive_seed(seed, "aug", epoch, int(idx)))
                      for idx in batch]
            labels = [label_pos[train[idx].label] for idx in batch]
            loss = _train_step(clf.store, lambda: cross_entropy_batch(
                clf.logits_batch(clouds, view_seeds, train=True), labels))
            epoch_losses.append(float(loss.data))
            lr = cosine_lr(opt.step_count, total_steps, config.finetune_lr,
                           config.lr_min, warmup_steps)
            opt.step(lr=lr)
        metrics.append(epoch=epoch, loss_x1000=float(np.mean(epoch_losses)) * 1000.0,
                       lr=lr, wall_time=time.perf_counter() - t0)
        if not quiet:
            print(f"finetune epoch {epoch:3d}  ce {np.mean(epoch_losses):7.4f}")

    accuracy = evaluate_classifier(clf, dataset.test, label_pos, seed)
    return accuracy, clf, metrics


def evaluate_classifier(clf, items, label_pos, seed):
    """Plain accuracy in batches of 16; no augmentation or masking at evaluation."""
    correct = 0
    for start in range(0, len(items), 16):
        chunk = items[start:start + 16]
        seeds = [derive_seed(seed, "eval", start + i) for i in range(len(chunk))]
        logits = clf.logits_batch(chunk, seeds)
        preds = np.argmax(logits.data, axis=1)
        correct += sum(int(p) == label_pos[c.label] for p, c in zip(preds, chunk))
    return correct / len(items)


def fewshot_eval(checkpoint: Checkpoint, pool, n_way, m_shot, runs=10,
                 test_per_class=20, seed=0, head_epochs=60):
    """n-way / m-shot episodic evaluation over frozen encoder features.

    Per run: sample classes, supports, and queries with a run-indexed seed,
    train a small head on the supports, report query accuracy. Returns a dict
    with the mean, the population standard deviation over runs, and the
    per-run accuracies. Each head trains with AdamW at lr 5e-4.
    """
    counts = {"n_way": n_way, "m_shot": m_shot, "runs": runs, "test_per_class": test_per_class}
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"fewshot: {name} must be at least 1, got {value}")
    by_class = {}
    for cloud in pool:
        by_class.setdefault(cloud.label, []).append(cloud)
    if len(by_class) < n_way:
        raise ValueError(f"need {n_way} classes, pool has {len(by_class)}")
    needed = m_shot + test_per_class
    for label, items in sorted(by_class.items()):
        if len(items) < needed:
            raise ValueError(
                f"class {label} has {len(items)} items, needs {needed}")

    cfg = checkpoint.config()
    backbone = checkpoint.build_model()   # its decoder stays unused

    feature_cache = {}
    pool_index = {id(c): i for i, c in enumerate(pool)}

    def stacked(pairs):
        """(m, 2*dim) features and labels of (cloud, label) pairs; new clouds embed in one pass."""
        keys = [pool_index[id(cloud)] for cloud, _ in pairs]
        new = sorted(set(keys) - feature_cache.keys())
        if new:
            feats = forward_only(
                lambda: backbone.features_batch([pool[k] for k in new], cfg.n_patches,
                                                [derive_seed(seed, "feat", k) for k in new]),
                lambda out: {"features": out.data}).data
            feature_cache.update(zip(new, feats))
        return Tensor(np.stack([feature_cache[k] for k in keys])), [y for _, y in pairs]

    labels_sorted = sorted(by_class.keys())
    accuracies = []
    for run in range(runs):
        rng = derive_rng(seed, "episode", run)
        classes = list(rng.choice(labels_sorted, size=n_way, replace=False))
        supports, queries = [], []
        for ci, label in enumerate(classes):
            items = by_class[label]
            picked = rng.permutation(len(items))[:needed]
            for j in picked[:m_shot]:
                supports.append((items[j], ci))
            for j in picked[m_shot:]:
                queries.append((items[j], ci))
        head = _train_fewshot_head(cfg.model, n_way, *stacked(supports),
                                   derive_seed(seed, "head", run), head_epochs)
        feats, labels = stacked(queries)
        with no_grad():
            preds = np.argmax(head(feats).data, axis=1)
        accuracies.append(int(np.sum(preds == labels)) / len(queries))

    acc = np.array(accuracies)
    return {
        "mean": float(acc.mean()),
        "std": float(acc.std()),  # population std: one value -> 0
        "per_run": accuracies,
        "n_way": n_way,
        "m_shot": m_shot,
        "runs": runs,
    }


def _train_fewshot_head(cfg, n_way, features, labels, seed, epochs):
    """Full-batch AdamW on the mean support cross-entropy, one step per epoch."""
    store = ParamStore(seed)
    head = MLP(store, "fewshot_head", 2 * cfg.dim, cfg.dim, n_way)
    opt = AdamW(store, lr=5e-4, weight_decay=0.0)
    for _ in range(epochs):
        _train_step(store, lambda: cross_entropy_batch(head(features), labels))
        opt.step()
    return head


def ablate_mask(config: RunConfig, types=("random",), ratios=(0.4, 0.6, 0.8),
                encoder_cell=True, quiet=True):
    """Pretrain + finetune per (mask type, ratio) cell; returns row dicts.

    Cells are pairwise independent: each derives fresh seeds from the master
    seed and its cell index. ``encoder_cell`` adds the mask-tokens-at-encoder
    variant at the config's own ratio.
    """
    if config.epochs < 1:
        raise ValueError(f"ablation: epochs must be at least 1, got {config.epochs}")
    cells = [(t, r, "decoder") for t in types for r in ratios]
    if encoder_cell:
        cells.append(("random", config.mask_ratio, "encoder"))
    # every cell's config is built, and so validated, before the first cell trains
    configs = [_cell_config(config, ci, *cell) for ci, cell in enumerate(cells)]
    rows = []
    for (mask_type, ratio, placement), cell_cfg in zip(cells, configs):
        ckpt, metrics = pretrain(cell_cfg, quiet=quiet)
        dataset = build_dataset(cell_cfg.data, cell_cfg.points,
                                derive_seed(cell_cfg.seed, "dataset"))
        accuracy, _, _ = finetune_classify(dataset, cell_cfg, checkpoint=ckpt)
        rows.append({
            "mask_type": mask_type,
            "ratio": float(ratio),
            "placement": placement,
            "loss_x1000": metrics.final("loss_x1000"),
            "accuracy": accuracy,
        })
        if not quiet:
            print(format_ablation_table(rows[-1:]))
    return rows


def _cell_config(config, ci, mask_type, ratio, placement):
    try:
        return apply_overrides(config, mask_type=mask_type, mask_ratio=float(ratio),
                               seed=derive_seed(config.seed, "ablate", ci),
                               mask_token_placement=placement)
    except ValueError as exc:
        raise ValueError(f"ablation cell {mask_type}/{ratio}/{placement}: {exc}") from None


def format_ablation_table(rows):
    header = f"{'type':<8} {'ratio':>5} {'tokens-at':>10} {'loss(x1000)':>12} {'acc':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['mask_type']:<8} {r['ratio']:>5.2f} {r['placement']:>10} "
                     f"{r['loss_x1000']:>12.4f} {r['accuracy']:>7.4f}")
    return "\n".join(lines)


def chamfer_value(a, b):
    """Non-differentiable Chamfer number between two (p,3) arrays."""
    return float(chamfer_l2(Tensor(np.asarray(a)), Tensor(np.asarray(b))).data)


def reconstruction_report(model, cloud, n_patches, ratio, seed, mask_type="random"):
    """Reconstruct one cloud and compare against the centers-only baseline.

    The reconstruction is the union of the visible input points and the
    predicted masked patches re-anchored at their centers; the baseline
    replaces each predicted patch with k copies of its center.
    """
    check_mask_ratio(n_patches, ratio)
    _, diag = model.pretrain_forward(cloud, n_patches, ratio, seed=seed,
                                     mask_type=mask_type, train=False)
    ps, spec = diag["patchset"], diag["mask"]
    vis_idx = np.unique(ps.point_indices[spec.visible].reshape(-1))
    visible_pts = cloud.points[vis_idx]
    centers_m = ps.centers[spec.masked]
    predicted_abs = (diag["predicted"] + centers_m[:, None, :]).reshape(-1, 3)
    k = ps.k
    baseline_abs = np.repeat(centers_m, k, axis=0)

    if len(spec.masked) == 0:
        recon = baseline = cloud.points
    else:
        recon = np.concatenate([visible_pts, predicted_abs])
        baseline = np.concatenate([visible_pts, baseline_abs])
    return {
        "visible_points": visible_pts,
        "predicted_points": predicted_abs,
        "reconstruction": recon,
        "chamfer": chamfer_value(recon, cloud.points),
        "baseline_chamfer": chamfer_value(baseline, cloud.points),
        "mask": spec,
        "patchset": ps,
    }


def reconstruct(checkpoint: Checkpoint, cloud, ratio, out_dir, seed=0,
                mask_type="random"):
    """Write the {input, masked, reconstruction} PLY triad for one cloud."""
    cfg = checkpoint.config()
    model = checkpoint.build_model()
    report = reconstruction_report(model, cloud, cfg.n_patches, ratio,
                                   seed=derive_seed(seed, "reconstruct"),
                                   mask_type=mask_type)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "input": out / "input.ply",
        "masked": out / "masked.ply",
        "reconstruction": out / "reconstruction.ply",
    }
    save_ply(paths["input"], [cloud.points], colors=[(160, 160, 160)])
    save_ply(paths["masked"], [report["visible_points"]], colors=[(70, 130, 220)])
    if len(report["mask"].masked) == 0:
        save_ply(paths["reconstruction"], [cloud.points], colors=[(70, 130, 220)])
    else:
        save_ply(paths["reconstruction"],
                 [report["visible_points"], report["predicted_points"]],
                 colors=[(70, 130, 220), (220, 80, 60)])
    return paths, report
