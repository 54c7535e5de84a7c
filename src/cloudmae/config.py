"""Run configuration: backbone hyperparameters, data spec, training recipe.

Two presets ship: ``desk`` (small synthetic setup that trains in seconds on a
CPU) and ``paper`` (the full-scale configuration for users with real data).
"""

import json
from dataclasses import asdict, dataclass, field, fields

from .masking import masked_count

SHAPE_FAMILIES = ("sphere", "cube", "cylinder", "torus", "cone", "plane")


@dataclass
class BackboneConfig:
    dim: int = 384
    encoder_depth: int = 12
    decoder_depth: int = 4
    heads: int = 6
    mlp_ratio: int = 4
    mask_token_placement: str = "decoder"  # decoder | encoder (ablation)
    embed_widths: tuple = (128, 256, 512)  # patch embedder stage widths

    def __post_init__(self):
        if self.dim < 1 or self.heads < 1:
            raise ValueError(f"dim {self.dim} and heads {self.heads} must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.encoder_depth < 1 or self.decoder_depth < 1:
            raise ValueError("encoder/decoder depth must be >= 1")
        if self.mask_token_placement not in ("decoder", "encoder"):
            raise ValueError(f"bad mask_token_placement {self.mask_token_placement!r}")
        self.embed_widths = tuple(self.embed_widths)
        if len(self.embed_widths) != 3:
            raise ValueError("embed_widths must be (stage1_hidden, stage1_out, stage2_hidden)")


@dataclass
class DataSpec:
    families: tuple = SHAPE_FAMILIES
    train_per_class: int = 10
    val_per_class: int = 10
    test_per_class: int = 10
    noise_sigma: float = 0.02

    def __post_init__(self):
        self.families = tuple(self.families)
        if not self.families:
            raise ValueError("families must name at least one shape family")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError(f"train_per_class {self.train_per_class} and "
                             f"test_per_class {self.test_per_class} must be >= 1")


@dataclass
class RunConfig:
    model: BackboneConfig = field(default_factory=BackboneConfig)
    data: DataSpec = field(default_factory=DataSpec)
    points: int = 1024          # p
    n_patches: int = 64         # n
    patch_size: int = 32        # k
    mask_ratio: float = 0.6     # m
    mask_type: str = "random"
    lr_max: float = 1e-3
    lr_min: float = 1e-6
    weight_decay: float = 0.05
    epochs: int = 300
    batch_size: int = 128
    warmup_epochs: int = 10
    finetune_lr: float = 5e-4
    finetune_epochs: int = 30
    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        if self.n_patches > self.points or self.patch_size > self.points:
            raise ValueError("n_patches and patch_size must not exceed points")
        if self.n_patches < 1 or self.patch_size < 1:
            raise ValueError("n_patches and patch_size must be >= 1")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio {self.mask_ratio} outside [0, 1]")
        if masked_count(self.n_patches, self.mask_ratio) >= self.n_patches:
            raise ValueError(
                f"mask_ratio {self.mask_ratio} leaves no visible patch of {self.n_patches}")
        if self.mask_type not in ("random", "block"):
            raise ValueError(f"bad mask_type {self.mask_type!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size {self.batch_size} must be >= 1")
        if self.lr_max <= 0.0 or self.finetune_lr <= 0.0 or self.lr_min < 0.0:
            raise ValueError(f"lr_max {self.lr_max} and finetune_lr {self.finetune_lr} "
                             f"must be positive and lr_min {self.lr_min} non-negative")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be smaller than epochs")

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """Build from a dict; unknown fields raise a ValueError naming them."""
        d = dict(d)
        if "model" in d:
            model = dict(d["model"])
            # checkpoints written before dropout was removed store model.dropout = 0.0
            if model.pop("dropout", 0.0) != 0.0:
                raise ValueError("model.dropout is not supported; only 0.0 is accepted")
            d["model"] = _build(BackboneConfig, model, "model.")
        if "data" in d:
            d["data"] = _build(DataSpec, d["data"], "data.")
        return _build(cls, d, "")

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _build(cls, values, prefix):
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config fields: "
                         + ", ".join(prefix + name for name in unknown))
    return cls(**values)


def desk_preset(**overrides):
    """Small 6-class synthetic configuration; pretrains in well under a minute."""
    cfg = RunConfig(
        model=BackboneConfig(dim=96, encoder_depth=3, decoder_depth=1, heads=6,
                             embed_widths=(64, 128, 256)),
        data=DataSpec(train_per_class=8, val_per_class=10, test_per_class=10),
        points=256,
        n_patches=16,
        patch_size=16,
        mask_ratio=0.6,
        mask_type="random",
        epochs=60,
        batch_size=8,
        warmup_epochs=10,
        finetune_lr=1e-3,
        finetune_epochs=60,
    )
    return _apply_overrides(cfg, overrides)


def paper_preset(**overrides):
    """Full-scale configuration (1024 points, 64 patches, 12/4 blocks)."""
    cfg = RunConfig()
    return _apply_overrides(cfg, overrides)


def _apply_overrides(cfg, overrides):
    for key, value in overrides.items():
        if hasattr(cfg, key):
            setattr(cfg, key, value)
        elif hasattr(cfg.model, key):
            setattr(cfg.model, key, value)
        elif hasattr(cfg.data, key):
            setattr(cfg.data, key, value)
        else:
            raise KeyError(f"unknown config field {key!r}")
    cfg.__post_init__()
    cfg.model.__post_init__()
    cfg.data.__post_init__()
    return cfg


def load_preset(name, **overrides):
    if name == "desk":
        return desk_preset(**overrides)
    if name == "paper":
        return paper_preset(**overrides)
    raise ValueError(f"unknown preset {name!r}")
