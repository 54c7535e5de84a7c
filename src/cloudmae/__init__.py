"""Masked autoencoding for point clouds, self-contained on numpy.

Patchify clouds with farthest point sampling + KNN, mask patches at a high
ratio, encode only the visible patches with a standard Transformer, decode
with shifted mask tokens, and reconstruct the masked patches under an l2
Chamfer loss. Includes fine-tune, few-shot, and ablation harnesses plus a
small reverse-mode autodiff core that everything trains on.
"""

__version__ = "0.1.0"

from . import autodiff
from .autodiff import (GraphError, NumericsError, ShapeError, Tensor, backward,
                       gradient_check, no_grad)
from .config import (BackboneConfig, DataSpec, RunConfig, desk_preset,
                     load_preset, paper_preset, SHAPE_FAMILIES)
from .data import (DatasetSplit, SyntheticSpec, augment, build_dataset,
                   gen_synthetic, load_points, normalize_cloud, save_ply,
                   save_xyz)
from .embed import MaskToken, PatchEmbedder, PositionalMLP
from .geometry import (PatchSet, PointCloud, batch_chamfer, build_patches,
                       chamfer_l2, farthest_point_sampling, knn,
                       pairwise_sqdist)
from .masking import (MaskSpec, block_mask, make_mask, masked_count,
                      random_mask, split_patches)
from .model import (MaskedAutoencoder, PointCloudClassifier, TokenSequence,
                    TransformerBlock)
from .params import AdamW, ParamStore, cosine_lr, read_container, write_container
from .seeding import derive_rng, derive_seed
from .training import (Checkpoint, Metrics, TrainingAbort, ablate_mask,
                       chamfer_value, evaluate_classifier, fewshot_eval,
                       finetune_classify, format_ablation_table, pretrain,
                       reconstruct, reconstruction_report)
