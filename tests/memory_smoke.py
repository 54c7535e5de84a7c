"""Paper-scale memory smoke check: a forward-only batch and a checkpoint save.

Run it as a script, in a fresh process (``ru_maxrss`` is the peak of the whole
process)::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/memory_smoke.py

It runs a forward-only ``logits_batch`` of 32 ``paper_preset`` clouds, then
saves one ``paper_preset`` model, its AdamW state and their capture to a
temporary directory. Each step must raise the peak resident set by less than
its bound. The batch comes first: the model, its moments and the capture hold
about 1.4 GB, which raises the peak past anything the batch would add. Neither
property shows at desk scale.
"""

import resource
import sys
import tempfile
from pathlib import Path

from cloudmae.config import SHAPE_FAMILIES, paper_preset
from cloudmae.data import SyntheticSpec, gen_synthetic
from cloudmae.model import MaskedAutoencoder, PointCloudClassifier
from cloudmae.params import AdamW
from cloudmae.training import Checkpoint

BATCH, BATCH_MB, SAVE_MB = 32, 256, 64


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main():
    cfg = paper_preset()
    clf = PointCloudClassifier(cfg.model, cfg.patch_size, cfg.n_patches,
                               len(SHAPE_FAMILIES), seed=0)
    clouds = [gen_synthetic(SyntheticSpec(family=SHAPE_FAMILIES[i % len(SHAPE_FAMILIES)],
                                          points=cfg.points, seed=i)) for i in range(BATCH)]
    before = peak_mb()
    clf.logits_batch(clouds, list(range(BATCH)))
    batch_mb = peak_mb() - before
    del clf

    model = MaskedAutoencoder(cfg.model, cfg.patch_size, seed=0)
    ckpt = Checkpoint.capture(model, AdamW(model.store), cfg, epoch=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint_final.bin"
        before = peak_mb()
        ckpt.save(path)
        save_mb = peak_mb() - before
        file_mb = path.stat().st_size / 1e6

    failed = False
    for what, rise, bound in ((f"forward-only batch of {BATCH}", batch_mb, BATCH_MB),
                              (f"save of a {file_mb:.0f} MB checkpoint", save_mb, SAVE_MB)):
        ok = rise < bound
        failed |= not ok
        print(f"{what}: peak RSS +{rise:.0f} MB (bound {bound} MB) {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
