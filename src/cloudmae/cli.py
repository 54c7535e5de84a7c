"""Command-line entry points.

Subcommands: pretrain, finetune, fewshot, ablate-mask, reconstruct,
gradcheck, gen-data; each accepts only the flags it reads. Exit codes: 0
success, 1 usage error, 2 numerical failure (a NaN/Inf abort naming its op).
"""

import argparse
import json
import sys
from pathlib import Path

from .autodiff import NumericsError
from .config import SHAPE_FAMILIES, RunConfig, apply_overrides, load_preset
from .data import build_dataset, gen_synthetic, load_points, save_xyz, SyntheticSpec
from .gradcheck import run_gradient_suite
from .seeding import derive_seed
from .training import (Checkpoint, TrainingAbort, ablate_mask, fewshot_eval,
                       finetune_classify, format_ablation_table, pretrain,
                       reconstruct)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_OVERRIDES = {  # run-config override flag -> (RunConfig field, add_argument keywords)
    "--seed": ("seed", {"type": int}),
    "--mask-ratio": ("mask_ratio", {"type": float}),
    "--mask-type": ("mask_type", {"choices": ("random", "block")}),
    "--mask-tokens-at": ("mask_token_placement", {"choices": ("decoder", "encoder")}),
    "--out": ("out_dir", {}),
}


def _add_common(p, *flags):
    p.add_argument("--config", help="JSON file mirroring RunConfig fields")
    p.add_argument("--preset", choices=("desk", "paper"), default="desk")
    for flag in ("--seed",) + flags:
        field, kwargs = _OVERRIDES[flag]
        p.add_argument(flag, dest=field, **kwargs)


def _resolve_config(args):
    cfg = (RunConfig.from_json(Path(args.config).read_text()) if args.config
           else load_preset(args.preset))
    overrides = {field: getattr(args, field, None) for field, _ in _OVERRIDES.values()}
    return apply_overrides(cfg, **{k: v for k, v in overrides.items() if v not in (None, "")})


def build_parser():
    parser = _Parser(prog="cloudmae",
                     description="Masked autoencoding for point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run masked-reconstruction pretraining")
    _add_common(p, "--mask-ratio", "--mask-type", "--mask-tokens-at", "--out")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.add_argument("--checkpoint-every", type=int, default=0)

    p = sub.add_parser("finetune", help="classification fine-tuning")
    _add_common(p)
    p.add_argument("--checkpoint", help="pretraining checkpoint; omit for scratch")

    p = sub.add_parser("fewshot", help="n-way m-shot episodic evaluation")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--m-shot", type=int, default=1)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--test-per-class", type=int, default=20)

    p = sub.add_parser("ablate-mask", help="masking-strategy ablation grid")
    _add_common(p, "--mask-ratio", "--out")
    p.add_argument("--types", default="random")
    p.add_argument("--ratios", default="0.4,0.6,0.8")
    p.add_argument("--no-encoder-cell", action="store_true")

    p = sub.add_parser("reconstruct", help="export input/masked/reconstruction PLYs")
    _add_common(p, "--mask-ratio", "--mask-type", "--out")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", help="XYZ or PLY file; omit for a synthetic cloud")
    p.add_argument("--family", default="torus")

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--trials", type=int, default=10)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset as XYZ files")
    _add_common(p, "--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TrainingAbort, NumericsError) as exc:
        print(f"numerical failure in op {exc.op}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.command == "gradcheck":
        if args.trials < 1:
            raise _UsageError(f"--trials must be at least 1, got {args.trials}")
        results = run_gradient_suite(trials=args.trials)
        width = max(map(len, results))
        for name, err in sorted(results.items()):
            print(f"{name:<{width}} max rel err {err:.3e}  {'ok' if err < 1e-4 else 'FAIL'}")
        return 0 if all(err < 1e-4 for err in results.values()) else 2

    cfg = _resolve_config(args)
    out_dir = cfg.out_dir

    if args.command == "pretrain":
        resume = Checkpoint.load(args.resume) if args.resume else None
        ckpt, metrics = pretrain(cfg, resume=resume, out_dir=out_dir,
                                 checkpoint_every=args.checkpoint_every,
                                 quiet=False)
        if metrics.records:
            print(f"final loss (x1000): {metrics.final('loss_x1000'):.4f}")
        print(f"checkpoint: {Path(out_dir) / 'checkpoint_final.bin'}")
        return 0

    if args.command == "finetune":
        ckpt = Checkpoint.load(args.checkpoint) if args.checkpoint else None
        dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
        accuracy, _, _ = finetune_classify(dataset, cfg, checkpoint=ckpt, quiet=False)
        init = "pretrained" if ckpt is not None else "scratch"
        print(f"test accuracy ({init} init): {accuracy:.4f}")
        return 0

    if args.command == "fewshot":
        ckpt = Checkpoint.load(args.checkpoint)
        dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
        pool = dataset.train + dataset.val + dataset.test
        result = fewshot_eval(ckpt, pool, args.n_way, args.m_shot,
                              runs=args.runs, test_per_class=args.test_per_class,
                              seed=cfg.seed)
        print(f"{args.n_way}-way {args.m_shot}-shot: "
              f"{100 * result['mean']:.2f} +/- {100 * result['std']:.2f} "
              f"(over {args.runs} runs)")
        return 0

    if args.command == "ablate-mask":
        types = tuple(t.strip() for t in args.types.split(",") if t.strip())
        ratios = tuple(float(r) for r in args.ratios.split(",") if r.strip())
        rows = ablate_mask(cfg, types=types, ratios=ratios,
                           encoder_cell=not args.no_encoder_cell)
        print(format_ablation_table(rows))
        if out_dir:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / "ablation.json").write_text(json.dumps(rows, indent=2))
        return 0

    if args.command == "reconstruct":
        ckpt = Checkpoint.load(args.checkpoint)
        if args.input:
            cloud = load_points(args.input)
        else:
            cloud = gen_synthetic(SyntheticSpec(
                family=args.family, points=cfg.points,
                noise_sigma=cfg.data.noise_sigma, seed=derive_seed(cfg.seed, "demo")))
        paths, report = reconstruct(ckpt, cloud, cfg.mask_ratio, out_dir,
                                    seed=cfg.seed, mask_type=cfg.mask_type)
        print(f"chamfer to input: {report['chamfer']:.6f} "
              f"(centers-only baseline {report['baseline_chamfer']:.6f})")
        for name, path in paths.items():
            print(f"{name}: {path}")
        return 0

    if args.command == "gen-data":
        dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
        root = Path(out_dir)
        manifest = {}
        for split in ("train", "val", "test"):
            split_dir = root / split
            split_dir.mkdir(parents=True, exist_ok=True)
            entries = []
            for i, cloud in enumerate(getattr(dataset, split)):
                family = SHAPE_FAMILIES[cloud.label]
                path = split_dir / f"{family}_{i:04d}.xyz"
                save_xyz(path, cloud.points)
                entries.append({"file": str(path.relative_to(root)),
                                "label": cloud.label, "family": family,
                                "seed": dataset.seeds[split][i]})
            manifest[split] = entries
        (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
        print(f"wrote {sum(len(v) for v in manifest.values())} clouds under {root}")
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
