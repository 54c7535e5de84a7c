"""One benchmark workload in one process: set-up, timed loop, checks, metrics.

``run.py`` starts this file as a fresh process with the BLAS thread count
pinned and ``src`` on the import path. The workload seed makes every input:
the synthetic datasets, the evaluation files and the set-up checkpoint. The
program's configuration (the desk and paper presets, including their own
``seed`` field for initialization and masks) stays as shipped.

A run sets up ``SETUP_REPS`` times and reports the median set-up time; the
last set-up continues into the timed loop. With ``--trace 1`` the set-ups are
traced, then an untraced pass and a traced pass of half the run time each
give the per-layer split and the tracing overhead.
"""

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# program functions are called through their modules, so that the tracer's
# wrappers, which replace module attributes, see every call
import cloudmae.data as data
import cloudmae.model as model_mod
import cloudmae.training as training
from cloudmae.autodiff import NumericsError
from cloudmae.config import SHAPE_FAMILIES, desk_preset, paper_preset
from cloudmae.data import SyntheticSpec, gen_synthetic, save_xyz
from cloudmae.seeding import derive_rng, derive_seed

sys.path.insert(0, str(Path(__file__).resolve().parent))
import envinfo  # noqa: E402
from tracer import Tracer, check_tree, layer_metrics  # noqa: E402

IMPORTED_AT = time.monotonic()

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SETUP_REPS = 3
EPOCHS = 10 ** 6   # the timed loop ends on time, never by running out of epochs


class Stop(Exception):
    """Raised at a step boundary to end a pass."""


def _held_out(dataset, per_class):
    by_label = {}
    for cloud in dataset.val:
        by_label.setdefault(cloud.label, []).append(cloud)
    return [c for label in sorted(by_label) for c in by_label[label][:per_class]]


def held_out_loss(forward, model, cfg, clouds, batch):
    """Reconstruction loss at fixed masks on held-out clouds, forward only."""
    seeds = [derive_seed(cfg.seed, "heldout", i) for i in range(len(clouds))]
    losses = []
    for i in range(0, len(clouds), batch):
        loss, _ = forward(model, clouds[i:i + batch], cfg.n_patches, cfg.mask_ratio,
                          seeds=seeds[i:i + batch], mask_type=cfg.mask_type,
                          train=False)
        losses.append(float(loss.data))
    return float(np.mean(losses))


class Pass:
    """Bookkeeping of one set-up (and optionally timed) pass."""

    def __init__(self, index, seconds, traced):
        self.index = index
        self.seconds = seconds
        self.traced = traced
        self.start = perf_counter()
        self.setup_s = None
        self.durations = []
        self.clouds = 0
        self.timed_clouds = 0
        self.warm_outputs = []
        self.failed = 0
        self.checked = 0
        self.timed_start = None

    @property
    def setup_run(self):
        return -1 - self.index


class PretrainWorkload:
    """``training.pretrain`` driven from outside, one optimizer step per sample.

    Step boundaries come from a probe on ``training.cosine_lr``, which the
    loop calls once per step after backward; an interval between two
    boundaries holds one AdamW update and one forward/backward.
    """

    def __init__(self, name, cfg, warmup, heldout_per_class, heldout_batch, tail):
        self.name = name
        self.cfg = cfg
        self.warmup = warmup
        self.heldout_per_class = heldout_per_class
        self.heldout_batch = heldout_batch
        self.tail = tail
        self.tracer = None
        self.current = None
        self.heldout = None
        self.on_timed_start = None
        self._model = None

    # probes --------------------------------------------------------------------

    def install_probes(self):
        self._orig_lr = training.cosine_lr
        self._orig_fwd = model_mod.MaskedAutoencoder.pretrain_forward_batch
        workload = self

        def lr_probe(*args, **kwargs):
            lr = workload._orig_lr(*args, **kwargs)
            workload.boundary()
            return lr

        def forward_probe(model, clouds, *args, **kwargs):
            loss, diag = workload._orig_fwd(model, clouds, *args, **kwargs)
            # a non-finite loss never gets here: the op raises NumericsError,
            # which pretrain turns into TrainingAbort and run_pass counts
            p = workload.current
            p.clouds += len(clouds)
            if len(p.warm_outputs) < workload.warmup:
                p.warm_outputs.append(float(loss.data))
            workload._model = model
            return loss, diag

        training.cosine_lr = lr_probe
        model_mod.MaskedAutoencoder.pretrain_forward_batch = forward_probe

    def remove_probes(self):
        training.cosine_lr = self._orig_lr
        model_mod.MaskedAutoencoder.pretrain_forward_batch = self._orig_fwd

    def boundary(self):
        p = self.current
        now = perf_counter()
        tr = self.tracer if p.traced else None
        if tr is not None and self._step_span is not None:
            tr.end(self._step_span)
            self._step_span = None
        self._marks += 1
        k = self._marks
        if k == self.warmup:
            p.setup_s = now - p.start
            if p.seconds == 0:
                raise Stop
            if self.on_timed_start is not None:
                self.on_timed_start(self._model)
            p.timed_start = self._last = perf_counter()
            self._clouds_at_start = p.clouds
        elif k > self.warmup:
            p.durations.append(now - self._last)
            self._last = now
            p.timed_clouds = p.clouds - self._clouds_at_start
            if now - p.timed_start >= p.seconds:
                raise Stop
        if tr is not None:
            tr.run = k - self.warmup if k >= self.warmup else p.setup_run
            self._step_span = tr.begin("training.step")

    # passes ----------------------------------------------------------------------

    def run_pass(self, p, seed):
        self.current = p
        self._marks = 0
        self._step_span = None
        if p.traced:
            self.tracer.run = p.setup_run
        try:
            dataset = data.build_dataset(self.cfg.data, self.cfg.points,
                                         derive_seed(seed, "dataset"))
            if self.heldout is None:
                self.heldout = _held_out(dataset, self.heldout_per_class)
            training.pretrain(self.cfg, dataset=dataset)
            raise RuntimeError("pretrain finished before the pass ended")
        except Stop:
            pass
        except (training.TrainingAbort, NumericsError):
            traceback.print_exc(file=sys.stderr)
            p.failed += 1
            if p.traced:
                self.tracer.close_open()
        finally:
            self._model = None
            self.current = None
        p.checked = len(p.warm_outputs) + len(p.durations) + p.failed

    def measure_loss(self, model):
        self.loss = held_out_loss(self._orig_fwd, model, self.cfg, self.heldout,
                                  self.heldout_batch)



class EvalWorkload:
    """Forward-only use of a checkpoint made in set-up, one request per sample.

    A request reads the checkpoint container and 16 cloud files (XYZ, ascii
    PLY and binary PLY in turn), classifies them as one batch, reconstructs
    the first cloud and exports its PLY triad. Every fourth request also runs
    one few-shot episode over the distinct clouds read so far.
    """

    BATCH = 16
    POOL_BATCHES = 6
    FEWSHOT_EVERY = 4
    RATIO = 0.6

    def __init__(self, name, warmup, heldout_per_class, tail):
        self.name = name
        self.cfg = desk_preset()
        self.ckpt_cfg = desk_preset(epochs=1, warmup_epochs=0)
        self.warmup = warmup
        self.heldout_per_class = heldout_per_class
        self.heldout_batch = self.BATCH
        self.tail = tail
        self.tracer = None
        self.heldout = None
        self.out_dir = None
        self.on_timed_start = None

    def install_probes(self):
        pass

    def remove_probes(self):
        pass

    def write_files(self, seed, where):
        """Evaluation files from the seed: families balanced within each batch."""
        where.mkdir(parents=True, exist_ok=True)
        files = []
        for b in range(self.POOL_BATCHES):
            order = derive_rng(seed, "eval-batch", b).permutation(self.BATCH)
            for i in range(self.BATCH):
                j = b * self.BATCH + i
                family = SHAPE_FAMILIES[order[i] % len(SHAPE_FAMILIES)]
                file_seed = derive_seed(seed, "eval-file", j)
                cloud = gen_synthetic(SyntheticSpec(
                    family=family, points=self.cfg.points,
                    noise_sigma=self.cfg.data.noise_sigma, seed=file_seed))
                kind = ("xyz", "ascii.ply", "binary.ply")[j % 3]
                path = where / f"cloud{j:03d}.{kind}"
                if kind == "xyz":
                    save_xyz(path, cloud.points)
                elif kind == "ascii.ply":
                    data.save_ply(path, [cloud.points])
                else:
                    write_binary_ply(path, cloud.points)
                files.append((path, cloud.label, file_seed))
        return files

    def request(self, r, state):
        files = state["files"]
        start = (r % self.POOL_BATCHES) * self.BATCH
        batch = files[start:start + self.BATCH]
        ckpt = training.Checkpoint.load(state["ckpt_path"])
        clouds = []
        for j, (path, label, _) in enumerate(batch):
            cloud = data.load_points(path)
            cloud.label = label
            clouds.append(cloud)
            state["pool"][start + j] = cloud
        seeds = [s for _, _, s in batch]
        clf = state["clf"]
        clf.load_backbone(ckpt.params)
        logits = clf.logits_batch(clouds, seeds, train=False)
        paths, report = training.reconstruct(ckpt, clouds[0], self.RATIO,
                                             state["recon_dir"], seed=seeds[0])
        episode = None
        if r % self.FEWSHOT_EVERY == self.FEWSHOT_EVERY - 1:
            pool = [state["pool"][i] for i in sorted(state["pool"])]
            episode = training.fewshot_eval(
                ckpt, pool, n_way=3, m_shot=1, runs=1, test_per_class=2,
                seed=derive_seed(state["seed"], "fewshot"), head_epochs=20)
        return clouds, seeds, logits, paths, report, episode

    def check(self, clf, clouds, seeds, logits, paths, report, episode):
        """Output checks of one request; returns a list of failures."""
        bad = []
        single = clf.logits(clouds[0], seeds[0], train=False).data[0]
        if not np.allclose(single, logits.data[0], rtol=1e-9, atol=1e-12):
            bad.append("batched logits differ from per-instance logits")
        expected = {"input": clouds[0].points, "masked": report["visible_points"],
                    "reconstruction": report["reconstruction"]}
        for key, points in expected.items():
            if not np.array_equal(data.load_points(paths[key]).points, points):
                bad.append(f"re-read {key}.ply differs from the reconstruction")
        if episode is not None and not 0.0 <= episode["mean"] <= 1.0:
            bad.append("few-shot accuracy outside [0, 1]")
        return bad

    def run_pass(self, p, seed):
        tr = self.tracer if p.traced else None
        if tr is not None:
            tr.run = p.setup_run
        where = self.out_dir / f"pass{p.index}"
        try:
            dataset = data.build_dataset(self.cfg.data, self.cfg.points,
                                         derive_seed(seed, "dataset"))
            if self.heldout is None:
                self.heldout = _held_out(dataset, self.heldout_per_class)
            ckpt, _ = training.pretrain(self.ckpt_cfg, dataset=dataset)
            ckpt_path = where / "checkpoint.bin"
            where.mkdir(parents=True, exist_ok=True)
            ckpt.save(ckpt_path)
            files = self.write_files(seed, where / "files")
            clf = model_mod.PointCloudClassifier(
                self.cfg.model, self.cfg.patch_size, self.cfg.n_patches,
                len(SHAPE_FAMILIES), seed=derive_seed(self.cfg.seed, "cls_init"))
        except (training.TrainingAbort, NumericsError, ValueError):
            traceback.print_exc(file=sys.stderr)
            p.failed += 1
            p.checked += 1
            return
        # the checkpoint bytes must repeat across set-ups, like the warm-up logits
        p.warm_outputs.append(hashlib.sha256(ckpt_path.read_bytes()).hexdigest())
        state = {"files": files, "ckpt_path": ckpt_path, "clf": clf, "pool": {},
                 "recon_dir": where / "recon", "seed": seed}
        check_s = 0.0
        for r in itertools.count():
            if r == self.warmup:
                p.setup_s = perf_counter() - p.start - check_s
                if p.seconds == 0:
                    break
                if self.on_timed_start is not None:
                    self.on_timed_start(training.Checkpoint.load(ckpt_path))
            elif r > self.warmup and sum(p.durations) >= p.seconds:
                break
            timed = r >= self.warmup
            if tr is not None:
                tr.run = r - self.warmup if timed else p.setup_run
                span = tr.begin("bench.request")
            t0 = perf_counter()
            try:
                out = self.request(r, state)
            except Exception:  # a failed request is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            t1 = perf_counter()
            if tr is not None:
                tr.end(span)
            with paused(tr):
                bad = ["request raised"] if out is None else self.check(clf, *out)
            check_s += perf_counter() - t1
            p.checked += 1
            if bad:
                print(f"request {r}: {'; '.join(bad)}", file=sys.stderr)
                p.failed += 1
            if timed:
                p.durations.append(t1 - t0)
                p.timed_clouds += len(out[0]) if out is not None else 0
            elif out is not None:
                p.warm_outputs.append(out[2].data.tobytes())

    def measure_loss(self, ckpt):
        self.loss = held_out_loss(model_mod.MaskedAutoencoder.pretrain_forward_batch,
                                  ckpt.build_model(), self.cfg, self.heldout,
                                  self.heldout_batch)


def write_binary_ply(path, points):
    """Binary little-endian PLY with double coordinates and uchar colors."""
    points = np.asarray(points, dtype=np.float64)
    rec = np.zeros(points.shape[0], dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                           ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    rec["x"], rec["y"], rec["z"] = points[:, 0], points[:, 1], points[:, 2]
    rec["red"] = rec["green"] = rec["blue"] = 180
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {points.shape[0]}\n"
              "property double x\nproperty double y\nproperty double z\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\n"
              "end_header\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.tobytes())


def make_workload(name):
    if name == "desk_pretrain":
        return PretrainWorkload(name, desk_preset(epochs=EPOCHS), warmup=6,
                                heldout_per_class=8, heldout_batch=8, tail=95.0)
    if name == "paper_pretrain":
        return PretrainWorkload(name, paper_preset(batch_size=8, epochs=EPOCHS),
                                warmup=1, heldout_per_class=3, heldout_batch=6,
                                tail=100.0)
    if name == "desk_eval":
        return EvalWorkload(name, warmup=4, heldout_per_class=8, tail=90.0)
    raise ValueError(f"unknown workload {name!r}")


@contextmanager
def paused(tracer):
    """Take the tracer's wrappers out while the benchmark checks outputs."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


def _tail(durations, q):
    values = np.asarray(durations)
    value = float(np.percentile(values, q))
    return value, int((values > value).sum())


def run(workload, seed, seconds, trace, out_dir, spawned_at):
    workload.out_dir = out_dir
    tracer = Tracer() if trace else None
    workload.tracer = tracer
    import_s = IMPORTED_AT - spawned_at
    passes = []
    workload.install_probes()
    try:
        if tracer is not None:
            tracer.install()
        for i in range(SETUP_REPS):
            last = i == SETUP_REPS - 1 and not trace
            if last:
                workload.on_timed_start = workload.measure_loss
            p = Pass(i, seconds if last else 0, traced=tracer is not None)
            workload.run_pass(p, seed)
            passes.append(p)
        if trace:
            workload.on_timed_start = None
            tracer.uninstall()
            plain = Pass(SETUP_REPS, seconds / 2, traced=False)
            workload.run_pass(plain, seed)
            tracer.install()
            traced = Pass(SETUP_REPS + 1, seconds / 2, traced=True)
            workload.run_pass(traced, seed)
            tracer.uninstall()
            passes += [plain, traced]
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        workload.remove_probes()

    failed = sum(p.failed for p in passes)
    attempted = sum(p.checked for p in passes)
    reference = passes[0].warm_outputs
    for p in passes[1:]:
        if p.warm_outputs != reference:
            print(f"pass {p.index}: warm-up outputs differ from pass 0", file=sys.stderr)
            failed += 1
        attempted += 1

    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_reps": SETUP_REPS,
              "setup_rep_s": [p.setup_s for p in passes], "import_s": import_s}
    timed = passes[-1]
    if not timed.durations:
        raise RuntimeError("no timed step completed")
    if trace:
        plain, traced = passes[-2], passes[-1]
        cps = [q.timed_clouds / sum(q.durations) for q in (plain, traced)]
        cols = tracer.arrays()
        problems = check_tree(cols)
        if problems:
            print("span tree: " + "; ".join(problems), file=sys.stderr)
            failed += 1
        values = layer_metrics(cols, range(len(traced.durations)))
        values["trace.overhead_pct"] = 100.0 * (cps[0] - cps[1]) / cps[0]
        values["env.gemm_gflops"] = envinfo.gemm_gflops()
        tracer.save(out_dir / "spans.npz")
        detail.update({"traced_steps": len(traced.durations), "spans": len(tracer.records),
                       "clouds_per_s_untraced": cps[0], "clouds_per_s_traced": cps[1]})
        metrics = _named(values, "per_layer")
    else:
        durations = timed.durations
        tail_ms, beyond = _tail(durations, workload.tail)
        values = {
            "setup_s": import_s + float(np.median([p.setup_s for p in passes
                                                    if p.setup_s is not None])),
            "clouds_per_s": timed.timed_clouds / sum(durations),
            "step_ms_p50": 1000.0 * float(np.median(durations)),
            "step_ms_tail": 1000.0 * tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_x1000": 1000.0 * workload.loss,
            "ok_fraction": 1.0 - failed / attempted,
        }
        metrics = _named(values, "end_to_end")
        detail.update({"steps": len(durations), "tail_percentile": workload.tail,
                       "samples_beyond_tail": beyond})
    env = envinfo.runtime_record()
    if not trace:
        env["gemm_gflops"] = envinfo.gemm_gflops()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail, "env": env,
            "step_ms": [1000.0 * d for d in timed.durations]}


def _named(values, group):
    """Metric values with the units BENCHMARK.json gives; every name must match."""
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    if set(values) != set(units):
        raise RuntimeError(f"{group} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(make_workload(args.workload), args.seed, args.seconds, bool(args.trace),
                 out_dir, args.spawned_at)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
