"""cloudmae benchmark: pretraining at desk and paper scale, checkpoint evaluation.

Run from anywhere; the program is imported from ``src`` next to this
directory. Each workload runs in a fresh process (``worker.py``) with one
BLAS thread.

    python3 perfbench/run.py --workload desk_pretrain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer split. The
line before it holds the environment record and run details. The exit code
is 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import envinfo  # noqa: E402

WORKLOADS = ("desk_pretrain", "paper_pretrain", "desk_eval")
TIMEOUT_S = 170
OUT = ROOT / ".bench_out"


def run_workload(name, seed, seconds, trace):
    """Run one workload in a fresh process; returns its result dict or None."""
    threads = str(envinfo.blas_threads())
    env = dict(os.environ)
    env.update({var: threads for var in envinfo.BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_dir = OUT / name
    load_before = os.getloadavg()
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out_dir), "--spawned-at", repr(spawned_at)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: worker exited with {done.returncode} and no result",
              file=sys.stderr)
        return None
    result["env"].update(envinfo.host_record(ROOT))
    result["env"]["load_avg_before"] = load_before
    result["env"]["load_avg_after"] = os.getloadavg()
    (out_dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cloudmae" / "__init__.py").is_file():
        print(f"no cloudmae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        for metric, m in sorted(result["metrics"].items()):
            print(f"{name:15s} {metric:32s} {m['value']:14.4f} {m['unit']}")
        print(json.dumps({"detail": result["detail"], "env": result["env"]}))

    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "workloads": {n: r["metrics"] for n, r in results.items()}}
    else:
        final = {k: results[args.workload][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
