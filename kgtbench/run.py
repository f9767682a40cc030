"""Benchmark of the kgt pipeline: one workload per run, in its own process.

Usage (from the root of a checkout):

    python3 kgtbench/run.py --workload fb15k --seed 1 --seconds 40 --trace 0
    python3 kgtbench/run.py --workload toy-cli --seed 1 --seconds 40 --trace 1

The workload runs in a child process with every BLAS thread count set to 1
and the checkout's ``src`` on the path. Its files go under ``.kgtbench/`` in
the checkout. The output starts with a header, lists the metrics, ends with
the digests of the outputs, and its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fb15k", "toy-cli")
TIMEOUT_S = 170  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
KEEP = ("result.json", "worker.log", "spans.jsonl")  # generated inputs and outputs are deleted after a run


def fail(message: str) -> int:
    print(f"kgtbench: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the measured part runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    if not (root / "src" / "kgt" / "__init__.py").is_file():
        return fail(f"no kgt sources under {root / 'src'}; run from the root of a kgt checkout")
    work = root / ".kgtbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["TMPDIR"] = str(work)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--root={root}",
        f"--work={work}",
    ]
    log_path = work / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(command, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail(f"{args.workload} did not finish within {TIMEOUT_S} s; see {log_path}")
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").splitlines()[-20:]
        print("\n".join(tail), file=sys.stderr)
        return fail(f"{args.workload} exited with code {proc.returncode}; see {log_path}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    for entry in work.iterdir():
        if entry.name not in KEEP:
            shutil.rmtree(entry) if entry.is_dir() else entry.unlink()

    print(f"# kgtbench {result['workload']} seed={result['seed']} seconds={result['seconds']} trace={result['trace']}")
    for key, value in sorted(result["header"].items()):
        print(f"# header {key}: {json.dumps(value, sort_keys=True)}")
    for key, value in sorted(result["inputs"].items()):
        print(f"# input {key}: {json.dumps(value, sort_keys=True)}")
    for label, chunk in sorted(result["chunks"].items()):
        print(f"# chunks {label}: {json.dumps(chunk, sort_keys=True)}")
    print(f"# setup repetitions (s): {json.dumps(result['setup_seconds'])}")
    print(f"# peak rss of the whole run (MiB, not gated): {result['peak_rss_mib']:.1f}")
    if args.trace:
        metrics = result["per_layer"]
        for phase, share in sorted(result["coverage"].items()):
            print(f"# coverage {phase}: top-level spans cover {100 * share:.1f}% of the phase")
        for phase, share in sorted(result["overhead"].items()):
            print(f"# overhead {phase}: traced chunks take {100 * share:+.1f}% over untraced")
        for name in result["absent"]:
            print(f"# absent: {name} (no such function; its metrics are left out)")
        print(f"# spans: {work / 'spans.jsonl'}")
    else:
        metrics = result["end_to_end"]
        for name, metric in result["not_gated"].items():
            print(f"# not gated: {name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"# FAILED CHECK: {problem}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}")
    for name, digest in sorted(result["digests"].items()):
        print(f"# digest {name}: sha256 {digest}")
    summary = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
