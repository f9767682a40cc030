"""The seed sweep of ``test_07``'s pipeline: how far its hits@3 spread over seeds.

``python tests/accuracy_sweep.py`` runs the pre-trained toy pipeline of
``tests/test_acceptance.py`` (``run_toy_pipeline``, on its ``toy_data``) at
seeds 1-13, in two spawned workers with one BLAS thread each, and prints one
line per seed of train and valid hits@3 per evaluated shape, then per shape and
split the median, the quartiles, the minimum, and the count of seeds under
``test_07``'s threshold (train only; ``test_07`` reads train hits@3). It adds
no gate: it exits 0 whatever it reads. Its standard output depends only on the
code and the BLAS, so two commits that round alike print the same bytes; the
wall time goes to standard error. pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import numpy as np  # noqa: E402

from helpers import one_blas_thread_pool  # noqa: E402

SEEDS = range(1, 14)
THRESHOLDS = {"1p": 0.95, "2p": 0.80, "2i": 0.80}  # test_07's bounds on train hits@3


def sweep_run(seed: int) -> dict[str, dict[str, float]]:
    """Train and valid hits@3 by shape of the pre-trained toy pipeline at ``seed``."""
    from kgt.evaluation import evaluate
    from test_acceptance import EVAL_TYPES, run_toy_pipeline, toy_data

    toy = toy_data()
    model = run_toy_pipeline(toy, seed=seed, pretrained=True)
    sets = {"train": {qt: toy["train_q"][qt] for qt in EVAL_TYPES}, "valid": toy["valid_q"]}
    return {
        split: {qt.value: evaluate(model, queries, split=split, ks=(3,)).rows[qt.value]["hits@3"] for qt in EVAL_TYPES}
        for split, queries in sets.items()
    }


def main() -> int:
    started = time.perf_counter()
    with one_blas_thread_pool(2) as pool:
        runs = dict(zip(SEEDS, pool.map(sweep_run, SEEDS)))
    shapes = list(THRESHOLDS)
    print("seed  " + "  ".join(f"{split} {shape:>2}" for split in ("train", "valid") for shape in shapes))
    for seed, run in runs.items():
        print(f"{seed:4d}  " + "  ".join(f"{run[split][shape]:8.4f}" for split in ("train", "valid") for shape in shapes))
    print("split  shape  median      q1      q3     min  under")
    for split in ("train", "valid"):
        for shape in shapes:
            values = np.array([run[split][shape] for run in runs.values()])
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            under = str(int((values < THRESHOLDS[shape]).sum())) if split == "train" else "-"
            print(f"{split:5}  {shape:>5}  {median:6.4f}  {q1:6.4f}  {q3:6.4f}  {values.min():6.4f}  {under:>5}")
    print(f"wall time {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
