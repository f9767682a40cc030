"""Fixed-seed golden digests of the samplers and the query generator, and short pinned training runs.

``golden_digests`` hashes, at fixed seeds, the queries that ``generate_queries``
draws with their answer sets, and each sampled stage-1 example and stage-2
meta-graph as its own arrays: ``levi.entities``, ``levi.triples``, ``inputs``
and ``prediction_targets``. Equal digests mean each sampler consumes its random
stream as before and returns the same examples.

``test_training_trace`` pins a short fixed-seed training run: a few steps each
of stage 1, stage 2 and fine-tuning, then evaluation, at hidden 16 and 64 with
both ``tie_decoder`` settings. Its pins are each step's loss as ``float.hex``,
the sha256 of the final parameter arena and the sha256 of the rank dump. Every
run goes to a fresh process with one BLAS thread (``helpers.one_blas_thread_pool``),
since OpenBLAS rounds some backward products differently at other thread counts.
The pins hold bit for bit only on the platform they were taken on,
``PLATFORM``: the numpy version, the BLAS, and the SIMD extensions numpy found
on the CPU. On any other platform BLAS may round differently, so the test
compares the losses within ``LOSS_RTOL`` and does not compare the digests.

Two more runs, ``wide_trace``, pin the fb15k width: hidden 128 on a
2,000-entity graph, where BLAS rounds the decoder's [P, V] products at other M,
N and K than at the toy widths. Their steps cover P = 1, an odd P and P >= 100
prediction slots, and each step's P is pinned too.

A change that moves a pin says why, and reproduces the old values at its parent
with ``python tests/test_golden.py``, which prints every pin and the platform.
"""

import hashlib
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script, without the package installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kgt import train
from kgt.evaluation import evaluate
from kgt.model import Model, ModelConfig
from kgt.optim import AdamWConfig, _arena
from kgt.queries import QueryType, generate_queries
from kgt.sampling import sample_meta_graph, sample_stage1_batch
from kgt.train import Stage, TrainConfig

from helpers import one_blas_thread_pool, toy_split

GOLDEN = {
    "queries": "bc5aa60bb5664e81dd896edf44281ed5dac8a1247ab6c1021af6195fdfa00e75",
    "stage1": "d9a9947a03107a9cca91885892cb39447248e1458e044cb05d71de78bd467959",
    "meta_graph": "e79c7569cf53987fa1e96457f0651eaa4194d4df13a3185d13668e4953ab1902",
}


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _example_arrays(sub) -> list:
    return [sub.levi.entities.tolist(), sub.levi.triples.tolist(), sub.inputs.tolist(), list(sub.prediction_targets)]


def golden_digests() -> dict[str, str]:
    split = toy_split(seed=0)
    queries = []
    for index, qtype in enumerate(QueryType):
        for inst in generate_queries(split, qtype, 10, np.random.default_rng([7, index]), split_for="valid"):
            queries.append(
                [
                    qtype.value,
                    list(inst.query.anchors),
                    list(inst.query.relations),
                    sorted(inst.answers_train),
                    sorted(inst.answers_valid),
                    sorted(inst.answers_test),
                ]
            )
    batch = sample_stage1_batch(split.train, np.random.default_rng(8), batch_size=8, method_mix=1.0)
    rng = np.random.default_rng(9)
    metas = [sample_meta_graph(split.train, rng, pattern_mix=1.0) for _ in range(16)]
    return {
        "queries": _digest(queries),
        "stage1": _digest([_example_arrays(sub) for sub in batch]),
        "meta_graph": _digest([_example_arrays(sub) for sub in metas]),
    }


def test_sampler_and_generator_outputs_match_golden_digests():
    assert golden_digests() == GOLDEN


# (hidden, tie_decoder) of each traced run
TRACE_RUNS = ((16, False), (16, True), (64, False), (64, True))
WIDE_RUNS = (False, True)  # tie_decoder of each hidden-128 run of ``wide_trace``
LOSS_RTOL = 1e-3  # relative, per step, on a platform other than PLATFORM
PLATFORM = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": [
        "AVX512_ICL",
        "AVX512_SPR",
        "X86_V3",
        "X86_V4"
    ]
}
TRACE = {
    "hidden16-untied": {
        "losses": [
            "0x1.a7fb4a0000000p+3",
            "0x1.59bab20000000p+3",
            "0x1.a58a9a0000000p+3",
            "0x1.67c9b80000000p+3",
            "0x1.f865180000000p+1",
            "0x1.f4cdb00000000p+1",
            "0x1.f762c80000000p+1",
            "0x1.f6d04c0000000p+1",
            "0x1.f5eece0000000p+1",
            "0x1.f25bb80000000p+1",
            "0x1.f040a00000000p+1",
            "0x1.eb74c00000000p+1",
            "0x1.eae3e60000000p+1",
            "0x1.eaca3c0000000p+1"
        ],
        "arena": "2fce924e8988e997009541cdd7605f0b858778c5929c96ec802e47eb6109dd6e",
        "ranks": "b5b3028473e50b11f84fd810905987e11c9aa2bd6fc36bf458f89821ef70d2c4"
    },
    "hidden16-tied": {
        "losses": [
            "0x1.a4de2a0000000p+3",
            "0x1.55e55e0000000p+3",
            "0x1.a417460000000p+3",
            "0x1.63b2180000000p+3",
            "0x1.f78a6a0000000p+1",
            "0x1.f225fa0000000p+1",
            "0x1.f427ea0000000p+1",
            "0x1.fc63ae0000000p+1",
            "0x1.f0e8c40000000p+1",
            "0x1.f54e760000000p+1",
            "0x1.f631b60000000p+1",
            "0x1.e64b9e0000000p+1",
            "0x1.eba8140000000p+1",
            "0x1.ecb88c0000000p+1"
        ],
        "arena": "f77cab937e6daf8436d87500dbbc2274910d2f729a47575f085d0f3d2b830672",
        "ranks": "d2764b4e6df17aff184960aeb897d1412d9609bacabab56db4984b4fe72a6bbe"
    },
    "hidden64-untied": {
        "losses": [
            "0x1.a668300000000p+3",
            "0x1.5beee00000000p+3",
            "0x1.a34cf20000000p+3",
            "0x1.6b51760000000p+3",
            "0x1.f60c220000000p+1",
            "0x1.fe98b60000000p+1",
            "0x1.f2eb7c0000000p+1",
            "0x1.fe1d940000000p+1",
            "0x1.e8f4460000000p+1",
            "0x1.fbc8c80000000p+1",
            "0x1.edd67e0000000p+1",
            "0x1.bfd7cc0000000p+1",
            "0x1.ce6bd40000000p+1",
            "0x1.d1c1280000000p+1"
        ],
        "arena": "581c0d19995ac92fd6ad661851969bf58c9da3ebca429568e4d1bf90c45365be",
        "ranks": "ead1c8eea4a4866f238aee9b1f4fe0a36fe4b78f5444876ce7a9e36f195c5c37"
    },
    "hidden64-tied": {
        "losses": [
            "0x1.9cb0960000000p+3",
            "0x1.523b2c0000000p+3",
            "0x1.9faa4a0000000p+3",
            "0x1.61ec740000000p+3",
            "0x1.f8a06c0000000p+1",
            "0x1.f7803c0000000p+1",
            "0x1.fd9c380000000p+1",
            "0x1.fe2a5c0000000p+1",
            "0x1.f409540000000p+1",
            "0x1.fe55ac0000000p+1",
            "0x1.f80c300000000p+1",
            "0x1.c07ddc0000000p+1",
            "0x1.d7808e0000000p+1",
            "0x1.e0beb60000000p+1"
        ],
        "arena": "12ae208cac98db42241c65feb14277309b51d8db6e1e0be623ee7a5048962a99",
        "ranks": "a8000d815d4478ffcb1af8803a68d4684539b5e589f18ca9a85840ca0301642a"
    },
    "hidden128-untied": {
        "losses": [
            "0x1.8c56de0000000p+4",
            "0x1.905fe00000000p+4",
            "0x1.f19d300000000p+2",
            "0x1.ee47dc0000000p+2",
            "0x1.e936300000000p+2"
        ],
        "targets": [
            130,
            131,
            3,
            3,
            1
        ],
        "arena": "0e59d5b9489b6df5d4d53cbaf6fe9f4936e004df486b6bc2cb202c18c840da60",
        "ranks": "880127a87ebb67ee09e9ddbab0e5d2bad49ef41f92a423b31cb319058b824974"
    },
    "hidden128-tied": {
        "losses": [
            "0x1.892b2a0000000p+4",
            "0x1.8df2320000000p+4",
            "0x1.ee89a80000000p+2",
            "0x1.e4f78c0000000p+2",
            "0x1.e384540000000p+2"
        ],
        "targets": [
            130,
            131,
            3,
            3,
            1
        ],
        "arena": "15ca2aef5ea339d5afbb97868838ceef2e8aaee4a399131c5639c0201395e382",
        "ranks": "0b012ddbecbafdef6912c7dc7ec9356bf13bf567ea830b95632e615c12ea87cf"
    }
}


def platform() -> dict:
    """What the pins' rounding depends on: numpy, its BLAS, and the SIMD extensions found."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": sorted(config["SIMD Extensions"]["found"]),
    }


@contextmanager
def recorded_losses(targets: list[int] | None = None):
    """Collect the loss of every training step run inside the block, and its
    prediction-slot count P into ``targets`` when given."""
    losses: list[float] = []
    original = train._train_step

    def step(*args):
        value, norm, lr = original(*args)
        losses.append(value)
        if targets is not None:
            targets.append(int(args[2].positions.size))
        return value, norm, lr

    train._train_step = step
    try:
        yield losses
    finally:
        train._train_step = original


def training_trace(hidden: int, tie_decoder: bool) -> dict:
    """Two epochs of two steps each of stage 1 and stage 2, two fine-tune epochs
    over three shapes, then evaluation on four valid shapes, a union included."""
    split = toy_split(seed=0)
    config = ModelConfig(
        entity_count=split.entity_count, relation_count=split.relation_count, layers=2, hidden=hidden,
        heads=4, experts=4, top_k=2, dropout=0.1, tie_decoder=tie_decoder,
    )
    model = Model.init(config, seed=11)
    optimizer = AdamWConfig(lr=1e-3, weight_decay=1e-3, lr_decay=0.9)
    shapes = (QueryType.P1, QueryType.P2, QueryType.I2)
    train_q = {t: generate_queries(split, t, 6, np.random.default_rng([12, i])) for i, t in enumerate(shapes)}
    valid_q = {
        t: generate_queries(split, t, 5, np.random.default_rng([13, i]), split_for="valid")
        for i, t in enumerate(shapes + (QueryType.U2,))
    }
    with recorded_losses() as losses:
        for stage, seed in ((Stage.STAGE1, 101), (Stage.STAGE2, 202)):
            stage_config = TrainConfig(
                stage=stage, epochs=2, steps_per_epoch=2, batch_size=8, label_smoothing=0.1, seed=seed,
                optimizer=optimizer,
            )
            train.pretrain(model, split.train, stage_config)
        finetune_config = TrainConfig(
            stage=Stage.FINETUNE, epochs=2, batch_size=6, label_smoothing=0.0, seed=303, optimizer=optimizer
        )
        train.finetune(model, train_q, finetune_config)
    ranks: list = []
    evaluate(model, valid_q, split="valid", rank_dump=ranks)
    return {
        "losses": [value.hex() for value in losses],
        "arena": hashlib.sha256(_arena(model.params)[0].tobytes()).hexdigest(),
        "ranks": _digest(ranks),
    }


def wide_trace(tie_decoder: bool) -> dict:
    """The fb15k width: hidden 128 over a 2,000-entity graph, so the decoder's
    [P, V] products run at V = 2000. Two stage-1 steps of 40 graphs (P >= 100
    each), then one fine-tune epoch of 7 one-hop queries in batches of 3, 3 and
    1 (P = 3 and P = 1), then evaluation. Also pins each step's P."""
    split = toy_split(seed=0, entities=2000, relations=20, train=5000, valid=100, test=100)
    config = ModelConfig(
        entity_count=split.entity_count, relation_count=split.relation_count, layers=2, hidden=128,
        heads=4, experts=4, top_k=2, dropout=0.1, tie_decoder=tie_decoder,
    )
    model = Model.init(config, seed=11)
    optimizer = AdamWConfig(lr=1e-3, weight_decay=1e-3, lr_decay=0.9)
    train_q = {QueryType.P1: generate_queries(split, QueryType.P1, 7, np.random.default_rng(12))}
    valid_q = {QueryType.P1: generate_queries(split, QueryType.P1, 4, np.random.default_rng(13), split_for="valid")}
    targets: list[int] = []
    with recorded_losses(targets) as losses:
        stage_config = TrainConfig(
            stage=Stage.STAGE1, epochs=1, steps_per_epoch=2, batch_size=40, label_smoothing=0.1, seed=101,
            optimizer=optimizer,
        )
        train.pretrain(model, split.train, stage_config)
        finetune_config = TrainConfig(
            stage=Stage.FINETUNE, epochs=1, batch_size=3, label_smoothing=0.0, seed=303, optimizer=optimizer
        )
        train.finetune(model, train_q, finetune_config)
    ranks: list = []
    evaluate(model, valid_q, split="valid", rank_dump=ranks)
    return {
        "losses": [value.hex() for value in losses],
        "targets": targets,
        "arena": hashlib.sha256(_arena(model.params)[0].tobytes()).hexdigest(),
        "ranks": _digest(ranks),
    }


def trace_key(hidden: int, tie_decoder: bool) -> str:
    return f"hidden{hidden}-{'tied' if tie_decoder else 'untied'}"


def traced_runs():
    """(key, run) of every traced setting: the toy widths, then the fb15k width."""
    for hidden, tie in TRACE_RUNS:
        yield trace_key(hidden, tie), partial(training_trace, hidden, tie)
    for tie in WIDE_RUNS:
        yield trace_key(128, tie), partial(wide_trace, tie)


def one_thread_traces() -> dict[str, dict]:
    """Every traced run's result by key, each run in a worker with one BLAS thread."""
    with one_blas_thread_pool(2) as pool:
        futures = {key: pool.submit(run) for key, run in traced_runs()}
        return {key: future.result() for key, future in futures.items()}


def test_training_trace():
    here = platform()
    for key, got in one_thread_traces().items():
        want = TRACE[key]
        if "targets" in want:  # the P = 1, odd P and P >= 100 steps
            assert got["targets"] == want["targets"], key
            assert {1, 3} <= set(got["targets"]) and max(got["targets"]) >= 100, key
        if here == PLATFORM:
            assert got == want, key
        else:
            assert len(got["losses"]) == len(want["losses"]), key
            np.testing.assert_allclose(
                [float.fromhex(v) for v in got["losses"]],
                [float.fromhex(v) for v in want["losses"]],
                rtol=LOSS_RTOL,
                err_msg=key,
            )


if __name__ == "__main__":
    print("GOLDEN =", json.dumps(golden_digests(), indent=4))
    print("PLATFORM =", json.dumps(platform(), indent=4))
    print("TRACE =", json.dumps(one_thread_traces(), indent=4))
