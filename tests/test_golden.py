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
            "0x1.a7e4aa0000000p+3",
            "0x1.5991120000000p+3",
            "0x1.a5cc6c0000000p+3",
            "0x1.6793440000000p+3",
            "0x1.f7bbc20000000p+1",
            "0x1.f4f9040000000p+1",
            "0x1.f716b20000000p+1",
            "0x1.f624440000000p+1",
            "0x1.f621600000000p+1",
            "0x1.f18aa80000000p+1",
            "0x1.f177c00000000p+1",
            "0x1.eb9ee80000000p+1",
            "0x1.eac8780000000p+1",
            "0x1.ecaaf40000000p+1"
        ],
        "arena": "73173e74d90fb2516ac8546d47f393a28772d5b5791f5c3610811b7800da5ed6",
        "ranks": "34a0e1db34f77897d892e96c6dd3bcfcb1d2d266b0be7b42270fb8a633010f81"
    },
    "hidden16-tied": {
        "losses": [
            "0x1.a4a5840000000p+3",
            "0x1.55831a0000000p+3",
            "0x1.a3c5e20000000p+3",
            "0x1.63a0040000000p+3",
            "0x1.f773140000000p+1",
            "0x1.f2b98a0000000p+1",
            "0x1.f45ad40000000p+1",
            "0x1.fd13e80000000p+1",
            "0x1.f1f95e0000000p+1",
            "0x1.f61e580000000p+1",
            "0x1.f6b1cc0000000p+1",
            "0x1.e6f96c0000000p+1",
            "0x1.ed24440000000p+1",
            "0x1.ed22f60000000p+1"
        ],
        "arena": "3aaad7a39fb1542705fd9f4efff55aeda44ebb2528c2ff347438bf67c7dc9f91",
        "ranks": "4d2c4d1c72ff13fc6c19732f83c82a8e5366c985726ef0897110a94f69161359"
    },
    "hidden64-untied": {
        "losses": [
            "0x1.a5cc600000000p+3",
            "0x1.5ab7ce0000000p+3",
            "0x1.a11d8a0000000p+3",
            "0x1.6c6bde0000000p+3",
            "0x1.f527ca0000000p+1",
            "0x1.fc084a0000000p+1",
            "0x1.f999f20000000p+1",
            "0x1.fe50500000000p+1",
            "0x1.e096d60000000p+1",
            "0x1.f4ff860000000p+1",
            "0x1.ea6a460000000p+1",
            "0x1.b8e0a80000000p+1",
            "0x1.cb374c0000000p+1",
            "0x1.cb84b40000000p+1"
        ],
        "arena": "2ccd4fcb4d3379bc562129e15f356439d74a19782fff70e99038c9a5da53c849",
        "ranks": "c89a922775edaa0cd1cd6705713e1e532b89e2c00e0aeab4fca84008040a2d03"
    },
    "hidden64-tied": {
        "losses": [
            "0x1.9ba2d60000000p+3",
            "0x1.51b81a0000000p+3",
            "0x1.9fcb1a0000000p+3",
            "0x1.60dccc0000000p+3",
            "0x1.fd51700000000p+1",
            "0x1.ee17d40000000p+1",
            "0x1.ffcd240000000p+1",
            "0x1.ffa4580000000p+1",
            "0x1.f38e880000000p+1",
            "0x1.fd1bd60000000p+1",
            "0x1.f64d780000000p+1",
            "0x1.c8e4e60000000p+1",
            "0x1.dc05de0000000p+1",
            "0x1.e1aa0c0000000p+1"
        ],
        "arena": "e9883ce48d547410566db1627c4054acc663be36a52ee9becb760a1fa113dc6d",
        "ranks": "431fe4a53cfd61ab286c87ff7e93494e1f2fadfbf14a0f27962cc0aff5e84a2e"
    },
    "hidden128-untied": {
        "losses": [
            "0x1.8bdf320000000p+4",
            "0x1.9089fe0000000p+4",
            "0x1.ed515e0000000p+2",
            "0x1.f3d0900000000p+2",
            "0x1.e5c25a0000000p+2"
        ],
        "targets": [
            130,
            131,
            3,
            3,
            1
        ],
        "arena": "7b6df6d948087b58eb2be43620d765a19dea6f7e4f2d7a96a37ae1f1a335ee0a",
        "ranks": "e4ad2343ea2dc2a8dc966344b89a52c7b7bc2602ee1e59579f4cca5928af6567"
    },
    "hidden128-tied": {
        "losses": [
            "0x1.892b900000000p+4",
            "0x1.8e08ee0000000p+4",
            "0x1.e46f800000000p+2",
            "0x1.e45a200000000p+2",
            "0x1.e4fa5a0000000p+2"
        ],
        "targets": [
            130,
            131,
            3,
            3,
            1
        ],
        "arena": "38aee409279268bae466cdc9474ef5ef36019af996c1743dbae328812bad8610",
        "ranks": "f505b61dcf226437617313cba3130d32569cfb8c5c39b30996d8f9d642ec2c89"
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
