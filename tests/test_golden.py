"""Fixed-seed golden digests of the samplers and the query generator.

The digests were taken from the list-backed graph store that the array store
replaced. Equal digests mean the array store answers every lookup in the same
order, so each sampler consumes its random stream exactly as before.

The stage-1 digest was taken again when examples came to carry their input
ids: a random replacement that drew the node's own id now records as ``keep``.
It equals the digest of the former per-node corruption objects mapped to
input ids through the former encoder.

``test_training_trace`` pins a short fixed-seed training run: a few steps each
of stage 1, stage 2 and fine-tuning, then evaluation, at hidden 16 and 64 with
both ``tie_decoder`` settings. Its pins are each step's loss as ``float.hex``,
the sha256 of the final parameter arena and the sha256 of the rank dump. They
hold bit for bit only on the platform they were taken on, ``PLATFORM``: the
numpy version, the BLAS, and the SIMD extensions numpy found on the CPU. On any
other platform BLAS may round differently, so the test compares the losses
within ``LOSS_RTOL`` and does not compare the digests. A change that moves a
pin says why, and reproduces the old value at its parent with
``python tests/test_golden.py``, which prints the current values and platform.

The arena digests were taken again when each layer's experts moved into
stacked tensors: they are the digests of the former per-expert arena permuted
into the stacked order. The losses and rank digests did not move. They were
taken again when each layer's ``wq``, ``wk`` and ``wv`` became the column
blocks of one ``wqkv``: they are the digests of the former arena with each
layer's three projections permuted into ``wqkv``. Again no loss or rank
digest moved.

Two more runs, ``wide_trace``, pin the fb15k width: hidden 128 on a
2,000-entity graph, where BLAS rounds the decoder's [P, V] products at other M,
N and K than at the toy widths. Their steps cover P = 1, an odd P and P >= 100
prediction slots, and each step's P is pinned too. They were pinned before the
node states became one flat [B * N, d] array, and that change did not move them.

Every arena digest, some losses in their last bits and the ``hidden128-untied``
rank digest were taken again when each layer's experts came to run only on the
rows that can reach a scored slot (``kgt.model.field_rows``). The logits of a
forward are bit for bit the same; the backward's expert products sum over fewer
rows, so BLAS rounds the weight gradients differently, and training drifts in
the last bits from there.
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
from kgt.queries import FREE_SLOT, QueryType, generate_queries
from kgt.sampling import sample_meta_graph, sample_stage1_batch
from kgt.train import Stage, TrainConfig

from helpers import toy_split

GOLDEN = {
    "queries": "bc5aa60bb5664e81dd896edf44281ed5dac8a1247ab6c1021af6195fdfa00e75",
    "stage1": "a97357ffc022380f0f9a79797f118ae8f5ef9f613db4ea7f9fe0407e43f2dcbc",
    "meta_graph": "a50b53564443b3ff48be3b059f1cd1869c4c29167fa1565373cb15e9b8aab6a8",
}


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _subgraph_record(sub) -> dict:
    """The record the digests were taken of, written out from the Levi arrays.

    It keeps the shape the former node objects gave it: one ``[class, id]``
    pair per node, two ``[u, v]`` edges per relation node, and -1 as the
    entity of each relation node. The masked nodes are the targets and the
    nodes that enter as anything but their own id. Each one's corruption
    follows from its input id: ``mask`` at ``FREE_SLOT``, ``keep`` at its own
    id, ``random`` (with the id) otherwise. The former node roles follow from
    the masks: relation nodes past the entity nodes, targets where a loss
    term sits, intermediates at the other masked nodes, sources elsewhere.
    """
    entities = sub.levi.entities.tolist()
    inputs = sub.inputs.tolist()
    triples = sub.levi.triples.tolist()
    k = len(entities)
    masked = sorted(set(sub.prediction_targets) | {i for i in range(k) if inputs[i] != entities[i]})

    def role(i: int) -> str:
        if i >= k:
            return "relation"
        if i in sub.prediction_targets:
            return "target"
        return "intermediate" if i in masked else "source"

    def corruption(i: int) -> list:
        if inputs[i] == FREE_SLOT:
            return [i, "mask", None]
        if inputs[i] == entities[i]:
            return [i, "keep", None]
        return [i, "random", inputs[i]]

    return {
        "nodes": [["EntityNode", e] for e in entities] + [["RelationNode", r] for _, r, _ in triples],
        "edges": [edge for j, (h, _, t) in enumerate(triples, k) for edge in ([h, j], [j, t])],
        "roles": [role(i) for i in range(k + len(triples))],
        "entities": entities + [-1] * len(triples),
        "masked": masked,
        "targets": list(sub.prediction_targets),
        "corruption": [corruption(i) for i in masked],
    }


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
        "stage1": _digest([_subgraph_record(sub) for sub in batch]),
        "meta_graph": _digest([_subgraph_record(sub) for sub in metas]),
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
            "0x1.a719d00000000p+3",
            "0x1.5941460000000p+3",
            "0x1.a512e80000000p+3",
            "0x1.6763640000000p+3",
            "0x1.f714dc0000000p+1",
            "0x1.f5d9e00000000p+1",
            "0x1.f5b8c60000000p+1",
            "0x1.f684320000000p+1",
            "0x1.f637a80000000p+1",
            "0x1.f06a600000000p+1",
            "0x1.f25a560000000p+1",
            "0x1.eab3960000000p+1",
            "0x1.e841c00000000p+1",
            "0x1.ec7a5c0000000p+1"
        ],
        "arena": "61baade5b84e4821183df5d6d56219b11e455aadab29768221fe1378075d9a93",
        "ranks": "7fda6298ecb941e0c10265b5d6a6c64f36a834e736f21d8905402640aa8e6fb6"
    },
    "hidden16-tied": {
        "losses": [
            "0x1.a3ebc60000000p+3",
            "0x1.56c7e80000000p+3",
            "0x1.a49bcc0000000p+3",
            "0x1.640a020000000p+3",
            "0x1.f1b6640000000p+1",
            "0x1.f4a0040000000p+1",
            "0x1.f570800000000p+1",
            "0x1.fda8c00000000p+1",
            "0x1.efa7860000000p+1",
            "0x1.f4bea80000000p+1",
            "0x1.f2c5e60000000p+1",
            "0x1.e5295e0000000p+1",
            "0x1.ec7af40000000p+1",
            "0x1.ecac9e0000000p+1"
        ],
        "arena": "ef4f20a48e1d94df9ed8daca095c177a00fa33464cf25cf3a00e2985ff4a5acf",
        "ranks": "d4520e3afd276136cbea4dffcea92bb0e4e06e6f283aaeb043a080c3bb534f83"
    },
    "hidden64-untied": {
        "losses": [
            "0x1.a7d2ea0000000p+3",
            "0x1.58e26a0000000p+3",
            "0x1.9e6c720000000p+3",
            "0x1.6acf360000000p+3",
            "0x1.f6ddd20000000p+1",
            "0x1.f95b260000000p+1",
            "0x1.fbe2480000000p+1",
            "0x1.fa80140000000p+1",
            "0x1.edc1f00000000p+1",
            "0x1.f9151e0000000p+1",
            "0x1.eb2e760000000p+1",
            "0x1.b5d4b00000000p+1",
            "0x1.cc278e0000000p+1",
            "0x1.ca30040000000p+1"
        ],
        "arena": "34fce7a78c51ab080a7e1118873d6de2331bf0d1b629bfbef4f6d8c0f4948c05",
        "ranks": "2e47742bd2040cf7e6e2fef27473e5717b08df500ea8768d0a21051fc8825c7a"
    },
    "hidden64-tied": {
        "losses": [
            "0x1.a0f3e20000000p+3",
            "0x1.5333a60000000p+3",
            "0x1.a2201e0000000p+3",
            "0x1.61203c0000000p+3",
            "0x1.f75d140000000p+1",
            "0x1.fd62980000000p+1",
            "0x1.fe875e0000000p+1",
            "0x1.01aaf40000000p+2",
            "0x1.ef794e0000000p+1",
            "0x1.0250c60000000p+2",
            "0x1.f7f5d00000000p+1",
            "0x1.c4401c0000000p+1",
            "0x1.e555460000000p+1",
            "0x1.e0902c0000000p+1"
        ],
        "arena": "f13d8c1644459f504f66da164e0c48a1496e6f9888d020f912b21e2b93b5cb70",
        "ranks": "16ccdce7f24e3654e910faee378cf504ca3132ed98752ae8183f713933528363"
    },
    "hidden128-untied": {
        "losses": [
            "0x1.8bd0340000000p+4",
            "0x1.905a360000000p+4",
            "0x1.f1e8f00000000p+2",
            "0x1.f1f1d40000000p+2",
            "0x1.eb217a0000000p+2"
        ],
        "targets": [
            130,
            131,
            3,
            3,
            1
        ],
        "arena": "c2e65caa6246fbd0d4512a5d0810b17d85ffdba242156cb6677862275207ffdc",
        "ranks": "bf43fadd54ebf4ad3d1aefc772b8bdc0e40f316f8c91d1663161602e3f454860"
    },
    "hidden128-tied": {
        "losses": [
            "0x1.88963a0000000p+4",
            "0x1.8f28900000000p+4",
            "0x1.e053de0000000p+2",
            "0x1.de8a600000000p+2",
            "0x1.f476fe0000000p+2"
        ],
        "targets": [
            130,
            131,
            3,
            3,
            1
        ],
        "arena": "ba5d8b4d55e0597c80f9db9a1ad3b4333531d2f4e096f9692e815fedef98afb1",
        "ranks": "6ca1f2d94c6840b1b06011aad528217c9d5381baf36b8869d62d0df60fefebb5"
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


def test_training_trace():
    here = platform()
    for key, run in traced_runs():
        got, want = run(), TRACE[key]
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
    print("PLATFORM =", json.dumps(platform(), indent=4))
    print("TRACE =", json.dumps({key: run() for key, run in traced_runs()}, indent=4))
