"""Fixed-seed golden digests of the samplers and the query generator.

The digests were taken from the list-backed graph store that the array store
replaced. Equal digests mean the array store answers every lookup in the same
order, so each sampler consumes its random stream exactly as before.

The stage-1 digest was taken again when examples came to carry their input
ids: a random replacement that drew the node's own id now records as ``keep``.
It equals the digest of the former per-node corruption objects mapped to
input ids through the former encoder.
"""

import hashlib
import json

import numpy as np

from kgt.queries import FREE_SLOT, QueryType, generate_queries
from kgt.sampling import sample_meta_graph, sample_stage1_batch

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
