"""Fixed-seed golden digests of the samplers and the query generator.

The digests were taken from the list-backed graph store that the array store
replaced. Equal digests mean the array store answers every lookup in the same
order, so each sampler consumes its random stream exactly as before.
"""

import hashlib
import json

import numpy as np

from kgt.queries import QueryType, generate_queries
from kgt.sampling import sample_meta_graph, sample_stage1_batch

from helpers import toy_split

GOLDEN = {
    "queries": "bc5aa60bb5664e81dd896edf44281ed5dac8a1247ab6c1021af6195fdfa00e75",
    "stage1": "4aa2361250fe00ff204d741ff4725f4235471c4552138840e5807faf902399cb",
    "meta_graph": "a50b53564443b3ff48be3b059f1cd1869c4c29167fa1565373cb15e9b8aab6a8",
}


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _subgraph_record(sub) -> dict:
    """The record the digests were taken of, written out from the Levi arrays.

    It keeps the shape the former node objects gave it: one ``[class, id]``
    pair per node, two ``[u, v]`` edges per relation node, and -1 as the
    entity of each relation node. The former node roles follow from the
    masks: relation nodes past the entity nodes, targets where a loss term
    sits, intermediates at the other masked nodes, sources elsewhere.
    """
    entities = sub.levi.entities.tolist()
    triples = sub.levi.triples.tolist()
    k = len(entities)

    def role(i: int) -> str:
        if i >= k:
            return "relation"
        if i in sub.prediction_targets:
            return "target"
        return "intermediate" if i in sub.corruption else "source"

    return {
        "nodes": [["EntityNode", e] for e in entities] + [["RelationNode", r] for _, r, _ in triples],
        "edges": [edge for j, (h, _, t) in enumerate(triples, k) for edge in ([h, j], [j, t])],
        "roles": [role(i) for i in range(k + len(triples))],
        "entities": entities + [-1] * len(triples),
        "masked": sorted(sub.corruption),
        "targets": list(sub.prediction_targets),
        "corruption": [[pos, c.kind.value, c.replacement] for pos, c in sorted(sub.corruption.items())],
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
