"""Relations the model must satisfy when its inputs are renamed.

Entity relabeling: rename the entities by a permutation ``sigma`` in three
places, the query anchors, the entity rows of ``embedding`` and the rows of
``decoder`` (with a tied decoder, the embedding rows alone). The eval-mode
logits must then be the old logits with their columns permuted by ``sigma``,
bit for bit: every node starts from the same vector as before, the batch
packs into the same grid, and each logit is the product of the same state
and decoder rows.

Batch order is not such a relation: permuting the graphs of a mixed batch
changes the grid's GEMM shapes, and the rows differ in rounding.
"""

import numpy as np
import pytest

from kgt.model import Model, ModelConfig, encode_queries, forward
from kgt.queries import QueryType, build_query, dnf_decompose, generate_queries

from helpers import toy_split


def mixed_branches(split, seed: int) -> list:
    """Three train queries of each of the nine shapes, unions as their DNF
    branches, and a 1p query anchored at entity 0."""
    rng = np.random.default_rng(seed)
    queries = [inst.query for qtype in QueryType for inst in generate_queries(split, qtype, 3, rng)]
    queries.append(build_query(QueryType.P1, (0,), (0,)))
    return [branch for query in queries for branch in dnf_decompose(query)]


def relabeled(model: Model, queries: list, sigma: np.ndarray) -> tuple[Model, list]:
    """The model and the queries with entity e renamed ``sigma[e]``."""
    renamed = model.clone()
    rows = ("embedding",) if model.config.tie_decoder else ("embedding", "decoder")
    for name in rows:
        renamed.params[name].data[sigma] = model.params[name].data[: model.config.entity_count]
    return renamed, [build_query(q.query_type, sigma[list(q.anchors)], q.relations) for q in queries]


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("hidden", [16, 64, 128])
@pytest.mark.parametrize("split_seed", [0, 3])
def test_entity_relabeling_permutes_logit_columns_bit_for_bit(split_seed, hidden, tie):
    split = toy_split(seed=split_seed)
    config = ModelConfig(split.entity_count, split.relation_count, hidden=hidden, tie_decoder=tie)
    model = Model.init(config, seed=split_seed)
    queries = mixed_branches(split, split_seed)
    logits = forward(model, encode_queries(queries, config)).data
    rng = np.random.default_rng([split_seed, hidden])
    for _ in range(3):
        sigma = rng.permutation(split.entity_count)
        if sigma[0] == 0:  # entity 0 must change its name
            sigma[[0, 1]] = sigma[[1, 0]]
        renamed, renamed_queries = relabeled(model, queries, sigma)
        got = forward(renamed, encode_queries(renamed_queries, config)).data
        assert got[:, sigma].tobytes() == logits.tobytes()
