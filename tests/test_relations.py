"""Relations the model must satisfy when its inputs are renamed.

Entity relabeling: rename the entities by a permutation ``sigma`` in three
places, the query anchors, the entity rows of ``embedding`` and the rows of
``decoder`` (with a tied decoder, the embedding rows alone). The eval-mode
logits must then be the old logits with their columns permuted by ``sigma``,
bit for bit: every node starts from the same vector as before, the batch
packs into the same grid, and each logit is the product of the same state
and decoder rows.

Reach: a score reads only the nodes of its own graph within ``layers`` hops,
the rows of ``field_rows(batch, layers + 1)[0]``. Changing the input id of any
other slot of the grid, padding included, leaves every eval-mode logit as it
was, bit for bit; so does changing a node of another graph in the same grid
row, for every graph but the one changed, while a change inside a graph's
field moves its own logits. The fields nest, each layer's inside the one
before. Both hold for a forward that runs every layer on every grid slot too,
since a masked key adds an exact zero to each of its queries' sums.

Batch order and isolation hold within a bound, not bit for bit: permuting
the graphs of a mixed batch, or scoring a query alone rather than packed with
others, changes the row counts of the grid's products, and BLAS rounds a
product by its row count, so each query's logits move by rounding alone. The
bound, 2e-6 of the largest logit (about 17 float32 ulps), is the
``forward/field-rows`` twin's, for the same reason; permutations moved the
logits by up to 3.4e-7 of the largest and isolation by up to 5.6e-7, at 1, 2
and 4 BLAS threads.
"""

import dataclasses

import numpy as np
import pytest

from kgt.model import Model, ModelConfig, encode_queries, encode_subgraphs, field_rows, forward
from kgt.queries import QueryType, build_query, dnf_decompose, generate_queries
from kgt.sampling import sample_stage1_batch

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


def graph_of(batch) -> np.ndarray:
    """A label per flat grid slot: the first slot of its graph, which is the
    lowest slot of its component under the edges (a padding slot is its own)."""
    owner = np.arange(batch.entity_ids.size)
    while True:
        low = owner[batch.edges].min(axis=1)
        step = owner.copy()
        for end in batch.edges.T:
            np.minimum.at(step, end, low)
        if np.array_equal(step, owner):
            return owner
        owner = step


def with_inputs(batch, slots: np.ndarray, ids: np.ndarray):
    entity_ids = batch.entity_ids.copy()
    entity_ids.reshape(-1)[slots] = ids
    return dataclasses.replace(batch, entity_ids=entity_ids)


@pytest.mark.parametrize("name", ["stage1-5", "stage1-6", "mixed"])
def test_reach_leaves_logits_outside_the_input_field_bit_for_bit(name):
    # two packed stage-1 batches, and the nine shapes in one batch
    split = toy_split(seed=3)
    config = ModelConfig(split.entity_count, split.relation_count, hidden=32)
    if name == "mixed":
        batch = encode_queries(mixed_branches(split, 3), config)
    else:
        subs = sample_stage1_batch(split.train, np.random.default_rng(int(name[-1])), batch_size=16)
        batch = encode_subgraphs(subs, config)
    model = Model.init(config, seed=11)
    fields = field_rows(batch, config.layers + 1)
    for outer, inner in zip(fields, fields[1:]):
        assert np.isin(inner, outer).all(), name
    logits = forward(model, batch).data
    rng = np.random.default_rng(12)
    vocabulary = config.mask_id + 1 + config.relation_count
    ids = batch.entity_ids.reshape(-1)

    def moved(slots):
        new = (ids[slots] + rng.integers(1, vocabulary, size=len(slots))) % vocabulary  # another id at each slot
        return forward(model, with_inputs(batch, slots, new)).data

    outside = np.setdiff1d(np.arange(ids.size), fields[0])
    assert outside.size
    assert moved(outside).tobytes() == logits.tobytes(), name
    owner = graph_of(batch)
    scored = owner[batch.positions]
    rows = np.arange(ids.size) // batch.entity_ids.shape[1]
    shared = 0
    for slot in fields[0]:
        same_row = owner[(rows == rows[slot]) & np.isin(np.arange(ids.size), fields[0])]
        if len(np.unique(same_row)) < 2 or slot != owner[slot]:
            continue  # one node per graph: its first slot, in a row with another graph's field
        shared += 1
        got = moved(np.array([slot]))
        others = scored != owner[slot]
        assert got[others].tobytes() == logits[others].tobytes(), (name, slot)
        assert not np.array_equal(got[~others], logits[~others]), (name, slot)
    assert shared, name


ROUNDING = 2e-6  # of the largest logit: BLAS rounds a product by its row count


@pytest.mark.parametrize("hidden", [16, 128])
@pytest.mark.parametrize("split_seed", [0, 3])
def test_batch_order_and_isolation_move_logits_only_by_rounding(split_seed, hidden):
    split = toy_split(seed=split_seed)
    config = ModelConfig(split.entity_count, split.relation_count, hidden=hidden)
    model = Model.init(config, seed=split_seed)
    queries = mixed_branches(split, split_seed)
    logits = forward(model, encode_queries(queries, config)).data
    limit = ROUNDING * np.abs(logits).max()
    rng = np.random.default_rng([split_seed, hidden])
    for _ in range(3):
        order = rng.permutation(len(queries))
        got = forward(model, encode_queries([queries[i] for i in order], config)).data
        assert np.abs(got - logits[order]).max() <= limit, (split_seed, hidden, order)
    for i, query in enumerate(queries):
        alone = forward(model, encode_queries([query], config)).data[0]
        assert np.abs(alone - logits[i]).max() <= limit, (split_seed, hidden, i)
