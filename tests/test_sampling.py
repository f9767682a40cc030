import math

import numpy as np
import pytest

from kgt import sampling
from kgt.errors import SamplingExhausted
from kgt.graph import KnowledgeGraph
from kgt.queries import FREE_SLOT, QueryType, template_levi, walk_back
from kgt.sampling import (
    SampledSubgraph,
    induce_subgraph,
    layer_dependent_sample,
    meta_tree_sample,
    sample_meta_graph,
    sample_stage1_batch,
)

from helpers import (
    has_triple,
    small_graph,
    to_triples,
    toy_split,
)


def dense_graph(entities: int = 10) -> KnowledgeGraph:
    """Every ordered pair connected: no sampler attempt can fail."""
    triples = [(i, 0, j) for i in range(entities) for j in range(entities) if i != j]
    return KnowledgeGraph(entities, 1, triples)


def grows_as_a_tree(graph: KnowledgeGraph, nodes: list[int]) -> bool:
    """Distinct nodes, each after the first a ``csr_undirected`` neighbor of a node before it."""
    indptr, nbrs = graph.csr_undirected()
    return len(set(nodes)) == len(nodes) and all(
        set(nbrs[indptr[v] : indptr[v + 1]].tolist()) & set(nodes[:i]) for i, v in enumerate(nodes) if i
    )


class TestMetaTree:
    def test_result_is_always_a_tree(self):
        g = small_graph(seed=1)
        rng = np.random.default_rng(0)
        for trial in range(200):
            start = int(rng.integers(g.entity_count))
            target = int(rng.integers(2, 10))
            nodes = meta_tree_sample(g, start, target, rng)
            assert nodes[0] == start
            assert grows_as_a_tree(g, nodes)

    def test_tree_edges_exist_in_graph(self):
        # checked against the raw triples, not csr_undirected
        g = small_graph(seed=2)
        undirected = set()
        for h, _, t in g.triples:
            undirected.add((h, t))
            undirected.add((t, h))
        rng = np.random.default_rng(1)
        for _ in range(50):
            nodes = meta_tree_sample(g, int(rng.integers(g.entity_count)), 8, rng)
            for i, child in enumerate(nodes[1:], start=1):
                assert any((parent, child) in undirected for parent in nodes[:i])

    def test_reaches_target_on_connected_graph(self):
        g = toy_split(seed=3).train
        rng = np.random.default_rng(2)
        for _ in range(100):
            nodes = meta_tree_sample(g, int(rng.integers(g.entity_count)), 16, rng)
            assert len(nodes) == 16

    def test_isolated_start_stays_put(self):
        g = KnowledgeGraph(4, 1, [(1, 0, 2)])
        assert meta_tree_sample(g, 0, 5, np.random.default_rng(0)) == [0]

    def test_rejects_bad_target(self):
        g = small_graph()
        with pytest.raises(ValueError):
            meta_tree_sample(g, 0, 0, np.random.default_rng(0))

    def test_steps_from_any_sampled_node(self):
        # a leaf's one neighbor is the centre, already sampled: only a step from the centre grows the walk
        star = KnowledgeGraph(9, 1, [(0, 0, leaf) for leaf in range(1, 9)])
        for seed in range(20):
            nodes = meta_tree_sample(star, 0, 4, np.random.default_rng(seed))
            assert len(nodes) == 4 and nodes[0] == 0, seed


class TestLayerDependent:
    def test_frontier_weights_follow_edge_multiplicity(self):
        # candidate 1 has three parallel edges into the seed, candidate 2 has one
        g = KnowledgeGraph(3, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 0, 2)])
        rng = np.random.default_rng(5)
        trials = 4000
        first = 0
        for _ in range(trials):
            nodes = layer_dependent_sample(g, [0], per_layer=1, depth=1, rng=rng, max_total=3)
            assert len(nodes) == 2
            if nodes[1] == 1:
                first += 1
        p = 0.75
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(first / trials - p) < 3 * sigma

    def test_without_replacement_and_cap(self):
        g = dense_graph(20)
        rng = np.random.default_rng(6)
        nodes = layer_dependent_sample(g, [0], per_layer=8, depth=2, rng=rng, max_total=12)
        assert len(nodes) == 12
        assert len(set(nodes)) == 12

    def test_disconnected_stops_at_component(self):
        g = KnowledgeGraph(5, 1, [(0, 0, 1)])
        nodes = layer_dependent_sample(g, [0], per_layer=4, depth=2, rng=np.random.default_rng(7), max_total=5)
        assert set(nodes) == {0, 1}

    def test_rejects_bad_arguments(self):
        g = small_graph()
        with pytest.raises(ValueError):
            layer_dependent_sample(g, [0], per_layer=0, depth=1, rng=np.random.default_rng(0), max_total=5)


class TestInduce:
    def brute_force(self, g: KnowledgeGraph, nodes: set[int]) -> set:
        return {(h, r, t) for h, r, t in g.triples if h in nodes and t in nodes}

    def test_keep_all_matches_brute_force(self):
        g = small_graph(seed=8)
        rng = np.random.default_rng(8)
        for _ in range(50):
            size = int(rng.integers(2, g.entity_count + 1))
            nodes = [int(v) for v in rng.choice(g.entity_count, size=size, replace=False)]
            got = [tuple(row) for row in induce_subgraph(g, nodes, 1.0, rng).tolist()]
            assert set(got) == self.brute_force(g, set(nodes))
            assert len(got) == len(set(got))

    def test_keep_all_lists_heads_ascending_in_triple_order(self):
        # nodes in descending order; within a head, rows keep the graph's triple order
        triples = [(3, 0, 1), (1, 0, 2), (3, 1, 0), (0, 0, 3), (2, 0, 1), (3, 0, 2), (1, 1, 0), (2, 0, 4), (4, 0, 3)]
        g = KnowledgeGraph(5, 2, triples)
        got = induce_subgraph(g, [3, 2, 1, 0], 1.0, np.random.default_rng(0)).tolist()
        assert got == [[0, 0, 3], [1, 0, 2], [1, 1, 0], [2, 0, 1], [3, 0, 1], [3, 1, 0], [3, 0, 2]]

    def test_keep_none_is_empty(self):
        g = small_graph(seed=9)
        nodes = list(range(g.entity_count))
        got = induce_subgraph(g, nodes, 0.0, np.random.default_rng(0))
        assert got.shape == (0, 3) and got.dtype == np.int64

    def test_keep_rate_statistics(self):
        g = toy_split(seed=10).train
        nodes = list(range(g.entity_count))
        total_edges = len(g.triples)
        rng = np.random.default_rng(9)
        trials = 100
        kept = sum(len(induce_subgraph(g, nodes, 0.8, rng)) for _ in range(trials))
        n = trials * total_edges
        sigma = math.sqrt(n * 0.8 * 0.2)
        assert abs(kept - 0.8 * n) < 3 * sigma

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            induce_subgraph(small_graph(), [0, 1], 1.2, np.random.default_rng(0))


class TestStage1Batch:
    def test_sizes_within_budget_on_connected_graph(self):
        g = toy_split(seed=11).train
        rng = np.random.default_rng(10)
        for sub in sample_stage1_batch(g, rng, batch_size=64):
            assert 8 <= sub.levi.entity_node_count <= 16

    def test_mask_count_and_targets(self):
        g = toy_split(seed=12).train
        rng = np.random.default_rng(11)
        for sub in sample_stage1_batch(g, rng, batch_size=32, mask_rate=0.25):
            n = sub.levi.entity_node_count
            expected = max(1, math.ceil(0.25 * n))
            assert len(sub.prediction_targets) == expected
            assert sub.prediction_targets == tuple(sorted(set(sub.prediction_targets)))
            assert all(0 <= i < n for i in sub.prediction_targets)
            # only supervised nodes enter as anything but their own id
            changed = np.flatnonzero(sub.inputs != sub.levi.entities)
            assert set(changed.tolist()) <= set(sub.prediction_targets)
            assert sub.inputs.dtype == np.int64 and sub.inputs.shape == (n,)

    def test_original_entities_recoverable(self):
        g = toy_split(seed=13).train
        rng = np.random.default_rng(12)
        for sub in sample_stage1_batch(g, rng, batch_size=16):
            entities = sub.levi.entities.tolist()
            assert entities == sorted(set(entities))
            assert all(0 <= e < g.entity_count for e in entities)
            for h, r, t in to_triples(sub.levi):
                assert has_triple(g, h, r, t)

    def test_method_mix_zero_never_uses_tree(self):
        # ratio 0:1 means pure layer-dependent; a star graph then caps at depth
        g = KnowledgeGraph(8, 1, [(0, 0, i) for i in range(1, 8)])
        rng = np.random.default_rng(13)
        subs = sample_stage1_batch(
            g, rng, batch_size=8, method_mix=0.0, budget=(2, 3), ladies_per_layer=1, ladies_depth=1
        )
        for sub in subs:
            assert sub.levi.entity_node_count == 2

    def test_rejects_bad_budget(self):
        g = small_graph()
        with pytest.raises(ValueError):
            sample_stage1_batch(g, np.random.default_rng(0), 1, budget=(5, 3))


def input_kinds(entities: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """``mask`` at the mask token, ``keep`` where a node enters as itself, ``random`` elsewhere."""
    return np.where(inputs == FREE_SLOT, "mask", np.where(inputs == entities, "keep", "random"))


class TestCorruption:
    ENTITIES = 50

    def draw(self, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        entities = np.arange(count, dtype=np.int64) % self.ENTITIES
        inputs = sampling._draw_corruption(entities, range(count), self.ENTITIES, np.random.default_rng(seed))
        return entities, inputs

    def test_distribution_80_10_10(self):
        # a random replacement that draws the node's own id enters as that id
        n, e = 100_000, self.ENTITIES
        kinds = input_kinds(*self.draw(n, 14))
        for kind, p in (("mask", 0.8), ("keep", 0.1 + 0.1 / e), ("random", 0.1 * (1 - 1 / e))):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(np.count_nonzero(kinds == kind) / n - p) < 3 * sigma, kind

    def test_replacements_reach_the_last_entity(self):
        # every entity enters past the vocabulary, so each draw shows as itself: a mask token, the entity kept,
        # or a replacement in 0..entity_count - 1
        n, e = 30_000, 3
        inputs = sampling._draw_corruption(np.full(n, e), range(n), e, np.random.default_rng(21))
        replaced = inputs[(inputs != FREE_SLOT) & (inputs != e)]
        assert sorted(set(replaced.tolist())) == list(range(e))
        for count, p in ((np.count_nonzero(inputs == FREE_SLOT), 0.8), (np.count_nonzero(inputs == e), 0.1),
                         (replaced.size, 0.1)):
            assert abs(count / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_random_replacements_in_range(self):
        entities, inputs = self.draw(5000, 15)
        replacements = inputs[input_kinds(entities, inputs) == "random"]
        assert replacements.size
        assert np.all((0 <= replacements) & (replacements < self.ENTITIES))


class TestMetaGraphs:
    def classify(self, sub: SampledSubgraph) -> str:
        sources = np.count_nonzero(sub.inputs != FREE_SLOT)
        return "chain" if sources == 1 else "branch"

    def test_shapes_are_valid(self):
        g = toy_split(seed=16).train
        rng = np.random.default_rng(16)
        seen = set()
        for _ in range(400):
            sub = sample_meta_graph(g, rng)
            n = sub.levi.entity_node_count
            kind = self.classify(sub)
            seen.add((kind, n))
            # every masked slot enters as a plain mask token, the others as their own ids
            masked = np.flatnonzero(sub.inputs == FREE_SLOT).tolist()
            unmasked = sub.inputs != FREE_SLOT
            assert np.array_equal(sub.inputs[unmasked], sub.levi.entities[unmasked])
            if kind == "chain":
                length = n - 1
                assert 1 <= length <= 3
                assert masked == list(range(1, n))
                assert sub.prediction_targets == (n - 1,)
            else:
                width = n - 1
                assert 2 <= width <= 3
                heads = sub.levi.entities[:width].tolist()
                assert len(set(heads)) == width
                assert masked == [width]
                assert sub.prediction_targets == (width,)
            # meta-graph edges must be real graph triples
            for h, r, t in to_triples(sub.levi):
                assert has_triple(g, h, r, t)
        assert {kind for kind, _ in seen} == {"chain", "branch"}

    def test_chain_fraction_matches_ratio(self):
        g = dense_graph(10)  # no attempt can fail, so the mix is exact
        rng = np.random.default_rng(17)
        trials = 5000
        chains = sum(1 for _ in range(trials) if self.classify(sample_meta_graph(g, rng, 4.0)) == "chain")
        p = 0.8
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(chains / trials - p) < 3 * sigma

    def test_nell_style_ratio(self):
        g = dense_graph(10)
        rng = np.random.default_rng(18)
        trials = 5000
        chains = sum(1 for _ in range(trials) if self.classify(sample_meta_graph(g, rng, 10.0)) == "chain")
        p = 10.0 / 11.0
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(chains / trials - p) < 3 * sigma

    def test_branch_draws_are_walk_back_draws(self):
        # each attempt: the chain-or-branch draw, the shape index, then one walk back; a dead end retries
        g = toy_split(seed=0).train
        rng, redo = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(300):
            sub = sample_meta_graph(g, rng, pattern_mix=0.0)
            walked = None
            while walked is None:
                redo.random()
                qtype = (QueryType.I2, QueryType.I3)[int(redo.integers(2))]
                walked = walk_back(g, qtype, redo)
            want = template_levi(qtype, *walked)
            assert np.array_equal(sub.levi.entities, want.entities) and np.array_equal(sub.levi.triples, want.triples)
            assert rng.bit_generator.state == redo.bit_generator.state

    def test_edgeless_graph_exhausts(self):
        g = KnowledgeGraph(6, 1, [])
        with pytest.raises(SamplingExhausted):
            sample_meta_graph(g, np.random.default_rng(19))

    def test_chain_revisits_use_separate_slots(self):
        # 0 -> 1 -> 0 is the only cycle, so length-2+ chains must revisit
        g = KnowledgeGraph(2, 1, [(0, 0, 1), (1, 0, 0)])
        rng = np.random.default_rng(20)
        saw_revisit = False
        for _ in range(100):
            sub = sample_meta_graph(g, rng, pattern_mix=float("inf"))
            n = sub.levi.entity_node_count
            entities = sub.levi.entities.tolist()
            if len(set(entities)) < n:
                saw_revisit = True
        assert saw_revisit
