import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt import sampling
from kgt.errors import SamplingExhausted
from kgt.graph import KnowledgeGraph
from kgt.queries import NodeRole
from kgt.sampling import (
    CorruptionKind,
    SampledSubgraph,
    corrupt_masks,
    induce_subgraph,
    layer_dependent_sample,
    meta_tree_sample,
    sample_meta_graph,
    sample_stage1_batch,
)

from helpers import (
    loop_induce_subgraph,
    loop_layer_dependent_sample,
    loop_meta_tree_sample,
    small_graph,
    toy_split,
)


def dense_graph(entities: int = 10) -> KnowledgeGraph:
    """Every ordered pair connected: no sampler attempt can fail."""
    triples = [(i, 0, j) for i in range(entities) for j in range(entities) if i != j]
    return KnowledgeGraph(entities, 1, triples)


class TestMetaTree:
    def test_result_is_always_a_tree(self):
        g = small_graph(seed=1)
        rng = np.random.default_rng(0)
        for trial in range(200):
            start = int(rng.integers(g.entity_count))
            target = int(rng.integers(2, 10))
            result = meta_tree_sample(g, start, target, rng)
            nodes = result.nodes
            assert len(set(nodes)) == len(nodes)
            assert nodes[0] == start
            assert len(result.tree_edges) == len(nodes) - 1
            # each edge attaches one new node to an already collected one
            seen = {start}
            for parent, child in result.tree_edges:
                assert parent in seen
                assert child not in seen
                seen.add(child)
            assert seen == set(nodes)

    def test_tree_edges_exist_in_graph(self):
        g = small_graph(seed=2)
        undirected = set()
        for h, _, t in g.triples:
            undirected.add((h, t))
            undirected.add((t, h))
        rng = np.random.default_rng(1)
        for _ in range(50):
            result = meta_tree_sample(g, int(rng.integers(g.entity_count)), 8, rng)
            for parent, child in result.tree_edges:
                assert (parent, child) in undirected

    def test_reaches_target_on_connected_graph(self):
        g = toy_split(seed=3).train
        rng = np.random.default_rng(2)
        for _ in range(100):
            result = meta_tree_sample(g, int(rng.integers(g.entity_count)), 16, rng)
            assert not result.undersized
            assert len(result.nodes) == 16

    def test_isolated_start_stays_put(self):
        g = KnowledgeGraph(4, 1, [(1, 0, 2)])
        result = meta_tree_sample(g, 0, 5, np.random.default_rng(0))
        assert result.nodes == [0]
        assert result.undersized

    def test_rejects_bad_target(self):
        g = small_graph()
        with pytest.raises(ValueError):
            meta_tree_sample(g, 0, 0, np.random.default_rng(0))


class TestLayerDependent:
    def test_frontier_weights_follow_edge_multiplicity(self):
        # candidate 1 has three parallel edges into the seed, candidate 2 has one
        g = KnowledgeGraph(3, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 0, 2)])
        rng = np.random.default_rng(5)
        trials = 4000
        first = 0
        for _ in range(trials):
            result = layer_dependent_sample(g, [0], per_layer=1, depth=1, rng=rng)
            assert len(result.nodes) == 2
            if result.nodes[1] == 1:
                first += 1
        p = 0.75
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(first / trials - p) < 3 * sigma

    def test_without_replacement_and_cap(self):
        g = dense_graph(20)
        rng = np.random.default_rng(6)
        result = layer_dependent_sample(g, [0], per_layer=8, depth=2, rng=rng, max_total=12)
        assert len(result.nodes) == 12
        assert len(set(result.nodes)) == 12
        assert not result.undersized

    def test_disconnected_marks_undersized(self):
        g = KnowledgeGraph(5, 1, [(0, 0, 1)])
        result = layer_dependent_sample(g, [0], per_layer=4, depth=2, rng=np.random.default_rng(7))
        assert set(result.nodes) == {0, 1}
        assert result.undersized

    def test_rejects_bad_arguments(self):
        g = small_graph()
        with pytest.raises(ValueError):
            layer_dependent_sample(g, [0], per_layer=0, depth=1, rng=np.random.default_rng(0))


class TestInduce:
    def brute_force(self, g: KnowledgeGraph, nodes: set[int]) -> set:
        return {(h, r, t) for h, r, t in g.triples if h in nodes and t in nodes}

    def test_keep_all_matches_brute_force(self):
        g = small_graph(seed=8)
        rng = np.random.default_rng(8)
        for _ in range(50):
            size = int(rng.integers(2, g.entity_count + 1))
            nodes = [int(v) for v in rng.choice(g.entity_count, size=size, replace=False)]
            got = induce_subgraph(g, nodes, 1.0, rng)
            assert set(got) == self.brute_force(g, set(nodes))
            assert len(got) == len(set(got))

    def test_keep_none_is_empty(self):
        g = small_graph(seed=9)
        nodes = list(range(g.entity_count))
        assert induce_subgraph(g, nodes, 0.0, np.random.default_rng(0)) == []

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

    def test_mask_count_and_roles(self):
        g = toy_split(seed=12).train
        rng = np.random.default_rng(11)
        for sub in sample_stage1_batch(g, rng, batch_size=32, mask_rate=0.25):
            n = sub.levi.entity_node_count
            expected = max(1, math.ceil(0.25 * n))
            assert len(sub.mask_positions) == expected
            assert sub.prediction_targets == sub.mask_positions
            assert set(sub.corruption) == set(sub.mask_positions)
            for i, role in enumerate(sub.roles):
                if i >= n:
                    assert role is NodeRole.RELATION
                elif i in sub.mask_positions:
                    assert role is NodeRole.TARGET
                else:
                    assert role is NodeRole.SOURCE

    def test_original_entities_recoverable(self):
        g = toy_split(seed=13).train
        rng = np.random.default_rng(12)
        for sub in sample_stage1_batch(g, rng, batch_size=16):
            n = sub.levi.entity_node_count
            for i in range(n):
                assert sub.original_entities[i] == sub.levi.nodes[i].entity
            assert all(sub.original_entities[n:] == -1)

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


class TestCorruption:
    def make_stub(self, count: int) -> SampledSubgraph:
        from kgt.graph import triple_transform

        levi = triple_transform([(0, 0, 1)])
        return SampledSubgraph(
            levi=levi,
            roles=(NodeRole.SOURCE, NodeRole.TARGET, NodeRole.RELATION),
            original_entities=np.array([0, 1, -1]),
            mask_positions=tuple(range(count)),
            prediction_targets=tuple(range(count)),
            corruption={},
            entity_count=50,
        )

    def test_distribution_80_10_10(self):
        n = 100_000
        sub = corrupt_masks(self.make_stub(n), np.random.default_rng(14))
        counts = {kind: 0 for kind in CorruptionKind}
        for c in sub.corruption.values():
            counts[c.kind] += 1
        for kind, p in ((CorruptionKind.MASK, 0.8), (CorruptionKind.KEEP, 0.1), (CorruptionKind.RANDOM, 0.1)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[kind] / n - p) < 3 * sigma, kind

    def test_random_replacements_in_range(self):
        sub = corrupt_masks(self.make_stub(5000), np.random.default_rng(15))
        replacements = [c.replacement for c in sub.corruption.values() if c.kind is CorruptionKind.RANDOM]
        assert replacements
        assert all(0 <= r < 50 for r in replacements)
        assert all(
            c.replacement is None for c in sub.corruption.values() if c.kind is not CorruptionKind.RANDOM
        )


class TestMetaGraphs:
    def classify(self, sub: SampledSubgraph) -> str:
        sources = sum(1 for r in sub.roles if r is NodeRole.SOURCE)
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
            # every masked slot enters as a plain mask token
            assert all(c.kind is CorruptionKind.MASK for c in sub.corruption.values())
            assert set(sub.corruption) == set(sub.mask_positions)
            if kind == "chain":
                length = n - 1
                assert 1 <= length <= 3
                assert sub.mask_positions == tuple(range(1, n))
                assert sub.prediction_targets == (n - 1,)
                assert sub.roles[0] is NodeRole.SOURCE
                assert sub.roles[n - 1] is NodeRole.TARGET
            else:
                width = n - 1
                assert 2 <= width <= 3
                heads = [sub.levi.nodes[i].entity for i in range(width)]
                assert len(set(heads)) == width
                assert sub.mask_positions == (width,)
                assert sub.prediction_targets == (width,)
            # meta-graph edges must be real graph triples
            for h, r, t in sub.levi.to_triples():
                assert g.has_triple(h, r, t)
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
            entities = [sub.levi.nodes[i].entity for i in range(n)]
            if len(set(entities)) < n:
                saw_revisit = True
        assert saw_revisit


@st.composite
def hub_multigraphs(draw):
    """Small multigraphs: entity 0 is a hub, the last entities are isolated, and
    (h, t) pairs repeat under different relations."""
    linked = draw(st.integers(2, 10))
    isolated = draw(st.integers(0, 3))
    relations = 3
    ends = st.integers(0, linked - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=20))
    pairs += [(0, t) if out else (t, 0) for t, out in draw(st.lists(st.tuples(ends, st.booleans()), max_size=15))]
    multiplicity = draw(st.lists(st.integers(1, relations), min_size=len(pairs), max_size=len(pairs)))
    triples = list(dict.fromkeys((h, r, t) for (h, t), m in zip(pairs, multiplicity) for r in range(m)))
    graph = KnowledgeGraph(linked + isolated, relations, triples)
    members = draw(st.lists(st.integers(0, graph.entity_count - 1), min_size=1, max_size=8))
    return graph, members


def hub_graph(entities: int = 200, triples: int = 1500, seed: int = 31) -> KnowledgeGraph:
    """Zipf-like heads and tails: a few hubs carry most edges."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, entities + 1) ** 1.1
    weights /= weights.sum()
    heads = rng.choice(entities, size=triples, p=weights)
    tails = rng.permutation(entities)[rng.choice(entities, size=triples, p=weights)]
    rels = rng.integers(4, size=triples)
    rows = dict.fromkeys((int(h), int(r), int(t)) for h, r, t in zip(heads, rels, tails))
    return KnowledgeGraph(entities, 4, list(rows))


def subgraph_fields(sub: SampledSubgraph) -> tuple:
    return (
        sub.levi.nodes,
        sub.levi.edges,
        sub.roles,
        sub.original_entities.tolist(),
        sub.mask_positions,
        sub.prediction_targets,
        sub.corruption,
    )


class TestLoopOracles:
    """The numpy samplers match the former per-node loops bit for bit, random stream included."""

    @settings(max_examples=150, deadline=None)
    @given(hub_multigraphs(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_layer_dependent_matches_loop(self, case, per_layer, depth, seed):
        graph, seeds = case
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = layer_dependent_sample(graph, seeds, per_layer, depth, rng_a)
        want = loop_layer_dependent_sample(graph, seeds, per_layer, depth, rng_b)
        assert (got.nodes, got.undersized) == (want.nodes, want.undersized)
        assert rng_a.random() == rng_b.random()

    @settings(max_examples=150, deadline=None)
    @given(hub_multigraphs(), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    def test_induce_matches_loop(self, case, edge_keep, seed):
        graph, nodes = case
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert induce_subgraph(graph, nodes, edge_keep, rng_a) == loop_induce_subgraph(graph, nodes, edge_keep, rng_b)
        assert rng_a.random() == rng_b.random()

    @settings(max_examples=150, deadline=None)
    @given(hub_multigraphs(), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_meta_tree_matches_loop(self, case, target, seed):
        graph, members = case
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = meta_tree_sample(graph, members[0], target, rng_a)
        want = loop_meta_tree_sample(graph, members[0], target, rng_b)
        assert (got.nodes, got.tree_edges, got.undersized) == (want.nodes, want.tree_edges, want.undersized)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("method_mix", [0.0, math.inf], ids=["ladies", "meta_tree"])
    def test_stage1_batch_matches_loops(self, monkeypatch, method_mix):
        graph = hub_graph()
        got = sample_stage1_batch(graph, np.random.default_rng(32), 24, method_mix=method_mix)
        monkeypatch.setattr(sampling, "meta_tree_sample", loop_meta_tree_sample)
        monkeypatch.setattr(sampling, "layer_dependent_sample", loop_layer_dependent_sample)
        monkeypatch.setattr(sampling, "induce_subgraph", loop_induce_subgraph)
        want = sample_stage1_batch(graph, np.random.default_rng(32), 24, method_mix=method_mix)
        assert [subgraph_fields(sub) for sub in got] == [subgraph_fields(sub) for sub in want]
