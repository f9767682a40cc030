"""Subgraph samplers for the two pre-training stages.

Stage 1 draws node sets with meta-tree growth (restart-1.0 random walk that
jumps to a uniformly random already-sampled node before every step) or
simplified layer-dependent frontier sampling, induces edges between the
sampled nodes with a keep ratio, then masks a fraction of entity nodes with
80/10/10 corruption. Stage 2 meta-graphs are ``queries.walk_back`` draws of
the 1p/2p/3p (chain) and 2i/3i (branch) query templates, the walk that query
generation uses: true entities filled backward from a random target, in the
Levi graph that ``queries.template_levi`` builds for queries. Intermediates
and target are masked; only the target is supervised.

Frontier counting and edge induction are numpy over the members' CSR slices.
The meta-tree walk is a plain loop; it draws all of its uniforms up front, two
per step, so its random stream does not depend on how many steps it takes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import SamplingExhausted
from .graph import KnowledgeGraph, LeviGraph, triple_transform
from .queries import FREE_SLOT, QueryType, template_levi, walk_back

MAX_START_RETRIES = 20
META_GRAPH_ATTEMPTS = 200


def _slice_positions(indptr: np.ndarray, members: np.ndarray) -> np.ndarray:
    """CSR positions of every member's slice, concatenated in member order."""
    starts = indptr[members]
    lengths = indptr[members + 1] - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def meta_tree_sample(
    graph: KnowledgeGraph,
    start: int,
    target_size: int,
    rng: np.random.Generator,
) -> list[int]:
    """Node set of one restart-1.0 walk from ``start``, in sampled order."""
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    indptr, nbrs = graph.csr_undirected()
    steps = 40 * target_size + 200
    uniforms = rng.random(2 * steps)
    # Restart-1.0 walk: jump to a random sampled node, step once, keep the
    # neighbor if new. Every added node is a neighbor of one added before it.
    nodes = [int(start)]
    seen = {nodes[0]}
    for step in range(steps):
        if len(nodes) >= target_size:
            break
        cur = nodes[min(int(uniforms[2 * step] * len(nodes)), len(nodes) - 1)]
        lo, hi = int(indptr[cur]), int(indptr[cur + 1])
        if lo == hi:
            continue
        nxt = int(nbrs[min(lo + int(uniforms[2 * step + 1] * (hi - lo)), hi - 1)])
        if nxt not in seen:
            seen.add(nxt)
            nodes.append(nxt)
    return nodes


def layer_dependent_sample(
    graph: KnowledgeGraph,
    seeds: list[int],
    per_layer: int,
    depth: int,
    rng: np.random.Generator,
    max_total: int,
) -> list[int]:
    """Grow the seed set ``depth`` times by weighted frontier draws.

    Each layer samples up to ``per_layer`` frontier nodes without replacement,
    with probability proportional to each candidate's edge count into the
    already-sampled set. ``max_total`` caps the final size. Returns the
    sampled nodes, seeds first, in sampled order.
    """
    if per_layer < 1 or depth < 1:
        raise ValueError("per_layer and depth must be at least 1")
    indptr, nbrs = graph.csr_undirected_multi()
    member_flag = np.zeros(graph.entity_count, dtype=bool)
    sampled = list(dict.fromkeys(int(s) for s in seeds))
    member_flag[sampled] = True
    for _ in range(depth):
        budget = min(per_layer, max_total - len(sampled))
        if budget <= 0:
            break
        # each non-member's incident edges into the member set
        reached = nbrs[_slice_positions(indptr, np.asarray(sampled, dtype=np.int64))]
        counts = np.bincount(reached[~member_flag[reached]])
        candidates = np.nonzero(counts)[0]
        if candidates.size == 0:
            break
        weights = counts[candidates].astype(np.float64)
        # the weights are integer counts, so every cumulative value is exact
        # and taking a pick's weight off the tail equals a fresh cumsum
        cumulative = np.cumsum(weights)
        picks = min(budget, candidates.size)
        for _ in range(picks):
            r = rng.random() * cumulative[-1]
            k = int(np.searchsorted(cumulative, r, side="right"))
            if k >= candidates.size:
                k = candidates.size - 1
            chosen = int(candidates[k])
            sampled.append(chosen)
            member_flag[chosen] = True
            cumulative[k:] -= weights[k]
            weights[k] = 0.0
    return sampled


def induce_subgraph(
    graph: KnowledgeGraph,
    nodes: list[int],
    edge_keep: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Int64 ``[T, 3]`` triples with both endpoints in ``nodes``, each kept with prob ``edge_keep``."""
    if not 0.0 <= edge_keep <= 1.0:
        raise ValueError(f"edge_keep must be in [0, 1], got {edge_keep}")
    indptr, tails, rels = graph.csr_out()
    members = np.unique(np.asarray(nodes, dtype=np.int64))
    member_flag = np.zeros(graph.entity_count, dtype=bool)
    member_flag[members] = True
    # sorted members keep the positions in csr order, one slice per head
    positions = _slice_positions(indptr, members)
    positions = positions[member_flag[tails[positions]]]
    if positions.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    positions = positions[rng.random(positions.size) < edge_keep]
    heads = np.searchsorted(indptr, positions, side="right") - 1
    return np.column_stack([heads, rels[positions], tails[positions]])


@dataclass(eq=False)
class SampledSubgraph:
    """One masked training example.

    ``levi.entities`` holds the true entity id of each entity node and
    ``inputs`` the id each one enters the model with, ``FREE_SLOT`` for the
    mask token, as in a query's Levi graph. ``prediction_targets`` are the
    masked nodes that carry a loss term.
    """

    levi: LeviGraph
    inputs: np.ndarray  # [k] int64
    prediction_targets: tuple[int, ...]


def _draw_corruption(
    entities: np.ndarray, positions: Iterable[int], entity_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Input ids of ``entities`` with ``positions`` corrupted, drawn in position order:
    80% mask token, 10% unchanged, 10% a uniformly random entity."""
    inputs = entities.copy()
    for pos in positions:
        u = rng.random()
        if u < 0.8:
            inputs[pos] = FREE_SLOT
        elif u >= 0.9:
            inputs[pos] = rng.integers(entity_count)
    return inputs


def _mix_probability(ratio: float) -> float:
    """Turn an a:b ratio (a per one b) into the probability of choosing a."""
    if math.isinf(ratio):
        return 1.0
    if ratio < 0:
        raise ValueError(f"mix ratio must be non-negative, got {ratio}")
    return ratio / (1.0 + ratio)


def sample_stage1_batch(
    graph: KnowledgeGraph,
    rng: np.random.Generator,
    batch_size: int,
    method_mix: float = 1.0,
    mask_rate: float = 0.25,
    budget: tuple[int, int] = (8, 16),
    edge_keep: float = 0.8,
    ladies_per_layer: int = 8,
    ladies_depth: int = 2,
) -> list[SampledSubgraph]:
    """Draw a batch of randomly masked subgraphs for dense pre-training.

    ``method_mix`` is the meta-tree : layer-dependent ratio. Node budgets are
    drawn uniformly from ``budget`` inclusive; a draw with fewer nodes than
    the budget's lower end retries from a fresh start node and is accepted
    as-is only when the graph is too sparse to do better.
    """
    lo, hi = budget
    if not 1 <= lo <= hi:
        raise ValueError(f"bad node budget {budget}")
    if not 0.0 < mask_rate <= 1.0:
        raise ValueError(f"mask_rate must be in (0, 1], got {mask_rate}")
    p_tree = _mix_probability(method_mix)
    out = []
    for _ in range(batch_size):
        target = int(rng.integers(lo, hi + 1))
        use_tree = rng.random() < p_tree
        for _ in range(MAX_START_RETRIES):
            start = int(rng.integers(graph.entity_count))
            if use_tree:
                nodes = meta_tree_sample(graph, start, target, rng)
            else:
                nodes = layer_dependent_sample(graph, [start], ladies_per_layer, ladies_depth, rng, max_total=target)
            if len(nodes) >= lo:
                break
        triples = induce_subgraph(graph, nodes, edge_keep, rng)
        levi = triple_transform(triples, extra_entities=nodes)
        n_entities = levi.entity_node_count
        n_mask = max(1, math.ceil(mask_rate * n_entities))
        masked = tuple(sorted(int(i) for i in rng.choice(n_entities, size=n_mask, replace=False)))
        out.append(SampledSubgraph(levi, _draw_corruption(levi.entities, masked, graph.entity_count, rng), masked))
    return out


def _meta_graph(qtype: QueryType, slots: list[int], relations: list[int]) -> SampledSubgraph:
    """A shape's template filled with true entities: non-anchor slots masked,
    only the target supervised."""
    levi = template_levi(qtype, slots, relations)
    inputs = levi.entities.copy()
    inputs[qtype.anchor_count :] = FREE_SLOT
    return SampledSubgraph(levi, inputs, (len(slots) - 1,))


def sample_meta_graph(
    graph: KnowledgeGraph,
    rng: np.random.Generator,
    pattern_mix: float = 4.0,
) -> SampledSubgraph:
    """Draw one query-shaped meta-graph for sparse pre-training.

    ``pattern_mix`` is the chain : branch ratio. Each attempt draws chain or
    branch, a uniform shape of that kind, then ``walk_back`` fills its slots
    from a random target; a dead end is retried. A chain may revisit an entity
    (a Markov walk), each visit in its own slot. Inputs keep the anchors
    visible; intermediates and target enter as mask tokens and only the target
    is supervised. No 80/10/10 corruption here: the sparse stage mirrors the
    query-time regime, where masked slots are always mask tokens.
    """
    p_chain = _mix_probability(pattern_mix)
    for _ in range(META_GRAPH_ATTEMPTS):
        shapes = (QueryType.P1, QueryType.P2, QueryType.P3) if rng.random() < p_chain else (QueryType.I2, QueryType.I3)
        qtype = shapes[int(rng.integers(len(shapes)))]
        walked = walk_back(graph, qtype, rng)
        if walked is not None:
            return _meta_graph(qtype, *walked)
    raise SamplingExhausted(f"no meta-graph found in {META_GRAPH_ATTEMPTS} attempts")
