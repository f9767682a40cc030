"""Subgraph samplers for the two pre-training stages.

Stage 1 draws node sets with meta-tree growth (restart-1.0 random walk that
jumps to a uniformly random already-sampled node before every step) or
simplified layer-dependent frontier sampling, induces edges between the
sampled nodes with a keep ratio, then masks a fraction of entity nodes with
80/10/10 corruption. Stage 2 instantiates small query-shaped meta-graphs
(chains and branches) directly from graph edges, masking intermediates and
target but supervising only the target.

Frontier counting and edge induction are numpy over the members' CSR slices.
The meta-tree walk is a plain loop; it draws all of its uniforms up front, two
per step, so its random stream does not depend on how many steps it takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import SamplingExhausted
from .graph import EntityNode, KnowledgeGraph, LeviGraph, RelationNode, Triple, triple_transform
from .queries import NodeRole, _distinct_in_edges, _pick_in_edge

MAX_START_RETRIES = 20


def _slice_positions(indptr: np.ndarray, members: np.ndarray) -> np.ndarray:
    """CSR positions of every member's slice, concatenated in member order."""
    starts = indptr[members]
    lengths = indptr[members + 1] - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


@dataclass
class SampleResult:
    """Node set from one sampler run, in sampled order."""

    nodes: list[int]
    undersized: bool
    tree_edges: list[tuple[int, int]] | None = None


def meta_tree_sample(
    graph: KnowledgeGraph,
    start: int,
    target_size: int,
    rng: np.random.Generator,
) -> SampleResult:
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    indptr, nbrs = graph.csr_undirected()
    steps = 40 * target_size + 200
    uniforms = rng.random(2 * steps)
    # Restart-1.0 walk: jump to a random sampled node, step once, keep the
    # neighbor if new. Every added node records the node it was reached from,
    # so the collected edges form a tree.
    nodes = [int(start)]
    seen = {nodes[0]}
    edges = []
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
            edges.append((cur, nxt))
    return SampleResult(nodes=nodes, undersized=len(nodes) < target_size, tree_edges=edges)


def layer_dependent_sample(
    graph: KnowledgeGraph,
    seeds: list[int],
    per_layer: int,
    depth: int,
    rng: np.random.Generator,
    max_total: int | None = None,
) -> SampleResult:
    """Grow the seed set ``depth`` times by weighted frontier draws.

    Each layer samples up to ``per_layer`` frontier nodes without replacement,
    with probability proportional to each candidate's edge count into the
    already-sampled set. ``max_total`` caps the final size.
    """
    if per_layer < 1 or depth < 1:
        raise ValueError("per_layer and depth must be at least 1")
    indptr, nbrs = graph.csr_undirected_multi()
    member_flag = np.zeros(graph.entity_count, dtype=bool)
    sampled = list(dict.fromkeys(int(s) for s in seeds))
    member_flag[sampled] = True
    undersized = False
    for _ in range(depth):
        budget = per_layer
        if max_total is not None:
            budget = min(budget, max_total - len(sampled))
        if budget <= 0:
            break
        # each non-member's incident edges into the member set
        reached = nbrs[_slice_positions(indptr, np.asarray(sampled, dtype=np.int64))]
        counts = np.bincount(reached[~member_flag[reached]])
        candidates = np.nonzero(counts)[0]
        if candidates.size == 0:
            undersized = True
            break
        weights = counts[candidates].astype(np.float64)
        picks = min(budget, candidates.size)
        for _ in range(picks):
            cumulative = np.cumsum(weights)
            total = cumulative[-1]
            r = rng.random() * total
            k = int(np.searchsorted(cumulative, r, side="right"))
            if k >= candidates.size:
                k = candidates.size - 1
            chosen = int(candidates[k])
            sampled.append(chosen)
            member_flag[chosen] = True
            weights[k] = 0.0
        if picks < budget:
            undersized = True
    return SampleResult(nodes=sampled, undersized=undersized)


def induce_subgraph(
    graph: KnowledgeGraph,
    nodes: list[int],
    edge_keep: float,
    rng: np.random.Generator,
) -> list[Triple]:
    """Triples with both endpoints in ``nodes``, each kept with prob ``edge_keep``."""
    if not 0.0 <= edge_keep <= 1.0:
        raise ValueError(f"edge_keep must be in [0, 1], got {edge_keep}")
    indptr, tails, rels = graph.csr_out()
    members = np.unique(np.asarray(nodes, dtype=np.int64))
    member_flag = np.zeros(graph.entity_count, dtype=bool)
    member_flag[members] = True
    # sorted members keep the positions in csr order, one slice per head
    positions = _slice_positions(indptr, members)
    positions = positions[member_flag[tails[positions]]]
    found = positions.size
    if found == 0:
        return []
    keep = rng.random(found) < edge_keep
    heads = np.searchsorted(indptr, positions, side="right") - 1
    return [
        (int(heads[i]), int(rels[positions[i]]), int(tails[positions[i]]))
        for i in range(found)
        if keep[i]
    ]


class CorruptionKind(Enum):
    MASK = "mask"
    KEEP = "keep"
    RANDOM = "random"


@dataclass(frozen=True)
class Corruption:
    kind: CorruptionKind
    replacement: int | None = None


@dataclass
class SampledSubgraph:
    """One masked training example.

    ``original_entities`` holds the true entity id per Levi node (-1 at
    relation nodes). ``mask_positions`` are the hidden entity nodes;
    ``prediction_targets`` is the subset that carries a loss term.
    ``corruption`` says what each masked node presents as input.
    """

    levi: LeviGraph
    roles: tuple[NodeRole, ...]
    original_entities: np.ndarray
    mask_positions: tuple[int, ...]
    prediction_targets: tuple[int, ...]
    corruption: dict[int, Corruption]
    entity_count: int


def corrupt_masks(sub: SampledSubgraph, rng: np.random.Generator) -> SampledSubgraph:
    """Redraw input corruption for every masked node: 80% mask token, 10%
    unchanged, 10% replaced by a uniformly random entity."""
    corruption = {}
    for pos in sorted(sub.mask_positions):
        u = rng.random()
        if u < 0.8:
            corruption[pos] = Corruption(CorruptionKind.MASK)
        elif u < 0.9:
            corruption[pos] = Corruption(CorruptionKind.KEEP)
        else:
            corruption[pos] = Corruption(CorruptionKind.RANDOM, int(rng.integers(sub.entity_count)))
    return replace(sub, corruption=corruption)


def _mix_probability(ratio: float) -> float:
    """Turn an a:b ratio (a per one b) into the probability of choosing a."""
    if math.isinf(ratio):
        return 1.0
    if ratio < 0:
        raise ValueError(f"mix ratio must be non-negative, got {ratio}")
    return ratio / (1.0 + ratio)


def _entity_array(levi: LeviGraph) -> np.ndarray:
    out = np.full(levi.node_count, -1, dtype=np.int64)
    for i, node in enumerate(levi.nodes):
        if isinstance(node, EntityNode):
            out[i] = node.entity
    return out


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
    drawn uniformly from ``budget`` inclusive; undersized draws retry from a
    fresh start node and are accepted as-is only when the graph is too sparse
    to do better.
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
        result = None
        for _ in range(MAX_START_RETRIES):
            start = int(rng.integers(graph.entity_count))
            if use_tree:
                result = meta_tree_sample(graph, start, target, rng)
            else:
                result = layer_dependent_sample(
                    graph, [start], ladies_per_layer, ladies_depth, rng, max_total=target
                )
            if len(result.nodes) >= lo:
                break
        nodes = result.nodes
        triples = induce_subgraph(graph, nodes, edge_keep, rng)
        levi = triple_transform(triples, extra_entities=nodes)
        n_entities = levi.entity_node_count
        n_mask = max(1, math.ceil(mask_rate * n_entities))
        mask_positions = tuple(sorted(int(i) for i in rng.choice(n_entities, size=n_mask, replace=False)))
        masked = set(mask_positions)
        roles = tuple(
            NodeRole.RELATION
            if i >= n_entities
            else (NodeRole.TARGET if i in masked else NodeRole.SOURCE)
            for i in range(levi.node_count)
        )
        sub = SampledSubgraph(
            levi=levi,
            roles=roles,
            original_entities=_entity_array(levi),
            mask_positions=mask_positions,
            prediction_targets=mask_positions,
            corruption={},
            entity_count=graph.entity_count,
        )
        out.append(corrupt_masks(sub, rng))
    return out


def _chain_meta_graph(graph: KnowledgeGraph, rng: np.random.Generator) -> SampledSubgraph | None:
    """1p/2p/3p-shaped example walked backward from a random target.

    Entity revisits are allowed (Markov walk), each occupying its own slot.
    """
    length = int(rng.integers(1, 4))
    target = int(rng.integers(graph.entity_count))
    entities = [target]
    relations = []
    cur = target
    for _ in range(length):
        picked = _pick_in_edge(graph, cur, rng)
        if picked is None:
            return None
        h, r = picked
        entities.append(h)
        relations.append(r)
        cur = h
    entities.reverse()
    relations.reverse()

    nodes: list = [EntityNode(e) for e in entities]
    roles = [NodeRole.SOURCE] + [NodeRole.INTERMEDIATE] * (length - 1) + [NodeRole.TARGET]
    edges_out = []
    for i, r in enumerate(relations):
        j = len(nodes)
        nodes.append(RelationNode(r))
        roles.append(NodeRole.RELATION)
        edges_out.append((i, j))
        edges_out.append((j, i + 1))
    levi = LeviGraph(nodes=nodes, edges=edges_out, entity_node_count=length + 1)
    mask_positions = tuple(range(1, length + 1))
    return SampledSubgraph(
        levi=levi,
        roles=tuple(roles),
        original_entities=_entity_array(levi),
        mask_positions=mask_positions,
        prediction_targets=(length,),
        corruption={pos: Corruption(CorruptionKind.MASK) for pos in mask_positions},
        entity_count=graph.entity_count,
    )


def _branch_meta_graph(graph: KnowledgeGraph, rng: np.random.Generator) -> SampledSubgraph | None:
    """2i/3i-shaped example: a target with 2..3 distinct in-neighbors."""
    width = int(rng.integers(2, 4))
    target = int(rng.integers(graph.entity_count))
    picked = _distinct_in_edges(graph, target, width, rng, least=2)
    if picked is None:
        return None  # degenerate: fewer than two distinct in-neighbors
    width = len(picked)

    nodes: list = [EntityNode(h) for h, _ in picked]
    roles = [NodeRole.SOURCE] * width
    nodes.append(EntityNode(int(target)))
    roles.append(NodeRole.TARGET)
    edges_out = []
    for i, (_, r) in enumerate(picked):
        j = len(nodes)
        nodes.append(RelationNode(r))
        roles.append(NodeRole.RELATION)
        edges_out.append((i, j))
        edges_out.append((j, width))
    levi = LeviGraph(nodes=nodes, edges=edges_out, entity_node_count=width + 1)
    return SampledSubgraph(
        levi=levi,
        roles=tuple(roles),
        original_entities=_entity_array(levi),
        mask_positions=(width,),
        prediction_targets=(width,),
        corruption={width: Corruption(CorruptionKind.MASK)},
        entity_count=graph.entity_count,
    )


def sample_meta_graph(
    graph: KnowledgeGraph,
    rng: np.random.Generator,
    pattern_mix: float = 4.0,
    max_attempts: int = 200,
) -> SampledSubgraph:
    """Draw one query-shaped meta-graph for sparse pre-training.

    ``pattern_mix`` is the chain : branch ratio. Inputs keep the anchor
    entities visible; intermediates and target enter as mask tokens and only
    the target is supervised. No 80/10/10 corruption here: the sparse stage
    mirrors the query-time regime, where masked slots are always mask tokens.
    """
    p_chain = _mix_probability(pattern_mix)
    for _ in range(max_attempts):
        if rng.random() < p_chain:
            sub = _chain_meta_graph(graph, rng)
        else:
            sub = _branch_meta_graph(graph, rng)
        if sub is not None:
            return sub
    raise SamplingExhausted(f"no meta-graph found in {max_attempts} attempts")
