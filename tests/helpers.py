"""Shared fixtures: deterministic toy datasets sized for fast training."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from kgt.graph import KnowledgeGraph, SplitDataset, Triple, build_split, write_triples, write_vocab


def toy_triples(
    seed: int = 0,
    entities: int = 50,
    relations: int = 5,
    total: int = 240,
) -> list[Triple]:
    """A connected random multigraph: spanning tree first, then extra edges."""
    rng = np.random.default_rng(seed)
    triples: list[Triple] = []
    seen: set[Triple] = set()
    for node in range(1, entities):
        other = int(rng.integers(node))
        r = int(rng.integers(relations))
        triple = (other, r, node) if rng.random() < 0.5 else (node, r, other)
        triples.append(triple)
        seen.add(triple)
    while len(triples) < total:
        h = int(rng.integers(entities))
        t = int(rng.integers(entities))
        r = int(rng.integers(relations))
        if (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append((h, r, t))
    return triples


def toy_split(
    seed: int = 0,
    entities: int = 50,
    relations: int = 5,
    train: int = 200,
    valid: int = 20,
    test: int = 20,
) -> SplitDataset:
    """Cumulative toy dataset whose train graph stays connected.

    The spanning tree (first entities-1 triples) is kept in train; the valid
    and test increments come off the tail of the shuffled remainder.
    """
    triples = toy_triples(seed, entities, relations, train + valid + test)
    tree = triples[: entities - 1]
    rest = triples[entities - 1 :]
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(len(rest))
    rest = [rest[i] for i in order]
    train_part = tree + rest[: train - len(tree)]
    valid_part = rest[train - len(tree) : train - len(tree) + valid]
    test_part = rest[train - len(tree) + valid : train - len(tree) + valid + test]
    return build_split(
        {"train": train_part, "valid": valid_part, "test": test_part},
        entities,
        relations,
    )


def write_toy_dataset(directory: Path, split: SplitDataset, tokens: bool = True) -> Path:
    """Write a split as disjoint increment files, with vocabularies by default."""
    directory.mkdir(parents=True, exist_ok=True)
    parts = dict(zip(("train.txt", "valid.txt", "test.txt"), split.increments()))
    if tokens:
        write_vocab(directory / "entities.txt", [f"e{i}" for i in range(split.entity_count)])
        write_vocab(directory / "relations.txt", [f"r{i}" for i in range(split.relation_count)])
        for name, triples in parts.items():
            with open(directory / name, "w", encoding="utf-8") as fh:
                for h, r, t in triples:
                    fh.write(f"e{h}\tr{r}\te{t}\n")
    else:
        for name, triples in parts.items():
            write_triples(directory / name, triples)
    return directory


def small_graph(seed: int = 3, entities: int = 12, relations: int = 3, total: int = 30) -> KnowledgeGraph:
    triples = toy_triples(seed, entities, relations, total)
    return KnowledgeGraph(entities, relations, triples)


class ListGraph:
    """Test oracle: the former list-backed store, triple indexes per entity in triple order."""

    def __init__(self, entity_count: int, triples: list[Triple]):
        self.triples = list(triples)
        self.out_index: list[list[int]] = [[] for _ in range(entity_count)]
        self.in_index: list[list[int]] = [[] for _ in range(entity_count)]
        for i, (h, _, t) in enumerate(self.triples):
            self.out_index[h].append(i)
            self.in_index[t].append(i)

    def successors(self, head: int, relation: int) -> set[int]:
        return {self.triples[i][2] for i in self.out_index[head] if self.triples[i][1] == relation}

    def has_triple(self, h: int, r: int, t: int) -> bool:
        return any(self.triples[i] == (h, r, t) for i in self.out_index[h])

    def in_edges(self, node: int) -> list[tuple[int, int]]:
        return [self.triples[i][:2] for i in self.in_index[node]]


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


def meta_tree_kernel(indptr, nbrs, start, target, uniforms, visited, out_nodes, out_parent):
    """Test oracle: the former meta-tree loop kernel, two uniforms per step into out buffers."""
    count = 1
    out_nodes[0] = start
    out_parent[0] = -1
    visited[start] = 1
    steps = uniforms.shape[0] // 2
    for step in range(steps):
        if count >= target:
            break
        pick = int(uniforms[2 * step] * count)
        if pick >= count:
            pick = count - 1
        cur = out_nodes[pick]
        lo = indptr[cur]
        hi = indptr[cur + 1]
        degree = hi - lo
        if degree == 0:
            continue
        j = lo + int(uniforms[2 * step + 1] * degree)
        if j >= hi:
            j = hi - 1
        nxt = nbrs[j]
        if visited[nxt] == 0:
            visited[nxt] = 1
            out_nodes[count] = nxt
            out_parent[count] = cur
            count += 1
    return count


def frontier_counts_kernel(indptr, nbrs, members, member_flag, counts):
    """Test oracle: the former loop counting each non-member's edges into the member set."""
    for idx in range(members.shape[0]):
        v = members[idx]
        for j in range(indptr[v], indptr[v + 1]):
            w = nbrs[j]
            if member_flag[w] == 0:
                counts[w] += 1


def induced_positions_kernel(indptr, tails, members, member_flag, out_positions):
    """Test oracle: the former loop collecting csr positions of triples inside the member set."""
    count = 0
    for idx in range(members.shape[0]):
        h = members[idx]
        for j in range(indptr[h], indptr[h + 1]):
            if member_flag[tails[j]] == 1:
                out_positions[count] = j
                count += 1
    return count


def loop_meta_tree_sample(graph, start, target_size, rng):
    """Test oracle: ``sampling.meta_tree_sample`` as it ran on the loop kernel."""
    from kgt.sampling import SampleResult

    indptr, nbrs = graph.csr_undirected()
    steps = 40 * target_size + 200
    uniforms = rng.random(2 * steps)
    visited = np.zeros(graph.entity_count, dtype=np.uint8)
    out_nodes = np.zeros(target_size, dtype=np.int64)
    out_parent = np.zeros(target_size, dtype=np.int64)
    count = meta_tree_kernel(indptr, nbrs, start, target_size, uniforms, visited, out_nodes, out_parent)
    edges = [(int(out_parent[i]), int(out_nodes[i])) for i in range(1, count)]
    return SampleResult(nodes=[int(v) for v in out_nodes[:count]], tree_edges=edges)


def loop_layer_dependent_sample(graph, seeds, per_layer, depth, rng, max_total=None):
    """Test oracle: ``sampling.layer_dependent_sample`` as it ran on the loop kernel."""
    from kgt.sampling import SampleResult

    indptr, nbrs = graph.csr_undirected_multi()
    member_flag = np.zeros(graph.entity_count, dtype=np.uint8)
    sampled = list(dict.fromkeys(int(s) for s in seeds))
    for s in sampled:
        member_flag[s] = 1
    for _ in range(depth):
        budget = per_layer
        if max_total is not None:
            budget = min(budget, max_total - len(sampled))
        if budget <= 0:
            break
        counts = np.zeros(graph.entity_count, dtype=np.int64)
        frontier_counts_kernel(indptr, nbrs, np.asarray(sampled, dtype=np.int64), member_flag, counts)
        candidates = np.nonzero(counts)[0]
        if candidates.size == 0:
            break
        weights = counts[candidates].astype(np.float64)
        for _ in range(min(budget, candidates.size)):
            cumulative = np.cumsum(weights)
            r = rng.random() * cumulative[-1]
            k = min(int(np.searchsorted(cumulative, r, side="right")), candidates.size - 1)
            sampled.append(int(candidates[k]))
            member_flag[candidates[k]] = 1
            weights[k] = 0.0
    return SampleResult(nodes=sampled)


def loop_induce_subgraph(graph, nodes, edge_keep, rng):
    """Test oracle: ``sampling.induce_subgraph`` as it ran on the loop kernel."""
    indptr, tails, rels = graph.csr_out()
    members = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
    member_flag = np.zeros(graph.entity_count, dtype=np.uint8)
    member_flag[members] = 1
    positions = np.zeros(max(len(graph), 1), dtype=np.int64)
    found = induced_positions_kernel(indptr, tails, members, member_flag, positions)
    if found == 0:
        return np.empty((0, 3), dtype=np.int64)
    keep = rng.random(found) < edge_keep
    heads = np.searchsorted(indptr, positions[:found], side="right") - 1
    kept = [
        (int(heads[i]), int(rels[positions[i]]), int(tails[positions[i]])) for i in range(found) if keep[i]
    ]
    return np.array(kept, dtype=np.int64).reshape(-1, 3)


def dense_moe_ffn(model, layer: int, x, training: bool, rng) -> "Tensor":
    """Test oracle: the former dense expert loop, every expert on every slot, padding included.

    Unselected experts enter the mix with a routing weight of exactly 0.
    """
    from kgt import tensor as T

    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    b, n, d = x.shape
    h = T.layer_norm(x, p[prefix + "ln2_gain"], p[prefix + "ln2_bias"])
    flat = T.reshape(h, (b * n, d))
    gate_logits = T.matmul(flat, p[prefix + "gate"])
    if training and cfg.top_k < cfg.experts:
        order = np.argsort(-gate_logits.data, axis=-1, kind="stable")
        selected = np.zeros_like(gate_logits.data, dtype=bool)
        np.put_along_axis(selected, order[:, : cfg.top_k], True, axis=-1)
        weights = T.masked_softmax(gate_logits, selected)
    else:
        weights = T.softmax(gate_logits)
    combined = None
    for j in range(cfg.experts):
        eprefix = f"{prefix}expert{j}."
        pre = T.add(T.matmul(flat, p[eprefix + "w1"]), p[eprefix + "b1"])
        out_j = T.add(T.matmul(T.gelu(pre), p[eprefix + "w2"]), p[eprefix + "b2"])
        term = T.mul(out_j, T.slice_last(weights, j, j + 1))
        combined = term if combined is None else T.add(combined, term)
    out = T.reshape(combined, (b, n, d))
    return T.add(x, T.dropout(out, cfg.dropout, rng, training))


def padded_encode_subgraphs(subs, config) -> "Batch":
    """Test oracle: the former stage-1/stage-2 encoder, one graph per row padded to the widest."""
    from kgt.model import Batch, _masked_input_id

    width = max(s.levi.node_count for s in subs)
    b = len(subs)
    entity_ids = np.full((b, width), config.mask_id, dtype=np.int64)
    relation_ids = np.zeros((b, width), dtype=np.int64)
    is_entity = np.ones((b, width), dtype=bool)
    attn = np.zeros((b, 1, width, width), dtype=bool)
    attn[:, 0] |= np.eye(width, dtype=bool)
    positions = []
    targets = []
    for gi, sub in enumerate(subs):
        levi = sub.levi
        n, k = levi.node_count, levi.entity_node_count
        attn[gi, 0, :n, :n] = levi.attention_mask()
        for i in range(n):
            if i < k:
                entity = int(levi.entities[i])
                if i in sub.corruption:
                    entity_ids[gi, i] = _masked_input_id(entity, sub.corruption[i], config.mask_id)
                else:
                    entity_ids[gi, i] = entity
            else:
                is_entity[gi, i] = False
                relation_ids[gi, i] = levi.triples[i - k, 1]
        for pos in sub.prediction_targets:
            positions.append(gi * width + pos)
            targets.append(int(levi.entities[pos]))
    return Batch(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        is_entity=is_entity,
        attn_mask=attn,
        positions=np.asarray(positions, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
        sizes=[s.levi.node_count for s in subs],
        graph_count=b,
    )


def padded_encode_queries(queries, config) -> "Batch":
    """Test oracle: the former query encoder (target slots), one graph per row padded to the widest."""
    from kgt.model import Batch
    from kgt.queries import FREE_SLOT

    width = max(q.levi.node_count for q in queries)
    b = len(queries)
    entity_ids = np.full((b, width), config.mask_id, dtype=np.int64)
    relation_ids = np.zeros((b, width), dtype=np.int64)
    is_entity = np.ones((b, width), dtype=bool)
    attn = np.zeros((b, 1, width, width), dtype=bool)
    attn[:, 0] |= np.eye(width, dtype=bool)
    for qi, q in enumerate(queries):
        levi = q.levi
        n, k = levi.node_count, levi.entity_node_count
        attn[qi, 0, :n, :n] = levi.attention_mask()
        for i in range(n):
            if i < k:
                if levi.entities[i] != FREE_SLOT:
                    entity_ids[qi, i] = levi.entities[i]
            else:
                is_entity[qi, i] = False
                relation_ids[qi, i] = levi.triples[i - k, 1]
    return Batch(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        is_entity=is_entity,
        attn_mask=attn,
        positions=np.asarray([qi * width + q.target_index for qi, q in enumerate(queries)], dtype=np.int64),
        targets=np.zeros(b, dtype=np.int64),
        sizes=[q.levi.node_count for q in queries],
        graph_count=b,
    )


def dense_cross_entropy(logits, targets: np.ndarray, alpha: float = 0.0) -> "Tensor":
    """Test oracle: the former cross entropy against the dense [P, C] smoothed-label matrix."""
    from kgt.tensor import Tensor, _accumulate, _record, smoothed_labels

    z = logits.data
    y = smoothed_labels(targets, z.shape[1], alpha).astype(z.dtype)
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    logp = z - lse
    out = Tensor(-(y * logp).sum(axis=-1), requires_grad=logits.requires_grad)

    def backward(g):
        p = np.exp(logp)
        _accumulate(logits, (p - y) * g[:, None])

    return _record(out, backward)


def loop_answer_masked_cross_entropy(logits, answer_sets) -> "Tensor":
    """Test oracle: the former per-row loop, with an [A, V] responsibility matrix per row."""
    from kgt.tensor import Tensor, _accumulate, _record

    z = logits.data
    n_classes = z.shape[1]
    sets = [np.asarray(a, dtype=np.int64).reshape(-1) for a in answer_sets]
    losses = np.zeros(z.shape[0], dtype=z.dtype)
    denoms = []
    for i, answers in enumerate(sets):
        row = z[i]
        neg_mask = np.ones(n_classes, dtype=bool)
        neg_mask[answers] = False
        negs = row[neg_mask]
        if negs.size:
            nmax = negs.max()
            lse_neg = nmax + np.log(np.exp(negs - nmax).sum())
        else:
            lse_neg = -np.inf
        denom = np.logaddexp(row[answers], lse_neg)
        losses[i] = (denom - row[answers]).mean()
        denoms.append((neg_mask, denom))
    out = Tensor(losses, requires_grad=logits.requires_grad)

    def backward(g):
        gz = np.zeros_like(z)
        for i, answers in enumerate(sets):
            neg_mask, denom = denoms[i]
            k = answers.size
            with np.errstate(over="ignore"):  # overflowing answer columns are zeroed next
                p = np.exp(z[i][None, :] - denom[:, None])
            p[:, ~neg_mask] = 0.0
            gz[i] += p.sum(axis=0) * (g[i] / k)
            p_self = np.exp(z[i][answers] - denom)
            gz[i, answers] += (p_self - 1.0) * (g[i] / k)
        _accumulate(logits, gz)

    return _record(out, backward)


def per_query_scores(model, query) -> list[np.ndarray]:
    """Test oracle: entity scores for each DNF branch of one query, from its own forward."""
    from kgt.model import encode_queries, forward
    from kgt.queries import dnf_decompose

    branches = dnf_decompose(query)
    logits = forward(model, encode_queries(branches, model.config), training=False)
    return [logits.data[i].copy() for i in range(len(branches))]


def per_query_evaluate(model, datasets, split: str, ks=(1, 3, 10), rank_dump: list | None = None):
    """Test oracle: the former ``evaluate``, one forward per query with hard answers."""
    from kgt.evaluation import MetricsTable, filtered_rank, hits_at_k, mean_reciprocal_rank, union_combine

    def rank_query(inst) -> list[int]:
        hard = sorted(inst.hard_answers(split))
        if not hard:
            return []
        branch_scores = per_query_scores(model, inst.query)
        if len(branch_scores) == 1:
            scores = branch_scores[0]
        else:
            scores = -union_combine(branch_scores).astype(np.float64)
        filter_ids = np.asarray(sorted(inst.filter_set), dtype=np.int64)
        return [filtered_rank(scores, answer, filter_ids) for answer in hard]

    rows: dict[str, dict[str, float]] = {}
    for qtype in sorted(datasets.keys(), key=lambda t: t.value):
        instances = datasets[qtype]
        rank_lists = [rank_query(inst) for inst in instances]
        kept = [(inst, ranks) for inst, ranks in zip(instances, rank_lists) if ranks]
        if rank_dump is not None:
            for inst, ranks in kept:
                for answer, rank in zip(sorted(inst.hard_answers(split)), ranks):
                    rank_dump.append(
                        {
                            "type": inst.query.query_type.value,
                            "anchors": list(inst.query.anchors),
                            "relations": list(inst.query.relations),
                            "answer": int(answer),
                            "rank": int(rank),
                        }
                    )
        if not kept:
            continue
        lists = [ranks for _, ranks in kept]
        row = {f"hits@{k}": hits_at_k(lists, k) for k in ks}
        row["mrr"] = mean_reciprocal_rank(lists)
        row["queries"] = float(len(lists))
        rows[qtype.value] = row
    if rows:
        mean_row = {}
        for metric in list(next(iter(rows.values())).keys()):
            if metric == "queries":
                mean_row[metric] = float(sum(r[metric] for r in rows.values()))
            else:
                mean_row[metric] = float(np.mean([r[metric] for r in rows.values()]))
        rows["mean"] = mean_row
    return MetricsTable(split=split, ks=tuple(ks), rows=rows)


def per_entity_project(graph, sources, relation) -> set[int]:
    """Test oracle: projection of an entity set, one ``successors`` lookup per entity."""
    out = set()
    for e in sources:
        out |= graph.successors(e, relation)
    return out


def per_shape_ground_answers(graph, query) -> frozenset[int]:
    """Test oracle: the former per-shape grounding, unions via their DNF branches."""
    from kgt.queries import QueryType, dnf_decompose

    qt = query.query_type
    a = query.anchors
    r = query.relations
    if qt is QueryType.P1:
        return frozenset(graph.successors(a[0], r[0]))
    if qt is QueryType.P2:
        return frozenset(per_entity_project(graph, graph.successors(a[0], r[0]), r[1]))
    if qt is QueryType.P3:
        frontier = graph.successors(a[0], r[0])
        frontier = per_entity_project(graph, frontier, r[1])
        return frozenset(per_entity_project(graph, frontier, r[2]))
    if qt is QueryType.I2:
        return frozenset(graph.successors(a[0], r[0]) & graph.successors(a[1], r[1]))
    if qt is QueryType.I3:
        return frozenset(
            graph.successors(a[0], r[0]) & graph.successors(a[1], r[1]) & graph.successors(a[2], r[2])
        )
    if qt is QueryType.IP:
        middle = graph.successors(a[0], r[0]) & graph.successors(a[1], r[1])
        return frozenset(per_entity_project(graph, middle, r[2]))
    if qt is QueryType.PI:
        middle = graph.successors(a[0], r[0])
        return frozenset(per_entity_project(graph, middle, r[1]) & graph.successors(a[1], r[2]))
    answers: set[int] = set()
    for branch in dnf_decompose(query):
        answers |= per_shape_ground_answers(graph, branch)
    return frozenset(answers)


def per_shape_instantiate(graph, qtype, rng):
    """Test oracle: the former per-shape backward draw of one query, or None."""
    from kgt.queries import QueryType, _distinct_in_edges, _pick_in_edge, build_query

    n = graph.entity_count
    target = int(rng.integers(n))

    if qtype in (QueryType.P1, QueryType.P2, QueryType.P3):
        length = {QueryType.P1: 1, QueryType.P2: 2, QueryType.P3: 3}[qtype]
        rels: list[int] = []
        cur = target
        for _ in range(length):
            picked = _pick_in_edge(graph, cur, rng)
            if picked is None:
                return None
            cur, r = picked
            rels.append(r)
        return build_query(qtype, (cur,), tuple(reversed(rels)))

    if qtype in (QueryType.I2, QueryType.I3):
        width = 2 if qtype is QueryType.I2 else 3
        pairs = _distinct_in_edges(graph, target, width, rng)
        if pairs is None:
            return None
        anchors, rels = zip(*pairs)
        return build_query(qtype, anchors, rels)

    if qtype is QueryType.IP:
        picked = _pick_in_edge(graph, target, rng)
        if picked is None:
            return None
        middle, r2 = picked
        pairs = _distinct_in_edges(graph, middle, 2, rng)
        if pairs is None:
            return None
        (a0, r0), (a1, r1) = pairs
        return build_query(qtype, (a0, a1), (r0, r1, r2))

    if qtype is QueryType.PI:
        pairs = _distinct_in_edges(graph, target, 2, rng)
        if pairs is None:
            return None
        (middle, r1), (a1, r2) = pairs
        picked = _pick_in_edge(graph, middle, rng)
        if picked is None:
            return None
        a0, r0 = picked
        if a0 == a1:
            return None
        return build_query(qtype, (a0, a1), (r0, r1, r2))

    if qtype is QueryType.U2:
        first = _pick_in_edge(graph, target, rng)
        if first is None:
            return None
        a0, r0 = first
        second = _pick_in_edge(graph, int(rng.integers(n)), rng)
        if second is None:
            return None
        a1, r1 = second
        if a1 == a0:
            return None
        return build_query(qtype, (a0, a1), (r0, r1))

    if qtype is QueryType.UP:
        picked = _pick_in_edge(graph, target, rng)
        if picked is None:
            return None
        m0, r2 = picked
        first = _pick_in_edge(graph, m0, rng)
        if first is None:
            return None
        a0, r0 = first
        second = _pick_in_edge(graph, int(rng.integers(n)), rng)
        if second is None:
            return None
        a1, r1 = second
        if a1 == a0:
            return None
        return build_query(qtype, (a0, a1), (r0, r1, r2))

    raise ValueError(f"unknown query type {qtype}")


def _hand_built_meta_graph(graph, entities, relations, heads_into, mask_positions):
    """Levi graph with one relation node per (head slot, relation, tail slot) triple."""
    from kgt.graph import LeviGraph
    from kgt.sampling import Corruption, CorruptionKind, SampledSubgraph

    triples = [(head, r, tail) for (head, tail), r in zip(heads_into, relations)]
    levi = LeviGraph(np.array(entities, dtype=np.int64), np.array(triples, dtype=np.int64).reshape(-1, 3))
    return SampledSubgraph(
        levi=levi,
        prediction_targets=(len(entities) - 1,),
        corruption={pos: Corruption(CorruptionKind.MASK) for pos in mask_positions},
        entity_count=graph.entity_count,
    )


def hand_built_chain_meta_graph(graph, rng):
    """Test oracle: the former 1p/2p/3p meta-graph walk with its own Levi graph."""
    from kgt.queries import _pick_in_edge

    length = int(rng.integers(1, 4))
    cur = int(rng.integers(graph.entity_count))
    entities = [cur]
    relations = []
    for _ in range(length):
        picked = _pick_in_edge(graph, cur, rng)
        if picked is None:
            return None
        cur, r = picked
        entities.append(cur)
        relations.append(r)
    entities.reverse()
    relations.reverse()
    links = [(i, i + 1) for i in range(length)]
    return _hand_built_meta_graph(graph, entities, relations, links, tuple(range(1, length + 1)))


def hand_built_branch_meta_graph(graph, rng):
    """Test oracle: the former 2i/3i meta-graph draw with its own Levi graph."""
    from kgt.queries import _distinct_in_edges

    width = int(rng.integers(2, 4))
    target = int(rng.integers(graph.entity_count))
    picked = _distinct_in_edges(graph, target, width, rng, least=2)
    if picked is None:
        return None
    width = len(picked)
    entities = [h for h, _ in picked] + [target]
    links = [(i, width) for i in range(width)]
    return _hand_built_meta_graph(graph, entities, [r for _, r in picked], links, (width,))


LOOP_BLOCK = 1 << 15  # the block size of kgt.optim, fixed here so the oracles stay independent of it


class LoopAdamW:
    """Test oracle: the former AdamW, one parameter tensor at a time with its own moments.

    Takes any dict of tensors; each parameter is updated in place, block by
    block along its first axis.
    """

    def __init__(self, params, config):
        self.params = params
        self.config = config
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, epoch: int = 0) -> float:
        import math

        self.step_count += 1
        cfg = self.config
        lr_t = cfg.lr_at(epoch)
        bias1 = 1.0 - cfg.beta1**self.step_count
        bias2 = 1.0 - cfg.beta2**self.step_count
        for name, t in self.params.items():
            if t.grad is None:
                continue
            arrays = np.atleast_1d(t.data, t.grad, self.m[name], self.v[name])
            rows = max(1, LOOP_BLOCK // max(1, math.prod(arrays[0].shape[1:])))
            scratch = np.empty((2, rows) + arrays[0].shape[1:], dtype=t.data.dtype)
            for i in range(0, len(arrays[0]), rows):
                p, g, m, v = (a[i : i + rows] for a in arrays)
                s, u = scratch[:, : len(p)]
                np.multiply(g, 1.0 - cfg.beta1, out=s)
                m *= cfg.beta1
                m += s
                np.multiply(g, g, out=s)
                s *= 1.0 - cfg.beta2
                v *= cfg.beta2
                v += s
                np.divide(v, bias2, out=s)
                np.sqrt(s, out=s)
                s += cfg.eps
                np.divide(m, bias1, out=u)
                np.divide(u, s, out=s)
                if cfg.weight_decay:
                    np.multiply(p, cfg.weight_decay, out=u)
                    s += u
                s *= lr_t
                p -= s
        return lr_t


def loop_clip_global_norm(params, max_norm: float) -> float:
    """Test oracle: the former clip, one gradient tensor at a time.

    Sums squares in float64 through a block-sized scratch array, one dot
    product per block of each tensor, then scales each tensor's gradient.
    """
    import math

    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    scratch = np.empty(LOOP_BLOCK, dtype=np.float64)
    for t in params.values():
        if t.grad is None:
            continue
        flat = t.grad.reshape(-1)
        for i in range(0, flat.size, LOOP_BLOCK):
            block = scratch[: min(LOOP_BLOCK, flat.size - i)]
            block[:] = flat[i : i + LOOP_BLOCK]
            total += float(np.dot(block, block))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm ({norm})")
    if norm > max_norm:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad *= scale
    return norm


def arena_params(arrays: dict, dtype=None) -> dict:
    """Parameters in one arena (kgt.optim.parameter_arena) holding copies of ``arrays``."""
    from kgt.optim import parameter_arena

    arrays = {name: np.asarray(a, dtype=dtype) for name, a in arrays.items()}
    params = parameter_arena({name: a.shape for name, a in arrays.items()}, next(iter(arrays.values())).dtype)
    for name, t in params.items():
        t.data[...] = arrays[name]
    return params


def set_grad(t, g) -> None:
    """Give an arena parameter the gradient ``g``, in its span of the gradient arena."""
    np.copyto(t.grad_view, g)
    t.grad = t.grad_view


def heap_truncated_normal(rng, shape, std: float, dtype) -> np.ndarray:
    """Test oracle: the former truncated normal, drawn with ``rng.normal`` into heap arrays.

    Out-of-range draws are found with ``np.abs`` and redrawn, in array order,
    until none is left.
    """
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out.astype(dtype, copy=False)
        out[bad] = rng.normal(0.0, std, size=n_bad)
