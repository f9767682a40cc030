"""Shared fixtures: deterministic toy datasets sized for fast training."""

from __future__ import annotations

from pathlib import Path

import numpy as np

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
    return SampleResult(nodes=[int(v) for v in out_nodes[:count]], undersized=count < target_size, tree_edges=edges)


def loop_layer_dependent_sample(graph, seeds, per_layer, depth, rng, max_total=None):
    """Test oracle: ``sampling.layer_dependent_sample`` as it ran on the loop kernel."""
    from kgt.sampling import SampleResult

    indptr, nbrs = graph.csr_undirected_multi()
    member_flag = np.zeros(graph.entity_count, dtype=np.uint8)
    sampled = list(dict.fromkeys(int(s) for s in seeds))
    for s in sampled:
        member_flag[s] = 1
    undersized = False
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
            undersized = True
            break
        weights = counts[candidates].astype(np.float64)
        picks = min(budget, candidates.size)
        for _ in range(picks):
            cumulative = np.cumsum(weights)
            r = rng.random() * cumulative[-1]
            k = min(int(np.searchsorted(cumulative, r, side="right")), candidates.size - 1)
            sampled.append(int(candidates[k]))
            member_flag[candidates[k]] = 1
            weights[k] = 0.0
        if picks < budget:
            undersized = True
    return SampleResult(nodes=sampled, undersized=undersized)


def loop_induce_subgraph(graph, nodes, edge_keep, rng):
    """Test oracle: ``sampling.induce_subgraph`` as it ran on the loop kernel."""
    indptr, tails, rels = graph.csr_out()
    members = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
    member_flag = np.zeros(graph.entity_count, dtype=np.uint8)
    member_flag[members] = 1
    positions = np.zeros(max(len(graph), 1), dtype=np.int64)
    found = induced_positions_kernel(indptr, tails, members, member_flag, positions)
    if found == 0:
        return []
    keep = rng.random(found) < edge_keep
    heads = np.searchsorted(indptr, positions[:found], side="right") - 1
    return [
        (int(heads[i]), int(rels[positions[i]]), int(tails[positions[i]])) for i in range(found) if keep[i]
    ]


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
