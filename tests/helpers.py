"""Shared fixtures: deterministic toy datasets sized for fast training."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from kgt.errors import IntegrityError, SplitFileError
from kgt.graph import KnowledgeGraph, LeviGraph, SplitDataset, Triple, build_split, write_vocab


def write_triples(path: Path, triples) -> None:
    """Write triples as integer ids, one ``h<TAB>r<TAB>t`` line each."""
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")


def has_triple(graph: KnowledgeGraph, h: int, r: int, t: int) -> bool:
    """Whether ``graph`` holds the triple, looked up in its out-edge CSR."""
    indptr, tails, rels = graph.csr_out()
    lo, hi = indptr[h], indptr[h + 1]
    return bool(((tails[lo:hi] == t) & (rels[lo:hi] == r)).any())


def attention_mask(levi: LeviGraph) -> np.ndarray:
    """Boolean [n, n] mask of a Levi graph: symmetrized adjacency plus the diagonal.

    The diagonal is included so every node (isolated entities included)
    attends at least to itself.
    """
    k, n = levi.entity_node_count, levi.node_count
    mask = np.eye(n, dtype=bool)
    relation_nodes = np.arange(k, n)[:, None]
    ends = levi.triples[:, 0::2]  # head and tail node of each relation node
    mask[relation_nodes, ends] = True
    mask[ends, relation_nodes] = True
    return mask


def to_triples(levi: LeviGraph) -> list[Triple]:
    """The ``(h, r, t)`` triples a Levi graph was built from, in relation-node order."""
    hrt = levi.triples.copy()
    hrt[:, 0::2] = levi.entities[levi.triples[:, 0::2]]
    return [tuple(row) for row in hrt.tolist()]


def smoothed_labels(targets: np.ndarray, classes: int, alpha: float) -> np.ndarray:
    """The dense label-smoothed targets ``(1-a) * onehot + a/K`` that ``cross_entropy`` scores against."""
    from kgt.tensor import _check_targets

    idx = _check_targets(targets, classes, alpha)
    y = np.full((idx.size, classes), alpha / classes, dtype=np.float64)
    y[np.arange(idx.size), idx] += 1.0 - alpha
    return y


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


def former_group(entity_count: int, sources: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Test oracle: the former ``KnowledgeGraph._group``, a stable argsort of the int64 sources."""
    order = np.argsort(sources, kind="stable")
    indptr = np.zeros(entity_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=entity_count), out=indptr[1:])
    return (indptr, *(c[order] for c in columns))


def former_first_fault(hrt: np.ndarray, entity_count: int, relation_count: int) -> tuple[int, str] | None:
    """Test oracle: the former per-part check, which ran ``np.unique`` on every part."""
    h, r, t = hrt[:, 0], hrt[:, 1], hrt[:, 2]
    bad_entity = (h < 0) | (h >= entity_count) | (t < 0) | (t >= entity_count)
    bad = np.flatnonzero(bad_entity | (r < 0) | (r >= relation_count))
    if bad.size:
        i = int(bad[0])
        kind = "entity" if bad_entity[i] else "relation"
        return i, f"{kind} id out of range in {tuple(hrt[i].tolist())}"
    _, first = np.unique((h * relation_count + r) * entity_count + t, return_index=True)
    if first.size < len(hrt):
        repeated = np.ones(len(hrt), dtype=bool)
        repeated[first] = False
        i = int(np.flatnonzero(repeated)[0])
        return i, f"duplicate triple {tuple(hrt[i].tolist())}"
    return None


def former_build_split(parts, entity_count: int, relation_count: int, sources=None) -> SplitDataset:
    """Test oracle: the former ``build_split``: each part checked in turn, then
    four ``np.isin`` set tests decide between cumulative and disjoint parts,
    and a scan with Python sets finds the first line that repeats a triple."""
    arrays = {name: np.asarray(parts[name], dtype=np.int64).reshape(-1, 3) for name in ("train", "valid", "test")}

    def fail(name, row, message):
        if sources is not None:
            path, lines = sources[name]
            raise SplitFileError(path, int(lines[row]), message)
        raise IntegrityError(f"{name} triple {row}: {message}")

    for name, hrt in arrays.items():
        fault = former_first_fault(hrt, entity_count, relation_count)
        if fault is not None:
            fail(name, *fault)

    train, valid, test = ((a[:, 0] * relation_count + a[:, 1]) * entity_count + a[:, 2] for a in arrays.values())
    valid_new = ~np.isin(valid, train)
    test_new = ~np.isin(test, valid)
    cumulative = np.isin(train, valid).all() and np.isin(valid, test).all()
    disjoint = valid_new.all() and test_new.all() and not np.isin(test, train).any()
    if not (cumulative or disjoint):
        # valid is at fault if it holds some train triples but not all, else test is;
        # the error names the first line of that split that repeats an earlier split's triple
        train_set, valid_set = set(train.tolist()), set(valid.tolist())
        if train_set <= valid_set or not train_set & valid_set:
            name, keys, earlier = "test", test.tolist(), train_set | valid_set
        else:
            name, keys, earlier = "valid", valid.tolist(), train_set
        repeats = [row for row, key in enumerate(keys) if key in earlier]
        lacking = "test lacks valid" if train_set <= valid_set else "valid lacks train"
        message = f"{lacking} triples: the splits are neither cumulative nor disjoint increments"
        if not repeats:
            raise IntegrityError(f"{sources[name][0] if sources else name}: {message}")
        fail(name, repeats[0], f"repeats an earlier split's triple, but {message}")

    store = np.concatenate([arrays["train"], arrays["valid"][valid_new], arrays["test"][test_new]])
    store.flags.writeable = False
    ends = (len(train), len(train) + int(valid_new.sum()), len(store))
    graphs = (KnowledgeGraph(entity_count, relation_count, store[:n], validate=False) for n in ends)
    return SplitDataset(*graphs)


@st.composite
def split_parts(draw):
    """``(parts, entity_count, relation_count)`` for ``build_split``: disjoint or
    cumulative parts, parts that overlap or repeat a triple, empty parts, and
    now and then an out-of-range id."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1))
    pool = draw(st.lists(triple, unique=True, max_size=12))
    a, b = sorted(draw(st.lists(st.integers(0, len(pool)), min_size=2, max_size=2)))
    train, valid, test = pool[:a], pool[a:b], pool[b:]
    layout = draw(st.sampled_from(("disjoint", "cumulative", "overlapping", "repeating")))
    if layout == "cumulative":
        valid = draw(st.permutations(train + valid))
        test = draw(st.permutations(valid + test))
    elif layout != "disjoint" and pool:
        # overlapping parts hold each triple once; repeating parts may hold one twice
        part = st.lists(st.sampled_from(pool), unique=layout == "overlapping", max_size=6)
        train, valid, test = (draw(part) for _ in range(3))
    parts = {"train": list(train), "valid": list(valid), "test": list(test)}
    if draw(st.booleans()) and any(parts.values()):
        name = draw(st.sampled_from([name for name, part in parts.items() if part]))
        row = draw(st.integers(0, len(parts[name]) - 1))
        column = draw(st.integers(0, 2))
        bad = list(parts[name][row])
        bad[column] = draw(st.sampled_from((-1, r if column == 1 else n)))
        parts[name][row] = tuple(bad)
    return parts, n, r


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


def meta_tree_kernel(indptr, nbrs, start, target, uniforms, visited, out_nodes):
    """Test oracle: the former meta-tree loop kernel, two uniforms per step into out buffers."""
    count = 1
    out_nodes[0] = start
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
    indptr, nbrs = graph.csr_undirected()
    steps = 40 * target_size + 200
    uniforms = rng.random(2 * steps)
    visited = np.zeros(graph.entity_count, dtype=np.uint8)
    out_nodes = np.zeros(target_size, dtype=np.int64)
    count = meta_tree_kernel(indptr, nbrs, start, target_size, uniforms, visited, out_nodes)
    return [int(v) for v in out_nodes[:count]]


def loop_layer_dependent_sample(graph, seeds, per_layer, depth, rng, max_total=None):
    """Test oracle: ``sampling.layer_dependent_sample`` as it ran on the loop kernel."""
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
    return sampled


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


def former_draw_corruption(positions, entity_count, rng) -> dict[int, tuple[str, int | None]]:
    """Test oracle: the former corruption draw, one ``(kind, replacement)`` per
    masked position: 80% mask token, 10% unchanged, 10% a random entity."""
    corruption = {}
    for pos in positions:
        u = rng.random()
        if u < 0.8:
            corruption[pos] = ("mask", None)
        elif u < 0.9:
            corruption[pos] = ("keep", None)
        else:
            corruption[pos] = ("random", int(rng.integers(entity_count)))
    return corruption


def former_masked_input_id(original: int, corruption: tuple[str, int | None], mask_id: int) -> int:
    """Test oracle: the input id the former encoder gave a masked node."""
    kind, replacement = corruption
    if kind == "mask":
        return mask_id
    if kind == "keep":
        return original
    return int(replacement)


def former_corrupted_inputs(entities, positions, entity_count, rng) -> np.ndarray:
    """Test oracle: input ids of ``entities`` through the former draw, ``FREE_SLOT`` for the mask token."""
    from kgt.queries import FREE_SLOT

    inputs = entities.copy()
    for pos, c in former_draw_corruption(positions, entity_count, rng).items():
        inputs[pos] = former_masked_input_id(int(entities[pos]), c, FREE_SLOT)
    return inputs


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along the axes numpy broadcast it over (the former ``kgt.tensor`` helper)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def scatter_add_rows(base, src, indexes: np.ndarray) -> "Tensor":
    """Test oracle op, the former ``kgt.tensor.scatter_add_rows``: a copy of
    ``base`` with row i of ``src`` added to row ``indexes[i]``, which must not repeat."""
    from kgt.tensor import Tensor, _accumulate, _record

    idx = np.asarray(indexes, dtype=np.int64)
    data = base.data.copy()
    data[idx] += src.data
    out = Tensor(data, requires_grad=base.requires_grad or src.requires_grad)

    def backward(g):
        _accumulate(base, g)
        _accumulate(src, g[idx], owned=True)

    return _record(out, backward)


EXPERT_WEIGHTS = ("w1", "b1", "w2", "b2")


def expert_leaves(model, layer: int) -> list[dict]:
    """Expert j's slices of a layer's stacked expert weights, each copied into
    a leaf tensor of its own, as ``leaves[j]["w1"]`` and so on."""
    from kgt.tensor import Tensor

    stacked = {name: model.params[f"layer{layer}.experts.{name}"].data for name in EXPERT_WEIGHTS}
    return [
        {name: Tensor(w[j].copy(), requires_grad=True) for name, w in stacked.items()}
        for j in range(model.config.experts)
    ]


def stacked_grads(leaves: list[dict], layer: int) -> dict[str, np.ndarray]:
    """The gradients of :func:`expert_leaves` stacked under the layer's parameter names."""
    return {f"layer{layer}.experts.{name}": np.stack([e[name].grad for e in leaves]) for name in EXPERT_WEIGHTS}


QKV = ("wq", "wk", "wv")


def qkv_leaves(model, layer: int) -> dict:
    """A layer's ``wq``, ``wk`` and ``wv``, the column blocks of its ``wqkv``,
    each copied into a leaf tensor of its own."""
    from kgt.tensor import Tensor

    wqkv = model.params[f"layer{layer}.wqkv"].data
    d = wqkv.shape[0]
    return {name: Tensor(wqkv[:, i * d : (i + 1) * d].copy(), requires_grad=True) for i, name in enumerate(QKV)}


def fused_grads(leaves: dict, layer: int) -> dict[str, np.ndarray]:
    """The gradients of :func:`qkv_leaves` side by side under the layer's ``wqkv`` name."""
    return {f"layer{layer}.wqkv": np.concatenate([leaves[name].grad for name in QKV], axis=1)}


def former_reshape(a, shape) -> "Tensor":
    """Test oracle op: the former ``kgt.tensor.reshape``; the backward hands down a view of the upstream gradient."""
    from kgt.tensor import Tensor, _accumulate, _record

    out = Tensor(a.data.reshape(tuple(shape)), requires_grad=a.requires_grad)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _record(out, backward)


def former_transpose(a, axes) -> "Tensor":
    """Test oracle op: the former ``kgt.tensor.transpose``; the backward hands down a transposed (F-ordered) view."""
    from kgt.tensor import Tensor, _accumulate, _record

    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes), requires_grad=a.requires_grad)

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _record(out, backward)


def former_decode(states, table) -> "Tensor":
    """Test oracle: the former decoder head, ``matmul(states, transpose(table))``:
    two tape records, the table gradient built [d, V] and copied back transposed."""
    from kgt import tensor as T

    return T.matmul(states, former_transpose(table, (1, 0)))


def former_matmul(a, b) -> "Tensor":
    """Test oracle: the former ``kgt.tensor.matmul``, which also took stacked
    operands; with a 2-D ``b``, each gradient folds ``a``'s batch axes into rows."""
    from kgt.tensor import Tensor, _accumulate, _gemm, _record

    product = _gemm(a.data, b.data) if a.data.ndim == b.data.ndim == 2 else a.data @ b.data
    out = Tensor(product, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        if b.data.ndim == 2:
            k, n = b.data.shape
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                _accumulate(a, _gemm(g2, b.data.T).reshape(a.data.shape), owned=True)
            if b.requires_grad:
                _accumulate(b, a.data.reshape(-1, k).T @ g2, owned=True)
            return
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2), owned=True)
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g, owned=True)

    return _record(out, backward)


def former_attention(q, k, v, wo, bias: np.ndarray, heads: int) -> "Tensor":
    """Test oracle: the former attention ops after the projections ``q``, ``k``
    and ``v`` ([B, N, d] each): heads split by ``reshape`` and ``transpose``,
    products by the former batched ``matmul``, and the scores' ``former_mul``
    by the scale before the boolean-mask softmax."""
    b, n, d = q.shape

    def split_heads(m):
        return former_transpose(former_reshape(m, (b, n, heads, d // heads)), (0, 2, 1, 3))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    scores = former_matmul(q, former_transpose(k, (0, 1, 3, 2)))
    probs = former_masked_softmax(former_mul(scores, 1.0 / np.sqrt(d // heads)), bias == 0)
    context = former_reshape(former_transpose(former_matmul(probs, v), (0, 2, 1, 3)), (b, n, d))
    return former_matmul(context, wo)


def former_attention_rows(h, wq, wk, wv, wo, bias: np.ndarray, heads: int) -> "Tensor":
    """Test oracle: the former attention ops on [B * N, d] rows ``h``: a
    ``former_reshape`` to the grid that ``bias`` gives, one product per grid
    row and projection, :func:`former_attention`, and a ``former_reshape`` back."""
    b, n = bias.shape[0], bias.shape[-1]
    d = h.shape[-1]
    grid = former_reshape(h, (b, n, d))
    out = former_attention(*(former_matmul(grid, w) for w in (wq, wk, wv)), wo, bias, heads)
    return former_reshape(out, (b * n, d))


def former_attention_layer(model, layer: int, x, attn_bias, training: bool, rng, weights) -> "Tensor":
    """Test oracle: the former attention layer, 20 tape ops (its residual an
    ``add`` of a :func:`former_dropout`) and the two ``former_reshape`` records
    of :func:`former_attention_rows`, over the projections by the leaves
    ``weights`` (:func:`qkv_leaves`)."""
    from kgt import tensor as T

    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    h = T.layer_norm(x, p[prefix + "ln1_gain"], p[prefix + "ln1_bias"])
    out = former_attention_rows(h, *(weights[name] for name in QKV), p[prefix + "wo"], attn_bias, cfg.heads)
    return T.add(x, former_dropout(out, cfg.dropout, rng, training))


def former_moe_ffn(model, layer: int, x, training: bool, rng, rows, experts) -> "Tensor":
    """Test oracle: the former routed expert loop, ten tape ops per expert.

    Expert j runs on the leaves ``experts[j]`` (:func:`expert_leaves`): the
    input rows routed to it are gathered, its biases added by the broadcasting
    ``former_add``, its output scaled by ``former_mul`` with its ``[rows, 1]``
    gate weights, and scattered into the output by ``scatter_add_rows``, in
    expert order. The gate's softmax is the boolean-mask one.
    """
    from kgt import tensor as T
    from kgt.tensor import Tensor

    cfg = model.config
    p = model.params
    m = x.shape[0]
    flat = T.layer_norm(x, p[f"layer{layer}.ln2_gain"], p[f"layer{layer}.ln2_bias"])
    logits = T.matmul(flat, p[f"layer{layer}.gate"])
    selected = None
    if training and cfg.top_k < cfg.experts:
        selected = np.zeros_like(logits.data, dtype=bool)
        np.put_along_axis(selected, np.argsort(-logits.data, axis=-1, kind="stable")[:, : cfg.top_k], True, axis=-1)
    weights = former_softmax(logits) if selected is None else former_masked_softmax(logits, selected)
    rows = np.arange(m) if rows is None else rows
    combined = Tensor(np.zeros(x.shape, dtype=flat.dtype))
    flat_weights = former_reshape(weights, (m * cfg.experts, 1))
    for j, e in enumerate(experts):
        rows_j = rows if selected is None else rows[selected[rows, j]]
        inputs = T.gather_rows(flat, rows_j, unique=True)
        pre = former_add(T.matmul(inputs, e["w1"]), e["b1"])
        out_j = former_add(T.matmul(former_gelu(pre), e["w2"]), e["b2"])
        term = former_mul(out_j, T.gather_rows(flat_weights, rows_j * cfg.experts + j, unique=True))
        combined = scatter_add_rows(combined, term, rows_j)
    return T.add(x, former_dropout(combined, cfg.dropout, rng, training))


def padded_encode_subgraphs(subs, config) -> "Batch":
    """Test oracle: the former stage-1/stage-2 encoder, one graph per row padded to the widest."""
    from kgt.model import Batch
    from kgt.queries import FREE_SLOT

    width = max(s.levi.node_count for s in subs)
    b = len(subs)
    entity_ids = np.full((b, width), config.mask_id, dtype=np.int64)
    attn = np.zeros((b, 1, width, width), dtype=bool)
    attn[:, 0] |= np.eye(width, dtype=bool)
    positions = []
    targets = []
    for gi, sub in enumerate(subs):
        levi = sub.levi
        n, k = levi.node_count, levi.entity_node_count
        attn[gi, 0, :n, :n] = attention_mask(levi)
        for i in range(n):
            if i < k:
                if sub.inputs[i] != FREE_SLOT:
                    entity_ids[gi, i] = sub.inputs[i]
            else:
                entity_ids[gi, i] = config.mask_id + 1 + levi.triples[i - k, 1]
        for pos in sub.prediction_targets:
            positions.append(gi * width + pos)
            targets.append(int(levi.entities[pos]))
    return Batch(
        entity_ids=entity_ids,
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
    attn = np.zeros((b, 1, width, width), dtype=bool)
    attn[:, 0] |= np.eye(width, dtype=bool)
    for qi, q in enumerate(queries):
        levi = q.levi
        n, k = levi.node_count, levi.entity_node_count
        attn[qi, 0, :n, :n] = attention_mask(levi)
        for i in range(n):
            if i < k:
                if levi.entities[i] != FREE_SLOT:
                    entity_ids[qi, i] = levi.entities[i]
            else:
                entity_ids[qi, i] = config.mask_id + 1 + levi.triples[i - k, 1]
    return Batch(
        entity_ids=entity_ids,
        attn_mask=attn,
        positions=np.asarray([qi * width + q.target_index for qi, q in enumerate(queries)], dtype=np.int64),
        targets=np.zeros(b, dtype=np.int64),
        sizes=[q.levi.node_count for q in queries],
        graph_count=b,
    )


def dense_cross_entropy(logits, targets: np.ndarray, alpha: float = 0.0) -> "Tensor":
    """Test oracle: the former cross entropy against the dense [P, C] smoothed-label matrix."""
    from kgt.tensor import Tensor, _accumulate, _record

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


def _hand_built_meta_graph(entities, relations, heads_into, mask_positions):
    """Levi graph with one relation node per (head slot, relation, tail slot) triple."""
    from kgt.graph import LeviGraph
    from kgt.queries import FREE_SLOT
    from kgt.sampling import SampledSubgraph

    triples = [(head, r, tail) for (head, tail), r in zip(heads_into, relations)]
    levi = LeviGraph(np.array(entities, dtype=np.int64), np.array(triples, dtype=np.int64).reshape(-1, 3))
    inputs = levi.entities.copy()
    inputs[list(mask_positions)] = FREE_SLOT
    return SampledSubgraph(levi=levi, inputs=inputs, prediction_targets=(len(entities) - 1,))


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
    return _hand_built_meta_graph(entities, relations, links, tuple(range(1, length + 1)))


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
    return _hand_built_meta_graph(entities, [r for _, r in picked], links, (width,))


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

        for name, t in self.params.items():
            if t.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
        self.step_count += 1
        cfg = self.config
        lr_t = cfg.lr_at(epoch)
        bias1 = 1.0 - cfg.beta1**self.step_count
        bias2 = 1.0 - cfg.beta2**self.step_count
        for name, t in self.params.items():
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
    for name, t in params.items():
        if t.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
    total = 0.0
    scratch = np.empty(LOOP_BLOCK, dtype=np.float64)
    for t in params.values():
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


def former_add(a, b) -> "Tensor":
    """Test oracle: the former ``add``, which reduced a gradient for a constant operand too."""
    from kgt.tensor import Tensor, _accumulate, _record

    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(out, backward)


def former_mul(a, b) -> "Tensor":
    """Test oracle: the former ``mul``, which built a gradient for a constant operand too."""
    from kgt.tensor import Tensor, _accumulate, _record

    if not isinstance(b, Tensor):  # a constant scalar, in ``a``'s dtype
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _record(out, backward)


def former_gelu(a) -> "Tensor":
    """Test oracle: the former GELU, one temporary per operation."""
    from kgt.tensor import _GELU_COEFF, Tensor, _accumulate, _record

    x = a.data
    x2 = x * x
    th = np.tanh(_GELU_COEFF * (x + 0.044715 * (x2 * x)))
    out = Tensor(0.5 * x * (1.0 + th), requires_grad=a.requires_grad)

    def backward(g):
        sech2 = 1.0 - th * th
        d_inner = _GELU_COEFF * (1.0 + 3 * 0.044715 * x2)
        _accumulate(a, g * (0.5 * (1.0 + th) + 0.5 * x * sech2 * d_inner), owned=True)

    return _record(out, backward)


def former_layer_norm(a, gain, bias, eps: float = 1e-5) -> "Tensor":
    """Test oracle: the former layer norm, with ``x.var`` and one temporary per operation."""
    from kgt.tensor import Tensor, _accumulate, _record

    x = a.data
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    out = Tensor(
        xhat * gain.data + bias.data,
        requires_grad=a.requires_grad or gain.requires_grad or bias.requires_grad,
    )

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=reduce_axes) if reduce_axes else g * xhat, owned=True)
        _accumulate(bias, g.sum(axis=reduce_axes) if reduce_axes else g, owned=bool(reduce_axes))
        gx = g * gain.data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, inv_std * (gx - mean_gx - xhat * mean_gx_xhat), owned=True)

    return _record(out, backward)


def former_dropout(a, p: float, rng, training: bool) -> "Tensor":
    """Test oracle: the former ``kgt.tensor.dropout``, inverted dropout alone;
    the residual was a separate ``add``."""
    from kgt.tensor import Tensor, _accumulate, _record

    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs a random generator")
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    out = Tensor(a.data * keep, requires_grad=a.requires_grad)

    def backward(g):
        _accumulate(a, g * keep, owned=True)

    return _record(out, backward)


def former_residual_dropout(x, a, p: float, rng, training: bool) -> "Tensor":
    """``kgt.tensor.dropout``'s signature over the former ops: :func:`former_add`
    of ``x`` and the :func:`former_dropout` of ``a``, two records in training."""
    return former_add(x, former_dropout(a, p, rng, training))


def former_masked_softmax(a, mask: np.ndarray) -> "Tensor":
    """Test oracle: the former boolean-mask softmax, ``np.where`` and a row check on every call."""
    from kgt.tensor import Tensor, _accumulate, _record

    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    if not m.any(axis=-1).all():
        raise ValueError("masked_softmax row with every position masked")
    x = np.where(m, a.data, -np.inf)
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, requires_grad=a.requires_grad)

    def backward(g):
        _accumulate(a, p * (g - (g * p).sum(axis=-1, keepdims=True)), owned=True)

    return _record(out, backward)


def former_softmax(a) -> "Tensor":
    """Test oracle: the former softmax, a masked softmax with nothing masked."""
    return former_masked_softmax(a, np.ones(a.data.shape[-1], dtype=bool))


def former_gate_softmax(a, bias: np.ndarray | None = None) -> "Tensor":
    """``kgt.tensor.softmax``'s signature over the former boolean-mask softmax."""
    return former_softmax(a) if bias is None else former_masked_softmax(a, bias == 0)


FORMER_OPS = {
    "add": former_add,
    "layer_norm": former_layer_norm,
    "softmax": former_gate_softmax,
    "dropout": former_residual_dropout,
}
