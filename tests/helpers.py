"""Shared fixtures: deterministic toy datasets sized for fast training."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

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


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@contextmanager
def one_blas_thread_pool(workers: int):
    """A pool of ``workers`` fresh (spawned) processes, each with one BLAS thread.

    OpenBLAS rounds some products differently at other thread counts, so a
    result that is pinned or compared bit for bit runs here, where it does not
    depend on the machine's cores. The thread variables are set before a
    worker imports numpy, and stay set while the pool can start one.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in BLAS_THREAD_VARS:
            patch.setenv(name, "1")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
        try:
            yield pool
        finally:
            pool.shutdown(cancel_futures=True)


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
    return KnowledgeGraph(linked + isolated, relations, triples)


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


def former_attention_layer(model, layer: int, x, plan, training: bool, rng, weights) -> "Tensor":
    """Test oracle: the former attention layer, 20 tape ops (its residual an
    ``add`` of a :func:`former_dropout`) and the two ``former_reshape`` records
    of :func:`former_attention_rows`, over the projections by the leaves
    ``weights`` (:func:`qkv_leaves`). It runs on every slot of the grid, each
    a key and a query row, so the plan's slot bias is the [B, N, N] grid bias."""
    from kgt import tensor as T

    every = np.arange(x.shape[0])
    assert all(np.array_equal(a, every) for a in (plan.rows, plan.queries, plan.key_slot, plan.query_slot))
    attn_bias = plan.bias[:, None]

    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    h = T.layer_norm(x, p[prefix + "ln1_gain"], p[prefix + "ln1_bias"])
    out = former_attention_rows(h, *(weights[name] for name in QKV), p[prefix + "wo"], attn_bias, cfg.heads)
    return T.add(x, former_dropout(out, cfg.dropout, rng, training))


def former_moe_ffn(model, layer: int, x, training: bool, rng, experts) -> "Tensor":
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
    rows = np.arange(m)
    flat = T.layer_norm(x, p[f"layer{layer}.ln2_gain"], p[f"layer{layer}.ln2_bias"])
    logits = T.matmul(flat, p[f"layer{layer}.gate"])
    selected = None
    if training and cfg.top_k < cfg.experts:
        selected = np.zeros_like(logits.data, dtype=bool)
        np.put_along_axis(selected, np.argsort(-logits.data, axis=-1, kind="stable")[:, : cfg.top_k], True, axis=-1)
    weights = former_softmax(logits) if selected is None else former_masked_softmax(logits, selected)
    combined = Tensor(np.zeros(x.shape, dtype=flat.dtype))
    flat_weights = former_reshape(weights, (m * cfg.experts, 1))
    for j, e in enumerate(experts):
        rows_j = rows if selected is None else rows[selected[rows, j]]
        inputs = T.gather_rows(flat, rows_j)
        pre = former_add(T.matmul(inputs, e["w1"]), e["b1"])
        out_j = former_add(T.matmul(former_gelu(pre), e["w2"]), e["b2"])
        term = former_mul(out_j, T.gather_rows(flat_weights, rows_j * cfg.experts + j))
        combined = scatter_add_rows(combined, term, rows_j)
    return T.add(x, former_dropout(combined, cfg.dropout, rng, training))


def padded_rows(sizes, width) -> np.ndarray:
    """Flat indexes of the real slots of a [len(sizes), width] grid."""
    return np.flatnonzero(np.arange(width) < np.asarray(sizes)[:, None])


def real_rows_field(batch, layers: int) -> list[np.ndarray]:
    """Test oracle: every real slot of the grid as the field of every layer.

    Patched over ``kgt.model.field_rows``, it makes ``forward`` run every op of
    every layer on all real rows, as the forward before the fields did.
    """
    return [padded_rows(batch.sizes, batch.entity_ids.shape[1])] * layers


def levi_edges(levis, starts) -> np.ndarray:
    """The [2T, 2] edges of Levi graphs whose first slots are the flat grid slots ``starts``: each relation
    node with its head, then with its tail, node by node, graph by graph."""
    edges = []
    for levi, start in zip(levis, starts):
        for j, (head, _, tail) in enumerate(levi.triples.tolist()):
            node = start + levi.entity_node_count + j
            edges += [(node, start + head), (node, start + tail)]
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def grid_mask(levis, starts, shape) -> np.ndarray:
    """Test oracle: the former packed attention mask, [R, 1, N, N] bool over a ``shape`` grid: every slot attends
    to itself, and graph g's :func:`attention_mask` is the block at its first flat slot ``starts[g]``."""
    rows, width = shape
    mask = np.zeros((rows, 1, width, width), dtype=bool)
    mask[:, 0] |= np.eye(width, dtype=bool)
    for levi, start in zip(levis, starts):
        r, c = divmod(start, width)
        mask[r, 0, c : c + levi.node_count, c : c + levi.node_count] = attention_mask(levi)
    return mask


def pairs_mask(pairs, shape) -> np.ndarray:
    """Test oracle: the [R, 1, N, N] mask of a ``shape`` grid where each pair of flat slots attends both ways
    and every slot to itself."""
    rows, width = shape
    mask = np.zeros((rows, 1, width, width), dtype=bool)
    mask[:, 0] |= np.eye(width, dtype=bool)
    for a, b in np.asarray(pairs).tolist():
        (r, i), j = divmod(a, width), b % width
        assert b // width == r, "a pair across grid rows"
        mask[r, 0, i, j] = mask[r, 0, j, i] = True
    return mask


def grid_field_rows(mask, positions, layers: int) -> list[np.ndarray]:
    """Test oracle: the former ``kgt.model.field_rows``, one ``einsum`` over the [R, 1, N, N] mask per layer,
    query to key."""
    mask = mask[:, 0]
    reach = np.zeros(mask.shape[:2], dtype=bool)
    reach.reshape(-1)[positions] = True
    fields = [np.flatnonzero(reach)]
    for _ in range(layers - 1):
        reach = np.einsum("rij,ri->rj", mask, reach)
        fields.append(np.flatnonzero(reach))
    return fields[::-1]


def grid_plan(bias, rows, queries) -> "AttentionPlan":
    """Test oracle: the former per-call layout of ``kgt.tensor.attention`` as a plan: the key rows at the flat
    grid slots ``rows`` and the query rows at their indexes ``queries`` laid out per used grid row (``np.unique``
    and two slot counts), and the slot bias taken out of the [B, 1, N, N] grid bias ``bias`` with one ``take``,
    an empty key slot masked and an empty query slot at the column of its grid row's first key."""
    from kgt.tensor import AttentionPlan

    def slots(grid_rows, used, least=1):
        counts = np.bincount(grid_rows, minlength=used)
        width = max(least, int(counts.max()))
        starts = np.cumsum(counts) - counts
        return grid_rows * width + np.arange(len(grid_rows)) - starts[grid_rows], width

    n = bias.shape[-1]
    used, key_row = np.unique(rows // n, return_inverse=True)
    g = len(used)
    key_slot, nk = slots(key_row, g)
    query_slot, nq = slots(key_row[queries], g, min(2, nk))
    key_col = np.zeros(g * nk, dtype=np.int64)
    key_col[key_slot] = rows % n
    query_col = np.repeat(key_col[::nk], nq)
    query_col[query_slot] = rows[queries] % n
    empty_key = np.full(g * nk, -np.inf, dtype=np.float32)
    empty_key[key_slot] = 0.0
    index = (used[:, None, None] * n + query_col.reshape(g, nq, 1)) * n + key_col.reshape(g, 1, nk)
    slot_bias = bias.reshape(-1).take(index)
    slot_bias += empty_key.reshape(g, 1, nk)
    return AttentionPlan(rows, queries, key_slot, query_slot, slot_bias)


def padded_encode_subgraphs(subs, config) -> "Batch":
    """Test oracle: the former stage-1/stage-2 encoder, one graph per row padded to the widest."""
    from kgt.model import Batch
    from kgt.queries import FREE_SLOT

    width = max(s.levi.node_count for s in subs)
    b = len(subs)
    entity_ids = np.full((b, width), config.mask_id, dtype=np.int64)
    positions = []
    targets = []
    for gi, sub in enumerate(subs):
        levi = sub.levi
        n, k = levi.node_count, levi.entity_node_count
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
        edges=levi_edges([s.levi for s in subs], [gi * width for gi in range(b)]),
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
    for qi, q in enumerate(queries):
        levi = q.levi
        n, k = levi.node_count, levi.entity_node_count
        for i in range(n):
            if i < k:
                if levi.entities[i] != FREE_SLOT:
                    entity_ids[qi, i] = levi.entities[i]
            else:
                entity_ids[qi, i] = config.mask_id + 1 + levi.triples[i - k, 1]
    return Batch(
        entity_ids=entity_ids,
        edges=levi_edges([q.levi for q in queries], [qi * width for qi in range(b)]),
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
        lr_t = cfg.lr * cfg.lr_decay**epoch
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
