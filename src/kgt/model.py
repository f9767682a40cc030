"""Masked graph transformer with mixture-of-experts feed-forward layers.

Nodes of a Levi graph attend only to their graph neighbors (plus themselves);
there are no positional encodings, the graph structure is the only geometry.
Each layer is Pre-LN residual: ``x + Drop(Attn(LN(x)))`` then
``x + Drop(MoE(LN(x)))``. The MoE block routes every node through its top-2
experts during training (softmax renormalized over the selected logits) and
through the full softmax mixture of all experts at inference; experts run on
real nodes only, never on padding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .graph import LeviGraph
from .optim import _arena, _mapped_zeros, parameter_arena
from .queries import FREE_SLOT, QueryGraph
from .sampling import Corruption, CorruptionKind, SampledSubgraph
from .tensor import Tensor


@dataclass
class ModelConfig:
    entity_count: int
    relation_count: int
    layers: int = 4
    hidden: int = 128
    heads: int = 4
    experts: int = 4
    top_k: int = 2
    expert_hidden: int | None = None  # defaults to 2 * hidden
    dropout: float = 0.1
    tie_decoder: bool = False

    def __post_init__(self):
        if self.entity_count < 1 or self.relation_count < 1:
            raise ValueError("entity and relation counts must be positive")
        if self.layers < 1:
            raise ValueError("layers must be at least 1")
        if self.hidden < 1 or self.hidden % self.heads != 0:
            raise ValueError(f"hidden ({self.hidden}) must be a positive multiple of heads ({self.heads})")
        if not 1 <= self.top_k <= self.experts:
            raise ValueError(f"need experts >= top_k >= 1, got {self.experts} and {self.top_k}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.expert_hidden is None:
            self.expert_hidden = 2 * self.hidden
        if self.expert_hidden < 1:
            raise ValueError("expert_hidden must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def mask_id(self) -> int:
        """Input id of the mask token (one past the last entity)."""
        return self.entity_count

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


def truncated_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std.

    Draws straight into a memory-mapped float64 array, so no heap block of
    its size is left behind. ``std * z + 0.0`` is ``rng.normal(0, std)``'s
    ``0 + std * z`` bit for bit, the sign of a zero draw included.
    """
    out = _mapped_zeros(math.prod(shape), np.float64).reshape(shape)
    rng.standard_normal(out=out)
    out *= std
    out += 0.0
    limit = 2.0 * std
    while True:
        bad = out > limit
        bad |= out < -limit
        n_bad = np.count_nonzero(bad)
        if n_bad == 0:
            return out.astype(dtype, copy=False)
        out[bad] = rng.normal(0.0, std, size=n_bad)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every parameter tensor, in initialization order."""
    d = config.hidden
    shapes: dict[str, tuple[int, ...]] = {
        # row entity_count is the mask token
        "entity_in": (config.entity_count + 1, d),
        "relation_in": (config.relation_count, d),
        "node_type": (2, d),  # row 0: relation nodes, row 1: entity nodes
        "final_ln_gain": (d,),
        "final_ln_bias": (d,),
    }
    if not config.tie_decoder:
        shapes["decoder"] = (config.entity_count, d)
    for i in range(config.layers):
        prefix = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            shapes[prefix + name] = (d, d)
        shapes[prefix + "ln1_gain"] = (d,)
        shapes[prefix + "ln1_bias"] = (d,)
        shapes[prefix + "ln2_gain"] = (d,)
        shapes[prefix + "ln2_bias"] = (d,)
        shapes[prefix + "gate"] = (d, config.experts)
        for j in range(config.experts):
            eprefix = f"{prefix}expert{j}."
            shapes[eprefix + "w1"] = (d, config.expert_hidden)
            shapes[eprefix + "b1"] = (config.expert_hidden,)
            shapes[eprefix + "w2"] = (config.expert_hidden, d)
            shapes[eprefix + "b2"] = (d,)
    return shapes


def init_parameters(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Truncated-normal weights (std 0.02), unit LN gains, zero biases, in one parameter arena."""
    params = parameter_arena(parameter_shapes(config), dtype)
    for name, t in params.items():
        if name.endswith("gain"):
            t.data.fill(1)
        elif name.endswith(("bias", "b1", "b2")):
            t.data.fill(0)
        else:
            t.data[...] = truncated_normal(rng, t.shape, 0.02, np.float64)  # cast on the write
    return params


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0, dtype=np.float32) -> "Model":
        rng = np.random.default_rng(seed)
        return cls(config=config, params=init_parameters(config, rng, dtype))

    def clone(self) -> "Model":
        """A copy in a new parameter arena, written with one copy of the flat data."""
        source, _ = _arena(self.params)
        params = parameter_arena({name: t.shape for name, t in self.params.items()}, source.dtype)
        _arena(params)[0][...] = source
        for name, t in params.items():
            t.requires_grad = self.params[name].requires_grad
        return Model(config=self.config, params=params)


@dataclass
class Batch:
    """Model input: graphs packed into the rows of a [R, N] node grid.

    A row holds one or more whole graphs end to end, so its real slots are a
    prefix of the row. ``attn_mask`` is block diagonal over the graphs of a
    row, and padding slots attend only to themselves. ``positions`` are flat
    indexes into the [R * N] grid, in graph order; padding never appears in
    them, so it touches neither the loss nor any gradient.
    """

    entity_ids: np.ndarray  # [R, N] int64, mask token at masked/padded slots
    relation_ids: np.ndarray  # [R, N] int64, zero at non-relation slots
    is_entity: np.ndarray  # [R, N] bool, padding counts as entity
    attn_mask: np.ndarray  # [R, 1, N, N] bool
    positions: np.ndarray  # [P] int64 flat prediction slots
    targets: np.ndarray  # [P] int64 true entity ids at those slots
    sizes: list[int]  # real slots per grid row; the rest of each row is padding
    graph_count: int  # graphs in the batch; a row may hold several


def _pack(
    levis: Sequence[LeviGraph],
    inputs: Sequence[dict[int, int]],
    slots: Sequence[Sequence[int]],
    targets: Sequence[int],
    mask_id: int,
) -> Batch:
    """Lay graphs out in a grid as rows of whole graphs.

    Graphs go first-fit decreasing by node count (a stable order, so graphs of
    equal size keep theirs) into rows as wide as the widest graph; each graph
    takes the slots right after the previous one in its row. Graphs of equal
    width therefore get one row each, in order.

    Entity nodes enter as their ids, variable slots and padding as the mask
    token, and relation nodes as their relation ids. ``inputs[g]`` overrides
    the input id of some of graph g's nodes; ``slots[g]`` are its prediction
    nodes, whose true ids ``targets`` lists in graph order.
    """
    if not levis:
        raise ValueError("empty batch")
    counts = [levi.node_count for levi in levis]
    width = max(counts)
    used: list[int] = []  # filled slots per row
    starts = [0] * len(levis)  # flat index of each graph's first slot
    for g in sorted(range(len(levis)), key=lambda i: -counts[i]):
        row = next((r for r, n in enumerate(used) if n + counts[g] <= width), len(used))
        if row == len(used):
            used.append(0)
        starts[g] = row * width + used[row]
        used[row] += counts[g]

    rows = len(used)
    entity_ids = np.full(rows * width, mask_id, dtype=np.int64)
    relation_ids = np.zeros(rows * width, dtype=np.int64)
    is_entity = np.ones(rows * width, dtype=bool)
    attn = np.zeros((rows, 1, width, width), dtype=bool)
    attn[:, 0] |= np.eye(width, dtype=bool)
    positions = []
    link_nodes, link_ends = [], []  # flat index of each relation node and of its head and tail
    for levi, start, n, overrides, predict in zip(levis, starts, counts, inputs, slots):
        k = start + levi.entity_node_count
        link_nodes.append(np.arange(k, start + n))
        link_ends.append(start + levi.triples[:, 0::2])
        np.copyto(entity_ids[start:k], levi.entities, where=levi.entities != FREE_SLOT)
        relation_ids[k : start + n] = levi.triples[:, 1]
        is_entity[k : start + n] = False
        for i, value in overrides.items():
            entity_ids[start + i] = value
        positions.extend(start + i for i in predict)
    # each relation node and its two ends attend to each other, as in LeviGraph.attention_mask
    nodes = np.concatenate(link_nodes)[:, None]
    ends = np.concatenate(link_ends) % width
    row, col = nodes // width, nodes % width
    attn[row, 0, col, ends] = True
    attn[row, 0, ends, col] = True
    return Batch(
        entity_ids=entity_ids.reshape(rows, width),
        relation_ids=relation_ids.reshape(rows, width),
        is_entity=is_entity.reshape(rows, width),
        attn_mask=attn,
        positions=np.asarray(positions, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
        sizes=used,
        graph_count=len(levis),
    )


def _masked_input_id(original: int, corruption: Corruption, mask_id: int) -> int:
    if corruption.kind is CorruptionKind.MASK:
        return mask_id
    if corruption.kind is CorruptionKind.KEEP:
        return original
    return int(corruption.replacement)


def encode_subgraphs(subs: Sequence[SampledSubgraph], config: ModelConfig) -> Batch:
    """Pack masked subgraphs into one batch."""
    inputs = [
        {i: _masked_input_id(int(sub.levi.entities[i]), c, config.mask_id) for i, c in sub.corruption.items()}
        for sub in subs
    ]
    slots = [sub.prediction_targets for sub in subs]
    targets = [int(sub.levi.entities[i]) for sub in subs for i in sub.prediction_targets]
    return _pack([s.levi for s in subs], inputs, slots, targets, config.mask_id)


def encode_queries(
    queries: Sequence[QueryGraph],
    config: ModelConfig,
    predict: str = "target",
    fill: int | None = None,
) -> Batch:
    """Pack query graphs into one batch.

    Anchors enter as their entity ids; intermediates and the target enter as
    mask tokens. ``predict`` chooses the scored slots: the target node
    ("target") or every intermediate node ("intermediates"). ``fill`` clamps
    the target slot to a concrete entity instead of the mask token.
    """
    if predict not in ("target", "intermediates"):
        raise ValueError(f"unknown predict mode {predict!r}")
    if predict == "target":
        slots = [(q.target_index,) for q in queries]
    else:
        slots = [q.intermediate_indexes for q in queries]
        for q in queries:
            if not q.intermediate_indexes:
                raise ValueError(f"{q.query_type.value} query has no intermediate nodes")
    inputs = [{} if fill is None else {q.target_index: int(fill)} for q in queries]
    targets = np.zeros(sum(len(s) for s in slots), dtype=np.int64)
    return _pack([q.levi for q in queries], inputs, slots, targets, config.mask_id)


def attention_layer(
    model: Model,
    layer: int,
    x: Tensor,
    attn_mask: np.ndarray,
    training: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    """Pre-LN multi-head attention restricted to graph neighbors."""
    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    b, n, d = x.shape
    h = T.layer_norm(x, p[prefix + "ln1_gain"], p[prefix + "ln1_bias"])

    def split_heads(m: Tensor) -> Tensor:
        m = T.reshape(m, (b, n, cfg.heads, cfg.head_dim))
        return T.transpose(m, (0, 2, 1, 3))

    q = split_heads(T.matmul(h, p[prefix + "wq"]))
    k = split_heads(T.matmul(h, p[prefix + "wk"]))
    v = split_heads(T.matmul(h, p[prefix + "wv"]))
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(cfg.head_dim))
    probs = T.masked_softmax(scores, attn_mask)
    context = T.matmul(probs, v)
    context = T.reshape(T.transpose(context, (0, 2, 1, 3)), (b, n, d))
    out = T.matmul(context, p[prefix + "wo"])
    return T.add(x, T.dropout(out, cfg.dropout, rng, training))


def moe_ffn(
    model: Model,
    layer: int,
    x: Tensor,
    training: bool,
    rng: np.random.Generator | None,
    rows: np.ndarray | None = None,
) -> Tensor:
    """Mixture-of-experts feed-forward block.

    Training routes each node through its top-2 gate logits (ties broken
    toward the lower expert index) with the softmax renormalized over the
    selected logits; inference mixes all experts under the full softmax. With
    two experts the two paths coincide exactly.

    ``rows`` are the flat indexes of the real nodes in the [B * N] grid (all
    of them when None). Each expert runs only on the real nodes routed to it,
    so the block adds exactly 0 at padding slots.
    """
    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    b, n, d = x.shape
    h = T.layer_norm(x, p[prefix + "ln2_gain"], p[prefix + "ln2_bias"])
    flat = T.reshape(h, (b * n, d))
    gate_logits = T.matmul(flat, p[prefix + "gate"])
    if rows is None:
        rows = np.arange(b * n)

    selected = None
    if training and cfg.top_k < cfg.experts:
        order = np.argsort(-gate_logits.data, axis=-1, kind="stable")
        selected = np.zeros_like(gate_logits.data, dtype=bool)
        np.put_along_axis(selected, order[:, : cfg.top_k], True, axis=-1)
        weights = T.masked_softmax(gate_logits, selected)
    else:
        weights = T.softmax(gate_logits)

    # Experts run in index order and each adds into the rows it serves, so a
    # node sums exactly the terms of a dense mix whose unselected terms are 0.
    # An expert with no rows still runs, on an empty batch, so that each of
    # its parameters gets a zero gradient and AdamW keeps decaying it.
    combined = Tensor(np.zeros((b * n, d), dtype=flat.dtype))
    for j in range(cfg.experts):
        eprefix = f"{prefix}expert{j}."
        rows_j = rows if selected is None else rows[selected[rows, j]]
        inputs = T.gather_rows(flat, rows_j, unique=True)
        pre = T.add(T.matmul(inputs, p[eprefix + "w1"]), p[eprefix + "b1"])
        out_j = T.add(T.matmul(T.gelu(pre), p[eprefix + "w2"]), p[eprefix + "b2"])
        term = T.mul(out_j, T.gather_rows(T.slice_last(weights, j, j + 1), rows_j, unique=True))
        combined = T.scatter_add_rows(combined, term, rows_j)
    out = T.reshape(combined, (b, n, d))
    return T.add(x, T.dropout(out, cfg.dropout, rng, training))


def decoder_matrix(model: Model) -> Tensor:
    """The [V, d] output table, either its own parameter or the tied entity rows."""
    if model.config.tie_decoder:
        return T.gather_rows(model.params["entity_in"], np.arange(model.config.entity_count))
    return model.params["decoder"]


def forward(
    model: Model,
    batch: Batch,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the transformer and score entities at the batch's prediction slots.

    Returns [P, entity_count] logits, one row per entry of ``batch.positions``.
    """
    cfg = model.config
    p = model.params
    b, n = batch.entity_ids.shape
    flat_entity = batch.entity_ids.reshape(-1)
    flat_relation = batch.relation_ids.reshape(-1)
    flat_is_entity = batch.is_entity.reshape(-1)

    ent = T.gather_rows(p["entity_in"], flat_entity)
    rel = T.gather_rows(p["relation_in"], flat_relation)
    x = T.where(flat_is_entity[:, None], ent, rel)
    x = T.add(x, T.gather_rows(p["node_type"], flat_is_entity.astype(np.int64)))
    x = T.reshape(x, (b, n, cfg.hidden))

    # padding slots attend only to themselves and are never scored
    real_rows = np.flatnonzero(np.arange(n) < np.asarray(batch.sizes)[:, None])
    for layer in range(cfg.layers):
        x = attention_layer(model, layer, x, batch.attn_mask, training, rng)
        x = moe_ffn(model, layer, x, training, rng, real_rows)

    x = T.layer_norm(x, p["final_ln_gain"], p["final_ln_bias"])
    states = T.gather_rows(T.reshape(x, (b * n, cfg.hidden)), batch.positions, unique=True)
    return T.matmul(states, T.transpose(decoder_matrix(model), (1, 0)))

