"""Masked graph transformer with mixture-of-experts feed-forward layers.

Nodes of a Levi graph attend only to their graph neighbors (plus themselves);
there are no positional encodings, the graph structure is the only geometry.
Each layer is Pre-LN residual: ``x + Drop(Attn(LN(x)))`` then
``x + Drop(MoE(LN(x)))``. The MoE block routes every node through its top-2
experts during training (softmax renormalized over the selected logits) and
through the full softmax mixture of all experts at inference. Only the masked
or target nodes are scored, and with L layers a node's scores read only nodes
at most L hops away, so each layer runs only on the nodes whose output can
still reach a scored node (:func:`field_rows`), never on padding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .graph import LeviGraph
from .optim import _BLOCK, _arena, parameter_arena
from .queries import FREE_SLOT, QueryGraph
from .sampling import SampledSubgraph
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
        for name in ("entity_count", "relation_count", "layers", "hidden", "heads", "experts", "top_k", "expert_hidden"):
            if type(getattr(self, name)) is not int and not (name == "expert_hidden" and self.expert_hidden is None):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")  # a bool is not one
        if type(self.tie_decoder) is not bool:
            raise ValueError(f"tie_decoder must be true or false, got {self.tie_decoder!r}")
        if self.entity_count < 1 or self.relation_count < 1:
            raise ValueError("entity and relation counts must be positive")
        if self.layers < 1:
            raise ValueError("layers must be at least 1")
        if self.heads < 1 or self.hidden < 1 or self.hidden % self.heads != 0:
            raise ValueError(f"need heads >= 1 and hidden a positive multiple of heads, got {self.heads} and {self.hidden}")
        if not 1 <= self.top_k <= self.experts:
            raise ValueError(f"need experts >= top_k >= 1, got {self.experts} and {self.top_k}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.expert_hidden is None:
            self.expert_hidden = 2 * self.hidden
        if self.expert_hidden < 1:
            raise ValueError("expert_hidden must be positive")

    @property
    def mask_id(self) -> int:
        """Input id of the mask token (one past the last entity); relation r enters as ``mask_id + 1 + r``."""
        return self.entity_count

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


def truncated_normal(rng: np.random.Generator, out: np.ndarray, std: float) -> None:
    """Fill ``out`` with Normal(0, std) draws, each redrawn until it lies within 2 std.

    ``out`` starts as NaN. Each pass draws its NaNs in C order, whole rows and
    at most ``_BLOCK`` values at a time through one float64 scratch array, and
    writes out-of-range draws as NaN again: ``rng.normal``'s stream, bit for bit.
    """
    rows = np.atleast_1d(out)  # a view: a 0-d ``out`` is one row
    step = max(1, _BLOCK // max(1, rows[:1].size))
    scratch = np.empty(rows[:step].size)
    out.fill(np.nan)
    pending = True
    while pending:
        pending = False
        for i in range(0, len(rows), step):
            todo = np.isnan(rows[i : i + step])
            z = scratch[: np.count_nonzero(todo)]
            rng.standard_normal(out=z)
            z *= std
            z += 0.0  # std * z + 0.0 rounds as rng.normal's 0 + std * z, the sign of a zero included
            z[np.abs(z) > 2.0 * std] = np.nan
            rows[i : i + step][todo] = z
            pending = pending or bool(np.isnan(z).any())


def parameter_table(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float | None]]:
    """Name, shape and init of every parameter tensor, in arena order.

    An init is a fill value, or None for one ``truncated_normal`` draw (std
    0.02) over the whole tensor; the draws follow one another in arena order.
    """
    d, h, e = config.hidden, config.expert_hidden, config.experts

    def norm(name: str):  # a layer norm's gain and bias
        return (name + "_gain", (d,), 1.0), (name + "_bias", (d,), 0.0)

    table = [
        # one row per input id: the entities, the mask token, then the relations
        ("embedding", (config.mask_id + 1 + config.relation_count, d), None),
        ("node_type", (2, d), None),  # row 0: relation nodes, row 1: entity nodes
        *norm("final_ln"),
    ]
    if not config.tie_decoder:
        table.append(("decoder", (config.entity_count, d), None))
    for i in range(config.layers):
        p = f"layer{i}."
        table += [
            (p + "wqkv", (d, 3 * d), None),  # [wq | wk | wv]
            (p + "wo", (d, d), None),
            *norm(p + "ln1"),
            *norm(p + "ln2"),
            (p + "gate", (d, e), None),
            # expert j at index j
            (p + "experts.w1", (e, d, h), None),
            (p + "experts.b1", (e, h), 0.0),
            (p + "experts.w2", (e, h, d), None),
            (p + "experts.b2", (e, d), 0.0),
        ]
    return table


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every parameter tensor, in arena order."""
    return {name: shape for name, shape, _ in parameter_table(config)}


def init_parameters(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """A new parameter arena, initialized row by row as :func:`parameter_table` says."""
    params = parameter_arena(parameter_shapes(config), dtype)
    for name, _, init in parameter_table(config):
        if init is None:
            truncated_normal(rng, params[name].data, 0.02)
        else:
            params[name].data.fill(init)
    return params


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "Model":
        rng = np.random.default_rng(seed)
        return cls(config=config, params=init_parameters(config, rng))

    def clone(self) -> "Model":
        """A copy in a new parameter arena, written with one copy of the flat data."""
        source, _ = _arena(self.params)
        params = parameter_arena({name: t.shape for name, t in self.params.items()}, source.dtype)
        _arena(params)[0][...] = source
        return Model(config=self.config, params=params)


@dataclass
class Batch:
    """Model input: graphs packed into the rows of a [R, N] node grid.

    A row holds one or more whole graphs end to end, so its real slots are a
    prefix of the row. ``edges`` are the Levi graphs' edges at their flat grid
    slots, which attention follows both ways; every slot attends to itself,
    so padding, on no edge, attends only to itself. ``positions`` are flat
    indexes into the [R * N] grid, in graph order; padding never appears in
    them, so it touches neither the loss nor any gradient.
    """

    entity_ids: np.ndarray  # [R, N] int64 embedding rows, mask token at masked/padded slots
    edges: np.ndarray  # [2T, 2] int64 flat slots: (relation node, head), (relation node, tail) per relation node
    positions: np.ndarray  # [P] int64 flat prediction slots
    targets: np.ndarray  # [P] int64 true entity ids at those slots
    sizes: list[int]  # real slots per grid row; the rest of each row is padding
    graph_count: int  # graphs in the batch; a row may hold several


def _pack(
    levis: Sequence[LeviGraph],
    inputs: Sequence[np.ndarray],
    slots: Sequence[Sequence[int]],
    targets: Sequence[int],
    mask_id: int,
) -> Batch:
    """Lay graphs out in a grid as rows of whole graphs.

    Graphs go first-fit decreasing by node count (a stable order, so graphs of
    equal size keep theirs) into rows as wide as the widest graph; each graph
    takes the slots right after the previous one in its row. Graphs of equal
    width therefore get one row each, in order.

    ``inputs[g]`` holds the input id of each of graph g's entity nodes, with
    ``FREE_SLOT`` for the mask token; padding enters as the mask token and a
    node of relation r as ``mask_id + 1 + r``. ``slots[g]`` are graph g's
    prediction nodes, whose true ids ``targets`` lists in graph order. The
    edges pair each relation node's slot with its head's and its tail's.
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
    positions = []
    link_nodes, link_ends = [], []  # flat index of each relation node and of its head and tail
    for levi, start, n, ids, predict in zip(levis, starts, counts, inputs, slots):
        k = start + levi.entity_node_count
        link_nodes.append(np.arange(k, start + n))
        link_ends.append(start + levi.triples[:, 0::2])
        np.copyto(entity_ids[start:k], ids, where=ids != FREE_SLOT)
        entity_ids[k : start + n] = levi.triples[:, 1] + (mask_id + 1)
        positions.extend(start + i for i in predict)
    return Batch(
        entity_ids=entity_ids.reshape(rows, width),
        edges=np.stack([np.repeat(np.concatenate(link_nodes), 2), np.concatenate(link_ends).reshape(-1)], axis=1),
        positions=np.asarray(positions, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
        sizes=used,
        graph_count=len(levis),
    )


def encode_subgraphs(subs: Sequence[SampledSubgraph], config: ModelConfig) -> Batch:
    """Pack masked subgraphs into one batch."""
    slots = [sub.prediction_targets for sub in subs]
    targets = [int(sub.levi.entities[i]) for sub in subs for i in sub.prediction_targets]
    return _pack([s.levi for s in subs], [s.inputs for s in subs], slots, targets, config.mask_id)


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
    if fill is not None and not 0 <= fill < config.entity_count:
        raise ValueError(f"fill entity {fill} is outside 0..{config.entity_count - 1}")
    if predict == "target":
        slots = [(q.target_index,) for q in queries]
    else:
        slots = [q.intermediate_indexes for q in queries]
        for q in queries:
            if not q.intermediate_indexes:
                raise ValueError(f"{q.query_type.value} query has no intermediate nodes")
    inputs = [q.levi.entities for q in queries]
    if fill is not None:
        inputs = [ids.copy() for ids in inputs]
        for q, ids in zip(queries, inputs):
            ids[q.target_index] = fill
    targets = np.zeros(sum(len(s) for s in slots), dtype=np.int64)
    return _pack([q.levi for q in queries], inputs, slots, targets, config.mask_id)


def attention_layer(
    model: Model,
    layer: int,
    x: Tensor,
    plan: T.AttentionPlan,
    training: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    """Pre-LN multi-head attention restricted to graph neighbors.

    ``x`` holds the [K, d] node states at the key rows of ``plan``
    (:func:`kgt.tensor.attention_plan`), and ``plan.queries`` the indexes,
    among them, of the rows the layer keeps. Every row is normalized and
    gives a key and a value; the attention, the residual and its dropout run
    at the query rows alone, so the layer returns their [Q, d] states.
    """
    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    h = T.layer_norm(x, p[prefix + "ln1_gain"], p[prefix + "ln1_bias"])
    out = T.attention(h, p[prefix + "wqkv"], p[prefix + "wo"], plan, cfg.heads)
    return T.dropout(T.gather_rows(x, plan.queries), out, cfg.dropout, rng, training)


def moe_ffn(model: Model, layer: int, x: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Mixture-of-experts feed-forward block on the [M, d] node states ``x``.

    Training routes each node through its top-2 gate logits (ties broken
    toward the lower expert index) with the softmax renormalized over the
    selected logits; inference mixes all experts under the full softmax. With
    two experts the two paths coincide exactly. Each expert runs only on the
    rows routed to it; in :func:`forward` the rows are the layer's field,
    which holds no padding.
    """
    cfg = model.config
    p = model.params
    prefix = f"layer{layer}."
    h = T.layer_norm(x, p[prefix + "ln2_gain"], p[prefix + "ln2_bias"])
    gate_logits = T.matmul(h, p[prefix + "gate"])

    selected = bias = None
    if training and cfg.top_k < cfg.experts:
        order = np.argsort(-gate_logits.data, axis=-1, kind="stable")
        selected = np.zeros_like(gate_logits.data, dtype=bool)
        np.put_along_axis(selected, order[:, : cfg.top_k], True, axis=-1)
        bias = T.mask_bias(selected)
    weights = T.softmax(gate_logits, bias)

    # Expert j serves the rows whose routing weight for it is live; an expert
    # with no rows still takes part, so that it gets zero gradients
    every = np.arange(len(h.data))
    routes = [every if selected is None else np.flatnonzero(selected[:, j]) for j in range(cfg.experts)]
    stacked = (p[prefix + "experts." + name] for name in ("w1", "b1", "w2", "b2"))
    combined = T.moe_experts(h, weights, *stacked, routes)
    return T.dropout(x, combined, cfg.dropout, rng, training)


def decoder_matrix(model: Model) -> Tensor:
    """The [V, d] output table, either its own parameter or the tied entity rows of the embedding."""
    if model.config.tie_decoder:
        return T.gather_rows(model.params["embedding"], np.arange(model.config.entity_count))
    return model.params["decoder"]


def field_rows(batch: Batch, layers: int) -> list[np.ndarray]:
    """For each of ``layers`` layers, the ascending flat rows whose output of that layer can reach a scored slot.

    The last layer's field is the rows of ``batch.positions``; each field
    before adds one step of a frontier walk along ``batch.edges``, both ways,
    so it holds the next. Padding is on no edge and is never scored, so no
    field holds it. ``field_rows(batch, layers + 1)[0]`` are the rows whose
    input can reach a scored slot: in a 3p query the anchor and its relation
    node lie 6 and 5 hops from the target, past the reach of 4 layers.
    """
    reach = np.zeros(batch.entity_ids.size, dtype=bool)
    reach[batch.positions] = True
    fields = [np.flatnonzero(reach)]
    for _ in range(layers - 1):
        step = reach[batch.edges][:, ::-1]  # an edge's end is reached where its other end was, before this step
        reach[batch.edges[step]] = True
        fields.append(np.flatnonzero(reach))
    return fields[::-1]


def forward(
    model: Model,
    batch: Batch,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the transformer and score entities at the batch's prediction slots.

    Returns [P, entity_count] logits, one row per entry of ``batch.positions``.
    The node states are the rows of the grid that can still reach a score,
    ``fields = field_rows(batch, layers + 1)``: the input gathers take the rows
    of ``fields[0]``, and layer l turns the states of ``fields[l]`` into those
    of ``fields[l + 1]``, a [rows, d] array that shrinks layer by layer. Only
    attention sees the grid, through each layer's :func:`kgt.tensor.attention_plan`
    of the batch's edges and its two fields. The final layer norm runs on the
    prediction rows, gathered in ``positions`` order.
    """
    cfg = model.config
    p = model.params
    fields = field_rows(batch, cfg.layers + 1)
    ids = batch.entity_ids.reshape(-1)[fields[0]]
    is_entity = (ids <= cfg.mask_id).astype(np.int64)  # relation rows follow the mask token's
    x = T.add(T.gather_rows(p["embedding"], ids), T.gather_rows(p["node_type"], is_entity))

    for layer in range(cfg.layers):
        plan = T.attention_plan(batch.edges, batch.entity_ids.shape, fields[layer], fields[layer + 1])
        x = attention_layer(model, layer, x, plan, training, rng)
        x = moe_ffn(model, layer, x, training, rng)

    states = T.gather_rows(x, np.searchsorted(fields[-1], batch.positions))
    states = T.layer_norm(states, p["final_ln_gain"], p["final_ln_bias"])
    return T.decode(states, decoder_matrix(model))
