import itertools
import json
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import kgt.model
from kgt.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from kgt.errors import CheckpointError
from kgt.model import (
    Batch,
    Model,
    ModelConfig,
    decoder_matrix,
    encode_queries,
    encode_subgraphs,
    field_rows,
    forward,
    init_parameters,
    moe_ffn,
    parameter_shapes,
    parameter_table,
    truncated_normal,
)
from kgt.queries import FREE_SLOT, QueryType, build_query, dnf_decompose, generate_queries
from kgt.sampling import SampledSubgraph, sample_meta_graph, sample_stage1_batch
from kgt import gradcheck
from kgt import tensor as T
from kgt.optim import _BLOCK, AdamW, AdamWConfig, clip_global_norm
from kgt.tensor import Tape, Tensor, cross_entropy

from equivalence import RECORDS, check, step, tiny_config, toy_batches, toy_stage1
from helpers import grid_field_rows, grid_mask, grid_plan, levi_edges, padded_rows, pairs_mask, toy_split


class TestParameters:
    def test_shapes(self):
        cfg = tiny_config()
        shapes = parameter_shapes(cfg)
        assert shapes["embedding"] == (25, 16)  # 20 entities, the mask token, 4 relations
        assert shapes["node_type"] == (2, 16)
        assert shapes["decoder"] == (20, 16)
        assert shapes["layer0.gate"] == (16, 4)
        assert shapes["layer1.experts.w1"] == (4, 16, 32)
        assert shapes["layer1.experts.b1"] == (4, 32)
        assert shapes["layer1.experts.w2"] == (4, 32, 16)
        assert shapes["layer1.experts.b2"] == (4, 16)
        assert shapes["layer1.wqkv"] == (16, 48)
        per_layer = [k for k in shapes if k.startswith("layer0.")]
        assert len(per_layer) == 2 + 4 + 1 + 4
        assert per_layer[:2] == ["layer0.wqkv", "layer0.wo"]
        # the stacked experts follow the gate
        assert per_layer[-5:] == ["layer0.gate"] + [f"layer0.experts.{name}" for name in ("w1", "b1", "w2", "b2")]
        assert len(shapes) == 5 + 2 * 11

    def test_tied_decoder_has_no_decoder_param(self):
        shapes = parameter_shapes(tiny_config(tie_decoder=True))
        assert "decoder" not in shapes

    def test_expert_width_count_tradeoff(self):
        # E experts of hidden 2d carry the same expert weight volume as
        # E/2 experts of hidden 4d
        d = 16
        wide = parameter_shapes(tiny_config(experts=2, top_k=2, expert_hidden=4 * d))
        narrow = parameter_shapes(tiny_config(experts=4, top_k=2, expert_hidden=2 * d))

        def expert_weights(shapes):
            return sum(
                int(np.prod(s))
                for k, s in shapes.items()
                if ".expert" in k and (k.endswith("w1") or k.endswith("w2"))
            )

        assert expert_weights(wide) == expert_weights(narrow)

    def test_init_statistics(self):
        cfg = tiny_config()
        params = init_parameters(cfg, np.random.default_rng(0))
        for name, t in params.items():
            if name.endswith("gain"):
                assert np.array_equal(t.data, np.ones_like(t.data))
            elif name.endswith(("bias", "b1", "b2")):
                assert np.array_equal(t.data, np.zeros_like(t.data))
            else:
                assert np.abs(t.data).max() <= 0.04 + 1e-7  # 2 sigma of 0.02
                assert t.data.std() > 0.005

    def test_truncated_normal_respects_bound(self):
        draws = np.empty(200_000)
        truncated_normal(np.random.default_rng(1), draws, 0.02)
        assert np.abs(draws).max() <= 0.04
        assert abs(draws.mean()) < 1e-3

    def test_truncated_normal_matches_heap_oracle_bit_for_bit(self):
        # a float64 destination, as gradcheck's init_parameters(..., dtype=np.float64) draws, and a float32 one
        for dtype in (np.float64, np.float32):
            for shape, std, seed in [((51, 16), 0.02, 3), ((20_001, 128), 0.02, 4), ((7,), 1.0, 5), ((), 0.5, 6)]:
                check("truncated_normal/heap-draw", shape=shape, std=std, seed=seed, dtype=dtype)

    def test_truncated_normal_matches_heap_oracle_over_many_redraw_rounds(self):
        for dtype in (np.float64, np.float32):
            check("truncated_normal/heap-draw", shape=(300, 1000), std=0.02, seed=10, dtype=dtype)
        # rows of one value: chunks of exactly _BLOCK values, then a partial one
        check("truncated_normal/heap-draw", shape=(3 * _BLOCK + 500,), std=0.02, seed=12)

    def test_truncated_normal_keeps_no_float64_array_on_the_heap(self):
        out = np.empty((20_001, 128))
        rng = np.random.default_rng(8)
        tracemalloc.start()
        try:
            truncated_normal(rng, out, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 scratch chunk and its temporaries; the former draw's two
        # boolean masks took 2 bytes per element, 5 MiB here
        assert peak < 1 << 20

    @pytest.mark.parametrize("tie_decoder", [False, True])
    @pytest.mark.parametrize("experts", [2, 4])
    def test_table_draws_each_element_once_in_the_documented_order(self, tie_decoder, experts):
        cfg = tiny_config(tie_decoder=tie_decoder, experts=experts, top_k=2)
        shapes = parameter_shapes(cfg)
        table = parameter_table(cfg)
        assert [(name, shape) for name, shape, _ in table] == list(shapes.items())
        fills = {name: init for name, _, init in table if init is not None}
        assert fills == {
            name: 1.0 if name.endswith("gain") else 0.0
            for name in shapes
            if name.endswith(("gain", "bias", "experts.b1", "experts.b2"))
        }

        # the k-th standard normal is k / total: in range, so never redrawn,
        # and each drawn value tells its place in the stream
        drawn_names = [name for name in shapes if name not in fills]
        total = sum(int(np.prod(shapes[name])) for name in drawn_names)
        drawn = 0

        def standard_normal(out):
            nonlocal drawn
            out[...] = np.arange(drawn, drawn + out.size) / total
            drawn += out.size

        p = {name: t.data for name, t in init_parameters(cfg, SimpleNamespace(standard_normal=standard_normal), np.float64).items()}
        assert drawn == total
        for name, fill in fills.items():
            assert (p[name] == fill).all(), name
        stream = np.concatenate([p[name].ravel() for name in drawn_names])
        want = np.arange(total) / total * 0.02 + 0.0
        assert stream.tobytes() == want.tobytes()

    def test_init_deterministic_and_clone_independent(self):
        cfg = tiny_config()
        a = Model.init(cfg, seed=7)
        b = Model.init(cfg, seed=7)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()
        c = a.clone()
        c.params["decoder"].data[0, 0] += 1.0
        assert a.params["decoder"].data[0, 0] != c.params["decoder"].data[0, 0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(entity_count=0, relation_count=1)
        with pytest.raises(ValueError):
            ModelConfig(entity_count=5, relation_count=1, hidden=10, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(entity_count=5, relation_count=1, experts=2, top_k=3)
        for heads in (0, -4):
            with pytest.raises(ValueError, match="need heads >= 1"):
                ModelConfig(entity_count=5, relation_count=1, hidden=16, heads=heads)

    def test_config_round_trip(self):
        cfg = tiny_config(tie_decoder=True)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestMoe:
    def test_matches_oracle_in_both_modes(self):
        for training in (True, False):
            check("moe_ffn/node-at-a-time", training=training)

    def test_exact_ties_route_to_lower_index(self, monkeypatch):
        # a zero gate ties every expert at logit 0, so training routes every row to experts 0 and 1
        cfg = tiny_config()
        model = Model.init(cfg, seed=5)
        model.params["layer0.gate"].data[:] = 0.0
        routed, moe_experts = [], T.moe_experts
        monkeypatch.setattr(T, "moe_experts", lambda *args: routed.append(args[-1]) or moe_experts(*args))
        x = Tensor(np.random.default_rng(6).normal(size=(10, cfg.hidden)).astype(np.float32))
        moe_ffn(model, 0, x, True, None)
        assert [rows.tolist() for rows in routed[0]] == [list(range(10))] * 2 + [[]] * (cfg.experts - 2)

    def test_two_experts_train_eval_bitwise_equal(self):
        cfg = tiny_config(experts=2, top_k=2)
        model = Model.init(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3 * 6, cfg.hidden)).astype(np.float32))
        train_out = moe_ffn(model, 1, x, True, None).data
        eval_out = moe_ffn(model, 1, x, False, None).data
        assert train_out.tobytes() == eval_out.tobytes()

    def test_four_experts_train_eval_differ(self):
        cfg = tiny_config(experts=4, top_k=2)
        model = Model.init(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3 * 6, cfg.hidden)).astype(np.float32))
        train_out = moe_ffn(model, 0, x, True, None).data
        eval_out = moe_ffn(model, 0, x, False, None).data
        assert not np.allclose(train_out, eval_out, atol=1e-7)


class TestSparseDispatch:
    """Experts run on the rows of a packed grid that can reach a scored slot, never on padding."""

    def test_outputs_bit_exact_at_real_rows_and_padding_untouched(self):
        # the real slots of graphs of 7, 1, 12 and 3 nodes in rows of 12, and of one in a row of 3: forward hands
        # the block a field, never padding
        layouts = [((7, 1, 12, 3), 12), ((1,), 3)]
        for tied, layout, training in itertools.product((False, True), layouts, (True, False)):
            check("moe_ffn/node-at-a-time", ties=tied, layout=layout, training=training)

    def test_gradients_match_former_expert_loop_bit_for_bit(self):
        # 16 graphs in rows of 30
        sizes = tuple(np.random.default_rng(14).integers(1, 31, size=16))
        for tied in (False, True):
            check("moe_experts/former-expert-loop", hidden=64, training=True, tied=tied, sizes=sizes, width=30)

    def test_padding_slots_run_no_expert(self, monkeypatch):
        cfg = tiny_config(layers=3)
        model = Model.init(cfg, seed=20)
        queries = [
            build_query(QueryType.P1, (1,), (0,)),
            build_query(QueryType.P3, (2,), (0, 1, 2)),
            build_query(QueryType.P1, (4,), (3,)),
        ]
        batch = encode_queries(queries, cfg)
        # the 7-node graph fills row 0; both 3-node graphs share row 1
        assert batch.graph_count == 3 and batch.entity_ids.shape == (2, 7) and batch.sizes == [7, 6]
        starts = check_packed_layout(batch, [q.levi for q in queries], [q.target_index for q in queries], cfg)
        assert starts == [7, 0, 10]
        # the 3p graph: entities 0-3 (target 3), relation nodes 4-6 linking 0-1, 1-2 and 2-3; the 1p graphs:
        # entities 7-8 and 10-11 (targets 8 and 11), relation nodes 9 and 12; slot 13 is padding. The last
        # layer's field is the targets; each layer before adds the neighbors of the one after.
        fields = [[2, 3, 6, 7, 8, 9, 10, 11, 12], [3, 6, 8, 9, 11, 12], [3, 8, 11]]
        layer_rows, gelu_rows, routed = [], [], []
        attention_layer, gelu, moe_experts = kgt.model.attention_layer, T.gelu, T.moe_experts
        # the grid rows of each layer's output: its key rows at its query indexes
        monkeypatch.setattr(kgt.model, "attention_layer", lambda *a: layer_rows.append(a[3].rows[a[3].queries])
                            or attention_layer(*a))
        monkeypatch.setattr(T, "gelu", lambda x: gelu_rows.append(x.shape[0]) or gelu(x))
        monkeypatch.setattr(T, "moe_experts", lambda *args: routed.append(args[-1]) or moe_experts(*args))
        forward(model, batch)
        assert [rows.tolist() for rows in layer_rows] == fields
        assert gelu_rows == [len(rows) for rows in fields for _ in range(cfg.experts)]  # every expert, the field only
        # the experts' rows index the layer's field
        assert [[rows.tolist() for rows in routes] for routes in routed] == [[list(range(len(rows)))] * cfg.experts
                                                                           for rows in fields]
        gelu_rows.clear()
        routed.clear()
        forward(model, batch, training=True, rng=np.random.default_rng(0))
        assert len(routed) == cfg.layers
        for routes, rows in zip(routed, fields):
            assert len(routes) == cfg.experts
            assert sorted(np.concatenate(routes).tolist()) == sorted(list(range(len(rows))) * cfg.top_k)
        # the kernel runs once per expert, on the rows routed to it
        assert gelu_rows == [len(rows) for routes in routed for rows in routes]

    def test_unrouted_expert_still_gets_zero_gradient(self):
        cfg = tiny_config(dropout=0.1)
        model = Model.init(cfg, seed=18)
        for layer in range(cfg.layers):
            model.params[f"layer{layer}.gate"].data[:] = 0.0  # ties: experts 2 and 3 get no node
        batch = encode_queries([build_query(QueryType.P2, (1,), (0, 1)), build_query(QueryType.P1, (3,), (2,))], cfg)
        with Tape() as tape:
            loss = cross_entropy(forward(model, batch, True, np.random.default_rng(19)), np.array([4, 5]))
        tape.backward(loss)
        for layer in range(cfg.layers):
            for name in ("w1", "b1", "w2", "b2"):
                t = model.params[f"layer{layer}.experts.{name}"]
                assert t.grad is not None and t.grad.shape == t.data.shape
                assert not t.grad[2:].any() and t.grad[:2].any()
        # so AdamW still applies weight decay to the idle expert
        before = model.params["layer0.experts.w1"].data[3].copy()
        AdamW(model.params, AdamWConfig(lr=0.1, weight_decay=0.5)).step()
        np.testing.assert_allclose(model.params["layer0.experts.w1"].data[3], before * (1 - 0.1 * 0.5), rtol=1e-6)


class TestStackedExperts:
    # packed graphs of 7, 1, 12 and 3 real nodes in rows of 12; one real node in a row of 3; and rows of 30 as a
    # stage-1 batch packs them, two full
    @pytest.mark.parametrize("sizes, width", [((7, 1, 12, 3), 12), ((1,), 3), ((30, 17, 30, 4), 30)])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("hidden", [16, 64])
    def test_block_matches_former_loop(self, sizes, width, tied, training, hidden):
        check("moe_experts/former-expert-loop", hidden=hidden, training=training, tied=tied, sizes=sizes, width=width)


class TestFusedAttention:
    # the last two: the grids of two training batches, 8 rows of 20 and 16 rows of 9
    @pytest.mark.parametrize("rows, width", [(1, 1), (1, 5), (4, 12), (8, 20), (16, 9)])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("hidden", [16, 64, 128])
    def test_block_matches_former_ops(self, rows, width, heads, training, hidden):
        check("attention_layer/former-ops", hidden=hidden, training=training, heads=heads, rows=rows, width=width)


class TestDecoderOp:
    @pytest.mark.parametrize("targets", [1, 7, 131, 100, 256])  # 100 and 256: the scored slots of a training batch
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("hidden", [16, 64, 128])
    def test_block_matches_former_ops(self, targets, tied, hidden):
        check("decode/former-decode", hidden=hidden, tied=tied, targets=targets)


def check_packed_layout(batch: Batch, levis, first_slots, cfg) -> list[int]:
    """Assert the packed-grid invariants; returns each graph's first flat slot.

    A graph's first slot comes from its first prediction position, which is
    ``start + first_slots[g]``. Each graph must sit whole in one row, the
    graphs of a row must fill its prefix without overlap, the edges must be
    each graph's Levi edges at its slots, so that attention stays inside each
    graph, and padding must be an inert mask token on no edge.
    """
    rows, width = batch.entity_ids.shape
    sizes = [levi.node_count for levi in levis]
    # positions list each graph's prediction slots in graph order; recover the
    # starts by walking them graph by graph
    starts, cursor = [], 0
    for levi, first in zip(levis, first_slots):
        start = int(batch.positions[cursor]) - first
        starts.append(start)
        while cursor < len(batch.positions) and start <= batch.positions[cursor] < start + levi.node_count:
            cursor += 1
    assert cursor == len(batch.positions)

    owner = np.full(rows * width, -1)
    for g, (start, n) in enumerate(zip(starts, sizes)):
        assert start // width == (start + n - 1) // width, "graph split across rows"
        assert np.all(owner[start : start + n] == -1), "graphs overlap"
        owner[start : start + n] = g
    owner = owner.reshape(rows, width)
    for r in range(rows):
        real = owner[r] >= 0
        assert real.sum() == batch.sizes[r]
        assert real[: batch.sizes[r]].all(), "real slots are not a prefix of the row"
    assert sum(batch.sizes) == sum(sizes)

    entity_ids = batch.entity_ids.reshape(-1)
    pad = owner.reshape(-1) < 0
    assert np.all(entity_ids[pad] == cfg.mask_id)
    for levi, start, n in zip(levis, starts, sizes):
        k = levi.entity_node_count
        assert np.all(entity_ids[start : start + k] <= cfg.mask_id)
        assert entity_ids[start + k : start + n].tolist() == (levi.triples[:, 1] + cfg.mask_id + 1).tolist()
    # the edges are the graphs' own, in graph order, so no edge leaves a graph or touches padding
    assert np.array_equal(batch.edges, levi_edges(levis, starts))
    linked = owner.reshape(-1)[batch.edges]
    assert (linked[:, 0] == linked[:, 1]).all() and (linked >= 0).all()
    assert np.array_equal(pairs_mask(batch.edges, (rows, width)), grid_mask(levis, starts, (rows, width)))
    return starts


class TestEncoding:
    def make_sub(self, masked_input: int) -> SampledSubgraph:
        from kgt.graph import triple_transform

        levi = triple_transform([(3, 1, 7)])
        return SampledSubgraph(levi=levi, inputs=np.array([masked_input, 7]), prediction_targets=(0,))

    def test_corruption_kinds_map_to_input_ids(self):
        cfg = tiny_config()
        cases = [(FREE_SLOT, cfg.mask_id), (3, 3), (11, 11)]  # mask, keep, random
        for masked_input, want in cases:
            batch = encode_subgraphs([self.make_sub(masked_input)], cfg)
            assert batch.entity_ids[0, 0] == want
            assert batch.entity_ids[0, 1] == 7  # unmasked node keeps its id
            assert batch.targets.tolist() == [3]

    def test_padding_slots_are_inert_mask_tokens(self):
        g = toy_split(seed=1).train
        subs = sample_stage1_batch(g, np.random.default_rng(2), batch_size=12, budget=(3, 12))
        cfg = ModelConfig(
            entity_count=g.entity_count, relation_count=g.relation_count, layers=1,
            hidden=8, heads=2, experts=2, top_k=2, dropout=0.0,
        )
        batch = encode_subgraphs(subs, cfg)
        assert batch.graph_count == len(subs) and len(batch.sizes) < len(subs)  # some rows are shared
        first = [sub.prediction_targets[0] for sub in subs]
        check_packed_layout(batch, [sub.levi for sub in subs], first, cfg)
        targets = [int(sub.levi.entities[i]) for sub in subs for i in sub.prediction_targets]
        assert batch.targets.tolist() == targets

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            encode_subgraphs([], tiny_config())
        with pytest.raises(ValueError):
            encode_queries([], tiny_config())

    def test_query_encoding_roles(self):
        cfg = tiny_config()
        q = build_query(QueryType.P2, (5,), (1, 2))
        batch = encode_queries([q], cfg)
        assert batch.entity_ids[0, 0] == 5  # anchor visible
        assert batch.entity_ids[0, 1] == cfg.mask_id  # intermediate hidden
        assert batch.entity_ids[0, 2] == cfg.mask_id  # target hidden
        assert batch.entity_ids[0, 3] == cfg.mask_id + 2 and batch.entity_ids[0, 4] == cfg.mask_id + 3  # relations 1, 2
        assert batch.positions.tolist() == [2]

    def test_query_fill_clamps_target(self):
        cfg = tiny_config()
        q = build_query(QueryType.P2, (5,), (1, 2))
        batch = encode_queries([q], cfg, fill=9)
        assert batch.entity_ids[0, q.target_index] == 9

    def test_intermediate_prediction_slots(self):
        cfg = tiny_config()
        q = build_query(QueryType.P3, (5,), (0, 1, 2))
        batch = encode_queries([q], cfg, predict="intermediates")
        assert batch.positions.tolist() == [1, 2]
        with pytest.raises(ValueError):
            encode_queries([build_query(QueryType.P1, (0,), (0,))], cfg, predict="intermediates")
        with pytest.raises(ValueError):
            encode_queries([q], cfg, predict="nodes")


class TestForward:
    def query_batch(self, cfg, queries, **kw):
        return encode_queries(queries, cfg, **kw)

    def test_logit_shape(self):
        cfg = tiny_config()
        model = Model.init(cfg, seed=0)
        qs = [build_query(QueryType.P1, (1,), (0,)), build_query(QueryType.I2, (2, 3), (0, 1))]
        logits = forward(model, self.query_batch(cfg, qs)).data
        assert logits.shape == (2, cfg.entity_count)

    def test_node_types_and_real_rows(self, monkeypatch):
        # rows: 3i (7 slots), 2p (5 and 2 padding), 1p (3 and 4 padding); anchors, targets and intermediates
        # are entity nodes, the last slots of each graph its relation nodes
        cfg = tiny_config(layers=3)
        model = Model.init(cfg, seed=0)
        queries = [build_query(QueryType.I3, (1, 2, 3), (0, 1, 2)), build_query(QueryType.P2, (4,), (1, 3)),
                   build_query(QueryType.P1, (5,), (2,))]
        node_types, layers, moe_rows = [], [], []
        gather_rows, attention_layer = T.gather_rows, kgt.model.attention_layer

        def spy_gather(a, idx):
            if a is model.params["node_type"]:
                node_types.append(idx)
            return gather_rows(a, idx)

        monkeypatch.setattr(T, "gather_rows", spy_gather)
        monkeypatch.setattr(kgt.model, "attention_layer", lambda *a: layers.append((a[3].rows, a[3].rows[a[3].queries]))
                            or attention_layer(*a))
        monkeypatch.setattr(kgt.model, "moe_ffn", lambda *args: moe_rows.append(args[2].shape[0]) or moe_ffn(*args))
        forward(model, encode_queries(queries, cfg))
        # each layer's rows reach a target (3, 9 and 15) within the layers left: the 3i relation nodes 4-6 link
        # anchors 0-2 to 3; the 2p's 10 and 11 link 7-8 and 8-9, so its relation node 10 lies 3 hops out and
        # its anchor 7, 4 hops out, never enters; the 1p's 16 links 14-15. Nor does padding (12, 13 and 17-20).
        fields = [[*range(0, 7), 8, 9, 10, 11, 14, 15, 16], [*range(0, 7), 8, 9, 11, 14, 15, 16],
                  [3, 4, 5, 6, 9, 11, 15, 16], [3, 9, 15]]
        assert [t.tolist() for t in node_types] == [[1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0]]  # the input field
        # layer l takes keys at its field and keeps the rows of the next field, where its experts run
        assert [(keys.tolist(), kept.tolist()) for keys, kept in layers] == list(zip(fields, fields[1:]))
        assert moe_rows == [len(rows) for rows in fields[1:]]

    def test_3p_anchor_reaches_the_target_past_four_layers(self):
        # the 3p chain anchor 0 - 4 - 1 - 5 - 2 - 6 - target 3: its anchor and first relation node lie 6 and 5
        # hops from the target, so 4 layers read neither of them, and 6 layers read both
        cfg = tiny_config()
        query = build_query(QueryType.P3, (2,), (0, 1, 2))
        batch = encode_queries([query], cfg)
        for layers, reach in ((4, [1, 2, 3, 5, 6]), (6, list(range(7)))):
            assert field_rows(batch, layers + 1)[0].tolist() == reach  # the rows whose input reaches a score
            model = Model.init(tiny_config(layers=layers), seed=4)
            logits = forward(model, batch).data
            for anchor, relations in (((5,), (0, 1, 2)), ((2,), (3, 1, 2))):
                moved = forward(model, encode_queries([build_query(QueryType.P3, anchor, relations)], cfg)).data
                assert np.array_equal(moved, logits) == (layers == 4), (layers, anchor, relations)

    def test_batching_and_padding_do_not_change_scores(self):
        cfg = tiny_config()
        model = Model.init(cfg, seed=1)
        small = build_query(QueryType.P1, (4,), (2,))
        large = build_query(QueryType.P3, (9,), (0, 1, 2))
        solo = forward(model, self.query_batch(cfg, [small])).data
        batched = forward(model, self.query_batch(cfg, [small, large])).data
        assert np.allclose(solo[0], batched[0], atol=2e-5)

    def test_disconnected_graphs_do_not_interact(self):
        cfg = tiny_config()
        model = Model.init(cfg, seed=2)
        a = build_query(QueryType.P2, (3,), (1, 1))
        b1 = build_query(QueryType.P2, (7,), (0, 2))
        b2 = build_query(QueryType.P2, (8,), (2, 0))
        with_b1 = forward(model, self.query_batch(cfg, [a, b1])).data
        with_b2 = forward(model, self.query_batch(cfg, [a, b2])).data
        assert np.array_equal(with_b1[0], with_b2[0])

    def test_dropout_needs_rng_and_changes_output(self):
        cfg = tiny_config(dropout=0.2)
        model = Model.init(cfg, seed=3)
        batch = self.query_batch(cfg, [build_query(QueryType.P1, (0,), (0,))])
        with pytest.raises(ValueError):
            forward(model, batch, training=True, rng=None)
        out1 = forward(model, batch, training=True, rng=np.random.default_rng(0)).data
        out2 = forward(model, batch, training=True, rng=np.random.default_rng(1)).data
        eval_out = forward(model, batch).data
        assert not np.array_equal(out1, out2)
        assert not np.array_equal(out1, eval_out)
        # eval mode ignores the rng and is deterministic
        assert np.array_equal(forward(model, batch).data, eval_out)

    def test_tied_decoder_scores_against_entity_table(self):
        cfg = tiny_config(tie_decoder=True)
        model = Model.init(cfg, seed=4)
        assert "decoder" not in model.params
        dec = decoder_matrix(model).data
        assert np.array_equal(dec, model.params["embedding"].data[: cfg.entity_count])
        batch = self.query_batch(cfg, [build_query(QueryType.P1, (0,), (0,))])
        with Tape() as tape:
            logits = forward(model, batch)
            loss = cross_entropy(logits, np.array([5]))
        tape.backward(loss)
        # gradient reaches entity rows that never appeared as inputs
        assert model.params["embedding"].grad is not None
        assert np.abs(model.params["embedding"].grad[12]).max() > 0.0


class TestField:
    @pytest.mark.parametrize("kind", ["stage1", "stage2", "queries"])
    def test_matches_experts_on_every_real_row(self, kind):
        # each layer on its field against every layer on every real row, on packed rows that share graphs and
        # end in padding, and on one graph per row
        for padded, training in itertools.product((False, True), (True, False)):
            check("forward/field-rows", kind=kind, padded=padded, training=training)


    def test_each_dropout_draws_its_fields_rows_in_row_order(self, monkeypatch):
        # layer l's two residual dropouts, attention's then the experts', each draw a keep mask over the rows
        # of fields[l + 1] alone, in row order, and nothing else draws from the generator
        model, batch = toy_stage1()
        cfg = model.config
        fields = field_rows(batch, cfg.layers + 1)
        calls, dropout = [], T.dropout

        def spy(x, a, *args):
            out = dropout(x, a, *args)
            calls.append((x.data, a.data, out.data))
            return out

        monkeypatch.setattr(T, "dropout", spy)
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        forward(model, batch, training=True, rng=rng)
        assert len(calls) == 2 * cfg.layers
        for i, (x, a, out) in enumerate(calls):
            rows = fields[i // 2 + 1]
            assert x.shape == a.shape == (len(rows), cfg.hidden)
            keep = (replay.random(a.shape) >= cfg.dropout).astype(a.dtype) / (1.0 - cfg.dropout)
            assert out.tobytes() == (x + a * keep).tobytes()
        assert rng.random() == replay.random()


def plan_batches():
    """(name, batch, levis, first prediction slots, config) of stage-1 batches of the toy graph and of a
    2,000-entity graph at the fb15k width, a stage-2 meta-graph batch, the nine shapes in one batch, and one
    3p query."""
    toy, wide = toy_split(seed=0), toy_split(seed=0, entities=2000, relations=20, train=5000, valid=100, test=100)
    for name, split, budget in (("toy stage-1", toy, {}), ("fb15k-width stage-1", wide, {"budget": (8, 40)})):
        cfg = ModelConfig(split.entity_count, split.relation_count, hidden=128)
        subs = sample_stage1_batch(split.train, np.random.default_rng(3), batch_size=32, **budget)
        yield name, encode_subgraphs(subs, cfg), [s.levi for s in subs], [s.prediction_targets[0] for s in subs], cfg
    cfg = ModelConfig(toy.entity_count, toy.relation_count)
    rng = np.random.default_rng(4)
    subs = [sample_meta_graph(toy.train, rng) for _ in range(24)]
    yield "stage-2", encode_subgraphs(subs, cfg), [s.levi for s in subs], [s.prediction_targets[0] for s in subs], cfg
    rng = np.random.default_rng(5)
    queries = [branch for qtype in QueryType for inst in generate_queries(toy, qtype, 2, rng)
               for branch in dnf_decompose(inst.query)]
    yield "nine shapes", encode_queries(queries, cfg), [q.levi for q in queries], [q.target_index for q in queries], cfg
    query = build_query(QueryType.P3, (2,), (0, 1, 2))
    yield "one query", encode_queries([query], cfg), [query.levi], [query.target_index], cfg


def assert_same_plan(got, want, where) -> None:
    for a, b, field in zip(got, want, T.AttentionPlan._fields, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (where, field)


class TestPlan:
    @pytest.mark.parametrize("index", range(5))
    def test_fields_and_plans_match_the_grid_mask(self, index):
        # the fields by a frontier walk over the edges and each layer's plan of slots and slot biases, against
        # the einsum over the former dense mask and the former per-call layout, bit for bit, for 6 layers and
        # for every real row as keys and queries, as the forward/field-rows twin runs
        name, batch, levis, first, cfg = list(plan_batches())[index]
        starts = check_packed_layout(batch, levis, first, cfg)
        mask = grid_mask(levis, starts, batch.entity_ids.shape)
        fields = field_rows(batch, 7)
        want = grid_field_rows(mask, batch.positions, 7)
        assert [f.dtype for f in fields] == [f.dtype for f in want], name
        assert all(np.array_equal(f, w) for f, w in zip(fields, want, strict=True)), name
        real = padded_rows(batch.sizes, batch.entity_ids.shape[1])
        for rows, kept in [*zip(fields, fields[1:]), (real, real)]:
            got = T.attention_plan(batch.edges, batch.entity_ids.shape, rows, kept)
            assert_same_plan(got, grid_plan(T.mask_bias(mask), rows, np.searchsorted(rows, kept)), name)

    def test_grid_row_with_keys_but_no_query(self):
        # gradcheck's pairs and key rows: grid row 1 holds keys 5 and 6 and no query, so its two query slots
        # take key 5's bias, not key 0's, and its third key slot is empty; one query alone, at slot 5, takes two
        # slots in its row
        pairs, grid, rows = gradcheck._PAIRS, (2, 4), gradcheck._KEY_ROWS
        bias = T.mask_bias(pairs_mask(pairs, grid))
        for kept in (np.array([0, 3]), np.array([5]), rows):
            want = grid_plan(bias, rows, np.searchsorted(rows, kept))
            assert_same_plan(T.attention_plan(pairs, grid, rows, kept), want, kept)
        assert T.attention_plan(pairs, grid, rows, np.array([5])).bias.shape == (2, 2, 3)


class TestFewerPasses:
    @pytest.mark.parametrize("tied, records", [(False, 43), (True, 44)], ids=["untied", "tied"])
    def test_stage1_step_tape_records(self, tied, records):
        # 8 records per layer and its residual's gather, 3 for the input, 3 for the head and the loss; the
        # tied decoder gathers its table from the embedding: one more record
        model, batch = toy_stage1(tied)
        assert step(model, batch, lambda z: cross_entropy(z, batch.targets, alpha=0.1), seed=5)[RECORDS] == records


class TestArena:
    """Parameters are consecutive views of one data arena; gradients land in one gradient arena."""

    @staticmethod
    def assert_one_arena(model: Model) -> None:
        first = next(iter(model.params.values()))
        data, grad = first.data.base, first.grad_view.base
        assert data.ndim == 1 and grad.shape == data.shape and not np.shares_memory(data, grad)
        end = 0
        for name, t in model.params.items():
            size = t.data.size
            assert t.data.base is data and t.grad_view.base is grad, name
            assert t.offset == end, name
            assert np.shares_memory(t.data, data[end : end + size]), name
            assert np.shares_memory(t.grad_view, grad[end : end + size]), name
            assert np.array_equal(data[end : end + size], t.data.reshape(-1)), name
            end += size
        assert end == data.size
        AdamW(model.params, AdamWConfig())  # the optimizer accepts it

    def test_init_clone_and_load_fill_one_arena(self, tmp_path):
        for tie in (False, True):
            model = Model.init(tiny_config(tie_decoder=tie), seed=21)
            save_checkpoint(model, tmp_path / "m.kgtc")
            for copy in (model, model.clone(), load_checkpoint(tmp_path / "m.kgtc")):
                self.assert_one_arena(copy)
                assert list(copy.params) == list(parameter_shapes(copy.config))
                for name, t in copy.params.items():
                    assert t.data.tobytes() == model.params[name].data.tobytes(), name

    def test_clone_shares_no_memory(self):
        model = Model.init(tiny_config(), seed=22)
        copy = model.clone()
        mine = [a for t in model.params.values() for a in (t.data, t.grad_view)]
        for t in copy.params.values():
            for a in (t.data, t.grad_view):
                assert not any(np.shares_memory(a, b) for b in mine)

    def test_backward_grads_are_disjoint_views_of_the_gradient_arena(self):
        g = toy_split(seed=2).train
        subs = sample_stage1_batch(g, np.random.default_rng(3), batch_size=6, budget=(3, 10))
        for tie in (False, True):
            cfg = ModelConfig(
                entity_count=g.entity_count, relation_count=g.relation_count, layers=2,
                hidden=16, heads=2, experts=4, top_k=2, dropout=0.1, tie_decoder=tie,
            )
            model = Model.init(cfg, seed=4)
            grad = next(iter(model.params.values())).grad_view.base
            with Tape() as tape:
                logits = forward(model, encode_subgraphs(subs, cfg), training=True, rng=np.random.default_rng(5))
                loss = cross_entropy(logits, encode_subgraphs(subs, cfg).targets, alpha=0.1)
            tape.backward(loss)
            touched = [(name, t.grad) for name, t in model.params.items() if t.grad is not None]
            assert len(touched) == len(model.params)
            for i, (name, a) in enumerate(touched):
                assert a is model.params[name].grad_view and a.base is grad, name
                for other, b in touched[i + 1 :]:
                    assert not np.shares_memory(a, b), (name, other)

    def test_adamw_rejects_what_is_not_one_arena_in_order(self):
        model = Model.init(tiny_config(), seed=23)
        names = list(model.params)
        cfg = AdamWConfig()

        stray = dict(model.params)
        stray["decoder"] = Tensor(model.params["decoder"].data.copy(), requires_grad=True)
        with pytest.raises(ValueError, match="'decoder'"):
            AdamW(stray, cfg)

        swapped = {name: model.params[name] for name in [names[1], names[0]] + names[2:]}
        with pytest.raises(ValueError, match=repr(names[1])):
            AdamW(swapped, cfg)

        other = model.clone()
        mixed = {name: (other if name == names[3] else model).params[name] for name in names}
        with pytest.raises(ValueError, match=repr(names[3])):
            AdamW(mixed, cfg)

        with pytest.raises(ValueError, match="cover"):
            AdamW({name: model.params[name] for name in names[:-1]}, cfg)

    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("stage", ["stage1", "stage2", "finetune"])
    def test_every_backward_writes_every_gradient(self, monkeypatch, stage, tie):
        # the clip and AdamW raise on a missing gradient, so a training
        # backward must write every parameter's, a zero one for an expert
        # that got no rows
        cfg = ModelConfig(
            entity_count=50, relation_count=5, layers=2, hidden=16, heads=4, experts=4, top_k=1,
            dropout=0.1, tie_decoder=tie,
        )
        stage2 = (10, dict(pattern_mix=1.0), 2) if stage == "stage2" else None
        stage1, finetune = (10, dict(batch_size=1, budget=(3, 6))), (11, (QueryType.P1, QueryType.I2), 1)
        batches = toy_batches(toy_split(seed=9), cfg, stage1, finetune, stage2)
        batch, loss = batches[stage]
        routes = []
        moe_experts = T.moe_experts
        monkeypatch.setattr(T, "moe_experts", lambda *args: routes.append(args[-1]) or moe_experts(*args))
        grads = step(Model.init(cfg, seed=13), batch, loss, seed=12)  # every gradient is its parameter's grad_view
        empty = [(layer, j) for layer, per_expert in enumerate(routes) for j, rows in enumerate(per_expert) if rows.size == 0]
        assert empty, "every expert got rows"
        for layer, j in empty:
            for part in ("w1", "b1", "w2", "b2"):
                assert not grads[f"layer{layer}.experts.{part}"][j].any(), (layer, j, part)

    def test_gradient_outside_the_arena_is_rejected(self):
        model = Model.init(tiny_config(), seed=24)
        opt = AdamW(model.params, AdamWConfig())
        for t in model.params.values():
            t.grad = t.grad_view
        model.params["node_type"].grad = np.ones(model.params["node_type"].shape, dtype=np.float32)
        with pytest.raises(ValueError, match="'node_type'"):
            clip_global_norm(model.params, 1.0)
        with pytest.raises(ValueError, match="'node_type'"):
            opt.step()


class TestPacking:
    def test_stage1_batches_match_padded(self):
        check("encode_subgraphs/padded", kind="stage1")

    def test_stage2_batches_match_padded(self):
        check("encode_subgraphs/padded", kind="stage2")

    def test_mixed_width_query_batches_match_padded(self):
        check("encode_queries/padded-queries")


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a saved checkpoint's JSON header and write the file back."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + length])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length :])


class TestCheckpoint:
    # every message starts with the path, and tmp_path holds the test's name, so match after the path
    def saved(self, tmp_path, seed: int):
        model = Model.init(tiny_config(), seed=seed)
        path = tmp_path / "m.kgtc"
        save_checkpoint(model, path)
        return model, path

    def test_round_trip_is_byte_identical(self, tmp_path):
        model = Model.init(tiny_config(), seed=11)
        p1 = tmp_path / "a.kgtc"
        p2 = tmp_path / "b.kgtc"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        assert loaded.config == model.config
        for name, t in model.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes(), name
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_run_killed_mid_save_leaves_the_former_file(self, tmp_path):
        # a child whose file-size limit is half a checkpoint dies by SIGXFSZ inside save_checkpoint
        model, path = self.saved(tmp_path, 3)
        former = path.read_bytes()
        child = (
            "import json, resource, signal, sys\n"
            "from kgt.checkpoint import save_checkpoint\n"
            "from kgt.model import Model, ModelConfig\n"
            "model = Model.init(ModelConfig.from_dict(json.loads(sys.argv[1])), seed=4)\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_DFL)  # Python starts with it ignored\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[2]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "save_checkpoint(model, sys.argv[3])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kgt.model.__file__).parents[1])}
        argv = [sys.executable, "-c", child, json.dumps(model.config.to_dict()), str(len(former) // 2), str(path)]
        proc = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE)
        _, err = proc.communicate()
        assert proc.returncode == -signal.SIGXFSZ, err
        assert path.read_bytes() == former
        assert load_checkpoint(path).config == model.config
        assert sorted(p.name for p in tmp_path.iterdir()) == [f".m.kgtc.{proc.pid}.tmp", "m.kgtc"]

    def test_file_is_header_then_arena_in_one_block(self, tmp_path):
        model, path = self.saved(tmp_path, 17)
        raw = path.read_bytes()
        assert struct.unpack("<I", raw[4:8]) == (2,)
        (length,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + length])
        assert header == {
            "config": model.config.to_dict(),
            "params": [[name, list(shape)] for name, shape in parameter_shapes(model.config).items()],
        }
        arena = next(iter(model.params.values())).data.base
        assert raw[16 + length :] == arena.astype("<f4").tobytes()

    def test_magic_is_stable(self, tmp_path):
        model = Model.init(tiny_config(), seed=12)
        path = tmp_path / "m.kgtc"
        save_checkpoint(model, path)
        assert path.read_bytes()[:4] == MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.kgtc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match=r"\.kgtc: bad magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 13)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=r"\.kgtc: unsupported version 99$"):
            load_checkpoint(path)

    def test_v1_file_rejected(self, tmp_path):
        # a v1 file: the config block, then one record of name, rank, dims and data
        path = tmp_path / "m.kgtc"
        config = json.dumps(tiny_config().to_dict(), sort_keys=True).encode("utf-8")
        record = struct.pack("<Q", 4) + b"bias" + struct.pack("<QQ", 1, 2) + np.zeros(2, "<f4").tobytes()
        path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(config)) + config + record)
        with pytest.raises(CheckpointError, match=r"\.kgtc: unsupported version 1$"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 14)
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[8:16])
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CheckpointError, match=r"\.kgtc: truncated while reading the parameter arena"):
            load_checkpoint(path)
        path.write_bytes(raw[: 16 + length - 1])
        with pytest.raises(CheckpointError, match=r"\.kgtc: truncated while reading header"):
            load_checkpoint(path)
        path.write_bytes(raw[:8] + struct.pack("<Q", 1 << 62) + raw[16:])  # a corrupt header length
        with pytest.raises(CheckpointError, match=r"\.kgtc: truncated while reading header"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected_by_name(self, tmp_path):
        model = Model.init(tiny_config(), seed=19)
        model.params["layer0.gate"].data[1, 2] = np.nan
        model.params["layer1.wo"].data[0, 0] = np.inf
        path = tmp_path / "m.kgtc"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match=r"m\.kgtc: parameter 'layer0\.gate' holds a non-finite value"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 18)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match=r"\.kgtc: trailing bytes after the parameter arena"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden", [1 << 20, 1 << 31])
    def test_huge_declared_arena_rejected_before_mapping(self, tmp_path, hidden):
        # the params list matches the config, so only the file size tells the arena is missing
        config = tiny_config(hidden=hidden)
        header = {"config": config.to_dict(), "params": [[n, list(s)] for n, s in parameter_shapes(config).items()]}
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "m.kgtc"
        path.write_bytes(MAGIC + struct.pack("<IQ", 2, len(blob)) + blob + bytes(64))
        with pytest.raises(CheckpointError, match=r"\.kgtc: truncated while reading the parameter arena"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 15)
        rewrite_header(path, lambda h: h["params"].remove(next(p for p in h["params"] if p[0] == "decoder")))
        with pytest.raises(CheckpointError, match=r"\.kgtc: parameter set mismatch \(missing \['decoder'\], extra \[\]\)"):
            load_checkpoint(path)

    def test_extra_parameter_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 19)
        rewrite_header(path, lambda h: h["params"].append(["stray", [2]]))
        with pytest.raises(CheckpointError, match=r"\.kgtc: parameter set mismatch \(missing \[\], extra \['stray'\]\)"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 16)

        def edit(header):
            for entry in header["params"]:
                if entry[0] == "decoder":
                    entry[1] = [3, 3]

        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=r"\.kgtc: tensor 'decoder' has shape \(3, 3\), config implies \(20, 16\)"):
            load_checkpoint(path)

    def test_misordered_or_repeated_parameters_rejected(self, tmp_path):
        for edit in (lambda h: h["params"].reverse(), lambda h: h["params"].append(h["params"][0])):
            _, path = self.saved(tmp_path, 20)
            rewrite_header(path, edit)
            with pytest.raises(CheckpointError, match=r"\.kgtc: parameters are not listed once each in arena order"):
                load_checkpoint(path)

    def test_garbage_config_rejected(self, tmp_path):
        path = tmp_path / "m.kgtc"
        for blob in (b"{not json", b"[]", b'{"params": []}', b'{"config": {"hidden": 3}, "params": []}'):
            path.write_bytes(MAGIC + struct.pack("<IQ", 2, len(blob)) + blob)
            with pytest.raises(CheckpointError, match=r"\.kgtc: bad config block"):
                load_checkpoint(path)
        _, path = self.saved(tmp_path, 21)
        rewrite_header(path, lambda h: h.update(params=[["decoder"]]))
        with pytest.raises(CheckpointError, match=r"\.kgtc: bad config block"):
            load_checkpoint(path)

    @pytest.mark.parametrize("heads", [0, -4])
    def test_heads_below_one_rejected(self, tmp_path, heads):
        _, path = self.saved(tmp_path, 22)
        rewrite_header(path, lambda h: h["config"].update(heads=heads))
        with pytest.raises(CheckpointError, match=r"\.kgtc: bad config block: need heads >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [("hidden", 16.0), ("layers", 2.0), ("experts", 4.0), ("entity_count", 20.0), ("heads", True), ("expert_hidden", "32"),
         ("tie_decoder", "false"), ("tie_decoder", 0)],
    )
    def test_mistyped_config_rejected_by_name(self, tmp_path, key, value):
        # a float count equal to the saved one used to escape as a bare TypeError, "false" loaded as
        # tied and failed as a parameter set mismatch, and True passed as one head
        _, path = self.saved(tmp_path, 24)
        rewrite_header(path, lambda h: h["config"].update({key: value}))
        with pytest.raises(CheckpointError, match=rf"\.kgtc: bad config block: {key} must be"):
            load_checkpoint(path)

    def test_per_qkv_layout_rejected(self, tmp_path):
        # the former layout named each layer's projections, layer{i}.wq, .wk and .wv
        model, path = self.saved(tmp_path, 25)

        def per_projection(header):
            params = []
            for name, dims in header["params"]:
                if name.endswith(".wqkv"):
                    params += [[name[: -len("qkv")] + w, [dims[0], dims[0]]] for w in "qkv"]
                else:
                    params.append([name, dims])
            header["params"] = params

        rewrite_header(path, per_projection)
        with pytest.raises(CheckpointError, match=r"\.kgtc: parameter set mismatch \(missing \['layer0\.wqkv', 'layer1\.wqkv'\], extra \['layer0\.wk'"):
            load_checkpoint(path)

    def test_per_expert_layout_rejected(self, tmp_path):
        # the former layout named each expert's tensors, layer{i}.expert{j}.w1 and so on
        model, path = self.saved(tmp_path, 23)

        def per_expert(header):
            params = []
            for name, dims in header["params"]:
                prefix, dot, weight = name.partition(".experts.")
                if not dot:
                    params.append([name, dims])
                    continue
                params += [[f"{prefix}.expert{j}.{weight}", dims[1:]] for j in range(dims[0])]
            header["params"] = params

        rewrite_header(path, per_expert)
        with pytest.raises(CheckpointError, match=r"\.kgtc: parameter set mismatch \(missing \['layer0\.experts\.b1'"):
            load_checkpoint(path)
