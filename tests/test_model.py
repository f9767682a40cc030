import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from kgt.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from kgt.errors import CheckpointError
from kgt.model import (
    Batch,
    Model,
    ModelConfig,
    decoder_matrix,
    encode_queries,
    encode_subgraphs,
    forward,
    init_parameters,
    moe_ffn,
    parameter_shapes,
    truncated_normal,
)
from kgt.queries import QueryType, build_query
from kgt.sampling import (
    Corruption,
    CorruptionKind,
    SampledSubgraph,
    sample_meta_graph,
    sample_stage1_batch,
)
from kgt import tensor as T
from kgt.optim import AdamW, AdamWConfig, clip_global_norm
from kgt.tensor import Tape, Tensor, cross_entropy, sum_all

from helpers import dense_moe_ffn, heap_truncated_normal, padded_encode_queries, padded_encode_subgraphs, toy_split


def tiny_config(**overrides) -> ModelConfig:
    defaults = dict(
        entity_count=20,
        relation_count=4,
        layers=2,
        hidden=16,
        heads=2,
        experts=4,
        top_k=2,
        dropout=0.0,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def np_layer_norm(x, gain, bias, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def np_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def moe_oracle(x, model: Model, layer: int, training: bool) -> np.ndarray:
    """Node-at-a-time reference for the expert block, explicit top-k rule."""
    cfg = model.config
    p = {k: t.data for k, t in model.params.items()}
    prefix = f"layer{layer}."
    b, n, d = x.shape
    h = np_layer_norm(x, p[prefix + "ln2_gain"], p[prefix + "ln2_bias"])
    flat = h.reshape(b * n, d)
    out = np.zeros_like(flat)
    for node in range(flat.shape[0]):
        g = flat[node] @ p[prefix + "gate"]
        if training and cfg.top_k < cfg.experts:
            chosen = sorted(range(cfg.experts), key=lambda j: (-g[j], j))[: cfg.top_k]
        else:
            chosen = list(range(cfg.experts))
        e = np.exp(g[chosen] - np.max(g[chosen]))
        w = e / e.sum()
        for weight, j in zip(w, chosen):
            eprefix = f"{prefix}expert{j}."
            hidden = np_gelu(flat[node] @ p[eprefix + "w1"] + p[eprefix + "b1"])
            out[node] += weight * (hidden @ p[eprefix + "w2"] + p[eprefix + "b2"])
    return x + out.reshape(b, n, d)


class TestParameters:
    def test_shapes(self):
        cfg = tiny_config()
        shapes = parameter_shapes(cfg)
        assert shapes["entity_in"] == (21, 16)  # one extra row for the mask token
        assert shapes["relation_in"] == (4, 16)
        assert shapes["node_type"] == (2, 16)
        assert shapes["decoder"] == (20, 16)
        assert shapes["layer0.gate"] == (16, 4)
        assert shapes["layer1.expert3.w1"] == (16, 32)
        assert shapes["layer1.expert3.w2"] == (32, 16)
        per_layer = {k for k in shapes if k.startswith("layer0.")}
        assert len(per_layer) == 4 + 4 + 1 + 4 * 4

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
        rng = np.random.default_rng(1)
        draws = truncated_normal(rng, (200_000,), 0.02, np.float64)
        assert np.abs(draws).max() <= 0.04
        assert abs(draws.mean()) < 1e-3

    def test_truncated_normal_matches_heap_oracle_bit_for_bit(self):
        for shape, std, seed in [((51, 16), 0.02, 3), ((20_001, 128), 0.02, 4), ((7,), 1.0, 5), ((), 0.5, 6)]:
            got = truncated_normal(np.random.default_rng(seed), shape, std, np.float64)
            want = heap_truncated_normal(np.random.default_rng(seed), shape, std, np.float64)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), shape

    def test_truncated_normal_keeps_no_float64_array_on_the_heap(self):
        shape = (20_001, 128)
        rng = np.random.default_rng(8)
        tracemalloc.start()
        try:
            truncated_normal(rng, shape, 0.02, np.float64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two boolean masks of one byte per element; the former draw held 18 bytes per element
        assert peak / math.prod(shape) < 2.5

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

    def test_config_round_trip(self):
        cfg = tiny_config(tie_decoder=True)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestMoe:
    def test_matches_oracle_in_both_modes(self):
        cfg = tiny_config()
        model = Model.init(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(scale=0.5, size=(8, 25, cfg.hidden)))  # 200 nodes
        for training in (True, False):
            got = moe_ffn(model, 0, x, training, None).data
            want = moe_oracle(x.data, model, 0, training)
            assert np.max(np.abs(got - want)) <= 1e-5

    def test_exact_ties_route_to_lower_index(self):
        cfg = tiny_config()
        model = Model.init(cfg, seed=5, dtype=np.float64)
        model.params["layer0.gate"].data[:] = 0.0  # every expert ties at logit 0
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 5, cfg.hidden)))
        got = moe_ffn(model, 0, x, True, None).data
        want = moe_oracle(x.data, model, 0, True)  # oracle picks experts 0 and 1
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_two_experts_train_eval_bitwise_equal(self):
        cfg = tiny_config(experts=2, top_k=2)
        model = Model.init(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 6, cfg.hidden)).astype(np.float32))
        train_out = moe_ffn(model, 1, x, True, None).data
        eval_out = moe_ffn(model, 1, x, False, None).data
        assert train_out.tobytes() == eval_out.tobytes()

    def test_four_experts_train_eval_differ(self):
        cfg = tiny_config(experts=4, top_k=2)
        model = Model.init(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 6, cfg.hidden)).astype(np.float32))
        train_out = moe_ffn(model, 0, x, True, None).data
        eval_out = moe_ffn(model, 0, x, False, None).data
        assert not np.allclose(train_out, eval_out, atol=1e-7)


def padded_rows(sizes, width) -> np.ndarray:
    """Flat indexes of the real slots of a [len(sizes), width] grid."""
    return np.flatnonzero(np.arange(width) < np.asarray(sizes)[:, None])


def moe_grads(moe, model: Model, x: np.ndarray, real: np.ndarray, weights: np.ndarray, **kw) -> dict:
    """Gradients of a fixed weighted sum of the block's output at the real rows."""
    model = model.clone()
    xt = Tensor(x.copy(), requires_grad=True)
    with Tape() as tape:
        out = moe(model, 0, xt, True, np.random.default_rng(5), **kw)
        picked = T.gather_rows(T.reshape(out, (-1, x.shape[-1])), real)
        loss = sum_all(T.mul(picked, Tensor(weights)))
    tape.backward(loss)
    grads = {name: t.grad for name, t in model.params.items() if t.grad is not None}
    grads["x"] = xt.grad
    return grads


class TestSparseDispatch:
    """The routed expert loop against the dense every-expert-on-every-slot loop."""

    # graphs of 7, 1, 12 and 3 real nodes padded to 12, and a lone one-node graph
    CASES = (((7, 1, 12, 3), 12), ((1,), 3))

    def test_outputs_bit_exact_at_real_rows_and_padding_untouched(self):
        # width 64: a one-row product there rounds differently under BLAS gemv
        cfg = tiny_config(hidden=64, dropout=0.1)
        for tied in (False, True):
            model = Model.init(cfg, seed=11)
            if tied:
                model.params["layer0.gate"].data[:] = 0.0  # every node picks experts 0 and 1
            for sizes, width in self.CASES:
                real = padded_rows(sizes, width)
                pad = np.setdiff1d(np.arange(len(sizes) * width), real)
                x = np.random.default_rng(12).normal(size=(len(sizes), width, cfg.hidden)).astype(np.float32)
                for training in (True, False):
                    got = moe_ffn(model, 0, Tensor(x), training, np.random.default_rng(13), real).data
                    want = dense_moe_ffn(model, 0, Tensor(x), training, np.random.default_rng(13)).data
                    got, want = got.reshape(-1, cfg.hidden), want.reshape(-1, cfg.hidden)
                    assert np.array_equal(got[real], want[real]), (tied, sizes, training)
                    # the block adds exactly 0 at padding, dropout or not
                    assert np.array_equal(got[pad], x.reshape(-1, cfg.hidden)[pad])

    def test_gradients_match_dense_loop_within_float32_bound(self):
        # weight gradients sum over fewer rows in another order: bound each
        # array by 1e-5 of its largest magnitude (about 84 float32 ulps)
        cfg = tiny_config(hidden=64, dropout=0.1)
        sizes = np.random.default_rng(14).integers(1, 31, size=16)
        real = padded_rows(sizes, 30)
        x = np.random.default_rng(15).normal(size=(16, 30, cfg.hidden)).astype(np.float32)
        weights = np.random.default_rng(16).normal(size=(real.size, cfg.hidden)).astype(np.float32)
        for tied in (False, True):
            model = Model.init(cfg, seed=17)
            if tied:
                model.params["layer0.gate"].data[:] = 0.0
            got = moe_grads(moe_ffn, model, x, real, weights, rows=real)
            want = moe_grads(dense_moe_ffn, model, x, real, weights)
            assert got.keys() == want.keys()
            for name in want:
                bound = 1e-5 * np.abs(want[name]).max()
                assert np.abs(got[name] - want[name]).max() <= bound, (tied, name)

    def test_padding_slots_run_no_expert(self, monkeypatch):
        cfg = tiny_config()
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
        real = set(range(13))
        gelu_rows, routed = [], []
        gelu, scatter = T.gelu, T.scatter_add_rows
        monkeypatch.setattr(T, "gelu", lambda a: gelu_rows.append(a.shape[0]) or gelu(a))
        monkeypatch.setattr(T, "scatter_add_rows", lambda b, s, i: routed.append(i) or scatter(b, s, i))
        forward(model, batch)
        assert gelu_rows == [len(real)] * cfg.experts * cfg.layers  # every expert, real nodes only
        routed.clear()
        forward(model, batch, training=True, rng=np.random.default_rng(0))
        for layer in range(cfg.layers):
            per_expert = routed[layer * cfg.experts : (layer + 1) * cfg.experts]
            assert sorted(np.concatenate(per_expert).tolist()) == sorted(list(real) * cfg.top_k)

    def test_unrouted_expert_still_gets_zero_gradient(self):
        cfg = tiny_config(dropout=0.1)
        model = Model.init(cfg, seed=18)
        for layer in range(cfg.layers):
            model.params[f"layer{layer}.gate"].data[:] = 0.0  # ties: experts 2 and 3 get no node
        batch = encode_queries([build_query(QueryType.P2, (1,), (0, 1)), build_query(QueryType.P1, (3,), (2,))], cfg)
        with Tape() as tape:
            loss = sum_all(cross_entropy(forward(model, batch, True, np.random.default_rng(19)), np.array([4, 5])))
        tape.backward(loss)
        for layer in range(cfg.layers):
            for name in ("w1", "b1", "w2", "b2"):
                t = model.params[f"layer{layer}.expert3.{name}"]
                assert t.grad is not None and t.grad.shape == t.data.shape
                assert not t.grad.any()
        # so AdamW still applies weight decay to the idle expert
        before = model.params["layer0.expert3.w1"].data.copy()
        AdamW(model.params, AdamWConfig(lr=0.1, weight_decay=0.5)).step()
        np.testing.assert_allclose(model.params["layer0.expert3.w1"].data, before * (1 - 0.1 * 0.5), rtol=1e-6)


def check_packed_layout(batch: Batch, levis, first_slots, cfg) -> list[int]:
    """Assert the packed-grid invariants; returns each graph's first flat slot.

    A graph's first slot comes from its first prediction position, which is
    ``start + first_slots[g]``. Each graph must sit whole in one row, the
    graphs of a row must fill its prefix without overlap, attention must stay
    inside each graph, and padding must be an inert mask token that attends
    only to itself.
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
    is_entity = batch.is_entity.reshape(-1)
    relation_ids = batch.relation_ids.reshape(-1)
    pad = owner.reshape(-1) < 0
    assert np.all(entity_ids[pad] == cfg.mask_id) and np.all(is_entity[pad]) and not relation_ids[pad].any()
    for levi, start, n in zip(levis, starts, sizes):
        r, c = divmod(start, width)
        assert np.array_equal(batch.attn_mask[r, 0, c : c + n, c : c + n], levi.attention_mask())
        k = levi.entity_node_count
        for i in range(n):
            assert bool(is_entity[start + i]) == (i < k)
            if i >= k:
                assert relation_ids[start + i] == levi.triples[i - k, 1]
    # no attention across graphs, and padding attends only to itself
    for r in range(rows):
        same = (owner[r][:, None] == owner[r][None, :]) & (owner[r][:, None] >= 0)
        allowed = same | np.eye(width, dtype=bool)
        assert not (batch.attn_mask[r, 0] & ~allowed).any()
        for i in np.flatnonzero(owner[r] < 0):
            assert batch.attn_mask[r, 0, i].tolist() == np.eye(width, dtype=bool)[i].tolist()
    return starts


class TestEncoding:
    def make_sub(self, corruption_kind) -> SampledSubgraph:
        from kgt.graph import triple_transform

        levi = triple_transform([(3, 1, 7)])
        corruption = {0: Corruption(*corruption_kind)}
        return SampledSubgraph(levi=levi, corruption=corruption, prediction_targets=(0,), entity_count=20)

    def test_corruption_kinds_map_to_input_ids(self):
        cfg = tiny_config()
        cases = [
            ((CorruptionKind.MASK, None), cfg.mask_id),
            ((CorruptionKind.KEEP, None), 3),
            ((CorruptionKind.RANDOM, 11), 11),
        ]
        for kind, want in cases:
            batch = encode_subgraphs([self.make_sub(kind)], cfg)
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
        assert not batch.is_entity[0, 3] and not batch.is_entity[0, 4]
        assert batch.relation_ids[0, 3] == 1 and batch.relation_ids[0, 4] == 2
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
        assert np.array_equal(dec, model.params["entity_in"].data[: cfg.entity_count])
        batch = self.query_batch(cfg, [build_query(QueryType.P1, (0,), (0,))])
        with Tape() as tape:
            logits = forward(model, batch)
            loss = sum_all(cross_entropy(logits, np.array([5])))
        tape.backward(loss)
        # gradient reaches entity rows that never appeared as inputs
        assert model.params["entity_in"].grad is not None
        assert np.abs(model.params["entity_in"].grad[12]).max() > 0.0


def logits_and_grads(model: Model, batch: Batch) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Training-mode logits (top-2 routing) and every parameter's gradient of the mean graph loss."""
    model = model.clone()
    with Tape() as tape:
        logits = forward(model, batch, training=True)
        loss = T.mul(sum_all(cross_entropy(logits, batch.targets, alpha=0.1)), 1.0 / batch.graph_count)
    tape.backward(loss)
    return logits.data, {name: t.grad for name, t in model.params.items()}


class TestStatesGather:
    """The final ``states`` gather is flagged unique, a one-position batch included.

    Bit-exact: for distinct indexes ``grad[idx] += g`` adds the same values
    as ``np.add.at``. The reference run turns every gather's flag off.
    """

    def run(self, monkeypatch, model, batch, flag: bool):
        original = T.gather_rows
        calls = []

        def spy(a, indexes, unique=False):
            calls.append((np.asarray(indexes).copy(), unique))
            return original(a, indexes, unique=unique and flag)

        with monkeypatch.context() as patch:
            patch.setattr(T, "gather_rows", spy)
            logits, grads = logits_and_grads(model, batch)
        return logits, grads, calls

    @pytest.mark.parametrize("one_position", [False, True])
    def test_flag_on_and_off_match(self, monkeypatch, one_position):
        g = toy_split(seed=4).train
        cfg = ModelConfig(
            entity_count=g.entity_count, relation_count=g.relation_count, layers=2,
            hidden=32, heads=4, experts=4, top_k=2, dropout=0.0,
        )
        if one_position:
            batch = encode_queries([build_query(QueryType.P1, (1,), (0,))], cfg)
        else:
            subs = sample_stage1_batch(g, np.random.default_rng(5), batch_size=8, budget=(3, 10))
            batch = encode_subgraphs(subs, cfg)
        assert (batch.positions.size == 1) == one_position
        model = Model.init(cfg, seed=6)
        on_logits, on, calls = self.run(monkeypatch, model, batch, flag=True)
        off_logits, off, _ = self.run(monkeypatch, model, batch, flag=False)
        # the states gather is the last one
        idx, unique = calls[-1]
        assert np.array_equal(idx, batch.positions)
        assert unique
        assert on_logits.tobytes() == off_logits.tobytes()
        for name in off:
            assert on[name].tobytes() == off[name].tobytes(), name


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
                loss = sum_all(cross_entropy(logits, encode_subgraphs(subs, cfg).targets, alpha=0.1))
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

    def test_gradient_outside_the_arena_is_rejected(self):
        model = Model.init(tiny_config(), seed=24)
        opt = AdamW(model.params, AdamWConfig())
        model.params["node_type"].grad = np.ones(model.params["node_type"].shape, dtype=np.float32)
        with pytest.raises(ValueError, match="'node_type'"):
            clip_global_norm(model.params, 1.0)
        with pytest.raises(ValueError, match="'node_type'"):
            opt.step()


class TestPacking:
    """Packed batches against the former one-graph-per-row padded encoders (tests/helpers.py).

    At dropout 0 only the summation order changes, so logits and gradients
    match within 1e-5 of each array's largest magnitude (about 84 float32
    ulps); batches of one width pack one graph per row and are bit-identical.
    """

    def assert_close(self, got, want, what):
        bound = 1e-5 * np.abs(want).max()
        assert np.abs(got - want).max() <= bound, what

    def check_against_padded(self, cfg, packed, padded):
        assert packed.graph_count == padded.graph_count
        assert packed.entity_ids.size < padded.entity_ids.size  # the case really packs
        model = Model.init(cfg, seed=31)
        got_logits, got = logits_and_grads(model, packed)
        want_logits, want = logits_and_grads(model, padded)
        self.assert_close(got_logits, want_logits, "logits")
        for name in want:
            assert (got[name] is None) == (want[name] is None), name
            if want[name] is not None:
                self.assert_close(got[name], want[name], name)

    def graph_config(self, g):
        return ModelConfig(
            entity_count=g.entity_count, relation_count=g.relation_count, layers=2,
            hidden=32, heads=4, experts=4, top_k=2, dropout=0.0,
        )

    def test_stage1_batches_match_padded(self):
        g = toy_split(seed=4).train
        cfg = self.graph_config(g)
        subs = sample_stage1_batch(g, np.random.default_rng(5), batch_size=16, budget=(3, 14))
        self.check_against_padded(cfg, encode_subgraphs(subs, cfg), padded_encode_subgraphs(subs, cfg))

    def test_stage2_batches_match_padded(self):
        g = toy_split(seed=6).train
        cfg = self.graph_config(g)
        rng = np.random.default_rng(7)
        subs = [sample_meta_graph(g, rng, pattern_mix=1.0) for _ in range(16)]
        self.check_against_padded(cfg, encode_subgraphs(subs, cfg), padded_encode_subgraphs(subs, cfg))

    def test_mixed_width_query_batches_match_padded(self):
        cfg = tiny_config(hidden=32, heads=4)
        queries = [
            build_query(QueryType.P1, (1,), (0,)),
            build_query(QueryType.P3, (2,), (0, 1, 2)),
            build_query(QueryType.I2, (3, 4), (1, 2)),
            build_query(QueryType.P2, (5,), (2, 3)),
            build_query(QueryType.P1, (6,), (3,)),
            build_query(QueryType.I3, (7, 8, 9), (0, 1, 2)),
            build_query(QueryType.P1, (10,), (1,)),
        ]
        packed = encode_queries(queries, cfg)
        padded = padded_encode_queries(queries, cfg)
        packed.targets = padded.targets = np.arange(len(queries), dtype=np.int64)
        self.check_against_padded(cfg, packed, padded)

    def test_same_width_query_batches_are_bit_identical(self):
        cfg = tiny_config(hidden=32, heads=4)
        model = Model.init(cfg, seed=32)
        for qtype, anchors, relations in [
            (QueryType.P2, (1,), (0, 1)),
            (QueryType.I3, (1, 2, 3), (0, 1, 2)),
        ]:
            queries = [build_query(qtype, tuple(a + k for a in anchors), relations) for k in range(5)]
            packed = encode_queries(queries, cfg)
            padded = padded_encode_queries(queries, cfg)
            for field in ("entity_ids", "relation_ids", "is_entity", "attn_mask", "positions", "targets"):
                got, want = getattr(packed, field), getattr(padded, field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
            assert packed.sizes == padded.sizes and packed.graph_count == padded.graph_count
            assert forward(model, packed).data.tobytes() == forward(model, padded).data.tobytes()


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

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.saved(tmp_path, 18)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match=r"\.kgtc: trailing bytes after the parameter arena"):
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
