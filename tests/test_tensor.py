import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _unbroadcast,
    arena_params,
    dense_cross_entropy,
    former_add,
    former_attention,
    former_attention_rows,
    former_dropout,
    former_gelu,
    former_layer_norm,
    former_masked_softmax,
    former_mul,
    former_softmax,
    former_softmax_op,
    former_transpose,
    loop_answer_masked_cross_entropy,
    slice_last,
    smoothed_labels,
)
from kgt.tensor import (
    Tape,
    Tensor,
    _accumulate,
    _gelu_grad,
    _record,
    add,
    answer_masked_cross_entropy,
    attention,
    cross_entropy,
    decode,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    mask_bias,
    masked_softmax,
    matmul,
    moe_experts,
    mul,
    softmax,
    sum_all,
)


def run_op(op, x: np.ndarray, upstream: np.ndarray, *args):
    """Forward ``op`` on a leaf holding x, backpropagate ``upstream``; return (output, grad)."""
    t = Tensor(x.copy(), requires_grad=True)
    with Tape() as tape:
        out = op(t, *args)
        loss = sum_all(mul(out, Tensor(upstream.astype(x.dtype))))
    tape.backward(loss)
    return out.data, t.grad


def scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference over the reference's largest magnitude (at least 1e-30)."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.arange(3, dtype=np.int64)).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_no_tape_records_nothing(self):
        a = Tensor([1.0], requires_grad=True)
        out = add(a, a)  # outside any tape
        assert out.requires_grad
        with Tape() as tape:
            pass
        tape.backward(out)
        assert a.grad is None

    def test_gradients_accumulate_across_uses(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            out = sum_all(add(a, a))
        tape.backward(out)
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_only_leaves_and_loss_keep_grads(self):
        # an op output's gradient is dropped once its backward has used it
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([1.0, 4.0], requires_grad=True)
        with Tape() as tape:
            ab = mul(a, b)
            twice = add(ab, ab)
            out = sum_all(twice)
        tape.backward(out)
        assert ab.grad is None and twice.grad is None
        assert np.allclose(a.grad, [2.0, 8.0]) and np.allclose(b.grad, [4.0, 6.0])
        assert out.grad == 1.0

    def test_constant_branch_gets_no_grad(self):
        a = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        with Tape() as tape:
            out = sum_all(mul(a, c))
        tape.backward(out)
        assert c.grad is None
        assert np.allclose(a.grad, [5.0])

    def test_unequal_shapes_raise(self):
        # no op broadcasts: only a constant scalar may scale a tensor of another shape
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        for b in (Tensor(np.ones(4)), Tensor(np.ones((3, 1))), Tensor(np.ones((1, 3, 4)))):
            with pytest.raises(ValueError, match="add operands differ in shape"):
                add(a, b)
            with pytest.raises(ValueError, match="mul operands differ in shape"):
                mul(a, b)
        with pytest.raises(ValueError, match="add operands differ in shape"):
            add(a, 2.0)
        with pytest.raises(ValueError, match="mul operands differ in shape"):
            mul(a, Tensor(2.0, requires_grad=True))
        with Tape() as tape:
            out = sum_all(mul(a, 2.0))
        tape.backward(out)
        assert a.grad.tolist() == [[2.0] * 4] * 3

    def test_matmul_is_2d_only(self):
        # stacked products run inside the ops that need them, such as attention
        for a, b in (((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 4, 5)), ((4,), (4, 5))):
            with pytest.raises(ValueError, match="matmul operands must be 2-D"):
                matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))

    def test_decode_is_2d_only(self):
        with pytest.raises(ValueError, match="decode operands must be 2-D"):
            decode(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 4))))

    def test_moe_experts_needs_one_route_per_expert(self):
        # each expert writes its slice of the weight gradients, so none may be left out
        t = [Tensor(np.ones(shape)) for shape in ((5, 3), (5, 3), (3, 3, 4), (3, 4), (3, 4, 3), (3, 3))]
        with pytest.raises(ValueError, match="one route per expert: 2 routes for 3 experts"):
            moe_experts(*t, [np.arange(5), np.arange(5)])

    def test_weight_used_twice_writes_then_accumulates(self):
        # bit-exact: the first product writes into the arena span, the second adds
        rng = np.random.default_rng(6)
        w0 = rng.normal(size=(4, 5)).astype(np.float32)
        xs = [Tensor(rng.normal(size=(n, 4)).astype(np.float32)) for n in (3, 7)]
        weights = arena_params({"w": w0})["w"], Tensor(w0.copy(), requires_grad=True)
        for w in weights:
            with Tape() as tape:
                out = add(sum_all(mul(matmul(xs[0], w), Tensor(np.full((3, 5), 2.0)))), sum_all(matmul(xs[1], w)))
            tape.backward(out)
        assert weights[0].grad is weights[0].grad_view
        assert weights[0].grad.tobytes() == weights[1].grad.tobytes()

    def test_layer_norm_is_2d_only(self):
        # the node states are [B * N, d] rows; only attention sees the grid
        for shape in ((2, 3, 4), (4,)):
            with pytest.raises(ValueError, match="layer_norm input must be 2-D"):
                layer_norm(Tensor(np.ones(shape)), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_grad_does_not_alias_upstream(self):
        # add hands the upstream gradient itself down; the leaf must keep its
        # own copy
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            out = add(a, Tensor(np.zeros((3, 4))))
        tape.backward(out)
        before = a.grad.copy()
        out.grad += 5.0
        assert np.array_equal(a.grad, before)

    def test_grad_is_c_ordered(self):
        # transpose hands down an F-ordered view; AdamW wants C order
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul(former_transpose(a, (1, 0)), Tensor(np.ones((4, 3)))))
        tape.backward(out)
        assert a.grad.flags.c_contiguous

    def test_model_backward_grads_share_no_memory(self):
        # backward ops hand over the arrays they build instead of copying them;
        # each parameter must still end up with a private C-ordered gradient
        from kgt.model import Model, ModelConfig, encode_subgraphs, forward
        from kgt.sampling import sample_stage1_batch

        from helpers import toy_split

        g = toy_split(seed=2).train
        subs = sample_stage1_batch(g, np.random.default_rng(3), batch_size=6, budget=(3, 10))
        for tie in (False, True):
            cfg = ModelConfig(
                entity_count=g.entity_count, relation_count=g.relation_count, layers=2,
                hidden=16, heads=2, experts=4, top_k=2, dropout=0.1, tie_decoder=tie,
            )
            model = Model.init(cfg, seed=4)
            batch = encode_subgraphs(subs, cfg)
            with Tape() as tape:
                logits = forward(model, batch, training=True, rng=np.random.default_rng(5))
                loss = sum_all(cross_entropy(logits, batch.targets, alpha=0.1))
            tape.backward(loss)
            named = [(name, t.grad) for name, t in model.params.items()]
            assert all(grad is not None and grad.flags.c_contiguous for _, grad in named)
            arrays = named + [(name + " data", t.data) for name, t in model.params.items()]
            for i, (name_a, a) in enumerate(named):
                for name_b, b in arrays[i + 1 :]:
                    assert not np.shares_memory(a, b), (name_a, name_b)

    def test_gather_rows_repeats_sum(self):
        a = Tensor(np.eye(3), requires_grad=True)
        with Tape() as tape:
            out = sum_all(gather_rows(a, np.array([0, 0, 2])))
        tape.backward(out)
        assert np.allclose(a.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1]])

    def test_gather_rows_unique_matches_add_at(self):
        # bit-exact: each row gets one addition either way, here onto a gradient
        # that an earlier use of ``a`` already wrote
        rng = np.random.default_rng(5)
        data = rng.normal(size=(6, 4)).astype(np.float32)
        idx = np.array([4, 1, 5, 0])
        weights = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        grads = []
        for unique in (False, True):
            a = Tensor(data, requires_grad=True)
            with Tape() as tape:
                out = add(sum_all(mul(gather_rows(a, idx, unique=unique), weights)), sum_all(mul(a, a)))
            tape.backward(out)
            grads.append(a.grad)
        assert np.array_equal(grads[0], grads[1])


def gelu_op(a: Tensor) -> Tensor:
    """The :func:`gelu` kernel and its backward, :func:`_gelu_grad`, as a tape op."""
    y, th = gelu(a.data)
    out = Tensor(y, requires_grad=a.requires_grad)

    def backward(g):
        _accumulate(a, _gelu_grad(a.data, th, g), owned=True)

    return _record(out, backward)


class TestGelu:
    def test_float32_matches_float64_formula(self):
        # tolerance-bounded: float32 against the tanh formula and its
        # derivative written out in float64, errors over max(1, |reference|);
        # forward 4 float32 ulps, backward 64 ulps (1 - tanh^2 cancels for
        # |x| past 3; measured 1.5e-7 and 3.1e-6 at |x| <= 8)
        rng = np.random.default_rng(0)
        x = rng.uniform(-8.0, 8.0, size=(200, 300)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        out, grad = run_op(gelu_op, x, g)
        x64 = x.astype(np.float64)
        c = np.sqrt(2.0 / np.pi)
        th = np.tanh(c * (x64 + 0.044715 * x64**3))
        want_out = 0.5 * x64 * (1.0 + th)
        want_grad = g * (0.5 * (1.0 + th) + 0.5 * x64 * (1.0 - th**2) * c * (1.0 + 3 * 0.044715 * x64**2))
        eps = np.finfo(np.float32).eps
        assert out.dtype == grad.dtype == np.float32
        assert (np.abs(out - want_out) / np.maximum(1.0, np.abs(want_out))).max() <= 4 * eps
        assert (np.abs(grad - want_grad) / np.maximum(1.0, np.abs(want_grad))).max() <= 64 * eps


class TestAttentionWeightGradient:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_stacked_product(self, dtype):
        # oracle: the per-row products h[i].T @ g_qkv[i] summed by _unbroadcast,
        # where g_qkv, the gradient of the projections, comes from the former
        # ops on a leaf that holds h @ wqkv. The weight gradient is one GEMM
        # over every grid row and sums in another order (tolerance-bounded:
        # 16 ulps of the largest entry)
        # (the op takes the grid's [B * N, d] rows; the oracle runs on the grid)
        rng = np.random.default_rng(3)
        b, n, d, heads = 5, 7, 16, 4
        h = rng.normal(size=(b, n, d)).astype(dtype)
        wqkv = rng.normal(size=(d, 3 * d)).astype(dtype)
        wo = Tensor(rng.normal(size=(d, d)).astype(dtype))
        bias = mask_bias((rng.random((b, 1, n, n)) < 0.5) | np.eye(n, dtype=bool))
        g = rng.normal(size=(b, n, d)).astype(dtype)
        tw = Tensor(wqkv, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(attention(Tensor(h.reshape(b * n, d)), tw, wo, bias, heads), Tensor(g.reshape(b * n, d))))
        tape.backward(loss)
        qkv = Tensor(h @ wqkv, requires_grad=True)
        with Tape() as tape:
            q, k, v = (slice_last(qkv, i * d, (i + 1) * d) for i in range(3))
            loss = sum_all(mul(former_attention(q, k, v, wo, bias, heads), Tensor(g)))
        tape.backward(loss)
        want = _unbroadcast(np.swapaxes(h, -1, -2) @ qkv.grad, wqkv.shape)
        assert tw.grad.shape == wqkv.shape and tw.grad.dtype == dtype
        assert scaled_error(tw.grad, want) <= 16 * np.finfo(dtype).eps


class TestOneRowMatmul:
    """A one-row product stays on BLAS gemm (gemv rounds differently)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_row_zero_of_two_row_product(self, dtype, transposed):
        # bit-exact: row 0 of the doubled product, with a zero upstream row 1
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 64)).astype(dtype)
        w = rng.normal(size=(48, 64)).astype(dtype).T if transposed else rng.normal(size=(64, 48)).astype(dtype)
        g = rng.normal(size=(1, 48)).astype(dtype)

        def run(rows: np.ndarray, upstream: np.ndarray):
            ta, tw = Tensor(rows, requires_grad=True), Tensor(w, requires_grad=True)
            with Tape() as tape:
                out = matmul(ta, tw)
                loss = sum_all(mul(out, Tensor(upstream)))
            tape.backward(loss)
            return out.data, ta.grad, tw.grad

        out, grad_x, grad_w = run(x, g)
        out2, grad_x2, grad_w2 = run(np.repeat(x, 2, axis=0), np.concatenate([g, np.zeros_like(g)]))
        assert out.shape == (1, 48) and grad_x.shape == x.shape
        assert out.tobytes() == out2[:1].tobytes()
        assert grad_x.tobytes() == grad_x2[:1].tobytes()
        assert grad_w.tobytes() == grad_w2.tobytes()


class TestMaskedSoftmax:
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_masked_exactly_zero(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(rows, cols)).astype(np.float64))
        mask = rng.random((rows, cols)) < 0.5
        mask[np.arange(rows), rng.integers(cols, size=rows)] = True  # keep rows alive
        p = softmax(x, mask_bias(mask)).data
        assert np.all(p[~mask] == 0.0)
        assert np.all(p[mask] > 0.0)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_row_raises(self):
        mask = np.array([[True, False, False], [False, False, False]])
        with pytest.raises(ValueError):
            mask_bias(mask)
        grid = np.ones((2, 1, 3, 3), dtype=bool)
        grid[1, 0, 2] = False  # one dead row in the second graph's grid
        with pytest.raises(ValueError):
            mask_bias(grid)

    def test_bias_is_zero_where_linked_and_minus_inf_elsewhere(self):
        mask = np.array([[True, False, True], [False, True, False]])
        bias = mask_bias(mask)
        assert bias.dtype == np.float32
        assert bias.tolist() == [[0.0, -np.inf, 0.0], [-np.inf, 0.0, -np.inf]]

    def test_matches_plain_softmax_when_unmasked(self):
        # the op with and without a bias, and the kernel it runs, in place
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 7)))
        full = softmax(x).data
        masked = softmax(x, mask_bias(np.ones(7, dtype=bool))).data
        assert np.array_equal(full, masked)
        buffer = x.data.copy()
        assert masked_softmax(buffer, None) is buffer
        assert np.array_equal(buffer, full)

    def test_huge_logits_stay_finite(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0]], dtype=np.float64))
        p = softmax(x).data
        assert np.isfinite(p).all()
        assert np.allclose(p[0, 0], 1.0)


def grads_of(op, inputs: list[np.ndarray], upstream: np.ndarray, *args):
    """Output and input gradients of ``op`` on leaves holding ``inputs``, under a fixed upstream gradient."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    with Tape() as tape:
        out = op(*leaves, *args)
        loss = sum_all(mul(out, Tensor(upstream)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


def same_bytes(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestFormerOps:
    """Bit-exact: the ops with fewer passes against their former bodies in
    ``helpers``, outputs and gradients byte for byte, at the toy (64) and
    fb15k (128) widths and at 48, where 1/width does not divide exactly, in
    float32 and float64."""

    @given(st.integers(0, 10_000), st.sampled_from([48, 64, 128]), st.sampled_from([np.float32, np.float64]), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_gelu(self, seed, hidden, dtype, rows):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(rows, 2 * hidden)) * rng.choice([0.02, 1.0, 4.0])).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        assert same_bytes(grads_of(gelu_op, [x], g), grads_of(former_gelu, [x], g))

    @given(st.integers(0, 10_000), st.sampled_from([48, 64, 128]), st.sampled_from([np.float32, np.float64]), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_layer_norm(self, seed, hidden, dtype, rows):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(rows * 7, hidden)) * 3.0 + rng.normal()).astype(dtype)
        gain = rng.normal(1.0, 0.1, size=hidden).astype(dtype)
        bias = rng.normal(0.0, 0.1, size=hidden).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        inputs = [x, gain, bias]
        assert same_bytes(grads_of(layer_norm, inputs, g), grads_of(former_layer_norm, inputs, g))

    @given(st.integers(0, 10_000), st.sampled_from([48, 64, 128]), st.sampled_from([np.float32, np.float64]), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_attention_softmax_folds_the_scale(self, seed, hidden, dtype, width):
        # the former attention ops, with a mul by 1/sqrt(head_dim) and then
        # the boolean-mask softmax, on leaves holding wqkv's column blocks
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3 * width, hidden)).astype(dtype)
        wqkv = (rng.normal(size=(hidden, 3 * hidden)) * 0.3).astype(dtype)
        wo = rng.normal(size=(hidden, hidden)).astype(dtype)
        mask = (rng.random((3, 1, width, width)) < 0.3) | np.eye(width, dtype=bool)
        g = rng.normal(size=x.shape).astype(dtype)
        got = grads_of(attention, [x, wqkv, wo], g, mask_bias(mask), 4)

        def scaled_softmax(a, bias, scale):
            return former_masked_softmax(former_mul(a, scale), mask)

        def former(h, wq, wk, wv, wo):
            return former_attention_rows(h, wq, wk, wv, wo, mask_bias(mask), 4, scaled_softmax)

        want = grads_of(former, [x, *np.split(wqkv, 3, axis=1), wo], g)
        assert same_bytes(got, want[:2] + [np.concatenate(want[2:5], axis=1), want[5]])

    @given(st.integers(0, 10_000), st.sampled_from([np.float32, np.float64]), st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_gate_softmaxes(self, seed, dtype, rows):
        # top-2 of 4 routing weights in training, the full mixture at inference
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(rows, 4)).astype(dtype)
        selected = np.zeros(logits.shape, dtype=bool)
        np.put_along_axis(selected, np.argsort(-logits, axis=-1, kind="stable")[:, :2], True, axis=-1)
        g = rng.normal(size=logits.shape).astype(dtype)
        got = grads_of(softmax, [logits], g, mask_bias(selected))
        assert same_bytes(got, grads_of(former_masked_softmax, [logits], g, selected))
        assert same_bytes(got, grads_of(former_softmax_op, [logits], g, mask_bias(selected)))
        got = grads_of(softmax, [logits], g)
        assert same_bytes(got, grads_of(former_softmax, [logits], g))
        assert same_bytes(got, grads_of(former_softmax_op, [logits], g))

    @given(st.integers(0, 10_000), st.sampled_from([48, 64, 128]), st.sampled_from([np.float32, np.float64]), st.sampled_from([0.1, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_residual_dropout(self, seed, hidden, dtype, p):
        # x + Drop(a) as one op against the former add of the former dropout, on the same draws
        rng = np.random.default_rng(seed)
        x, a, g = (rng.normal(size=(9, hidden)).astype(dtype) for _ in range(3))
        got = grads_of(dropout, [x, a], g, p, np.random.default_rng(seed), True)
        want = grads_of(lambda x, a: add(x, former_dropout(a, p, np.random.default_rng(seed), True)), [x, a], g)
        assert same_bytes(got, want)

    @given(st.integers(0, 10_000), st.sampled_from([48, 64, 128]), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=30, deadline=None)
    def test_add_and_mul(self, seed, hidden, dtype):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, hidden)).astype(dtype)
        y = rng.normal(size=x.shape).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        for new, former in ((add, former_add), (mul, former_mul)):
            assert same_bytes(grads_of(new, [x, y], g), grads_of(former, [x, y], g))
            # a constant operand gets no gradient either way; the other one is unchanged
            for const in (y, 0.125) if new is mul else (y,):
                got = grads_of(lambda a: new(a, Tensor(np.asarray(const, dtype=dtype))), [x], g)
                want = grads_of(lambda a: former(a, Tensor(np.asarray(const, dtype=dtype))), [x], g)
                assert same_bytes(got, want)


class TestDropout:
    def test_eval_mode_is_add(self):
        x, a = np.random.default_rng(2).normal(size=(2, 10))
        got = grads_of(dropout, [x, a], np.ones(10), 0.5, None, False)
        assert same_bytes(got, grads_of(add, [x, a], np.ones(10)))

    def test_zero_rate_is_add(self):
        x, a = np.random.default_rng(2).normal(size=(2, 10))
        got = grads_of(dropout, [x, a], np.ones(10), 0.0, np.random.default_rng(0), True)
        assert same_bytes(got, grads_of(add, [x, a], np.ones(10)))

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(1)
        x, a = Tensor(np.full(100_000, 3.0)), Tensor(np.ones(100_000))
        out = dropout(x, a, 0.25, rng, training=True).data - 3.0
        zeros = np.count_nonzero(out == 0.0)
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75)
        sigma = np.sqrt(0.25 * 0.75 / out.size)
        assert abs(zeros / out.size - 0.25) < 3 * sigma

    def test_bad_probability_raises(self):
        x, a = Tensor(np.ones(3)), Tensor(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, a, 1.0, np.random.default_rng(0), training=True)
        with pytest.raises(ValueError):
            dropout(x, a, -0.1, np.random.default_rng(0), training=True)

    def test_training_without_rng_raises(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), Tensor(np.ones(3)), 0.5, None, training=True)

    @pytest.mark.parametrize("training", [False, True])
    def test_operands_of_other_shapes_raise(self, training):
        with pytest.raises(ValueError, match="differ in shape"):
            dropout(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), 0.5, np.random.default_rng(0), training)


class TestSmoothedLabels:
    @given(st.integers(0, 10_000), st.integers(2, 50), st.floats(0.0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_to_one(self, seed, classes, alpha):
        rng = np.random.default_rng(seed)
        targets = rng.integers(classes, size=8)
        y = smoothed_labels(targets, classes, alpha)
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-9)
        assert np.all(y >= 0.0)
        for i, t in enumerate(targets):
            assert y[i].argmax() == t

    def test_alpha_zero_is_exact_one_hot(self):
        y = smoothed_labels(np.array([2, 0]), 4, 0.0)
        expected = np.array([[0, 0, 1, 0], [1, 0, 0, 0]], dtype=np.float64)
        assert np.array_equal(y, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            smoothed_labels(np.array([0]), 3, 1.0)
        with pytest.raises(ValueError):
            smoothed_labels(np.array([3]), 3, 0.1)
        with pytest.raises(ValueError):
            smoothed_labels(np.array([-1]), 3, 0.1)


class TestCrossEntropy:
    def hard_ce(self, z: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Reference hard cross entropy sharing the logsumexp arithmetic."""
        zmax = z.max(axis=-1, keepdims=True)
        lse = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
        logp = z - lse
        return -logp[np.arange(z.shape[0]), targets]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_alpha_zero_bitwise_matches_hard_ce(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=3.0, size=(6, 11)).astype(np.float32)
        targets = rng.integers(11, size=6)
        got = cross_entropy(Tensor(z), targets, alpha=0.0).data
        want = self.hard_ce(z, targets)
        assert got.tobytes() == want.tobytes()

    def test_smoothed_value_matches_definition(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 6)).astype(np.float64)
        targets = rng.integers(6, size=4)
        alpha = 0.3
        y = smoothed_labels(targets, 6, alpha)
        logp = z - (z.max(axis=-1, keepdims=True) + np.log(np.exp(z - z.max(axis=-1, keepdims=True)).sum(axis=-1, keepdims=True)))
        want = -(y * logp).sum(axis=-1)
        got = cross_entropy(Tensor(z), targets, alpha=alpha).data
        assert np.allclose(got, want, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(3, 5)).astype(np.float64)
        targets = np.array([0, 2, 4])
        base = cross_entropy(Tensor(z), targets).data
        shifted = cross_entropy(Tensor(z + 100.0), targets).data
        assert np.allclose(base, shifted, atol=1e-9)

    def test_non_finite_raises(self):
        z = np.array([[0.0, np.inf]])
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            cross_entropy(Tensor(z), np.array([0]))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(4)), np.array([0]))

    def test_gradient_is_softmax_minus_targets(self):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(3, 5)).astype(np.float64), requires_grad=True)
        targets = np.array([1, 1, 3])
        with Tape() as tape:
            loss = sum_all(cross_entropy(z, targets))
        tape.backward(loss)
        p = np.exp(z.data - z.data.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        y = smoothed_labels(targets, 5, 0.0)
        assert np.allclose(z.grad, p - y, atol=1e-12)


class TestCrossEntropyOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dense_labels(self, dtype):
        # oracle: the former dense [P, C] smoothed-label version. Bit-exact at
        # alpha 0; otherwise tolerance-bounded, 64 ulps of the largest value
        eps = np.finfo(dtype).eps
        for seed in range(40):
            rng = np.random.default_rng(seed)
            classes = int(rng.integers(2, 60))
            z = rng.normal(scale=3.0, size=(7, classes)).astype(dtype)
            z[0, :2] = [80.0, -80.0]
            targets = rng.integers(classes, size=7)
            g = rng.normal(size=7)
            for alpha in (0.0, 0.1, 0.3):
                loss, grad = run_op(cross_entropy, z, g, targets, alpha)
                want_loss, want_grad = run_op(dense_cross_entropy, z, g, targets, alpha)
                assert loss.dtype == grad.dtype == dtype
                if alpha == 0.0:
                    assert loss.tobytes() == want_loss.tobytes()
                    assert grad.tobytes() == want_grad.tobytes()
                assert scaled_error(loss, want_loss) <= 64 * eps
                assert scaled_error(grad, want_grad) <= 64 * eps

    def test_one_target_per_row(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1]))


class TestAnswerMaskedCrossEntropy:
    def brute_force(self, z: np.ndarray, answer_sets) -> np.ndarray:
        out = np.zeros(z.shape[0])
        for i, answers in enumerate(answer_sets):
            row = z[i].astype(np.float64)
            others = np.exp(row[[e for e in range(len(row)) if e not in set(answers.tolist())]]).sum()
            terms = [-np.log(np.exp(row[a]) / (np.exp(row[a]) + others)) for a in answers]
            out[i] = np.mean(terms)
        return out

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=2.0, size=(4, 9)).astype(np.float64)
        sets = [np.sort(rng.choice(9, size=int(rng.integers(1, 5)), replace=False)) for _ in range(4)]
        got = answer_masked_cross_entropy(Tensor(z), sets).data
        assert np.allclose(got, self.brute_force(z, sets), atol=1e-10)

    def test_single_answer_equals_plain_ce(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(5, 8)).astype(np.float64)
        targets = rng.integers(8, size=5)
        got = answer_masked_cross_entropy(Tensor(z), [np.array([t]) for t in targets]).data
        want = cross_entropy(Tensor(z), targets).data
        assert np.allclose(got, want, atol=1e-12)

    def test_other_answer_logits_do_not_enter(self):
        # bump the second answer's logit sky high: only its own term moves,
        # and the first answer's term must stay identical
        z = np.array([[1.0, 2.0, 0.5, -1.0]], dtype=np.float64)
        bumped = z.copy()
        bumped[0, 1] = 50.0
        sets = [np.array([0, 1])]
        base_terms = 2 * answer_masked_cross_entropy(Tensor(z), sets).data[0]
        bump_terms = 2 * answer_masked_cross_entropy(Tensor(bumped), sets).data[0]
        # term for answer 0 from each, via single-answer runs on reduced logits
        reduced = z[:, [0, 2, 3]]
        t0 = answer_masked_cross_entropy(Tensor(reduced), [np.array([0])]).data[0]
        assert np.allclose(base_terms - self.term(z, 1, {0, 1}), t0, atol=1e-12)
        assert np.allclose(bump_terms - self.term(bumped, 1, {0, 1}), t0, atol=1e-12)

    def term(self, z, answer, answer_set):
        row = z[0]
        others = np.exp([row[e] for e in range(len(row)) if e not in answer_set]).sum()
        return -np.log(np.exp(row[answer]) / (np.exp(row[answer]) + others))

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(3, 7)).astype(np.float64)
        sets = [np.array([0, 3]), np.array([5]), np.array([1, 2, 6])]
        base = answer_masked_cross_entropy(Tensor(z), sets).data
        shifted = answer_masked_cross_entropy(Tensor(z + 50.0), sets).data
        assert np.allclose(base, shifted, atol=1e-9)

    def test_all_answers_still_finite(self):
        # every class is an answer: denominator reduces to the answer itself
        z = np.array([[0.3, -0.2]], dtype=np.float64)
        loss = answer_masked_cross_entropy(Tensor(z), [np.array([0, 1])]).data
        assert np.allclose(loss, 0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_row_loop(self, dtype):
        # oracle: the former per-row loop with [A, V] temporaries. Tolerance-
        # bounded (sums reordered, closed-form backward): 64 ulps of the
        # largest value. Row 1 is all answers, row 2 has one non-answer, and
        # row 0 holds logits of +80 and -80
        eps = np.finfo(dtype).eps
        for seed in range(40):
            rng = np.random.default_rng(seed)
            classes = int(rng.integers(2, 40))
            z = rng.normal(scale=3.0, size=(6, classes)).astype(dtype)
            z[0, :2] = [80.0, -80.0]
            sets = [np.sort(rng.choice(classes, size=int(rng.integers(1, classes + 1)), replace=False)) for _ in range(6)]
            sets[1] = np.arange(classes)
            sets[2] = np.delete(np.arange(classes), int(rng.integers(classes)))
            g = rng.normal(size=6)
            loss, grad = run_op(answer_masked_cross_entropy, z, g, sets)
            want_loss, want_grad = run_op(loop_answer_masked_cross_entropy, z, g, sets)
            assert loss.dtype == grad.dtype == dtype
            assert np.isfinite(grad).all()
            assert scaled_error(loss, want_loss) <= 64 * eps
            assert scaled_error(grad, want_grad) <= 64 * eps

    def test_validation(self):
        z = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="query 1 has an empty"):
            answer_masked_cross_entropy(z, [np.array([0]), np.array([], dtype=np.int64)])
        with pytest.raises(ValueError, match="query 1 has duplicate"):
            answer_masked_cross_entropy(z, [np.array([2]), np.array([1, 3, 1])])
        with pytest.raises(ValueError, match="query 1 has an answer id out of range"):
            answer_masked_cross_entropy(z, [np.array([0]), np.array([-1])])
        with pytest.raises(ValueError):
            answer_masked_cross_entropy(z, [np.array([0, 0]), np.array([1])])
        with pytest.raises(ValueError):
            answer_masked_cross_entropy(z, [np.array([4]), np.array([1])])
        with pytest.raises(ValueError):
            answer_masked_cross_entropy(z, [np.array([0])])

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(12)
        z = Tensor(rng.normal(size=(2, 6)).astype(np.float64), requires_grad=True)
        sets = [np.array([1, 4]), np.array([0])]
        with Tape() as tape:
            loss = sum_all(answer_masked_cross_entropy(z, sets))
        tape.backward(loss)
        h = 1e-6
        numeric = np.zeros_like(z.data)
        for i in range(2):
            for j in range(6):
                zp = z.data.copy()
                zp[i, j] += h
                zm = z.data.copy()
                zm[i, j] -= h
                fp = answer_masked_cross_entropy(Tensor(zp), sets).data.sum()
                fm = answer_masked_cross_entropy(Tensor(zm), sets).data.sum()
                numeric[i, j] = (fp - fm) / (2 * h)
        assert np.allclose(z.grad, numeric, atol=1e-7)


class TestGradcheckCoverage:
    def test_every_tape_op_has_a_gradcheck_row(self):
        # a recorder is a kgt.tensor function that calls _record; a row covers
        # each op whose backward it puts on the tape, so sum_all and mul are
        # covered through the _weighted reduction
        import ast
        import inspect

        import kgt.tensor
        from kgt.gradcheck import OP_CASES, _weighted

        tree = ast.parse(inspect.getsource(kgt.tensor))
        recorders = {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_record" for n in ast.walk(node))
        }
        assert {"add", "moe_experts", "answer_masked_cross_entropy"} <= recorders
        covered = set()
        rng = np.random.default_rng(0)
        for case in OP_CASES:
            params = [case.draw(rng, *shape) for shape in case.shapes]
            with Tape() as tape:
                _weighted(case.op(*params), rng)
            covered |= {backward.__qualname__.split(".")[0] for _, backward in tape._records}
        assert sorted(recorders - covered) == []
