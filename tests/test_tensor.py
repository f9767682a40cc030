import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivalence import check, tape_ops
from helpers import arena_params, former_transpose, smoothed_labels
from kgt.tensor import (
    Tape,
    Tensor,
    add,
    answer_masked_cross_entropy,
    cross_entropy,
    decode,
    dropout,
    gather_rows,
    layer_norm,
    mask_bias,
    masked_softmax,
    matmul,
    moe_experts,
    softmax,
)

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
SEED, HIDDEN, DTYPE = st.integers(0, 10_000), st.sampled_from([48, 64, 128]), st.sampled_from([np.float32, np.float64])
EXAMPLES = settings(max_examples=30, deadline=None)


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
            out = add(a, a)
        tape.backward(out)
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_only_leaves_and_loss_keep_grads(self):
        # an op output's gradient is dropped once its backward has used it
        a = Tensor([[2.0, 3.0]], requires_grad=True)
        b = Tensor([[1.0], [4.0]], requires_grad=True)
        with Tape() as tape:
            ab = matmul(a, b)
            out = add(ab, ab)
        tape.backward(out)
        assert ab.grad is None
        assert np.allclose(a.grad, [[2.0, 8.0]]) and np.allclose(b.grad, [[4.0], [6.0]])
        assert out.grad == 1.0

    def test_constant_branch_gets_no_grad(self):
        a = Tensor([[1.0]], requires_grad=True)
        c = Tensor([[5.0]])
        with Tape() as tape:
            out = matmul(a, c)
        tape.backward(out)
        assert c.grad is None
        assert np.allclose(a.grad, [[5.0]])

    def test_unequal_shapes_raise(self):
        # no op broadcasts
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        for b in (Tensor(np.ones(4)), Tensor(np.ones((3, 1))), Tensor(np.ones((1, 3, 4)))):
            with pytest.raises(ValueError, match="add operands differ in shape"):
                add(a, b)

    def test_backward_starts_from_the_upstream_gradient(self):
        # the seed is cast to the output's dtype; a seed of another shape would
        # broadcast silently through cross_entropy's g[:, None]
        z = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            losses = cross_entropy(z, np.array([0, 1, 2]))
        for seed in (np.float32(0.5), np.full(1, 0.5), np.full((3, 1), 0.5)):
            with pytest.raises(ValueError, match=re.escape(f"shape {np.shape(seed)} for an output of shape (3,)")):
                tape.backward(losses, seed)
        tape.backward(losses, np.full(3, 0.5))
        assert losses.grad.dtype == np.float32 and losses.grad.tolist() == [0.5] * 3
        assert z.grad.tolist() == (0.125 - 0.5 * np.eye(3, 4)).tolist()

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
        xs = [Tensor(rng.normal(size=(3, 4)).astype(np.float32)) for _ in range(2)]
        upstream = rng.normal(size=(3, 5)).astype(np.float32)
        weights = arena_params({"w": w0})["w"], Tensor(w0.copy(), requires_grad=True)
        for w in weights:
            with Tape() as tape:
                out = add(matmul(xs[0], w), matmul(xs[1], w))
            tape.backward(out, upstream)
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
            out = former_transpose(a, (1, 0))
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
                loss = cross_entropy(logits, batch.targets, alpha=0.1)
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
            out = gather_rows(a, np.array([0, 0, 2]))
        tape.backward(out)
        assert np.allclose(a.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1]])


class TestGatherRows:
    @DTYPES
    @pytest.mark.parametrize("kind", ["distinct", "adjacent", "apart", "positions", "tied"])
    def test_backward_matches_add_at(self, kind, dtype):
        check("gather_rows/add-at", kind=kind, dtype=dtype)


class TestGelu:
    def test_float32_matches_float64_formula(self):
        check("gelu/float64-formula")


class TestAttentionWeightGradient:
    @DTYPES
    def test_matches_stacked_product(self, dtype):
        # 3 grid rows of 7 at width 16: one product over every row gives wqkv's gradient
        check("attention/former-ops", seed=3, hidden=16, dtype=dtype, width=7)


class TestOneRowMatmul:
    @DTYPES
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_row_zero_of_two_row_product(self, dtype, transposed):
        check("matmul/one-row", transposed=transposed, dtype=dtype)


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


class TestFormerOps:
    """The ops with fewer passes against their twins, at the toy (64) and
    fb15k (128) widths and at 48, where 1/width does not divide exactly, in
    float32 and float64; bit-exact but for GELU's float64 formula."""

    @given(seed=SEED, hidden=HIDDEN, dtype=DTYPE, rows=st.integers(1, 40))
    @EXAMPLES
    def test_gelu(self, seed, hidden, dtype, rows):
        check("gelu/float64-formula", seed=seed, hidden=hidden, dtype=dtype, rows=rows)

    @given(seed=SEED, hidden=HIDDEN, dtype=DTYPE, rows=st.integers(1, 6))
    @EXAMPLES
    def test_layer_norm(self, seed, hidden, dtype, rows):
        check("layer_norm/former", seed=seed, hidden=hidden, dtype=dtype, rows=rows)

    @given(seed=SEED, hidden=HIDDEN, dtype=DTYPE, width=st.integers(1, 12))
    @EXAMPLES
    def test_attention_softmax_folds_the_scale(self, seed, hidden, dtype, width):
        check("attention/former-ops", seed=seed, hidden=hidden, dtype=dtype, width=width)

    @given(seed=SEED, dtype=DTYPE, rows=st.integers(1, 60))
    @EXAMPLES
    def test_gate_softmaxes(self, seed, dtype, rows):
        # top-2 of 4 routing weights in training, the full mixture at inference
        check("softmax/former-boolean-mask", seed=seed, dtype=dtype, rows=rows)

    @given(seed=SEED, hidden=HIDDEN, dtype=DTYPE, p=st.sampled_from([0.1, 0.5]))
    @EXAMPLES
    def test_residual_dropout(self, seed, hidden, dtype, p):
        check("dropout/add-of-dropout", seed=seed, hidden=hidden, dtype=dtype, p=p)

    @given(seed=SEED, hidden=HIDDEN, dtype=DTYPE)
    @EXAMPLES
    def test_add(self, seed, hidden, dtype):
        check("add/former", seed=seed, hidden=hidden, dtype=dtype)


class TestDropout:
    def test_eval_mode_is_add(self):
        check("dropout/add-of-dropout", seed=2, hidden=10, dtype=np.float64, p=0.5, training=False)

    def test_zero_rate_is_add(self):
        check("dropout/add-of-dropout", seed=2, hidden=10, dtype=np.float64, p=0.0)

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
            loss = cross_entropy(z, targets)
        tape.backward(loss)
        p = np.exp(z.data - z.data.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        y = smoothed_labels(targets, 5, 0.0)
        assert np.allclose(z.grad, p - y, atol=1e-12)


class TestCrossEntropyOracle:
    @DTYPES
    def test_matches_dense_labels(self, dtype):
        for seed in range(40):
            for alpha in (0.0, 0.1, 0.3):
                check("cross_entropy/dense-labels", dtype=dtype, seed=seed, alpha=alpha)

    @DTYPES
    def test_unsmoothed_matches_dense_labels_bit_for_bit(self, dtype):
        for seed in range(40):
            check("cross_entropy/dense-labels-unsmoothed", dtype=dtype, seed=seed, alpha=0.0)

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

    @DTYPES
    def test_matches_per_row_loop(self, dtype):
        for seed in range(40):
            check("answer_masked_cross_entropy/per-row-loop", dtype=dtype, seed=seed)

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
            loss = answer_masked_cross_entropy(z, sets)
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
    def test_check_function_fails_a_backward_that_doubles_its_gradient(self):
        from kgt.gradcheck import OP_TOLERANCE, check_function
        from kgt.tensor import _accumulate, _record

        def identity(factor):
            # an identity op whose backward passes on ``factor`` times its gradient
            def f(params):
                x = params["x"]
                out = _record(Tensor(x.data.copy(), requires_grad=True), lambda g: _accumulate(x, factor * g))
                return out, np.ones(x.data.shape)

            return f

        x = Tensor(np.random.default_rng(22).normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        assert check_function("identity", identity(1.0), {"x": x}, OP_TOLERANCE).passed
        x.grad = None
        assert not check_function("doubled", identity(2.0), {"x": x}, OP_TOLERANCE).passed

    def test_every_tape_op_has_a_gradcheck_row(self):
        # a recorder is a kgt.tensor function that calls _record; a row covers
        # each op whose backward it puts on the tape
        from kgt.gradcheck import OP_CASES

        recorders = tape_ops()
        assert {"add", "moe_experts", "answer_masked_cross_entropy"} <= recorders
        covered = set()
        rng = np.random.default_rng(0)
        for case in OP_CASES:
            params = [case.draw(rng, *shape) for shape in case.shapes]
            with Tape() as tape:
                case.op(*params)
            covered |= {backward.__qualname__.split(".")[0] for _, backward in tape._records}
        assert sorted(recorders - covered) == []
