import math
import resource
import tracemalloc

import numpy as np
import pytest

from kgt.optim import AdamW, AdamWConfig, clip_global_norm, keep_freed_heap

from equivalence import LOOP_SHAPES, check
from helpers import arena_params, set_grad

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


class TestConfig:
    def test_defaults(self):
        cfg = AdamWConfig()
        assert cfg.lr == 1e-4
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.eps == 1e-8
        assert cfg.weight_decay == 0.01
        assert cfg.lr_decay == 0.997

    def test_schedule(self):
        cfg = AdamWConfig(lr=0.5, lr_decay=0.9)
        assert cfg.lr_at(0) == 0.5
        assert np.isclose(cfg.lr_at(3), 0.5 * 0.9**3)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdamWConfig(lr=0.0)
        with pytest.raises(ValueError):
            AdamWConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamWConfig(eps=0.0)
        with pytest.raises(ValueError):
            AdamWConfig(weight_decay=-0.1)
        with pytest.raises(ValueError):
            AdamWConfig(lr_decay=0.0)


class TestAdamW:
    @DTYPES
    def test_bit_exact_against_former_expression(self, dtype):
        check("AdamW.step/per-tensor-loop", max_norm=1e6, dtype=dtype, seed=4)

    def test_first_step_moves_by_lr(self):
        # bias correction makes the very first unit-gradient step ~ lr
        cfg = AdamWConfig(lr=1e-3, weight_decay=0.0)
        params = arena_params({"p": np.zeros(4)})
        p = params["p"]
        opt = AdamW(params, cfg)
        set_grad(p, np.ones(4))
        opt.step(0)
        assert np.allclose(p.data, -1e-3, atol=1e-9)

    def test_decay_is_decoupled(self):
        # with zero gradient the moments stay zero and only decay acts
        cfg = AdamWConfig(lr=0.1, weight_decay=0.5)
        params = arena_params({"p": [2.0]}, np.float64)
        p = params["p"]
        opt = AdamW(params, cfg)
        set_grad(p, np.zeros(1))
        opt.step(0)
        assert np.allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0)

    def test_step_returns_scheduled_lr(self):
        cfg = AdamWConfig(lr=0.2, lr_decay=0.5)
        params = arena_params({"p": np.ones(1)})
        opt = AdamW(params, cfg)
        set_grad(params["p"], np.ones(1))
        assert opt.step(epoch=2) == pytest.approx(0.05)

    def test_bias_correction_uses_global_step(self):
        # two optimizers, same grads, different epoch labels: moments identical
        cfg = AdamWConfig(lr=0.01, lr_decay=1.0, weight_decay=0.0)
        pa = arena_params({"p": [1.0]}, np.float64)
        pb = arena_params({"p": [1.0]}, np.float64)
        a, b = pa["p"], pb["p"]
        oa = AdamW(pa, cfg)
        ob = AdamW(pb, cfg)
        for i in range(5):
            set_grad(a, [0.3])
            set_grad(b, [0.3])
            oa.step(epoch=0)
            ob.step(epoch=i)  # lr_decay=1.0 so schedule is flat anyway
        assert np.allclose(a.data, b.data)

    def test_zero_grad(self):
        params = arena_params({"p": np.ones(2)})
        p = params["p"]
        opt = AdamW(params, AdamWConfig())
        set_grad(p, np.ones(2))
        opt.zero_grad()
        assert p.grad is None

    def test_float32_params_stay_float32(self):
        params = arena_params({"p": np.ones(3, dtype=np.float32)})
        p = params["p"]
        opt = AdamW(params, AdamWConfig())
        set_grad(p, np.ones(3, dtype=np.float32))
        opt.step(0)
        assert p.data.dtype == np.float32


class TestClip:
    def test_under_threshold_untouched(self):
        params = arena_params({"p": np.zeros(3)})
        p = params["p"]
        set_grad(p, [0.3, 0.0, 0.4])
        norm = clip_global_norm(params, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.0, 0.4])

    def test_over_threshold_scaled_jointly(self):
        # the clip returns the norm and leaves the gradients as they are;
        # AdamW.step scales them jointly as it reads them
        params = arena_params({"a": np.zeros(2), "b": np.zeros(2)})
        a, b = params["a"], params["b"]
        set_grad(a, [3.0, 0.0])
        set_grad(b, [0.0, 4.0])
        norm = clip_global_norm(params, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.array_equal(a.grad, [3.0, 0.0]) and np.array_equal(b.grad, [0.0, 4.0])
        cfg = AdamWConfig(beta1=0.5)
        opt = AdamW(params, cfg)
        opt.step(0, 1.0 / norm)
        # the first moment is (1 - beta1) times the scaled gradient: joint norm 1, direction kept
        scaled = opt._m / (1.0 - cfg.beta1)
        assert math.sqrt(float((scaled**2).sum())) == pytest.approx(1.0)
        assert np.allclose(scaled, [3.0 / 5.0, 0.0, 0.0, 4.0 / 5.0])
        assert np.array_equal(a.grad, [3.0, 0.0]) and np.array_equal(b.grad, [0.0, 4.0])

    @DTYPES
    def test_scale_in_the_step_matches_scaling_the_gradient_first(self, dtype):
        check("AdamW.step/per-tensor-loop", max_norm=1e-3, dtype=dtype, seed=6)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_norm_raises_before_touching_anything(self, bad):
        # an infinite gradient used to be scaled to NaN, and a NaN norm
        # skipped clipping; either way AdamW then wrote NaN into the weights
        params = arena_params({"a": np.ones(2), "b": np.ones(3)})
        a, b = params["a"], params["b"]
        set_grad(a, [30.0, 40.0])
        set_grad(b, [1.0, bad, 2.0])
        opt = AdamW(params, AdamWConfig(lr=0.1))
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            clip_global_norm(params, 1.0)
            opt.step(0)
        assert np.array_equal(a.grad, [30.0, 40.0])
        assert np.array_equal(b.grad, [1.0, bad, 2.0], equal_nan=True)
        assert np.array_equal(a.data, np.ones(2))
        assert np.array_equal(b.data, np.ones(3))

    def test_blocked_norm_matches_full_float64_sum(self):
        check("clip_global_norm/float64-full-sum")

    def test_second_call_allocates_no_scratch(self):
        # the 256 KiB float64 scratch is made once per process, not per call
        params = arena_params({"w": np.ones((300, 300), dtype=np.float32)})
        set_grad(params["w"], np.ones((300, 300), dtype=np.float32))
        clip_global_norm(params, 1.0)
        tracemalloc.start()
        try:
            clip_global_norm(params, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bad_max_norm(self):
        # a NaN max_norm used to pass: nan <= 0 is false and norm > nan never holds
        params = arena_params({"p": np.zeros(1)})
        set_grad(params["p"], [2.0])
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="max_norm must be positive and finite"):
                clip_global_norm(params, bad)


class TestGradientContract:
    """Every parameter needs its own gradient view; otherwise the clip and the step raise, writing nothing."""

    @staticmethod
    def break_grads(params, opt: AdamW, case: str) -> str:
        """Leave the arena's gradients faulty as ``case`` says, and return the parameter to be named."""
        for t in params.values():
            set_grad(t, np.full(t.shape, 0.5))
        if case == "none":
            params["b"].grad = None
            return "b"
        if case == "outside":
            params["b"].grad = params["b"].grad_view.copy()
            return "b"
        opt.zero_grad()  # a fresh optimizer, before any backward
        return "a"

    @pytest.mark.parametrize("case", ["none", "outside", "no-backward"])
    @pytest.mark.parametrize("call", ["step", "clip"])
    def test_raises_naming_the_parameter_and_writes_nothing(self, call, case):
        rng = np.random.default_rng(11)
        params = arena_params({name: rng.normal(size=shape) for name, shape in {"a": (3,), "b": (2, 4), "c": (5,)}.items()})
        opt = AdamW(params, AdamWConfig(lr=0.1))
        if case != "no-backward":
            for t in params.values():
                set_grad(t, rng.normal(size=t.shape))
            opt.step(0)  # so the moments are written
        steps = opt.step_count
        name = self.break_grads(params, opt, case)
        arenas = (opt._data, opt._grad, opt._m, opt._v)
        before = [a.tobytes() for a in arenas]
        with pytest.raises(ValueError, match=repr(name)):
            if call == "step":
                opt.step(0)
            else:
                clip_global_norm(params, 1.0)
        assert [a.tobytes() for a in arenas] == before
        assert opt.step_count == steps

    def test_clip_of_part_of_an_arena_raises(self):
        # the clip walks the arena as one span, so its parameters must cover it in order
        params = arena_params({"a": np.ones(3), "b": np.ones(8), "c": np.ones(5)})
        for t in params.values():
            set_grad(t, np.ones(t.shape))
        with pytest.raises(ValueError, match="'c'"):
            clip_global_norm({"a": params["a"], "c": params["c"]}, 1.0)
        with pytest.raises(ValueError, match="cover 11 of their arena's 16"):
            clip_global_norm({"a": params["a"], "b": params["b"]}, 1.0)


class TestArenaAgainstLoop:
    """The whole-arena clip and AdamW against the former per-tensor loops (tests/helpers.py)."""

    @DTYPES
    @pytest.mark.parametrize("max_norm", [1e-3, 1e6], ids=["clipping", "not-clipping"])
    def test_bit_exact_over_five_steps(self, dtype, max_norm):
        check("AdamW.step/per-tensor-loop", max_norm=max_norm, dtype=dtype)

    def test_non_finite_norm_writes_nothing(self):
        rng = np.random.default_rng(9)
        params = arena_params({name: rng.normal(size=shape).astype(np.float32) for name, shape in LOOP_SHAPES.items()})
        opt = AdamW(params, AdamWConfig(lr=0.1))
        for t in params.values():
            set_grad(t, rng.normal(size=t.shape))
        clip_global_norm(params, 1.0)
        opt.step(0)  # so the moments are not zero
        for t in params.values():
            set_grad(t, rng.normal(size=t.shape))
        params["big"].grad[123, 7] = np.inf
        arenas = (opt._data, opt._grad, opt._m, opt._v)
        before = [a.tobytes() for a in arenas]
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            clip_global_norm(params, 1.0)
        assert [a.tobytes() for a in arenas] == before


class TestKeepFreedHeap:
    def test_a_freed_block_is_reused_without_page_faults(self):
        if not keep_freed_heap():
            pytest.skip("the C library has no glibc mallopt")
        size = 24 << 20  # 6144 pages, below the 32 MiB that still come from the heap
        np.ones(size // 8).sum()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(size // 8).sum()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64  # 511 under the default policy
