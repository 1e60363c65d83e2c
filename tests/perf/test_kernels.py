"""Equivalence tests of the vectorised scatter kernels against the
historical reference implementations, and workspace-reuse safety."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.dtype import default_dtype
from repro.nn.layers import Conv2d, DepthwiseConv2d
from repro.perf.workspace import Workspace


class TestMaxPoolBackwardEquivalence:
    """Satellite: flat-bincount maxpool backward == 4-axis add.at scatter."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3), (3, 2), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference(self, kernel, stride, dtype):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 9, 9)).astype(dtype)
        out, cache = F.maxpool2d_forward(x, kernel, stride)
        grad_out = rng.normal(size=out.shape).astype(dtype)
        fast = F.maxpool2d_backward(grad_out, cache)
        reference = F.maxpool2d_backward_reference(grad_out, cache)
        assert fast.shape == reference.shape
        assert fast.dtype == dtype
        # accumulation order may differ where windows overlap, so the
        # comparison is allclose at dtype-appropriate resolution (exact
        # for the non-overlapping stride >= kernel cases)
        if stride >= kernel:
            assert np.array_equal(fast, reference)
        else:
            assert np.allclose(fast, reference, rtol=0, atol=np.finfo(dtype).eps * 64)

    def test_inference_cache_rejects_backward(self):
        x = np.random.default_rng(1).normal(size=(2, 2, 6, 6)).astype(np.float32)
        out, cache = F.maxpool2d_forward(x, 2, 2, need_argmax=False)
        reference, _ = F.maxpool2d_forward(x, 2, 2)
        assert np.array_equal(out, reference)
        with pytest.raises(RuntimeError):
            F.maxpool2d_backward(np.ones_like(out), cache)


def _maxpool_forward_oracle(x, kernel, stride):
    """The historical max-pool forward: gather every window, then argmax."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    patches = windows[:, :, ::stride, ::stride]
    flat = patches.reshape(*patches.shape[:4], kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return out, argmax


#: pool inputs rich in ties: exact repeats, ReLU zeros and -inf (never -0.0,
#: whose tie with +0.0 np.maximum may break either way, nor NaN)
_POOL_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, -np.inf]),
    st.floats(-4, 4, width=32).map(lambda v: v + 0.0),
)


class TestMaxPoolForwardOracle:
    """Window-pass max-pool forward == gather + argmax, byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(
        geometry=st.sampled_from([(2, 2), (3, 3), (3, 2), (2, 1)]),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(["raw", "relu", "constant"]),
        data=st.data(),
    )
    def test_matches_gather_argmax(self, geometry, dtype, layout, data):
        kernel, stride = geometry
        shape = (
            data.draw(st.integers(1, 2)),
            data.draw(st.integers(1, 3)),
            data.draw(st.integers(kernel, 9)),
            data.draw(st.integers(kernel, 9)),
        )
        x = data.draw(arrays(dtype, shape, elements=_POOL_VALUES))
        if layout == "relu":
            np.maximum(x, 0.0, out=x)
        elif layout == "constant":
            x.fill(x.flat[0])
        expected_out, expected_argmax = _maxpool_forward_oracle(x, kernel, stride)

        out, cache = F.maxpool2d_forward(x, kernel, stride)
        argmax = cache[1]
        assert out.dtype == dtype and argmax.dtype == expected_argmax.dtype
        assert out.tobytes() == expected_out.tobytes()
        assert argmax.tobytes() == expected_argmax.tobytes()
        inference, _ = F.maxpool2d_forward(x, kernel, stride, need_argmax=False)
        assert inference.tobytes() == expected_out.tobytes()


class TestCol2ImEquivalence:
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (5, 1, 2), (3, 2, 0), (2, 2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_matches_loop(self, kernel, stride, padding, dtype):
        rng = np.random.default_rng(2)
        x_shape = (3, 4, 8, 8)
        x = rng.normal(size=x_shape).astype(dtype)
        cols, _, _ = F.im2col(x, kernel, kernel, stride, padding)
        grad_cols = rng.normal(size=cols.shape).astype(dtype)
        fast = F.col2im(grad_cols, x_shape, kernel, kernel, stride, padding)
        reference = F.col2im_reference(grad_cols, x_shape, kernel, kernel, stride, padding)
        assert np.allclose(fast, reference, rtol=0, atol=np.finfo(dtype).eps * 128)


class TestWorkspaceReuseAcrossBatchSizes:
    """Satellite: the trailing partial batch must not read stale buffers."""

    def test_workspace_reallocates_on_shape_change(self):
        ws = Workspace()
        a = ws.get("k", (4, 4), np.float32)
        assert ws.get("k", (4, 4), np.float32) is a
        b = ws.get("k", (2, 4), np.float32)
        assert b is not a and b.shape == (2, 4)
        assert ws.get("k", (2, 4), np.float64).dtype == np.float64
        z = ws.zeros("z", (3,), np.float32)
        z += 1.0
        assert np.array_equal(ws.zeros("z", (3,), np.float32), np.zeros(3, dtype=np.float32))

    @pytest.mark.parametrize("layer_factory", [
        lambda rng: Conv2d(3, 5, 3, padding=1, rng=rng),
        lambda rng: Conv2d(3, 5, 5, stride=2, padding=2, rng=rng),
        lambda rng: DepthwiseConv2d(3, 3, padding=1, rng=rng),
    ])
    def test_partial_batch_after_full_batch(self, layer_factory):
        """forward/backward on a smaller batch after a larger one must be
        bit-identical to a fresh layer that never saw the large batch."""
        rng = np.random.default_rng(3)
        warm = layer_factory(np.random.default_rng(7))
        fresh = layer_factory(np.random.default_rng(7))

        big = rng.normal(size=(8, 3, 10, 10)).astype(np.float32)
        warm(big)
        warm.backward(np.ones_like(warm(big)))
        warm.zero_grad()

        small = rng.normal(size=(3, 3, 10, 10)).astype(np.float32)
        out_warm = warm(small.copy())
        out_fresh = fresh(small.copy())
        assert np.array_equal(out_warm, out_fresh)

        grad = rng.normal(size=out_warm.shape).astype(np.float32)
        grad_warm = warm.backward(grad.copy())
        grad_fresh = fresh.backward(grad.copy())
        assert np.array_equal(grad_warm, grad_fresh)
        assert np.array_equal(warm.weight.grad, fresh.weight.grad)

    def test_alternating_batch_sizes_keep_distinct_buffers(self):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 2, 8, 8)).astype(np.float32)
        b = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        first_small = layer(b.copy()).copy()
        layer(a.copy())
        again_small = layer(b.copy())
        assert np.array_equal(first_small, again_small)


class TestBareFunctionalCallsDoNotAlias:
    def test_interleaved_forwards_keep_independent_caches(self):
        """ws=None calls must not share buffers: a second same-geometry
        forward may not corrupt the first call's cached columns."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        x1 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        x2 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        grad = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)

        _, cache_baseline = F.conv2d_forward(x1, w, None, 1, 1)
        _, gw_expected, _ = F.conv2d_backward(grad, cache_baseline)

        _, cache1 = F.conv2d_forward(x1, w, None, 1, 1)
        F.conv2d_forward(x2, w, None, 1, 1)  # same geometry, interleaved
        _, gw_actual, _ = F.conv2d_backward(grad, cache1)
        assert np.array_equal(gw_actual, gw_expected)


class TestFloat64Override:
    def test_context_builds_double_precision_layers(self):
        with default_dtype(np.float64):
            layer = Conv2d(2, 3, 3, rng=np.random.default_rng(0))
        assert layer.weight.data.dtype == np.float64
        layer32 = Conv2d(2, 3, 3, rng=np.random.default_rng(0))
        assert layer32.weight.data.dtype == np.float32
