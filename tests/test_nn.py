import json
import re
import sys

import numpy as np
import pytest

from mapprior import model, nn, synthmaps
from mapprior.model import ModelConfig, init_weights
from mapprior.nn import ops
from mapprior.nn import (AdamState, adam_step, backward, constant,
                         finite_difference_check, load_weights, parameter,
                         save_weights, zero_grads)
from mapprior.nn.lstm import lstm_cell
from mapprior.nn.serialize import MAGIC, WeightsFormatError
from mapprior.nn.tensor import make_node, topo_order
from mapprior.particle_filter import FilterConfig, run_filter
from mapprior.simulate import NoiseProfile, corrupt_to_odometry, generate_trajectory


def conv2d_oracle(x, w, b, ph=1, pw=1):
    """Direct nested-loop cross-correlation."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = h + 2 * ph - kh + 1
    ow = wd + 2 * pw - kw + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (w[fi, ci, ky, kx]
                                        * xp[ni, ci, oy + ky, ox + kx])
                    out[ni, fi, oy, ox] = acc + b[fi]
    return out


def _tap(xp, i, j, oh, ow):
    """Contiguous (N, C, OH*OW) copy of the inputs under kernel tap (i, j)."""
    n, c = xp.shape[:2]
    xs = xp[:, :, i : i + oh, j : j + ow]
    return np.ascontiguousarray(xs).reshape(n, c, oh * ow)


def _correlate_per_tap(x, w, ph, pw):
    """Cross-correlation as one GEMM per kernel tap on a copy of its inputs;
    returns (out, padded x)."""
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    n, _, hp, wp = xp.shape
    f, _, kh, kw = w.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    out = np.zeros((n, f, oh * ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += np.ascontiguousarray(w[:, :, i, j]) @ _tap(xp, i, j, oh, ow)
    return out.reshape(n, f, oh, ow), xp


def conv2d_per_tap(x, w, b):
    """The slow, obvious conv2d: every tap's inputs are copied out of the
    padded input, and dx is a full correlation cropped back to 'same'.
    nn.conv2d must agree with it bit for bit, forward and backward."""
    n, c, h, wd = x.data.shape
    f, _, kh, kw = w.data.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out, xp = _correlate_per_tap(x.data, w.data, ph, pw)
    out += b.data[:, None, None]

    def back(g):
        if b.requires_grad:
            b.accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            g3 = np.ascontiguousarray(g).reshape(n, f, h * wd)
            dw = np.empty_like(w.data)
            for i in range(kh):
                for j in range(kw):
                    xs = _tap(xp, i, j, h, wd)
                    dw[:, :, i, j] = (g3 @ xs.transpose(0, 2, 1)).sum(axis=0)
            w.accumulate(dw)
        if x.requires_grad:
            w_flip = np.ascontiguousarray(
                w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            dxp, _ = _correlate_per_tap(np.ascontiguousarray(g), w_flip,
                                        kh - 1, kw - 1)
            x.accumulate(dxp[:, :, ph : ph + h, pw : pw + wd])

    return make_node(out, (x, w, b), back)


def unet_conv_shapes(crop=32):
    """(c_in, c_out, kernel, side) of every conv layer of the acceptance
    U-Net."""
    shapes = []
    for name, p in init_weights(ModelConfig(crop_size=crop), 0).items():
        if name.startswith("unet.") and name.endswith(".w"):
            block = name.split(".")[1]
            level = 0 if block == "out" else int(block[3:])
            f, c, k, _ = p.data.shape
            shapes.append((c, f, k, crop >> level))
    return shapes


# (n, c_in, c_out, h, w, kernel, dtype): the acceptance U-Net's layers at
# batch 4, a 96-px layer and a few odd shapes, among them the ones that
# `_correlate` keeps off BLAS: one output channel and one output cell.
CONV_CASES = [
    *[(4, c, f, s, s, k, np.float32) for c, f, k, s in unet_conv_shapes()],
    (1, 16, 16, 96, 96, 3, np.float32),
    (3, 1, 4, 9, 9, 3, np.float32),
    (2, 5, 3, 6, 6, 1, np.float32),
    (2, 3, 4, 9, 8, 5, np.float32),
    (2, 3, 4, 7, 5, 3, np.float32),
    (2, 6, 5, 12, 10, 3, np.float64),
    (2, 4, 1, 9, 8, 3, np.float32),
    (2, 3, 4, 1, 1, 1, np.float32),
]


def conv_case(n, c, f, h, wd, k, dtype):
    """Input, kernel, bias and output gradient of one CONV_CASES entry."""
    rng = np.random.default_rng(n * 1000 + c * 100 + f + h)
    return tuple(rng.normal(size=shape).astype(dtype) for shape in
                 ((n, c, h, wd), (f, c, k, k), (f,), (n, f, h, wd)))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = constant(rng.normal(size=(2, 3, 5, 5)).astype(np.float32))
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        out = nn.conv2d(x, constant(w), constant(np.zeros(3, dtype=np.float32)))
        assert np.allclose(out.data, x.data)

    def test_zero_input_gives_bias(self):
        x = constant(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = constant(np.ones((3, 2, 3, 3), dtype=np.float32))
        b = constant(np.array([1.0, -2.0, 0.5], dtype=np.float32))
        out = nn.conv2d(x, w, b)
        for f in range(3):
            assert np.allclose(out.data[0, f], b.data[f])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(12):
            n, c, f = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            h = int(rng.integers(3, 9))
            wd = int(rng.integers(3, 9))
            k = int(rng.choice([1, 3]))
            pad = (k - 1) // 2
            x = rng.normal(size=(n, c, h, wd))
            w = rng.normal(size=(f, c, k, k))
            b = rng.normal(size=(f,))
            got = nn.conv2d(constant(x), constant(w), constant(b)).data
            want = conv2d_oracle(x, w, b, ph=pad, pw=pad)
            assert np.max(np.abs(got - want)) < 1e-6, f"trial {trial}"

    def test_channel_mismatch_raises(self):
        x = constant(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = constant(np.zeros((3, 5, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            nn.conv2d(x, w, constant(np.zeros(3, dtype=np.float32)))

    def test_even_kernel_raises(self):
        x = constant(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = constant(np.zeros((3, 2, 2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="odd kernel"):
            nn.conv2d(x, w, constant(np.zeros(3, dtype=np.float32)))

    @staticmethod
    def outputs_and_grads(conv, x, w, b, g):
        xt, wt, bt = (parameter(a, a.dtype) for a in (x, w, b))
        out = conv(xt, wt, bt)
        backward(nn.sum_all(nn.mul(out, constant(g))))
        return out.data, xt.grad, wt.grad, bt.grad

    @pytest.mark.parametrize("n, c, f, h, wd, k, dtype", CONV_CASES)
    def test_bit_identical_to_per_tap_oracle(self, n, c, f, h, wd, k, dtype):
        x, w, b, g = conv_case(n, c, f, h, wd, k, dtype)
        got = self.outputs_and_grads(nn.conv2d, x, w, b, g)
        want = self.outputs_and_grads(conv2d_per_tap, x, w, b, g)
        for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            assert a.dtype == e.dtype and np.array_equal(a, e), name

    @pytest.mark.parametrize("n, c, f, h, wd, k, dtype", CONV_CASES)
    def test_bit_identical_to_per_tap_oracle_without_blas(
            self, monkeypatch, n, c, f, h, wd, k, dtype):
        monkeypatch.setattr(ops, "_GEMM", {})
        self.test_bit_identical_to_per_tap_oracle(n, c, f, h, wd, k, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_many_channels_match_numpy_loop(self, monkeypatch, dtype):
        """520 input channels span two of OpenBLAS's blocks of the GEMM's
        sum on x86, where beta = 1 would round apart from numpy's loop."""
        x, w, b, g = conv_case(1, 520, 16, 12, 20, 3, dtype)
        got = self.outputs_and_grads(nn.conv2d, x, w, b, g)
        monkeypatch.setattr(ops, "_GEMM", {})
        want = self.outputs_and_grads(nn.conv2d, x, w, b, g)
        for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            assert np.array_equal(a, e), name

    def test_blas_gemm_found(self):
        """numpy's scipy-openblas wheels on Linux export both CBLAS GEMMs; a
        lookup that misses them would only show as a slower conv."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if sys.platform != "linux" or blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas.get('name')} on {sys.platform}")
        assert set(ops._GEMM) == {np.dtype(np.float32), np.dtype(np.float64)}

    def test_overflow_warns_and_matches_numpy_loop(self, monkeypatch):
        # Products near 1e40 overflow float32, with both signs: inf and nan.
        x, w, b, _ = conv_case(2, 3, 4, 7, 5, 3, np.float32)
        x, w = x * np.float32(1e37), w * np.float32(1e3)

        def conv():
            with pytest.warns(RuntimeWarning) as seen:
                out = nn.conv2d(constant(x), constant(w), constant(b)).data
            return out, sorted(str(r.message) for r in seen)

        got, got_seen = conv()
        monkeypatch.setattr(ops, "_GEMM", {})
        want, want_seen = conv()
        assert np.isnan(want).any() and np.isinf(want).any()
        assert np.array_equal(got, want, equal_nan=True)
        assert got_seen == want_seen
        assert any("overflow" in m for m in got_seen)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = parameter(rng.normal(size=(2, 2, 5, 5)), np.float64)
        w = parameter(rng.normal(size=(3, 2, 3, 3)), np.float64)
        b = parameter(rng.normal(size=(3,)), np.float64)
        target = rng.normal(size=(2, 3, 5, 5))
        wgt = np.abs(rng.normal(size=(2, 3, 5, 5))) + 0.1

        def loss():
            return nn.weighted_mse(nn.conv2d(x, w, b), target, wgt)

        assert finite_difference_check(loss, {"x": x, "w": w, "b": b}) < 1e-4


def linear(x, w, b):
    """x @ w.T + b with w of shape (out_features, in_features), as a graph node."""
    out = x.data @ w.data.T + b.data

    def back(g):
        if x.requires_grad:
            x.accumulate(g @ w.data)
        if w.requires_grad:
            w.accumulate(g.T @ x.data)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    return make_node(out, (x, w, b), back)


def index(x, key):
    """Basic indexing x.data[key] (ints and slices) as a graph node."""
    out = x.data[key]

    def back(g):
        full = np.zeros_like(x.data)
        full[key] = g
        x.accumulate(full)

    return make_node(out, (x,), back)


def lstm_step_composed(x, h_prev, c_prev, w_ih, w_hh, b_ih, b_hh):
    """One LSTM cell as a graph of per-step ops: the slow, obvious version
    that nn.lstm_forward must match bit for bit, forward and backward."""
    hidden = h_prev.data.shape[1]
    z = nn.add(linear(x, w_ih, b_ih), linear(h_prev, w_hh, b_hh))
    gi, gf, gc, go = (index(z, np.s_[:, k * hidden : (k + 1) * hidden])
                      for k in range(4))
    i = nn.sigmoid(gi)
    f = nn.sigmoid(gf)
    g = nn.tanh(gc)
    o = nn.sigmoid(go)
    c_t = nn.add(nn.mul(f, c_prev), nn.mul(i, g))
    h_t = nn.mul(o, nn.tanh(c_t))
    return h_t, c_t


def lstm_forward_composed(seq, layer_params, hidden):
    n, t_len, _ = seq.data.shape
    dtype = seq.data.dtype
    xs = [index(seq, np.s_[:, t]) for t in range(t_len)]
    for params in layer_params:
        h = constant(np.zeros((n, hidden), dtype=dtype))
        c = constant(np.zeros((n, hidden), dtype=dtype))
        outs = []
        for x in xs:
            h, c = lstm_step_composed(x, h, c, params["w_ih"], params["w_hh"],
                                      params["b_ih"], params["b_hh"])
            outs.append(h)
        xs = outs
    return xs[-1]


def sigmoid_masked(d):
    """The logistic function as two masked halves: the reference for
    nn.sigmoid's branch-free form."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def lstm_layers(rng, n_layers, feat, hidden, dtype):
    """Uniform(-0.5, 0.5) weights of a stacked LSTM."""
    layers, in_f = [], feat
    for _ in range(n_layers):
        layers.append({
            "w_ih": rng.uniform(-0.5, 0.5, (4 * hidden, in_f)).astype(dtype),
            "w_hh": rng.uniform(-0.5, 0.5, (4 * hidden, hidden)).astype(dtype),
            "b_ih": rng.uniform(-0.5, 0.5, 4 * hidden).astype(dtype),
            "b_hh": rng.uniform(-0.5, 0.5, 4 * hidden).astype(dtype)})
        in_f = hidden
    return layers


# The acceptance shapes: depth 3, crop 32, batch 32.
ACCEPT_CONFIG = ModelConfig(window_len=5, crop_size=32, batch_size=32)


def acceptance_batch(seed=12, config=ACCEPT_CONFIG):
    """Crops, windows, targets and weights of one random training batch."""
    rng = np.random.default_rng(seed)
    n, s, t_len = config.batch_size, config.crop_size, config.window_len
    crops = (rng.random((n, 1, s, s)) < 0.7).astype(np.float32)
    wins = np.cumsum(rng.normal(size=(n, t_len, 2)), axis=1).astype(np.float32)
    targets = rng.random((n, s, s)).astype(np.float32)
    return crops, wins, targets, np.ones_like(targets)


class TestLstm:
    def zero_params(self, hidden, feat, dtype=np.float32):
        return {
            "w_ih": np.zeros((4 * hidden, feat), dtype=dtype),
            "w_hh": np.zeros((4 * hidden, hidden), dtype=dtype),
            "b_ih": np.zeros(4 * hidden, dtype=dtype),
            "b_hh": np.zeros(4 * hidden, dtype=dtype),
        }

    def test_zero_everything_stays_zero(self):
        p = self.zero_params(4, 3)
        x = np.zeros((2, 3), dtype=np.float32)
        h = np.zeros((2, 4), dtype=np.float32)
        c = np.zeros((2, 4), dtype=np.float32)
        h2, c2, _ = lstm_cell(x, h, c, **p)
        assert np.all(h2 == 0) and np.all(c2 == 0)

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 3
        p = self.zero_params(hidden, 2)
        p["b_ih"][hidden : 2 * hidden] = 100.0   # forget gate -> 1
        p["b_ih"][0:hidden] = -100.0             # input gate -> 0
        rng = np.random.default_rng(3)
        c_prev = rng.normal(size=(2, hidden)).astype(np.float32)
        x = rng.normal(size=(2, 2)).astype(np.float32)
        h = np.zeros((2, hidden), dtype=np.float32)
        _, c2, _ = lstm_cell(x, h, c_prev, **p)
        assert np.allclose(c2, c_prev, atol=1e-6)

    def test_wrong_shapes_raise(self):
        p = self.zero_params(4, 3)
        x = np.zeros((2, 5), dtype=np.float32)  # feat 5 != 3
        h = np.zeros((2, 4), dtype=np.float32)
        c = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="w_ih"):
            lstm_cell(x, h, c, **p)
        with pytest.raises(ValueError, match="w_ih"):
            nn.lstm_forward(constant(x[:, None]), [
                {k: constant(v) for k, v in p.items()}], 4)

    def test_gradcheck_full_sequence(self):
        rng = np.random.default_rng(4)
        hidden, feat = 3, 2
        params = {}
        for tag, shape in (("w_ih", (4 * hidden, feat)),
                           ("w_hh", (4 * hidden, hidden)),
                           ("b_ih", (4 * hidden,)), ("b_hh", (4 * hidden,))):
            params[tag] = parameter(rng.normal(size=shape) * 0.5, np.float64)
        seq = rng.normal(size=(2, 4, feat))

        def loss():
            out = nn.lstm_forward(constant(seq), [params], hidden)
            return nn.sum_all(nn.mul(out, out))

        assert finite_difference_check(loss, params, h=1e-3) < 1e-4

    @staticmethod
    def outputs_and_grads(forward, seq, layers, hidden, upstream):
        """Output and every gradient of sum(forward(seq) * upstream), with
        fresh parameters and a grad-requiring input sequence."""
        x = parameter(seq, seq.dtype)
        params = [{k: parameter(v, v.dtype) for k, v in p.items()} for p in layers]
        out = forward(x, params, hidden)
        backward(nn.sum_all(nn.mul(out, constant(upstream))))
        return [out.data, x.grad] + [p[k].grad for p in params for k in sorted(p)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 2, 5, 20])
    def test_bit_identical_to_composed_oracle(self, t_len, n, n_layers, dtype):
        rng = np.random.default_rng(t_len * 100 + n * 10 + n_layers)
        hidden, feat = 32, 2
        layers = lstm_layers(rng, n_layers, feat, hidden, dtype)
        seq = rng.normal(size=(n, t_len, feat)).astype(dtype)
        upstream = rng.normal(size=(n, hidden)).astype(dtype)
        got = self.outputs_and_grads(nn.lstm_forward, seq, layers, hidden, upstream)
        want = self.outputs_and_grads(lstm_forward_composed, seq, layers, hidden,
                                      upstream)
        for k, (a, b) in enumerate(zip(got, want)):
            assert same_bits(a, b), k
        inference = nn.lstm_forward(
            constant(seq), [{k: constant(v) for k, v in p.items()} for p in layers],
            hidden)
        assert not inference.requires_grad and same_bits(inference.data, want[0])

    def test_batch_loss_gradients_bit_identical_to_composed_oracle(self, monkeypatch):
        results = []
        for forward in (nn.lstm_forward, lstm_forward_composed):
            monkeypatch.setattr(nn, "lstm_forward", forward)
            params = init_weights(ACCEPT_CONFIG, 3)
            loss = model._batch_loss(params, ACCEPT_CONFIG, *acceptance_batch())
            backward(loss)
            results.append((loss.data, {k: p.grad for k, p in params.items()}))
        (loss_a, grads_a), (loss_b, grads_b) = results
        assert same_bits(loss_a, loss_b)
        assert grads_a.keys() == grads_b.keys()
        assert any(k.startswith("lstm.") for k in grads_a)
        for k in grads_a:
            assert same_bits(grads_a[k], grads_b[k]), k

    def test_wheeled_learned_filter_matches_composed_oracle(self, monkeypatch):
        occ = synthmaps.corridor_rooms()
        gt = generate_trajectory(occ, seed=4, duration_s=45.0, profile="wheeled")
        odom = corrupt_to_odometry(gt, NoiseProfile.wheeled(), seed=5,
                                   resolution=occ.resolution)
        config = ModelConfig()
        fc = FilterConfig.wheeled(particle_count=200)
        assert fc.window_len == 20
        weights = {k: p.data for k, p in init_weights(config, 6).items()}
        runs = []
        for forward in (nn.lstm_forward, lstm_forward_composed):
            monkeypatch.setattr(nn, "lstm_forward", forward)
            runs.append(run_filter(odom, occ, "learned", fc, 7, gt.pose(0),
                                   weights=weights, model_config=config))
        assert len(runs[0].estimates) == len(gt)
        assert same_bits(runs[0].estimates.xy, runs[1].estimates.xy)
        assert same_bits(runs[0].estimates.theta, runs[1].estimates.theta)


class TestBackwardEngine:
    def test_sum_gradient_is_ones(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        backward(nn.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_composed_conv_relu_mse_gradcheck(self):
        rng = np.random.default_rng(5)
        x = parameter(rng.normal(size=(1, 2, 6, 6)) + 0.3, np.float64)
        w = parameter(rng.normal(size=(2, 2, 3, 3)), np.float64)
        b = parameter(rng.normal(size=(2,)) * 0.1, np.float64)
        target = rng.normal(size=(1, 2, 6, 6))
        wgt = np.ones((1, 2, 6, 6))

        def loss():
            return nn.weighted_mse(nn.relu(nn.conv2d(x, w, b)), target, wgt)

        assert finite_difference_check(loss, {"x": x, "w": w, "b": b}) < 1e-4

    def test_repeated_backward_is_bit_identical(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        w_init = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        grads = []
        for _ in range(2):
            w = parameter(w_init.copy())
            b = parameter(np.zeros(2, dtype=np.float32))
            out = nn.relu(nn.conv2d(constant(x), w, b))
            backward(nn.sum_all(out))
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(nn.relu(x))

    def test_grad_accumulates_over_reuse(self):
        x = parameter(np.array([2.0]))
        y = nn.add(nn.mul(x, x), x)   # x^2 + x -> dy/dx = 2x + 1 = 5
        backward(nn.sum_all(y))
        assert x.grad[0] == pytest.approx(5.0)

    def test_gradient_of_another_shape_is_rejected(self):
        x = parameter(np.zeros(3))
        with pytest.raises(ValueError, match=r"gradient of shape \(2, 3\) for a "
                                             r"tensor of shape \(3,\)"):
            x.accumulate(np.ones((2, 3)))
        assert x.grad is None

    def test_broadcast_operand_needing_a_gradient_is_rejected(self):
        row, full = parameter(np.zeros(3)), parameter(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"gradient of shape \(2, 3\) for a "
                                             r"tensor of shape \(3,\)"):
            backward(nn.sum_all(nn.add(row, full)))
        # A broadcast constant needs no gradient, so it still goes through.
        backward(nn.sum_all(nn.add(full, constant(np.arange(3.0)))))
        assert np.array_equal(full.grad, np.ones((2, 3)))


def backward_keep_all(loss):
    """The keep-everything walk, as the oracle of `backward`: the same order,
    but every interior gradient, closure and parent link stays until the
    caller drops the graph."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestGraphRelease:
    @staticmethod
    def assert_same_grads(build):
        """build() returns a scalar loss and a dict of fresh leaves; their
        gradients must be byte-equal under backward and the oracle."""
        found = []
        for engine in (backward, backward_keep_all):
            loss, leaves = build()
            engine(loss)
            found.append({k: t.grad for k, t in leaves.items()})
        got, want = found
        assert got.keys() == want.keys()
        for k in got:
            assert same_bits(got[k], want[k]), k

    def test_batch_loss_at_acceptance_shapes(self):
        assert ACCEPT_CONFIG.unet_depth == 3
        batch = acceptance_batch(13)

        def build():
            params = init_weights(ACCEPT_CONFIG, 4)
            return model._batch_loss(params, ACCEPT_CONFIG, *batch), params

        self.assert_same_grads(build)

    @pytest.mark.parametrize("n, c, f, h, wd, k, dtype", CONV_CASES)
    def test_conv(self, n, c, f, h, wd, k, dtype):
        x, w, b, g = conv_case(n, c, f, h, wd, k, dtype)

        def build():
            leaves = {"x": parameter(x, dtype), "w": parameter(w, dtype),
                      "b": parameter(b, dtype)}
            out = nn.conv2d(leaves["x"], leaves["w"], leaves["b"])
            return nn.sum_all(nn.mul(out, constant(g))), leaves

        self.assert_same_grads(build)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lstm(self, dtype):
        rng = np.random.default_rng(14)
        layers = lstm_layers(rng, 2, 2, 32, dtype)
        seq = rng.normal(size=(3, 20, 2)).astype(dtype)
        upstream = rng.normal(size=(3, 32)).astype(dtype)

        def build():
            params = [{k: parameter(v, dtype) for k, v in p.items()} for p in layers]
            x = parameter(seq, dtype)
            out = nn.lstm_forward(x, params, 32)
            leaves = {"x": x, **{f"{i}.{k}": t for i, p in enumerate(params)
                                 for k, t in p.items()}}
            return nn.sum_all(nn.mul(out, constant(upstream))), leaves

        self.assert_same_grads(build)

    def test_interior_nodes_are_released(self):
        config = ModelConfig(channels=8, unet_depth=2, base_width=4,
                             crop_size=16, batch_size=4)
        params = init_weights(config, 5)
        loss = model._batch_loss(params, config, *acceptance_batch(15, config))
        interior = [t for t in topo_order(loss) if t._backward is not None]
        assert len(interior) > 10 and interior[-1] is loss
        backward(loss)
        for t in interior:
            assert t.grad is None and t._backward is None and t._parents is None
        assert all(p.grad is not None for p in params.values())
        assert np.isfinite(loss.item())

    def test_second_backward_through_released_graph_raises(self):
        x = parameter(np.array([1.0, -2.0, 3.0]))
        h = nn.relu(x)
        loss = nn.sum_all(nn.mul(h, h))
        backward(loss)
        before = x.grad.copy()
        with pytest.raises(ValueError, match="released") as exc:
            backward(loss)
        assert "\n" not in str(exc.value)
        # A new graph over a released node cannot reach x either.
        with pytest.raises(ValueError, match="released"):
            backward(nn.sum_all(h))
        assert same_bits(x.grad, before)


class TestElementwiseOps:
    def test_gradchecks(self):
        rng = np.random.default_rng(7)
        specs = [
            ("sigmoid", lambda t: nn.sigmoid(t)),
            ("tanh", lambda t: nn.tanh(t)),
            ("relu_offset", lambda t: nn.relu(nn.add(t, constant(np.float64(0.37))))),
            ("index", lambda t: index(t, np.s_[1:, 2])),
        ]
        for name, fn in specs:
            x = parameter(rng.normal(size=(3, 4)), np.float64)
            def loss():
                return nn.sum_all(nn.mul(fn(x), fn(x)))
            assert finite_difference_check(loss, {"x": x}) < 1e-4, name

    def test_maxpool_upsample_concat_channel_dot_gradcheck(self):
        rng = np.random.default_rng(8)
        x = parameter(rng.normal(size=(2, 3, 4, 4)), np.float64)
        v = parameter(rng.normal(size=(2, 6)), np.float64)

        def loss():
            pooled = nn.maxpool2(x)
            up = nn.upsample2(pooled)
            both = nn.concat([up, x], axis=1)
            heat = nn.channel_dot(both, v)
            return nn.sum_all(nn.mul(heat, heat))

        assert finite_difference_check(loss, {"x": x, "v": v}) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bit_identical_to_masked_form(self, dtype):
        rng = np.random.default_rng(9)
        d = rng.normal(size=100_000) * rng.choice([0.1, 1.0, 10.0, 100.0], 100_000)
        special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
        d = np.concatenate([d, special]).astype(dtype)
        assert same_bits(nn.sigmoid(constant(d)).data, sigmoid_masked(d))
        # A strided view, as the LSTM's gate slices are.
        view = d[:-8].reshape(-1, 4)[:, 1:3]
        assert same_bits(nn.sigmoid(constant(view)).data, sigmoid_masked(view))

    def test_sigmoid_saturation_is_stable(self):
        x = constant(np.array([-800.0, 800.0, 0.0]))
        s = nn.sigmoid(x).data
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[1] == 1.0 and s[2] == 0.5

    def test_maxpool_gradient_goes_to_first_maximum(self):
        x = parameter(np.array([[[[1.0, 3.0, 2.0, 2.0], [3.0, 0.0, 2.0, 2.0]]]]))
        out = nn.maxpool2(x)
        assert np.array_equal(out.data, [[[[3.0, 2.0]]]])
        backward(nn.sum_all(nn.mul(out, constant(np.array([[[[5.0, 7.0]]]])))))
        assert np.array_equal(x.grad, [[[[0, 5, 7, 0], [0, 0, 0, 0]]]])

    def test_maxpool_requires_even_dims(self):
        with pytest.raises(ValueError, match="even"):
            nn.maxpool2(constant(np.zeros((1, 1, 3, 4), dtype=np.float32)))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = parameter(np.array([1.0, -2.0], dtype=np.float32))
        p.grad = np.zeros(2, dtype=np.float32)
        state = AdamState()
        adam_step({"p": p}, state)
        assert np.array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))

    def test_first_step_is_signed_lr(self):
        g = np.array([0.3, -1.7, 5.0], dtype=np.float32)
        p = parameter(np.zeros(3, dtype=np.float32))
        p.grad = g.copy()
        state = AdamState(lr=0.01)
        adam_step({"p": p}, state)
        # With zero moments the bias-corrected first update is -lr * sign(g)
        # up to the eps regularizer.
        assert np.allclose(p.data, -0.01 * np.sign(g), rtol=1e-4)

    def test_step_count_increments(self):
        p = parameter(np.zeros(2, dtype=np.float32))
        state = AdamState()
        for expected in (1, 2, 3):
            p.grad = np.ones(2, dtype=np.float32)
            adam_step({"p": p}, state)
            assert state.step_count == expected

    def test_state_is_not_a_constructor_argument(self):
        # lr is the one setting; step_count, m and v are adam_step's state.
        for state in ({"step_count": 1}, {"m": {}}, {"v": {}}):
            with pytest.raises(TypeError):
                AdamState(**state)

    def test_shape_mismatch_raises(self):
        p = parameter(np.zeros(3, dtype=np.float32))
        p.grad = np.zeros(4, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            adam_step({"p": p}, AdamState())


class TestSerialize:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        params = {
            "a.w": rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
            "a.b": rng.normal(size=(3,)).astype(np.float32),
            "z": np.float32(rng.normal()) * np.ones((1,), dtype=np.float32),
        }
        path = tmp_path / "w.lmw"
        save_weights(path, params, meta={"note": 1})
        loaded, meta = load_weights(path)
        assert meta == {"note": 1}
        assert list(loaded) == list(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])
            assert loaded[k].tobytes() == params[k].tobytes()

    def test_double_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(10)
        params = {"x": rng.normal(size=(4, 4)).astype(np.float32)}
        p1, p2 = tmp_path / "a.lmw", tmp_path / "b.lmw"
        save_weights(p1, params, meta={})
        loaded, _ = load_weights(p1)
        save_weights(p2, loaded, meta={})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_layer_rejected(self, tmp_path, bad):
        path = tmp_path / "w.lmw"
        save_weights(path, {"a": np.ones(2, dtype=np.float32),
                            "b": np.array([0.0, bad], dtype=np.float32)}, meta={})
        with pytest.raises(WeightsFormatError,
                           match="w.lmw: layer b has non-finite values"):
            load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lmw"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(path)

    def test_truncated_blob_rejected(self, tmp_path):
        path = tmp_path / "w.lmw"
        save_weights(path, {"x": np.ones((4,), dtype=np.float32)}, meta={})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(path)

    @pytest.mark.parametrize("shape", [[2 ** 32, 2 ** 32], [2 ** 62, 4]])
    def test_huge_shape_rejected_as_truncated(self, tmp_path, shape):
        # Both element counts are 2**64, which np.prod wraps round to 0.
        header = json.dumps({"format_version": 1, "meta": {},
                             "layers": [{"name": "a", "shape": shape}]}).encode()
        path = tmp_path / "w.lmw"
        path.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header
                         + b"\x00" * 16)
        with pytest.raises(WeightsFormatError,
                           match=f"^{re.escape(str(path))}: truncated blob at layer a$"):
            load_weights(path)

    def test_file_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "w.lmw"
        path.write_bytes(MAGIC + b"\x00")
        with pytest.raises(WeightsFormatError, match="truncated header"):
            load_weights(path)

    def test_header_length_past_end_rejected(self, tmp_path):
        path = tmp_path / "w.lmw"
        path.write_bytes(MAGIC + (1000).to_bytes(4, "little") + b"{}")
        with pytest.raises(WeightsFormatError, match="past the end"):
            load_weights(path)
