import numpy as np
import pytest

from mapprior import nn
from mapprior.nn import (AdamState, adam_step, backward, constant,
                         finite_difference_check, load_weights, parameter,
                         save_weights, zero_grads)
from mapprior.nn.serialize import MAGIC, WeightsFormatError


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


class TestLstm:
    def zero_params(self, hidden, feat, dtype=np.float32):
        return {
            "w_ih": constant(np.zeros((4 * hidden, feat), dtype=dtype)),
            "w_hh": constant(np.zeros((4 * hidden, hidden), dtype=dtype)),
            "b_ih": constant(np.zeros(4 * hidden, dtype=dtype)),
            "b_hh": constant(np.zeros(4 * hidden, dtype=dtype)),
        }

    def test_zero_everything_stays_zero(self):
        p = self.zero_params(4, 3)
        x = constant(np.zeros((2, 3), dtype=np.float32))
        h = constant(np.zeros((2, 4), dtype=np.float32))
        c = constant(np.zeros((2, 4), dtype=np.float32))
        h2, c2 = nn.lstm_step(x, h, c, p["w_ih"], p["w_hh"], p["b_ih"], p["b_hh"])
        assert np.all(h2.data == 0) and np.all(c2.data == 0)

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 3
        p = self.zero_params(hidden, 2)
        b = np.zeros(4 * hidden, dtype=np.float32)
        b[hidden : 2 * hidden] = 100.0   # forget gate -> 1
        b[0:hidden] = -100.0             # input gate -> 0
        p["b_ih"] = constant(b)
        rng = np.random.default_rng(3)
        c_prev = constant(rng.normal(size=(2, hidden)).astype(np.float32))
        x = constant(rng.normal(size=(2, 2)).astype(np.float32))
        h = constant(np.zeros((2, hidden), dtype=np.float32))
        _, c2 = nn.lstm_step(x, h, c_prev, p["w_ih"], p["w_hh"], p["b_ih"], p["b_hh"])
        assert np.allclose(c2.data, c_prev.data, atol=1e-6)

    def test_wrong_shapes_raise(self):
        p = self.zero_params(4, 3)
        x = constant(np.zeros((2, 5), dtype=np.float32))  # feat 5 != 3
        h = constant(np.zeros((2, 4), dtype=np.float32))
        c = constant(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="w_ih"):
            nn.lstm_step(x, h, c, p["w_ih"], p["w_hh"], p["b_ih"], p["b_hh"])

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


class TestElementwiseOps:
    def test_gradchecks(self):
        rng = np.random.default_rng(7)
        specs = [
            ("sigmoid", lambda t: nn.sigmoid(t)),
            ("tanh", lambda t: nn.tanh(t)),
            ("relu_offset", lambda t: nn.relu(nn.add(t, constant(np.float64(0.37))))),
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

    def test_sigmoid_saturation_is_stable(self):
        x = constant(np.array([-800.0, 800.0, 0.0]))
        s = nn.sigmoid(x).data
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[1] == 1.0 and s[2] == 0.5

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
