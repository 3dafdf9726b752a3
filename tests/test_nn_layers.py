import dataclasses

import numpy as np
import pytest

from carle.errors import ParameterError
from carle.nn.layers import Conv1d, Dense, Lstm, MultiHeadAttention, _sigmoid, _softmax
from carle.nn.model import CarleNet, ResCnnUnit, get_profile
from conftest import jiggle_biases, layer_gradcheck

TOL = 1e-4


class TestDense:
    def test_gradcheck(self, rng):
        layer = Dense(5, 3, rng, "d")
        jiggle_biases(layer, rng)
        x = rng.normal(size=(4, 5))
        wp, wx = layer_gradcheck(layer, x, rng=rng)
        assert wp < TOL and wx < TOL

    def test_gradcheck_3d_input(self, rng):
        layer = Dense(4, 2, rng, "d")
        jiggle_biases(layer, rng)
        x = rng.normal(size=(3, 5, 4))
        wp, wx = layer_gradcheck(layer, x, rng=rng)
        assert wp < TOL and wx < TOL

    def test_relu_activation_masks(self, rng):
        layer = Dense(3, 2, rng, "d", activation="relu")
        x = rng.normal(size=(10, 3))
        out = layer.forward(x)
        assert np.all(out >= 0)


class TestConv1d:
    def test_gradcheck(self, rng):
        for kernel in (1, 2, 3):
            layer = Conv1d(3, 2, kernel, rng, "c")
            jiggle_biases(layer, rng)
            x = rng.normal(size=(2, 6, 3))
            wp, wx = layer_gradcheck(layer, x, rng=rng)
            assert wp < TOL and wx < TOL

    def test_same_padding_output_length(self, rng):
        for kernel in (1, 2, 3, 4):
            layer = Conv1d(2, 5, kernel, rng, "c")
            out = layer.forward(rng.normal(size=(3, 7, 2)))
            assert out.shape == (3, 7, 5)

    def test_l2_gradient_is_lambda_w(self, rng):
        lam = 0.01
        layer = Conv1d(2, 2, 2, rng, "c", l2=lam)
        layer.zero_grads()
        layer.add_reg_grads()
        assert np.allclose(layer.grads["W"], lam * layer.params["W"], rtol=0, atol=0)
        assert layer.reg_loss() == pytest.approx(0.5 * lam * np.sum(layer.params["W"] ** 2))


def conv1d_reference(x, W, bias, dout):
    """Per-tap same-padded convolution: forward, dW, db and dx."""
    k, t = W.shape[0], x.shape[1]
    pad_left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad_left, k - 1 - pad_left), (0, 0)))
    out = np.zeros((x.shape[0], t, W.shape[2]))
    if bias is not None:
        out += bias
    dW = np.zeros_like(W)
    dxp = np.zeros_like(xp)
    for d in range(k):
        seg = xp[:, d:d + t, :]
        out += seg @ W[d]
        dW[d] = np.einsum("btc,btf->cf", seg, dout)
        dxp[:, d:d + t, :] += dout @ W[d].T
    return out, dW, dout.sum(axis=(0, 1)), dxp[:, pad_left:pad_left + t, :]


def _assert_close(actual, expected):
    # rtol 1e-12 elementwise, with an absolute floor at that fraction of the
    # largest entry for entries that cancel to near zero
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


_CONV_CASES = [(k, t) for k in (1, 2, 3, 4) for t in sorted({1, k - 1, 8}) if t >= 1]


class TestConv1dReference:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("kernel, steps", _CONV_CASES)
    def test_matches_per_tap_formula(self, rng, kernel, steps, batch, bias):
        layer = Conv1d(3, 4, kernel, rng, "c", bias=bias)
        if bias:
            jiggle_biases(layer, rng)
        x = rng.normal(size=(batch, steps, 3))
        dout = rng.normal(size=(batch, steps, 4))
        ref = conv1d_reference(x, layer.params["W"], layer.params.get("b"), dout)
        out = layer.forward(x)
        dx = layer.backward(dout)
        _assert_close(out, ref[0])
        _assert_close(layer.grads["W"], ref[1])
        if bias:
            _assert_close(layer.grads["b"], ref[2])
        _assert_close(dx, ref[3])

    def test_pronostia_net_with_one_step_sequences(self, rng):
        # every kernel is wider than the sequence, so only centre taps read data
        profile = dataclasses.replace(get_profile("pronostia"), seq_len=1)
        net = CarleNet(14, profile, seed=0)
        x = rng.normal(size=(3, 1, 14))
        net.zero_grads()
        logits, pred = net.forward(x)
        dx = net.backward(dpred=np.ones(3))
        assert logits.shape == (3, 32) and pred.shape == (3,)
        assert dx.shape == x.shape and np.isfinite(dx).all()
        assert all(np.isfinite(g).all() for _, g in net.gradients())
        first = net.cnn_units[0].convs[0]
        assert np.abs(first.grads["W"][first.pad_left]).sum() > 0
        others = np.delete(first.grads["W"], first.pad_left, axis=0)
        assert not others.any()


class TestLstm:
    def test_gradcheck(self, rng):
        layer = Lstm(3, 4, rng, "l")
        jiggle_biases(layer, rng)
        x = rng.normal(size=(2, 5, 3))
        wp, wx = layer_gradcheck(layer, x, rng=rng)
        assert wp < TOL and wx < TOL

    def test_gate_ranges_on_wild_inputs(self, rng):
        layer = Lstm(4, 6, rng, "l")
        x = rng.uniform(-10, 10, size=(3, 8, 4))
        layer.forward(x)
        stats = layer.gate_ranges()
        for key in ("i", "f", "o"):
            lo, hi = stats[key]
            assert 0.0 < lo and hi < 1.0
        lo, hi = stats["g"]
        assert -1.0 < lo and hi < 1.0


    def test_gate_ranges_report_each_gate(self, rng):
        # recompute every gate of every step from the layer's own hidden states
        layer = Lstm(3, 5, rng, "l")
        jiggle_biases(layer, rng, scale=1.0)
        x = rng.normal(size=(4, 6, 3))
        out = layer.forward(x)
        p = layer.params
        u = 5
        h = np.zeros((4, u))
        seen = {key: [] for key in "gifo"}
        for step in range(6):
            z = x[:, step, :] @ p["Wx"] + h @ p["Wh"] + p["b"]
            seen["g"].append(np.tanh(z[:, :u]))
            for j, key in enumerate("ifo", start=1):
                seen[key].append(1.0 / (1.0 + np.exp(-np.clip(z[:, j * u:(j + 1) * u], -60.0, 60.0))))
            h = out[:, step, :]
        stats = layer.gate_ranges()
        assert set(stats) == set("gifo")
        for key, arrs in seen.items():
            arr = np.stack(arrs)
            assert stats[key] == (float(arr.min()), float(arr.max()))

    def test_output_shape_full_sequence(self, rng):
        layer = Lstm(3, 7, rng, "l")
        out = layer.forward(rng.normal(size=(2, 5, 3)))
        assert out.shape == (2, 5, 7)


def test_sigmoid_matches_clipped_formula_bit_for_bit(rng):
    big = np.finfo(float).max
    edges = []
    for v in (60.0, -60.0):
        edges += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300, big, -big, 700.0, -745.0,
                61.0, -61.0, 745.0, 800.0, 1e308, -1e308]
    # a wide spread puts many values above 60, where _sigmoid has no bound
    # and relies on 1 + exp(-z) rounding to 1
    z = np.concatenate([edges, specials, rng.normal(scale=30.0, size=200),
                        rng.normal(scale=100.0, size=200_000)])
    ref = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
    got = _sigmoid(z)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    keep = ~np.isnan(ref)
    assert np.array_equal(got[keep].view(np.uint64), ref[keep].view(np.uint64))
    # the forward pass applies it to a strided view of the fused gates
    z2 = z[:204].reshape(12, 17)[:, 2:]
    assert np.array_equal(_sigmoid(z2), 1.0 / (1.0 + np.exp(-np.clip(z2, -60.0, 60.0))), equal_nan=True)


@pytest.mark.parametrize("batch", [1, 8, 480])
def test_softmax_matches_max_shift_formula_bit_for_bit(rng, batch):
    for keys in range(1, 11):
        z = rng.normal(scale=5.0, size=(batch, 2, 3, keys))
        z[0, 0, 0, -1] = z[0, 0, 0, 0]  # a tie for the maximum
        shifted = z - z.max(axis=-1, keepdims=True)
        ref = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        assert np.array_equal(_softmax(z).view(np.uint64), ref.view(np.uint64)), keys


class TestMultiHeadAttention:
    def test_gradcheck(self, rng):
        layer = MultiHeadAttention(4, 2, 4, rng, "m")
        jiggle_biases(layer, rng)
        x = rng.normal(size=(2, 3, 4))
        wp, wx = layer_gradcheck(layer, x, rng=rng)
        assert wp < TOL and wx < TOL

    def test_attention_rows_sum_to_one(self, rng):
        layer = MultiHeadAttention(6, 3, 6, rng, "m")
        layer.forward(rng.normal(size=(4, 5, 6)))
        attn = layer.attention_weights()
        assert attn.shape == (4, 3, 5, 5)
        assert np.all(np.abs(attn.sum(axis=-1) - 1.0) < 1e-6)

    def test_output_width_preserved(self, rng):
        layer = MultiHeadAttention(5, 2, 8, rng, "m")
        out = layer.forward(rng.normal(size=(2, 4, 5)))
        assert out.shape == (2, 4, 5)

    def test_model_dim_must_divide(self, rng):
        with pytest.raises(ParameterError):
            MultiHeadAttention(4, 3, 8, rng, "m")


class _UnitWrapper:
    """Adapt ResCnnUnit to the layer_gradcheck interface."""

    def __init__(self, unit):
        self.unit = unit
        self.params = {}
        self.grads = {}
        for layer in unit.layers():
            for key, val in layer.params.items():
                self.params[f"{layer.name}.{key}"] = val
                self.grads[f"{layer.name}.{key}"] = layer.grads[key]

    def zero_grads(self):
        for layer in self.unit.layers():
            layer.zero_grads()

    def forward(self, x):
        return self.unit.forward(x)

    def backward(self, dout):
        return self.unit.backward(dout)


class TestResCnnUnit:
    def test_gradcheck_with_projection(self, rng):
        unit = ResCnnUnit(3, (2, 4), (2, 2), 0.0, True, rng, "u")
        assert unit.proj is not None
        for conv in unit.convs:
            jiggle_biases(conv, rng)
        wp, wx = layer_gradcheck(_UnitWrapper(unit), rng.normal(size=(2, 5, 3)), rng=rng)
        assert wp < TOL and wx < TOL

    def test_gradcheck_identity_skip(self, rng):
        unit = ResCnnUnit(3, (4, 3), (3, 2), 0.0, True, rng, "u")
        assert unit.proj is None
        for conv in unit.convs:
            jiggle_biases(conv, rng)
        wp, wx = layer_gradcheck(_UnitWrapper(unit), rng.normal(size=(2, 5, 3)), rng=rng)
        assert wp < TOL and wx < TOL

    def test_gradcheck_no_residual(self, rng):
        unit = ResCnnUnit(3, (2, 2), (2, 2), 0.0, False, rng, "u")
        for conv in unit.convs:
            jiggle_biases(conv, rng)
        wp, wx = layer_gradcheck(_UnitWrapper(unit), rng.normal(size=(2, 5, 3)), rng=rng)
        assert wp < TOL and wx < TOL

    def test_zeroed_main_branch_passes_activation_only(self, rng):
        # equal widths -> identity skip; zero conv weights -> out = relu(x)
        unit = ResCnnUnit(3, (3, 3), (2, 2), 0.0, True, rng, "u")
        for conv in unit.convs:
            conv.params["W"][...] = 0.0
            conv.params["b"][...] = 0.0
        x = rng.normal(size=(2, 6, 3))
        assert np.array_equal(unit.forward(x), np.maximum(x, 0.0))
