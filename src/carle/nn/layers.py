"""Differentiable layers with hand-written forward/backward passes.

All layers consume and produce float64 arrays shaped (batch, time, features)
unless noted. Each layer caches what its backward pass needs, accumulates
parameter gradients in ``self.grads``, and returns the gradient with respect
to its input.
"""

import math

import numpy as np

from ..errors import ParameterError


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _fan_in_uniform(rng, shape, fan_in):
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    name = "layer"

    def __init__(self):
        self.params = {}
        self.grads = {}

    def zero_grads(self):
        for key, p in self.params.items():
            self.grads[key] = np.zeros_like(p)

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def clear_cache(self):
        pass


class Dense(Layer):
    """Affine map over the last axis, with optional ReLU."""

    def __init__(self, d_in, d_out, rng, name, activation=None, bias=True):
        super().__init__()
        self.name = name
        self.activation = activation
        self.params["W"] = _fan_in_uniform(rng, (d_in, d_out), d_in)
        if bias:
            self.params["b"] = np.zeros(d_out)
        self.zero_grads()

    def forward(self, x):
        self._x = x
        out = x @ self.params["W"]
        if "b" in self.params:
            out = out + self.params["b"]
        if self.activation == "relu":
            self._mask = out > 0
            out = out * self._mask
        return out

    def backward(self, dout):
        if self.activation == "relu":
            dout = dout * self._mask
        d_in = self.params["W"].shape[0]
        x2 = self._x.reshape(-1, d_in)
        g2 = dout.reshape(-1, dout.shape[-1])
        self.grads["W"] += x2.T @ g2
        if "b" in self.params:
            self.grads["b"] += g2.sum(axis=0)
        return dout @ self.params["W"].T

    def clear_cache(self):
        self._x = None


class Conv1d(Layer):
    """Same-padded 1-D convolution along the time axis."""

    def __init__(self, c_in, filters, kernel_size, rng, name, l2=0.0, bias=True):
        super().__init__()
        self.name = name
        self.kernel_size = kernel_size
        self.l2 = l2
        self.pad_left = (kernel_size - 1) // 2
        self.pad_right = kernel_size - 1 - self.pad_left
        self.params["W"] = _fan_in_uniform(rng, (kernel_size, c_in, filters), kernel_size * c_in)
        if bias:
            self.params["b"] = np.zeros(filters)
        self.zero_grads()

    def forward(self, x):
        b, t, _ = x.shape
        xp = np.pad(x, ((0, 0), (self.pad_left, self.pad_right), (0, 0)))
        self._xp = xp
        self._t = t
        n_filters = self.params["W"].shape[2]
        out = np.zeros((b, t, n_filters))
        if "b" in self.params:
            out += self.params["b"]
        for d in range(self.kernel_size):
            out += xp[:, d:d + t, :] @ self.params["W"][d]
        return out

    def backward(self, dout):
        t = self._t
        dxp = np.zeros_like(self._xp)
        for d in range(self.kernel_size):
            seg = self._xp[:, d:d + t, :]
            self.grads["W"][d] += np.einsum("btc,btf->cf", seg, dout)
            dxp[:, d:d + t, :] += dout @ self.params["W"][d].T
        if "b" in self.params:
            self.grads["b"] += dout.sum(axis=(0, 1))
        if self.pad_right:
            return dxp[:, self.pad_left:-self.pad_right, :]
        return dxp[:, self.pad_left:, :]

    def reg_loss(self) -> float:
        return 0.5 * self.l2 * float(np.sum(self.params["W"] ** 2))

    def add_reg_grads(self):
        if self.l2:
            self.grads["W"] += self.l2 * self.params["W"]

    def clear_cache(self):
        self._xp = None


class Lstm(Layer):
    """Single LSTM layer returning the full hidden sequence.

    Gate packing order along the last axis of the fused weights is
    (candidate, input, forget, output); the candidate uses tanh, the gates
    sigmoids. States start at zero for every forward pass.
    """

    def __init__(self, d_in, units, rng, name):
        super().__init__()
        self.name = name
        self.units = units
        self.params["Wx"] = _fan_in_uniform(rng, (d_in, 4 * units), d_in)
        self.params["Wh"] = _fan_in_uniform(rng, (units, 4 * units), units)
        self.params["b"] = np.zeros(4 * units)
        self.zero_grads()

    def forward(self, x):
        b, t, _ = x.shape
        u = self.units
        h = np.zeros((b, u))
        c = np.zeros((b, u))
        cache = {"x": x, "g": [], "i": [], "f": [], "o": [], "c": [], "tanh_c": [], "h_prev": [], "c_prev": []}
        out = np.empty((b, t, u))
        for step in range(t):
            z = x[:, step, :] @ self.params["Wx"] + h @ self.params["Wh"] + self.params["b"]
            g = np.tanh(z[:, :u])
            i = _sigmoid(z[:, u:2 * u])
            f = _sigmoid(z[:, 2 * u:3 * u])
            o = _sigmoid(z[:, 3 * u:])
            cache["h_prev"].append(h)
            cache["c_prev"].append(c)
            c = g * i + c * f
            tanh_c = np.tanh(c)
            h = o * tanh_c
            for key, val in (("g", g), ("i", i), ("f", f), ("o", o), ("c", c), ("tanh_c", tanh_c)):
                cache[key].append(val)
            out[:, step, :] = h
        self._cache = cache
        return out

    def backward(self, dout):
        cache = self._cache
        x = cache["x"]
        b, t, d_in = x.shape
        u = self.units
        dx = np.empty_like(x)
        dh_next = np.zeros((b, u))
        dc_next = np.zeros((b, u))
        for step in range(t - 1, -1, -1):
            g = cache["g"][step]
            i = cache["i"][step]
            f = cache["f"][step]
            o = cache["o"][step]
            tanh_c = cache["tanh_c"][step]
            dh = dout[:, step, :] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            dg = dc * i
            di = dc * g
            df = dc * cache["c_prev"][step]
            dc_next = dc * f
            dz = np.concatenate(
                [
                    dg * (1.0 - g**2),
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.grads["Wx"] += x[:, step, :].T @ dz
            self.grads["Wh"] += cache["h_prev"][step].T @ dz
            self.grads["b"] += dz.sum(axis=0)
            dx[:, step, :] = dz @ self.params["Wx"].T
            dh_next = dz @ self.params["Wh"].T
        return dx

    def gate_ranges(self):
        """Min/max of each gate over the last forward pass, for invariants."""
        c = self._cache
        stats = {}
        for key in ("g", "i", "f", "o"):
            arr = np.stack(c[key])
            stats[key] = (float(arr.min()), float(arr.max()))
        return stats

    def clear_cache(self):
        self._cache = None


class MultiHeadAttention(Layer):
    """Scaled dot-product attention over time positions, multiple heads.

    Projections map input width to model_dim (split across heads) and back,
    so the output width equals the input width.
    """

    def __init__(self, d_in, heads, model_dim, rng, name):
        super().__init__()
        if model_dim % heads != 0:
            raise ParameterError(f"model_dim {model_dim} not divisible by heads {heads}")
        self.name = name
        self.heads = heads
        self.head_dim = model_dim // heads
        self.model_dim = model_dim
        for key in ("Wq", "Wk", "Wv"):
            self.params[key] = _fan_in_uniform(rng, (d_in, model_dim), d_in)
            self.params[key.replace("W", "b")] = np.zeros(model_dim)
        self.params["Wo"] = _fan_in_uniform(rng, (model_dim, d_in), model_dim)
        self.params["bo"] = np.zeros(d_in)
        self.zero_grads()

    def _split(self, z, b, t):
        return z.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, z, b, t):
        return z.transpose(0, 2, 1, 3).reshape(b, t, self.model_dim)

    def forward(self, x):
        b, t, _ = x.shape
        q = self._split(x @ self.params["Wq"] + self.params["bq"], b, t)
        k = self._split(x @ self.params["Wk"] + self.params["bk"], b, t)
        v = self._split(x @ self.params["Wv"] + self.params["bv"], b, t)
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.head_dim)
        attn = _softmax(scores)
        ctx = self._merge(attn @ v, b, t)
        self._cache = (x, q, k, v, attn, ctx)
        return ctx @ self.params["Wo"] + self.params["bo"]

    def backward(self, dout):
        x, q, k, v, attn, ctx = self._cache
        b, t, d_in = x.shape
        m = self.model_dim

        self.grads["Wo"] += ctx.reshape(-1, m).T @ dout.reshape(-1, d_in)
        self.grads["bo"] += dout.sum(axis=(0, 1))
        dctx = self._split(dout @ self.params["Wo"].T, b, t)

        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dscores /= math.sqrt(self.head_dim)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q

        dx = np.zeros_like(x)
        x2 = x.reshape(-1, d_in)
        for key, grad in (("Wq", dq), ("Wk", dk), ("Wv", dv)):
            g2 = self._merge(grad, b, t).reshape(-1, m)
            self.grads[key] += x2.T @ g2
            self.grads[key.replace("W", "b")] += g2.sum(axis=0)
            dx += g2.reshape(b, t, m) @ self.params[key].T
        return dx

    def attention_weights(self):
        """Per-head attention rows from the last forward pass."""
        return self._cache[4]

    def clear_cache(self):
        self._cache = None


class Flatten(Layer):
    """(batch, time, features) -> (batch, time*features)."""

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)
