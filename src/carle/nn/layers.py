"""Differentiable layers with hand-written forward/backward passes.

All layers consume and produce float64 arrays shaped (batch, time, features)
unless noted. A forward called with ``keep`` (the default) caches what its
backward pass needs; with ``keep=False`` it runs the same operations, stores
nothing and leaves any earlier cache as it was, for a forward that no
backward follows. A backward accumulates parameter gradients in
``self.grads`` and returns the gradient with respect to its input.
"""

import math

import numpy as np

from ..errors import InputError, ParameterError


def _sigmoid(z):
    # np.maximum gives np.clip's lower bound (NaN included) at less call
    # overhead; no upper bound is needed, since for z > 60 exp(-z) is below
    # half an ulp of 1 and the result is 1.0 either way
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -60.0)))


def _softmax(z):
    # a max over the short key axis is slow as a reduction; a running
    # maximum over its slices gives the same (exact) values
    m = z[..., 0]
    for j in range(1, z.shape[-1]):
        m = np.maximum(m, z[..., j])
    z = z - m[..., None]
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _fan_in_uniform(rng, shape, fan_in):
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    def __init__(self, name, params):
        self.name = name
        self.params = params
        self.grads = {key: np.zeros_like(p) for key, p in params.items()}

    def zero_grads(self):
        # in place: the arrays may be views of a network's flat gradient vector
        for g in self.grads.values():
            g.fill(0.0)

    def _last_cache(self):
        """The cache of the last caching forward; InputError before the first."""
        if not hasattr(self, "_cache"):
            raise InputError(f"{self.name}: no forward pass cached yet; run forward with keep=True first")
        return self._cache


class Dense(Layer):
    """Affine map over the last axis, with optional ReLU."""

    def __init__(self, d_in, d_out, rng, name, activation=None, bias=True):
        params = {"W": _fan_in_uniform(rng, (d_in, d_out), d_in)}
        if bias:
            params["b"] = np.zeros(d_out)
        super().__init__(name, params)
        self.activation = activation

    def forward(self, x, keep=True):
        out = x @ self.params["W"]
        if "b" in self.params:
            out = out + self.params["b"]
        mask = None
        if self.activation == "relu":
            mask = out > 0
            out = out * mask
        if keep:
            self._x, self._mask = x, mask
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


class Conv1d(Layer):
    """Same-padded 1-D convolution along the time axis. The output, the
    weight gradient and the input gradient are one GEMM each over im2col
    columns (Chellapilla, Puri & Simard, 2006)."""

    def __init__(self, c_in, filters, kernel_size, rng, name, l2=0.0, bias=True):
        params = {"W": _fan_in_uniform(rng, (kernel_size, c_in, filters), kernel_size * c_in)}
        if bias:
            params["b"] = np.zeros(filters)
        super().__init__(name, params)
        self.kernel_size = kernel_size
        self.l2 = l2
        self.pad_left = (kernel_size - 1) // 2

    def _taps(self, t):
        """(tap, source offset, first and end output step) of each kernel tap
        that reads inside a length-t sequence: output step s of tap d reads
        input step s + offset, and the zero padding elsewhere adds nothing."""
        for d in range(self.kernel_size):
            shift = d - self.pad_left
            lo, hi = max(0, -shift), min(t, t - shift)
            if lo < hi:
                yield d, shift, lo, hi

    def _columns(self, x):
        """(b*t, k*c) im2col matrix: row (batch, step) holds the k taps' inputs
        at that step, tap-major, matching W.reshape(k*c, filters)."""
        b, t, c = x.shape
        cols = np.zeros((b, t, self.kernel_size, c))
        for d, shift, lo, hi in self._taps(t):
            cols[:, lo:hi, d, :] = x[:, lo + shift:hi + shift, :]
        return cols.reshape(b * t, -1)

    def forward(self, x, keep=True):
        # cache only the input; the columns are k times its size, and
        # backward rebuilds them
        if keep:
            self._x = x
        b, t, _ = x.shape
        W = self.params["W"]
        out = self._columns(x) @ W.reshape(-1, W.shape[2])
        if "b" in self.params:
            out += self.params["b"]
        return out.reshape(b, t, -1)

    def backward(self, dout):
        x = self._x
        b, t, c = x.shape
        W = self.params["W"]
        dout2 = dout.reshape(b * t, -1)
        self.grads["W"] += (self._columns(x).T @ dout2).reshape(W.shape)
        if "b" in self.params:
            self.grads["b"] += dout2.sum(axis=0)
        dcols = (dout2 @ W.reshape(-1, W.shape[2]).T).reshape(b, t, self.kernel_size, c)
        dx = np.zeros_like(x)
        for d, shift, lo, hi in self._taps(t):
            dx[:, lo + shift:hi + shift, :] += dcols[:, lo:hi, d, :]
        return dx

    def reg_loss(self) -> float:
        return 0.5 * self.l2 * float(np.sum(self.params["W"] ** 2))

    def add_reg_grads(self):
        if self.l2:
            self.grads["W"] += self.l2 * self.params["W"]


class Lstm(Layer):
    """Single LSTM layer returning the full hidden sequence.

    Gate packing order along the last axis of the fused weights is
    (candidate, input, forget, output); the candidate uses tanh, the gates
    sigmoids. States start at zero for every forward pass.
    """

    def __init__(self, d_in, units, rng, name):
        super().__init__(name, {
            "Wx": _fan_in_uniform(rng, (d_in, 4 * units), d_in),
            "Wh": _fan_in_uniform(rng, (units, 4 * units), units),
            "b": np.zeros(4 * units),
        })
        self.units = units

    def forward(self, x, keep=True):
        b, t, _ = x.shape
        u = self.units
        h = np.zeros((b, u))
        c = np.zeros((b, u))
        cache = {"x": x, "g": [], "gates": [], "c": [], "tanh_c": []} if keep else None
        out = np.empty((b, t, u))
        for step in range(t):
            z = x[:, step, :] @ self.params["Wx"] + h @ self.params["Wh"] + self.params["b"]
            g = np.tanh(z[:, :u])
            gates = _sigmoid(z[:, u:])  # input, forget and output gates side by side
            i, f, o = gates[:, :u], gates[:, u:2 * u], gates[:, 2 * u:]
            c = g * i + c * f
            tanh_c = np.tanh(c)
            h = o * tanh_c
            if keep:
                for key, val in (("g", g), ("gates", gates), ("c", c), ("tanh_c", tanh_c)):
                    cache[key].append(val)
            out[:, step, :] = h
        if keep:
            cache["h"] = out
            self._cache = cache
        return out

    def backward(self, dout):
        """The step loop carries dh and dc back through time and stores each
        step's pre-activation gradient; the weight and input gradients are
        then one GEMM each over all steps."""
        cache = self._cache
        x = cache["x"]
        b, t, d_in = x.shape
        u = self.units
        Wh = self.params["Wh"]
        dz = np.empty((b, t, 4 * u))
        dh_next = np.zeros((b, u))
        dc_next = np.zeros((b, u))
        for step in range(t - 1, -1, -1):
            g = cache["g"][step]
            gates = cache["gates"][step]
            i, f, o = gates[:, :u], gates[:, u:2 * u], gates[:, 2 * u:]
            tanh_c = cache["tanh_c"][step]
            c_prev = cache["c"][step - 1] if step else 0.0
            dh = dout[:, step, :] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            dc_next = dc * f
            dz_t = np.empty((b, 4 * u))
            np.multiply(dc * i, 1.0 - g**2, out=dz_t[:, :u])
            np.multiply(dc, g, out=dz_t[:, u:2 * u])
            np.multiply(dc, c_prev, out=dz_t[:, 2 * u:3 * u])
            np.multiply(dh, tanh_c, out=dz_t[:, 3 * u:])
            dz_t[:, u:] *= gates * (1.0 - gates)
            dz[:, step, :] = dz_t
            dh_next = dz_t @ Wh.T
        h_prev = np.zeros((b, t, u))
        h_prev[:, 1:, :] = cache["h"][:, :-1, :]
        dz2 = dz.reshape(b * t, 4 * u)
        self.grads["Wx"] += x.reshape(b * t, d_in).T @ dz2
        self.grads["Wh"] += h_prev.reshape(b * t, u).T @ dz2
        self.grads["b"] += dz2.sum(axis=0)
        return (dz2 @ self.params["Wx"].T).reshape(b, t, d_in)

    def gate_ranges(self):
        """Min/max of each gate over the last caching (keep=True) forward
        pass, for invariants."""
        u = self.units
        cache = self._last_cache()
        g = np.stack(cache["g"])
        gates = np.stack(cache["gates"])
        stats = {"g": (float(g.min()), float(g.max()))}
        for j, key in enumerate(("i", "f", "o")):
            arr = gates[..., j * u:(j + 1) * u]
            stats[key] = (float(arr.min()), float(arr.max()))
        return stats


class MultiHeadAttention(Layer):
    """Scaled dot-product attention over time positions, multiple heads.

    Projections map input width to model_dim (split across heads) and back,
    so the output width equals the input width. The key projection has no
    bias: it would add the same q . bk to every score of a query row, which
    the softmax cancels, so it could never learn.
    """

    def __init__(self, d_in, heads, model_dim, rng, name):
        if model_dim % heads != 0:
            raise ParameterError(f"model_dim {model_dim} not divisible by heads {heads}")
        params = {}
        for key in ("Wq", "Wk", "Wv"):
            params[key] = _fan_in_uniform(rng, (d_in, model_dim), d_in)
            if key != "Wk":
                params[key.replace("W", "b")] = np.zeros(model_dim)
        params["Wo"] = _fan_in_uniform(rng, (model_dim, d_in), model_dim)
        params["bo"] = np.zeros(d_in)
        super().__init__(name, params)
        self.heads = heads
        self.head_dim = model_dim // heads
        self.model_dim = model_dim

    def _split(self, z, b, t):
        return z.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, z, b, t):
        return z.transpose(0, 2, 1, 3).reshape(b, t, self.model_dim)

    def forward(self, x, keep=True):
        b, t, _ = x.shape
        q = self._split(x @ self.params["Wq"] + self.params["bq"], b, t)
        k = self._split(x @ self.params["Wk"], b, t)
        v = self._split(x @ self.params["Wv"] + self.params["bv"], b, t)
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.head_dim)
        attn = _softmax(scores)
        ctx = self._merge(attn @ v, b, t)
        if keep:
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
            if key != "Wk":
                self.grads[key.replace("W", "b")] += g2.sum(axis=0)
            dx += g2.reshape(b, t, m) @ self.params[key].T
        return dx

    def attention_weights(self):
        """Per-head attention rows from the last caching (keep=True) forward
        pass."""
        return self._last_cache()[4]
