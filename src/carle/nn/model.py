"""The four-block regression network: Res-CNN -> MHA -> Res-LSTM -> MHA -> Linear.

The linear block emits a logit vector (the forest's input representation);
a width-1 head on top of it provides the scalar output used for the
network-only training phase. Ablation flags strip the attention blocks
(use_mha=False) or the skip connections (use_residual=False); with both off
the network reduces to a plain CNN -> LSTM -> dense stack.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ParameterError
from .layers import Conv1d, Dense, Lstm, MultiHeadAttention


@dataclass(frozen=True)
class ModelProfile:
    """Named hyperparameter bundle; 'xjtu' and 'pronostia' mirror the two
    dataset setups, 'toy' keeps tests fast, 'gradcheck' is small enough for
    exhaustive finite differencing."""

    name: str
    conv_filters: tuple
    conv_kernels: tuple
    conv_l2: float = 0.005
    mha_heads: int = 8
    mha_model_dim: int = 64
    lstm_units: tuple = (64, 64)
    linear_units: tuple = (128, 64, 32)
    seq_len: int = 8
    n_trees: int = 800


PROFILES = {
    "xjtu": ModelProfile(
        "xjtu",
        conv_filters=(256, 256, 128, 64),
        conv_kernels=(3, 3, 2, 2),
        linear_units=(128, 64, 32),
    ),
    "pronostia": ModelProfile(
        "pronostia",
        conv_filters=(64, 64, 32, 32),
        conv_kernels=(3, 3, 2, 2),
        linear_units=(64, 48, 32),
    ),
    "toy": ModelProfile(
        "toy",
        conv_filters=(8, 8, 8, 8),
        conv_kernels=(3, 3, 2, 2),
        mha_heads=2,
        mha_model_dim=8,
        lstm_units=(8, 8),
        linear_units=(16, 8, 8),
        seq_len=4,
        n_trees=32,
    ),
    "gradcheck": ModelProfile(
        "gradcheck",
        conv_filters=(2, 2),
        conv_kernels=(2, 2),
        mha_heads=2,
        mha_model_dim=4,
        lstm_units=(4,),
        linear_units=(3, 2),
        seq_len=3,
        n_trees=4,
    ),
}


def get_profile(name: str) -> ModelProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ParameterError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None


class ResCnnUnit:
    """Two (or one) same-padded convolutions with an optional skip connection.

    y = relu(conv_chain(x) + skip(x)); the skip is the identity when channel
    widths match and a bias-free 1x1 convolution otherwise. Intermediate
    convolutions are followed by ReLU.
    """

    def __init__(self, c_in, filters, kernels, l2, use_residual, rng, name):
        self.use_residual = use_residual
        self.convs = []
        ch = c_in
        for j, (f, k) in enumerate(zip(filters, kernels)):
            self.convs.append(Conv1d(ch, f, k, rng, f"{name}.conv{j}", l2=l2))
            ch = f
        self.proj = None
        if use_residual and c_in != ch:
            self.proj = Conv1d(c_in, ch, 1, rng, f"{name}.proj", l2=l2, bias=False)

    def layers(self):
        out = list(self.convs)
        if self.proj is not None:
            out.append(self.proj)
        return out

    def forward(self, x):
        self._relu_masks = []
        h = x
        for idx, conv in enumerate(self.convs):
            h = conv.forward(h)
            if idx < len(self.convs) - 1:
                mask = h > 0
                self._relu_masks.append(mask)
                h = h * mask
        if self.use_residual:
            skip = self.proj.forward(x) if self.proj is not None else x
            h = h + skip
        self._out_mask = h > 0
        return h * self._out_mask

    def backward(self, dout):
        dh = dout * self._out_mask
        dskip = None
        if self.use_residual:
            dskip = self.proj.backward(dh) if self.proj is not None else dh
        d = dh
        for idx in range(len(self.convs) - 1, -1, -1):
            d = self.convs[idx].backward(d)
            if idx > 0:
                d = d * self._relu_masks[idx - 1]
        if dskip is not None:
            d = d + dskip
        return d


def _chunk_pairs(filters, kernels):
    pairs = []
    for start in range(0, len(filters), 2):
        pairs.append((filters[start:start + 2], kernels[start:start + 2]))
    return pairs


class CarleNet:
    def __init__(
        self,
        input_width: int,
        profile: ModelProfile | str = "toy",
        use_mha: bool = True,
        use_residual: bool = True,
        cross_block_residual: bool = False,
        seed: int = 0,
    ):
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.input_width = input_width
        self.use_residual = use_residual
        rng = np.random.default_rng(np.random.SeedSequence(seed))

        self.cnn_units = []
        ch = input_width
        for j, (fs, ks) in enumerate(_chunk_pairs(profile.conv_filters, profile.conv_kernels)):
            self.cnn_units.append(
                ResCnnUnit(ch, fs, ks, profile.conv_l2, use_residual, rng, f"res_cnn.unit{j}")
            )
            ch = fs[-1]
        self.cnn_mha = (
            MultiHeadAttention(ch, profile.mha_heads, profile.mha_model_dim, rng, "res_cnn.mha")
            if use_mha
            else None
        )

        self.lstms = []
        d = ch
        for j, units in enumerate(profile.lstm_units):
            self.lstms.append(Lstm(d, units, rng, f"res_lstm.lstm{j}"))
            d = units
        self.lstm_proj = None
        if use_residual and ch != d:
            self.lstm_proj = Dense(ch, d, rng, "res_lstm.proj", bias=False)
        self.cross_proj = None
        if cross_block_residual:
            self.cross_proj = Dense(input_width, d, rng, "cross_block.proj", bias=False)
        self.lstm_mha = (
            MultiHeadAttention(d, profile.mha_heads, profile.mha_model_dim, rng, "res_lstm.mha")
            if use_mha
            else None
        )

        self.denses = []
        d_flat = profile.seq_len * d
        for j, units in enumerate(profile.linear_units):
            act = "relu" if j < len(profile.linear_units) - 1 else None
            self.denses.append(Dense(d_flat, units, rng, f"linear.dense{j}", activation=act))
            d_flat = units
        self.head = Dense(d_flat, 1, rng, "head")

        # The net owns its parameter storage: every layer's params and grads
        # become views of one weight and one gradient vector (a flat
        # parameter, as in FSDP; Zhao et al., 2023), so the optimiser,
        # zeroing and snapshots each act on one array.
        self.flat_params = np.concatenate([arr.ravel() for _, arr in self.parameters()])
        self.flat_grads = np.zeros_like(self.flat_params)
        offset = 0
        for layer in self._layers():
            for key, arr in layer.params.items():
                end = offset + arr.size
                layer.params[key] = self.flat_params[offset:end].reshape(arr.shape)
                layer.grads[key] = self.flat_grads[offset:end].reshape(arr.shape)
                offset = end

    # -- plumbing ----------------------------------------------------------

    def _layers(self):
        out = []
        for unit in self.cnn_units:
            out.extend(unit.layers())
        if self.cnn_mha is not None:
            out.append(self.cnn_mha)
        out.extend(self.lstms)
        if self.lstm_proj is not None:
            out.append(self.lstm_proj)
        if self.cross_proj is not None:
            out.append(self.cross_proj)
        if self.lstm_mha is not None:
            out.append(self.lstm_mha)
        out.extend(self.denses)
        out.append(self.head)
        return out

    def parameters(self):
        """Ordered (name, array) pairs; arrays are live references."""
        out = []
        for layer in self._layers():
            for key, val in layer.params.items():
                out.append((f"{layer.name}.{key}", val))
        return out

    def gradients(self):
        out = []
        for layer in self._layers():
            for key, val in layer.grads.items():
                out.append((f"{layer.name}.{key}", val))
        return out

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.parameters())

    def attention_param_count(self) -> int:
        return sum(arr.size for name, arr in self.parameters() if ".mha." in name)

    def residual_param_count(self) -> int:
        return sum(arr.size for name, arr in self.parameters() if ".proj." in name)

    def get_weights(self) -> np.ndarray:
        """A copy of the flat weight vector, to assign back to flat_params."""
        return self.flat_params.copy()

    def set_weights(self, weights: dict):
        """Copy named arrays (names as in parameters()) into the weights, each
        checked first; names the net does not have are ignored."""
        for name, arr in self.parameters():
            if name not in weights:
                raise InputError(f"checkpoint is missing parameter {name}")
            src = np.asarray(weights[name])
            if src.shape != arr.shape:
                raise InputError(
                    f"shape mismatch for {name}: expected {arr.shape}, got {src.shape}"
                )
            if src.dtype.kind not in "fiu":
                raise InputError(f"parameter {name} is not real numbers (dtype {src.dtype})")
            if not np.isfinite(src).all():
                raise InputError(f"parameter {name} has a non-finite value")
            arr[...] = src

    # -- forward / backward -------------------------------------------------

    def forward(self, batch):
        """Run a (batch, seq_len, input_width) tensor through all blocks.

        Returns (logits, predictions): the logit matrix feeding the forest
        and the scalar head output per sample.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_width or x.shape[1] != self.profile.seq_len:
            raise InputError(
                f"expected batch of shape (n, {self.profile.seq_len}, {self.input_width}), "
                f"got {x.shape}"
            )
        h = x
        for unit in self.cnn_units:
            h = unit.forward(h)
        if self.cnn_mha is not None:
            h = self.cnn_mha.forward(h)

        g = h
        for lstm in self.lstms:
            g = lstm.forward(g)
        if self.use_residual:
            g = g + (self.lstm_proj.forward(h) if self.lstm_proj is not None else h)
        if self.cross_proj is not None:
            g = g + self.cross_proj.forward(x)
        if self.lstm_mha is not None:
            g = self.lstm_mha.forward(g)

        z = g.reshape(len(g), -1)
        for dense in self.denses:
            z = dense.forward(z)
        logits = z
        pred = self.head.forward(logits)[:, 0]
        return logits, pred

    def backward(self, dpred):
        """Back-propagate gradients of a scalar loss; accumulates into grads.

        dpred is the gradient w.r.t. the scalar head output (shape (n,)).
        """
        dz = self.head.backward(np.asarray(dpred)[:, None])
        for dense in reversed(self.denses):
            dz = dense.backward(dz)
        dg = dz.reshape(len(dz), self.profile.seq_len, -1)

        if self.lstm_mha is not None:
            dg = self.lstm_mha.backward(dg)
        dx_extra = 0.0
        if self.cross_proj is not None:
            dx_extra = self.cross_proj.backward(dg)
        dh_skip = 0.0
        if self.use_residual:
            dh_skip = self.lstm_proj.backward(dg) if self.lstm_proj is not None else dg
        d = dg
        for lstm in reversed(self.lstms):
            d = lstm.backward(d)
        dh = d + dh_skip

        if self.cnn_mha is not None:
            dh = self.cnn_mha.backward(dh)
        for unit in reversed(self.cnn_units):
            dh = unit.backward(dh)
        return dh + dx_extra

    def reg_loss(self) -> float:
        total = 0.0
        for layer in self._layers():
            if isinstance(layer, Conv1d):
                total += layer.reg_loss()
        return total

    def add_reg_grads(self):
        for layer in self._layers():
            if isinstance(layer, Conv1d):
                layer.add_reg_grads()

    def loss_and_grads(self, batch, targets):
        """Sum-of-squares loss on the scalar head plus the L2 term; fills grads.

        Uses sum (not mean) reduction, so duplicating a sample doubles its
        gradient contribution.
        """
        y = np.asarray(targets, dtype=np.float64).ravel()
        self.zero_grads()
        _, pred = self.forward(batch)
        if len(pred) != len(y):
            raise InputError(f"batch/target mismatch: {len(pred)} vs {len(y)}")
        resid = pred - y
        loss = float(np.sum(resid**2)) + self.reg_loss()
        self.backward(dpred=2.0 * resid)
        self.add_reg_grads()
        return loss, pred

    def logits(self, batch) -> np.ndarray:
        """Logit matrix, one row per input sequence."""
        return self.forward(batch)[0]
