"""The four-block regression network: Res-CNN -> MHA -> Res-LSTM -> MHA -> Linear.

``CarleNet.blocks`` lists the blocks in forward order: the Res-CNN units,
the CNN attention block, the Res-LSTM stack and the LSTM attention block.
A forward runs them in that order, flattens, and runs the dense layers and
the head; a backward runs them in reverse. The Res-CNN units and the
Res-LSTM stack are each one ``Residual``, the one residual rule
y = F(x) + skip(x). The linear block emits a logit vector (the forest's
input representation); a width-1 head on top of it provides the scalar
output used for the network-only training phase. Ablation flags strip the
attention blocks (use_mha=False) or the skip connections
(use_residual=False); with both off the network reduces to a plain
CNN -> LSTM -> dense stack.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ParameterError
from .layers import Conv1d, Dense, Lstm, MultiHeadAttention

# Sequences per forward in ``CarleNet.infer``, which bounds the activations
# alive at once. Blocks of 8 or 16 rows take OpenBLAS's small-matrix path
# and change the bits; from 32 rows up a block gave the whole batch's bits
# at every row count tried, and no block of infer has fewer than INFER_ROWS
# rows.
INFER_ROWS = 64


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


class Residual:
    """y = F(x) + skip(x) (He et al., 2016): F runs the ``chain`` layers in
    order, and the skip is ``proj``, a bias-free projection where the widths
    differ, or the identity when ``proj`` is None. Without ``use_residual``
    nothing is added. With ``relu``, a ReLU follows every chain layer but
    the last, and another follows the sum.
    """

    def __init__(self, chain, proj, use_residual, relu):
        self.chain, self.proj = chain, proj
        self.use_residual, self.relu = use_residual, relu

    def layers(self):
        out = list(self.chain)
        if self.proj is not None:
            out.append(self.proj)
        return out

    def forward(self, x, keep=True):
        """With keep=False, caches nothing, as a layer forward does."""
        masks = []  # masks[j]: the ReLU after chain layer j, the last one after the sum
        h = x
        for idx, layer in enumerate(self.chain):
            h = layer.forward(h, keep)
            if self.relu and idx < len(self.chain) - 1:
                masks.append(h > 0)
                h = h * masks[-1]
        if self.use_residual:
            h = h + (self.proj.forward(x, keep) if self.proj is not None else x)
        if self.relu:
            masks.append(h > 0)
            h = h * masks[-1]
        if keep:
            self._masks = masks
        return h

    def backward(self, dout):
        d = dout * self._masks[-1] if self.relu else dout
        dskip = None
        if self.use_residual:
            dskip = self.proj.backward(d) if self.proj is not None else d
        for idx in range(len(self.chain) - 1, -1, -1):
            if self.relu and idx < len(self.chain) - 1:
                d = d * self._masks[idx]
            d = self.chain[idx].backward(d)
        if dskip is not None:
            d = d + dskip
        return d


class ResCnnUnit(Residual):
    """Two (or one) same-padded convolutions as a ReLU ``Residual``; the skip
    is a bias-free 1x1 convolution where the channel widths differ."""

    def __init__(self, c_in, filters, kernels, l2, use_residual, rng, name):
        self.convs = []
        ch = c_in
        for j, (f, k) in enumerate(zip(filters, kernels)):
            self.convs.append(Conv1d(ch, f, k, rng, f"{name}.conv{j}", l2=l2))
            ch = f
        proj = None
        if use_residual and c_in != ch:
            proj = Conv1d(c_in, ch, 1, rng, f"{name}.proj", l2=l2, bias=False)
        super().__init__(self.convs, proj, use_residual, relu=True)


class CarleNet:
    def __init__(
        self,
        input_width: int,
        profile: ModelProfile | str = "toy",
        use_mha: bool = True,
        use_residual: bool = True,
        seed: int = 0,
    ):
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.input_width = input_width
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # Layers are built block by block in forward order, the order of the
        # initial weights' random draws; self.layers, parameters(), the flat
        # vectors and a checkpoint's nn:: members all follow it.
        attention = (profile.mha_heads, profile.mha_model_dim, rng)
        self.cnn_units = []
        ch = input_width
        for j in range(0, len(profile.conv_filters), 2):
            fs, ks = profile.conv_filters[j:j + 2], profile.conv_kernels[j:j + 2]
            unit = ResCnnUnit(ch, fs, ks, profile.conv_l2, use_residual, rng, f"res_cnn.unit{j // 2}")
            self.cnn_units.append(unit)
            ch = fs[-1]
        self.cnn_mha = MultiHeadAttention(ch, *attention, "res_cnn.mha") if use_mha else None

        self.lstms = []
        d = ch
        for j, units in enumerate(profile.lstm_units):
            self.lstms.append(Lstm(d, units, rng, f"res_lstm.lstm{j}"))
            d = units
        self.lstm_proj = None
        if use_residual and ch != d:
            self.lstm_proj = Dense(ch, d, rng, "res_lstm.proj", bias=False)
        self.lstm_mha = MultiHeadAttention(d, *attention, "res_lstm.mha") if use_mha else None

        res_lstm = Residual(self.lstms, self.lstm_proj, use_residual, relu=False)
        blocks = (*self.cnn_units, self.cnn_mha, res_lstm, self.lstm_mha)
        self.blocks = [block for block in blocks if block is not None]

        self.denses = []
        d_flat = profile.seq_len * d
        for j, units in enumerate(profile.linear_units):
            act = "relu" if j < len(profile.linear_units) - 1 else None
            self.denses.append(Dense(d_flat, units, rng, f"linear.dense{j}", activation=act))
            d_flat = units
        self.head = Dense(d_flat, 1, rng, "head")
        owners = (*self.blocks, *self.denses, self.head)
        self.layers = [layer for owner in owners for layer in owner.layers()]

        # The net owns its parameter storage: every layer's params and grads
        # become views of one weight and one gradient vector (a flat
        # parameter, as in FSDP; Zhao et al., 2023), so the optimiser,
        # zeroing and snapshots each act on one array.
        self.flat_params = np.concatenate([arr.ravel() for _, arr in self.parameters()])
        self.flat_grads = np.zeros_like(self.flat_params)
        offset = 0
        for layer in self.layers:
            for key, arr in layer.params.items():
                end = offset + arr.size
                layer.params[key] = self.flat_params[offset:end].reshape(arr.shape)
                layer.grads[key] = self.flat_grads[offset:end].reshape(arr.shape)
                offset = end

    # -- plumbing ----------------------------------------------------------

    def parameters(self):
        """Ordered (name, array) pairs; arrays are live references."""
        return [(f"{layer.name}.{key}", arr) for layer in self.layers for key, arr in layer.params.items()]

    def gradients(self):
        return [(f"{layer.name}.{key}", arr) for layer in self.layers for key, arr in layer.grads.items()]

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def parameter_count(self) -> int:
        return self.flat_params.size

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

    def _checked(self, batch):
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_width or x.shape[1] != self.profile.seq_len:
            raise InputError(
                f"expected batch of shape (n, {self.profile.seq_len}, {self.input_width}), "
                f"got {x.shape}"
            )
        return x

    def forward(self, batch, keep=True):
        """Run a (batch, seq_len, input_width) tensor through all blocks.

        Returns (logits, predictions): the logit matrix feeding the forest
        and the scalar head output per sample. keep=False, for a forward no
        backward follows, leaves every layer cache as it was.
        """
        h = self._checked(batch)
        for block in self.blocks:
            h = block.forward(h, keep)
        z = h.reshape(len(h), -1)
        for dense in self.denses:
            z = dense.forward(z, keep)
        logits = z
        pred = self.head.forward(logits, keep)[:, 0]
        return logits, pred

    def backward(self, dpred):
        """Back-propagate gradients of a scalar loss; accumulates into grads.

        dpred is the gradient w.r.t. the scalar head output (shape (n,)).
        """
        dz = self.head.backward(np.asarray(dpred)[:, None])
        for dense in reversed(self.denses):
            dz = dense.backward(dz)
        dh = dz.reshape(len(dz), self.profile.seq_len, -1)
        for block in reversed(self.blocks):
            dh = block.backward(dh)
        return dh

    def reg_loss(self) -> float:
        return sum(layer.reg_loss() for layer in self.layers if isinstance(layer, Conv1d))

    def add_reg_grads(self):
        for layer in self.layers:
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

    def infer(self, batch):
        """forward's (logits, predictions) with no backward to follow: blocks
        of INFER_ROWS sequences run one forward each, the last block taking
        the remainder, so the live activations span one block, not the
        batch. The forwards keep no layer cache (stored activations pay only
        when a backward follows; Chen et al., 2016), so nothing of them
        outlives the call, and the caches of an earlier forward stay for
        its backward. A batch under 2 * INFER_ROWS is one block."""
        x = self._checked(batch)
        n = len(x)
        starts = range(0, max(n - INFER_ROWS, 0) + 1, INFER_ROWS)
        blocks = [self.forward(x[lo:hi], keep=False) for lo, hi in zip(starts, [*starts[1:], n])]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))

    def logits(self, batch) -> np.ndarray:
        """Logit matrix, one row per input sequence."""
        return self.infer(batch)[0]
