"""Hand-rolled networks (1-D CNN and MLP) with explicit forward traces and
analytic backprop.

Both architectures expose, per sample, the logits and a penultimate feature
vector (the contrastive-alignment tap).  ``backward`` accepts simultaneous
upstream gradients on logits and features and returns a gradient object
with exactly the same layer structure as the parameters, which is what the
compression codec and the server aggregation operate on.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from .wire import (MODE_RAW, WIRE_DTYPE, ByteReader, CodecError, GradientPacket,
                   decode_packet, encode_packet, raw_entry)

ARCH_CNN = "cnn_har"
ARCH_MLP = "mlp"

CONV_KERNEL = 9
POOL_WIDTH = 2
CONV_FILTERS = (32, 64)
CNN_DENSE = (256, 128)
MLP_DENSE = (64, 32)
BN_MOMENTUM = 0.9
BN_EPS = 1e-5

CHECKPOINT_MAGIC = b"FKDX0002"

MODE_TRAIN = "train"
MODE_EVAL = "eval"


class ArchitectureError(ValueError):
    """Construction cannot produce a valid network (bad shape walk)."""


class CheckpointError(IOError):
    """Checkpoint bytes are malformed or inconsistent."""


@dataclass
class LayerParam:
    name: str
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass
class ModelParams:
    """Ordered, named parameter tensors plus the architecture tag.

    The same container carries gradients: a gradient is a ModelParams whose
    layer list mirrors the trainable parameters one for one.
    """

    arch: str
    layers: list[LayerParam]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names")

    def names(self) -> list[str]:
        return [l.name for l in self.layers]

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: every layer of a model shares its first one's."""
        return self.layers[0].values.dtype

    def get(self, name: str) -> np.ndarray:
        for l in self.layers:
            if l.name == name:
                return l.values
        raise KeyError(name)

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, [LayerParam(l.name, l.values.copy()) for l in self.layers],
                           dict(self.meta))

    def flatten(self) -> np.ndarray:
        return np.concatenate([l.values.ravel() for l in self.layers]) if self.layers \
            else np.empty(0)

    def unflatten(self, vec: np.ndarray) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        total = sum(l.values.size for l in self.layers)
        if vec.shape != (total,):
            raise ValueError(f"expected a flat vector of {total} values, got {vec.shape}")
        out, pos = [], 0
        for l in self.layers:
            n = l.values.size
            out.append(LayerParam(l.name,
                                  vec[pos:pos + n].reshape(l.values.shape).astype(l.values.dtype)))
            pos += n
        return ModelParams(self.arch, out, dict(self.meta))

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.arch, [LayerParam(l.name, np.zeros_like(l.values))
                                       for l in self.layers], dict(self.meta))


def params_iadd_scaled(dst: ModelParams, src: ModelParams, scale: float) -> None:
    """dst += scale * src, layer by layer, in place.  A scale of 1 or -1
    adds or subtracts directly: the same bits, without a scaled copy."""
    if dst.names() != src.names():
        raise ValueError("parameter structures differ")
    for a, b in zip(dst.layers, src.layers):
        if scale == 1.0:
            a.values += b.values
        elif scale == -1.0:
            a.values -= b.values
        else:
            a.values += scale * b.values


@dataclass
class Model:
    """Parameters plus per-instance batch-norm running statistics: state,
    not trainable parameters, so never in gradients, packets or aggregation.
    ``forward`` returns their update; only the model's owner stores it.
    """

    params: ModelParams
    bn: dict[str, np.ndarray]

    def copy(self) -> "Model":
        return Model(self.params.copy(), {k: v.copy() for k, v in self.bn.items()})


@dataclass
class ForwardTrace:
    """Per-batch activations cached for the backward pass."""

    arch: str
    mode: str
    logits: np.ndarray      # (B, C)
    features: np.ndarray    # (B, H)
    caches: dict
    layer_shapes: tuple     # fingerprint to pair trace with its params
    stats: dict             # running statistics after the batch; eval mode: the model's own


def cnn_shape_walk(in_channels: int, in_length: int) -> dict:
    """Spatial sizes through the conv stack; raises naming the first layer
    that would produce an empty output."""
    if in_channels < 1:
        raise ArchitectureError(f"in_channels must be >= 1, got {in_channels}")
    l1 = in_length - CONV_KERNEL + 1
    if l1 < 1:
        raise ArchitectureError(
            f"conv1 needs in_length >= {CONV_KERNEL}, got {in_length}")
    p1 = l1 // POOL_WIDTH
    if p1 < 1:
        raise ArchitectureError(f"pool1 output empty for in_length {in_length}")
    l2 = p1 - CONV_KERNEL + 1
    if l2 < 1:
        raise ArchitectureError(
            f"conv2 output empty for in_length {in_length} (pool1 gives {p1})")
    p2 = l2 // POOL_WIDTH
    if p2 < 1:
        raise ArchitectureError(f"pool2 output empty for in_length {in_length}")
    return {"conv1": l1, "pool1": p1, "conv2": l2, "pool2": p2,
            "flat": CONV_FILTERS[1] * p2}


def widest_row_bytes(params: ModelParams) -> int:
    """Bytes per sample of the largest buffer a forward builds, at the
    parameters' dtype: the im2col patches of the wider conv layer for the
    CNN, the widest layer for the MLP."""
    m = params.meta
    if params.arch == ARCH_CNN:
        walk = cnn_shape_walk(m["in_channels"], m["in_length"])
        width = CONV_KERNEL * max(m["in_channels"] * walk["conv1"],
                                  CONV_FILTERS[0] * walk["conv2"])
    else:
        width = max(m["in_dim"], *MLP_DENSE)
    return params.dtype.itemsize * width


def layout(arch: str, meta: dict) -> tuple[list, list]:
    """The ordered (name, shape) lists of an architecture's parameters and
    of its running statistics, as its meta dict sizes them.

    Integer arithmetic only, so a checkpoint's meta block is checked against
    the tensors read without allocating anything it names.
    """
    if arch not in (ARCH_CNN, ARCH_MLP):
        raise ArchitectureError(f"unknown architecture {arch!r}")
    k = operator.index(meta["num_classes"])
    if k < 2:
        raise ArchitectureError(f"num_classes must be >= 2, got {k}")
    if arch == ARCH_MLP:
        (d1, d2), d_in = MLP_DENSE, operator.index(meta["in_dim"])
        if d_in < 1:
            raise ArchitectureError(f"in_dim must be >= 1, got {d_in}")
        front, stats = [], []
    else:
        (d1, d2), (f1, f2), c = CNN_DENSE, CONV_FILTERS, operator.index(meta["in_channels"])
        d_in = cnn_shape_walk(c, operator.index(meta["in_length"]))["flat"]
        front = [("conv1.w", (f1, c, CONV_KERNEL)), ("conv1.b", (f1,)),
                 ("bn1.gamma", (f1,)), ("bn1.beta", (f1,)),
                 ("conv2.w", (f2, f1, CONV_KERNEL)), ("conv2.b", (f2,)),
                 ("bn2.gamma", (f2,)), ("bn2.beta", (f2,))]
        stats = [("bn1.running_mean", (f1,)), ("bn1.running_var", (f1,)),
                 ("bn2.running_mean", (f2,)), ("bn2.running_var", (f2,))]
    return front + [("fc1.w", (d_in, d1)), ("fc1.b", (d1,)), ("fc2.w", (d1, d2)),
                    ("fc2.b", (d2,)), ("head.w", (d2, k)), ("head.b", (k,))], stats


def _build(arch: str, meta: dict, seed: int, dtype) -> Model:
    """Weights uniform in +-1/sqrt(fan in), drawn from one stream in layout
    order and rounded to ``dtype``; batch-norm scales and running variances
    start at 1, the rest at 0."""
    param_layout, stat_layout = layout(arch, meta)
    rng = np.random.default_rng(seed)

    def initial(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith(".w"):
            # dense weights are (in, out); conv kernels (filters, channels, width)
            bound = 1.0 / np.sqrt(shape[0] if len(shape) == 2 else math.prod(shape[1:]))
            return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)
        fill = np.ones if name.endswith((".gamma", "_var")) else np.zeros
        return fill(shape, dtype=dtype)

    layers = [LayerParam(name, initial(name, shape)) for name, shape in param_layout]
    return Model(ModelParams(arch, layers, meta),
                 {name: initial(name, shape) for name, shape in stat_layout})


def build_cnn_har(in_channels: int, in_length: int, num_classes: int, seed: int,
                  dtype=np.float64) -> Model:
    """Two conv blocks (conv -> batchnorm -> relu -> maxpool) into three
    dense layers; the 128-wide dense output (post-relu) is the feature tap.
    ``dtype`` is the compute dtype: float32 or float64."""
    return _build(ARCH_CNN, {"in_channels": in_channels, "in_length": in_length,
                             "num_classes": num_classes, "feature_dim": CNN_DENSE[1]},
                  seed, dtype)


def build_mlp(in_dim: int, num_classes: int, seed: int) -> Model:
    """Dense(64) -> relu -> Dense(32) -> Dense(C); the 32-wide affine output
    is the feature tap."""
    return _build(ARCH_MLP, {"in_dim": in_dim, "num_classes": num_classes,
                             "feature_dim": MLP_DENSE[1]}, seed, np.float64)


# ---------------------------------------------------------------- forward

def _conv1d(x, w, b):
    # x (B,C,L), w (F,C,K) -> out (B,F,Lout), cache of im2col patches
    # (B,Lout,C*K).  One GEMM over batch x positions rows; a GEMM per
    # window gave the same bits at every batch size probed (1-69, 96, 128
    # and 200, both HAR conv shapes, float32 and float64, 1 and 2 threads)
    f, c, k = w.shape
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)  # (B,C,Lout,K)
    cols = win.transpose(0, 2, 1, 3).reshape(x.shape[0], -1, c * k)
    out = (cols.reshape(-1, c * k) @ w.reshape(f, -1).T).reshape(*cols.shape[:2], f) + b
    return out.transpose(0, 2, 1), cols


def _bn_forward(x, gamma, beta, mode, running_mean, running_var):
    # channel statistics over (batch, position).  x is the conv output, a
    # channels-last array seen as (B, F, L); the reductions run on that layout
    if mode == MODE_TRAIN:
        mu = x.mean(axis=(0, 2))
        # np.var's own steps, keeping the centred values for xhat
        xhat = x - mu[None, :, None]
        var = (xhat * xhat).sum(axis=(0, 2)) / (x.shape[0] * x.shape[2])
        new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mu
        new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    else:
        xhat = x - running_mean[None, :, None]
        var = running_var
        new_mean, new_var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[None, :, None]
    out = xhat * gamma[None, :, None]
    out += beta[None, :, None]
    return out, (xhat, inv_std), (new_mean, new_var)


def _maxpool2(x):
    # x is post-ReLU.  a >= b is argmax's rule: the first of a tie wins, so
    # a -0.0 and +0.0 pair gives the -0.0.  The pick is made on the values'
    # bits, through masks of all ones (a wins) or zeros in the signed
    # integer of the values' width: np.where branches on each element and
    # costs several times more
    bits = np.dtype(f"i{x.itemsize}")
    lp = x.shape[2] // POOL_WIDTH
    a, b = x[:, :, 0:lp * POOL_WIDTH:2], x[:, :, 1:lp * POOL_WIDTH:2]
    keep = (a >= b).astype(bits)
    np.negative(keep, out=keep)
    out = a.view(bits) & keep
    out |= b.view(bits) & ~keep
    out = out.view(x.dtype)
    return out, (keep, out, x.shape[2])


def forward(model: Model, x: np.ndarray, mode: str) -> ForwardTrace:
    """Run the network on a batch, as a pure function of (params, stats, x).

    mode="train" normalizes with batch statistics, and the trace's ``stats``
    is a new mapping of their momentum update; mode="eval" normalizes with
    the model's running statistics, and ``stats`` is its own mapping.
    Computes in the parameters' dtype, to which ``x`` is cast.  Checks the
    input's shape only: the loaders check its values at load.
    """
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    params = model.params
    x = np.asarray(x, dtype=params.dtype)
    caches: dict = {}
    stats = {} if mode == MODE_TRAIN else model.bn

    m = params.meta
    if params.arch == ARCH_CNN:
        if x.ndim != 3 or x.shape[1] != m["in_channels"] or x.shape[2] != m["in_length"]:
            raise ValueError(
                f"expected input (B, {m['in_channels']}, {m['in_length']}), got {x.shape}")
        h = x
        for blk in ("1", "2"):
            h, cols = _conv1d(h, params.get(f"conv{blk}.w"), params.get(f"conv{blk}.b"))
            caches[f"conv{blk}"] = cols
            h, caches[f"bn{blk}"], (nm, nv) = _bn_forward(
                h, params.get(f"bn{blk}.gamma"), params.get(f"bn{blk}.beta"), mode,
                model.bn[f"bn{blk}.running_mean"], model.bn[f"bn{blk}.running_var"])
            if mode == MODE_TRAIN:
                stats[f"bn{blk}.running_mean"], stats[f"bn{blk}.running_var"] = nm, nv
            h *= h > 0
            h, pool_cache = _maxpool2(h)
            caches[f"pool{blk}"] = pool_cache
        caches["conv_out_shape"] = h.shape
        h = h.reshape(h.shape[0], -1)
    elif params.arch == ARCH_MLP:
        h = x.reshape(x.shape[0], -1) if x.ndim == 3 else x
        if h.ndim != 2 or h.shape[1] != m["in_dim"]:
            raise ValueError(f"expected input with {m['in_dim']} values per sample, got {h.shape}")
    else:
        raise ValueError(f"unknown architecture {params.arch!r}")

    caches["fc1.in"] = h
    h = h @ params.get("fc1.w") + params.get("fc1.b")
    mask = h > 0
    caches["relu_fc1"] = mask
    h = h * mask
    caches["fc2.in"] = h
    features = h @ params.get("fc2.w") + params.get("fc2.b")
    if params.arch == ARCH_CNN:
        mask = features > 0
        caches["relu_fc2"] = mask
        features = features * mask
    caches["head.in"] = features
    logits = features @ params.get("head.w") + params.get("head.b")
    return ForwardTrace(params.arch, mode, logits, features, caches,
                        tuple(l.values.shape for l in params.layers), stats)


# --------------------------------------------------------------- backward

def _conv1d_backward(dout, cols, w, input_grad=True):
    # -> (dx, dw, db); dx is None when input_grad is false
    f, c, k = w.shape
    b, _, lout = dout.shape
    # one GEMM per sample, summed over the batch: a single GEMM over
    # batch x positions gives OpenBLAS-thread-count-dependent bits
    dw = (dout @ cols).sum(axis=0).reshape(w.shape)
    db = dout.sum(axis=(0, 2))
    if not input_grad:
        return None, dw, db
    # (b, c, k, lout): each tap's slice is contiguous
    dcols = (w.reshape(f, -1).T @ dout).reshape(b, c, k, lout)
    dx = np.zeros((b, c, lout + k - 1), dtype=dcols.dtype)
    for kk in range(k):
        dx[:, :, kk:kk + lout] += dcols[:, :, kk]
    return dx, dw, db


def _bn_backward(dout, cache, gamma, mode):
    # dout is C-ordered (B, F, L) and xhat channels-last, as the forward left
    # it.  A product with dout comes out C-ordered, so each reduction below
    # runs on dout's layout; an elementwise pass gives the same bits in any
    xhat, inv_std = cache
    dgamma = (dout * xhat).sum(axis=(0, 2))
    dbeta = dout.sum(axis=(0, 2))
    dxhat = dout * gamma[None, :, None]
    if mode == MODE_EVAL:
        dxhat *= inv_std[None, :, None]
        return dxhat, dgamma, dbeta
    n = dout.shape[0] * dout.shape[2]
    s1 = dxhat.sum(axis=(0, 2), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
    dx = n * dxhat
    dx -= s1
    dx -= xhat * s2
    dx *= inv_std[None, :, None] / n
    return dx, dgamma, dbeta


def _maxpool2_backward(dout, cache):
    # the ReLU before the pool passes a gradient where its picked input was
    # positive, which is where the pooled value is; multiplying by that mask
    # keeps the sign of a zero as the ReLU's own mask does.  The forward's
    # bit masks then route each gradient to its pick and +0.0 to the other
    keep, pooled, l = cache
    b, f, lp = dout.shape
    keep = np.ascontiguousarray(keep)
    bits = (dout * np.ascontiguousarray(pooled > 0)).view(keep.dtype)
    dx = np.zeros((b, f, l), dtype=dout.dtype)
    dx_bits = dx.view(keep.dtype)
    np.bitwise_and(bits, keep, out=dx_bits[:, :, 0:lp * POOL_WIDTH:2])
    np.bitwise_and(bits, ~keep, out=dx_bits[:, :, 1:lp * POOL_WIDTH:2])
    return dx


def backward(params: ModelParams, trace: ForwardTrace, grad_logits: np.ndarray,
             grad_features: np.ndarray | None = None) -> ModelParams:
    """Backpropagate upstream gradients on logits (B, C) and optionally on
    the feature tap (B, H); returns gradients with the parameter structure.

    The feature gradient enters at the tap itself, downstream of the head,
    so a features-only upstream leaves the head weights untouched.  Both
    upstreams are cast to the parameters' dtype.
    """
    if trace.layer_shapes != tuple(l.values.shape for l in params.layers) \
            or trace.arch != params.arch:
        raise ValueError("trace does not belong to these parameters")
    grad_logits = np.asarray(grad_logits, dtype=params.dtype)
    if grad_logits.shape != trace.logits.shape:
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} != logits {trace.logits.shape}")
    if grad_features is None:
        grad_features = np.zeros_like(trace.features)
    grad_features = np.asarray(grad_features, dtype=params.dtype)
    if grad_features.shape != trace.features.shape:
        raise ValueError(
            f"grad_features shape {grad_features.shape} != features {trace.features.shape}")

    caches = trace.caches
    g: dict[str, np.ndarray] = {}

    g["head.w"] = caches["head.in"].T @ grad_logits
    g["head.b"] = grad_logits.sum(axis=0)
    dh = grad_logits @ params.get("head.w").T + grad_features

    if params.arch == ARCH_CNN:
        dh = dh * caches["relu_fc2"]
    g["fc2.w"] = caches["fc2.in"].T @ dh
    g["fc2.b"] = dh.sum(axis=0)
    dh = dh @ params.get("fc2.w").T
    dh = dh * caches["relu_fc1"]
    g["fc1.w"] = caches["fc1.in"].T @ dh
    g["fc1.b"] = dh.sum(axis=0)

    if params.arch == ARCH_CNN:
        dh = dh @ params.get("fc1.w").T
        dh = dh.reshape(caches["conv_out_shape"])
        for blk in ("2", "1"):
            dh = _maxpool2_backward(dh, caches[f"pool{blk}"])
            dh, dgamma, dbeta = _bn_backward(dh, caches[f"bn{blk}"],
                                             params.get(f"bn{blk}.gamma"), trace.mode)
            g[f"bn{blk}.gamma"] = dgamma
            g[f"bn{blk}.beta"] = dbeta
            # nothing upstream of the input batch needs its gradient
            dh, g[f"conv{blk}.w"], g[f"conv{blk}.b"] = _conv1d_backward(
                dh, caches[f"conv{blk}"], params.get(f"conv{blk}.w"), input_grad=blk == "2")

    return ModelParams(params.arch,
                       [LayerParam(l.name, g[l.name]) for l in params.layers],
                       dict(params.meta))


# ------------------------------------------------------------- checkpoint

def save_checkpoint(model: Model, path: str) -> None:
    """Serialize parameters and running statistics: versioned magic header,
    architecture tag, meta block, then one packet of raw entries, the
    parameters and then the statistics in ``layout`` order, at the wire
    precision of the compute dtype."""
    params = model.params
    arch_b = params.arch.encode("utf-8")
    meta_b = json.dumps(params.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    precision = next(p for p, wire in WIRE_DTYPE.items() if wire == params.dtype)
    _, stat_layout = layout(params.arch, params.meta)
    tensors = [(l.name, l.values) for l in params.layers] \
        + [(name, model.bn[name]) for name, _ in stat_layout]
    packet = encode_packet(GradientPacket([raw_entry(name, values, precision)
                                           for name, values in tensors]))
    blob = b"".join([CHECKPOINT_MAGIC, struct.pack("<H", len(arch_b)), arch_b,
                     struct.pack("<I", len(meta_b)), meta_b, packet])
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path: str) -> Model:
    """The model ``save_checkpoint`` wrote, in the compute dtype it had."""
    with open(path, "rb") as fh:
        r = ByteReader(fh.read(), CheckpointError)
    magic = bytes(r.take(len(CHECKPOINT_MAGIC), "checkpoint magic"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (arch_len,) = r.unpack("<H", "architecture tag length")
    arch = r.text(arch_len, "architecture tag")
    (meta_len,) = r.unpack("<I", "meta block length")
    try:
        meta = json.loads(r.text(meta_len, "meta block"))
    except ValueError as e:
        raise CheckpointError(f"unreadable meta block: {e}") from e
    try:
        entries = decode_packet(r.rest()).entries
    except CodecError as e:
        raise CheckpointError(f"bad tensor packet: {e}") from e

    # the layout is integer arithmetic: a meta dim no entry carries sizes nothing
    try:
        want_params, want_stats = layout(arch, meta)
    except (KeyError, TypeError, ArchitectureError) as e:
        raise CheckpointError(f"inconsistent checkpoint meta: {e}") from e
    got = [(e.name, e.shape) for e in entries]
    # print the meta, not the shapes it gives: those can be too long for str()
    if got != want_params + want_stats:
        raise CheckpointError(f"tensors {got} do not match the checkpoint meta {meta}")
    kinds = {(e.mode, e.precision) for e in entries}
    if len(kinds) != 1 or next(iter(kinds))[0] != MODE_RAW:
        raise CheckpointError(f"tensors must be raw entries of one precision, got "
                              f"(mode, precision) pairs {sorted(kinds)}")
    n = len(want_params)
    return Model(ModelParams(arch, [LayerParam(e.name, e.raw) for e in entries[:n]], meta),
                 {e.name: e.raw for e in entries[n:]})
