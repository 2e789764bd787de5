import copy
import json
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fedkdx.compression import compress_layer
from fedkdx.linalg import finite_diff_grad
from fedkdx.nn import (
    CONV_KERNEL,
    ArchitectureError,
    CheckpointError,
    LayerParam,
    ModelParams,
    backward,
    build_cnn_har,
    build_mlp,
    cnn_shape_walk,
    forward,
    load_checkpoint,
    params_iadd_scaled,
    save_checkpoint,
)
from fedkdx.nn import _conv1d, _conv1d_backward, _maxpool2, _maxpool2_backward  # noqa: F401 - oracle targets
from fedkdx.wire import (MODE_RAW, GradientPacket, PacketEntry, decode_packet, encode_packet,
                         raw_entry)
from helpers import package_env, params_equal, rel_err


def small_cnn(seed=0, num_classes=3):
    # 28 samples is the shortest input both conv blocks accept
    return build_cnn_har(in_channels=2, in_length=28, num_classes=num_classes,
                         seed=seed)


# ------------------------------------------------------------ construction

def test_cnn_har_parameter_count_pinned():
    model = build_cnn_har(in_channels=9, in_length=128, num_classes=6, seed=0)
    assert model.params.flatten().size == 481222


def test_mlp_parameter_count():
    model = build_mlp(in_dim=6, num_classes=3, seed=0)
    # 6*64+64 + 64*32+32 + 32*3+3
    assert model.params.flatten().size == 2627


def test_shape_walk_pinned_for_har_geometry():
    walk = cnn_shape_walk(9, 128)
    assert walk == {"conv1": 120, "pool1": 60, "conv2": 52, "pool2": 26,
                    "flat": 64 * 26}


def test_shape_walk_names_the_failing_layer():
    with pytest.raises(ArchitectureError, match="conv1"):
        cnn_shape_walk(9, 8)
    with pytest.raises(ArchitectureError, match="conv2"):
        cnn_shape_walk(9, 20)


def test_init_bounds_and_determinism():
    model = small_cnn(seed=42)
    for layer in model.params.layers:
        name = layer.name
        if name.endswith(".b") or name.endswith("beta"):
            assert np.all(layer.values == 0.0)
        elif name.endswith("gamma"):
            assert np.all(layer.values == 1.0)
    w = model.params.get("conv1.w")
    assert np.abs(w).max() <= 1.0 / np.sqrt(2 * 9)
    again = small_cnn(seed=42)
    other = small_cnn(seed=43)
    assert params_equal(model.params, again.params)
    assert not params_equal(model.params, other.params)


def test_duplicate_layer_names_rejected():
    with pytest.raises(ValueError):
        ModelParams("mlp", [LayerParam("a", np.zeros(2)),
                            LayerParam("a", np.zeros(2))])


# ------------------------------------------------------------ param algebra

def test_flatten_unflatten_roundtrip():
    params = build_mlp(4, 3, seed=1).params
    vec = params.flatten()
    assert vec.shape == (sum(l.values.size for l in params.layers),)
    back = params.unflatten(vec)
    assert params_equal(params, back)
    with pytest.raises(ValueError):
        params.unflatten(vec[:-1])


def test_params_iadd_scaled():
    a = build_mlp(4, 3, seed=1).params
    b = build_mlp(4, 3, seed=2).params
    c = a.copy()
    params_iadd_scaled(c, b, -0.5)
    assert np.allclose(c.flatten(), a.flatten() - 0.5 * b.flatten(), atol=1e-15)
    with pytest.raises(ValueError):
        params_iadd_scaled(c, ModelParams("mlp", [LayerParam("x", np.zeros(1))]), 1.0)

    # a scale of +-1 adds or subtracts directly, with the bytes of the
    # scaled form: signed zeros, subnormals and sums that overflow included
    for dtype in (np.float32, np.float64):
        big, tiny = np.finfo(dtype).max, np.finfo(dtype).smallest_subnormal
        edge = np.array([0.0, -0.0, 0.0, -0.0, big, -big, big, tiny, -tiny, 1.0],
                        dtype=dtype)
        other = np.array([0.0, 0.0, -0.0, -0.0, big, big, -big, tiny, tiny, -1.0],
                         dtype=dtype)
        rng = np.random.default_rng(3)
        for x, y in ((edge, other), (other, edge),
                     (rng.normal(size=50).astype(dtype), rng.normal(size=50).astype(dtype))):
            for scale in (1.0, -1.0):
                dst = ModelParams("mlp", [LayerParam("x", x.copy())])
                with np.errstate(over="ignore"):
                    params_iadd_scaled(dst, ModelParams("mlp", [LayerParam("x", y)]), scale)
                    want = x + scale * y
                assert dst.layers[0].values.tobytes() == want.tobytes(), (dtype, scale)


def test_model_copy_is_independent():
    model = build_mlp(4, 3, seed=1)
    clone = model.copy()
    clone.params.layers[0].values += 1.0
    assert not params_equal(model.params, clone.params)


# ----------------------------------------------------------------- forward

def naive_conv1d(x, w, b):
    bsz, cin, t = x.shape
    f, _, k = w.shape
    out = np.zeros((bsz, f, t - k + 1))
    for n in range(bsz):
        for ff in range(f):
            for i in range(t - k + 1):
                out[n, ff, i] = (x[n, :, i:i + k] * w[ff]).sum() + b[ff]
    return out


def test_conv1d_matches_naive_loops():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4, 20))
    w = rng.normal(size=(5, 4, 9))
    b = rng.normal(size=5)
    got, _ = _conv1d(x, w, b)
    assert np.abs(got - naive_conv1d(x, w, b)).max() < 1e-12


def test_maxpool_takes_first_on_ties():
    x = np.array([[[2.0, 2.0, 1.0, 3.0]]])
    pooled, cache = _maxpool2(x)
    assert pooled.tolist() == [[[2.0, 3.0]]]
    grad = np.ones_like(pooled)
    dx = _maxpool2_backward(grad, cache)
    assert dx.tolist() == [[[1.0, 0.0, 0.0, 1.0]]]


def oracle_relu_pool(h):
    """ReLU then pooling by argmax and gather, as the kernels did before
    pooling by comparison; the cache holds the picks and the ReLU mask."""
    mask = h > 0
    r = h * mask
    b, f, l = r.shape
    rv = r[:, :, :l // 2 * 2].reshape(b, f, l // 2, 2)
    arg = rv.argmax(axis=3)
    return np.take_along_axis(rv, arg[..., None], axis=3)[..., 0], (arg, mask)


def oracle_relu_pool_backward(dout, cache):
    """Scatter into zeros at the argmax picks, then the ReLU mask."""
    arg, mask = cache
    b, f, lp = dout.shape
    dx = np.zeros(mask.shape)
    np.put_along_axis(dx[:, :, :lp * 2].reshape(b, f, lp, 2), arg[..., None],
                      dout[..., None], axis=3)
    return dx * mask


@pytest.mark.parametrize("length", [10, 11], ids=["even", "odd"])
@pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
def test_pooling_by_comparison_matches_argmax_bit_for_bit(length, channels_last):
    rng = np.random.default_rng(length)
    # few distinct values: many ties, and negatives that the ReLU sends to
    # -0.0 beside exact +0.0 and -0.0 inputs
    h = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(6, 5, length))
    if channels_last:  # the layout the conv output has in forward
        h = np.ascontiguousarray(h.transpose(0, 2, 1)).transpose(0, 2, 1)
    want, oracle_cache = oracle_relu_pool(h)
    r = h * (h > 0)
    got, cache = _maxpool2(r)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(want).any() and (want == 0.0).sum() > np.signbit(want).sum()

    dout = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=got.shape)
    want_dx = oracle_relu_pool_backward(dout, oracle_cache)
    got_dx = _maxpool2_backward(dout, cache)
    assert got_dx.shape == h.shape
    assert got_dx.tobytes() == want_dx.tobytes()
    assert np.signbit(want_dx).any()
    if length % 2:
        # the tail column the pool drops gets a +0.0 gradient
        assert got_dx[:, :, -1].tobytes() == np.zeros((6, 5)).tobytes()


@pytest.mark.parametrize("length", [10, 11], ids=["even", "odd"])
@pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
def test_float32_pooling_by_int32_masks_matches_argmax_bit_for_bit(length, channels_last):
    rng = np.random.default_rng(length)
    h = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(6, 5, length)).astype(np.float32)
    if channels_last:
        h = np.ascontiguousarray(h.transpose(0, 2, 1)).transpose(0, 2, 1)
    want, oracle_cache = oracle_relu_pool(h)
    got, cache = _maxpool2(h * (h > 0))
    assert got.dtype == np.float32 and cache[0].dtype == np.int32
    assert got.tobytes() == want.tobytes()
    assert np.signbit(want).any() and (want == 0.0).sum() > np.signbit(want).sum()

    dout = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=got.shape).astype(np.float32)
    # the oracle scatters into float64 zeros; every value it moves is a float32
    want_dx = oracle_relu_pool_backward(dout, oracle_cache).astype(np.float32)
    got_dx = _maxpool2_backward(dout, cache)
    assert got_dx.dtype == np.float32
    assert got_dx.tobytes() == want_dx.tobytes()
    assert np.signbit(want_dx).any()


def test_forward_shapes_and_feature_tap():
    model = small_cnn()
    x = np.random.default_rng(0).normal(size=(4, 2, 28))
    tr = forward(model, x, "eval")
    assert tr.logits.shape == (4, 3)
    assert tr.features.shape == (4, 128)
    assert np.all(tr.features >= 0.0)  # taps the post-relu dense output

    mlp = build_mlp(6, 3, seed=0)
    tr = forward(mlp, np.random.default_rng(1).normal(size=(5, 6)), "eval")
    assert tr.logits.shape == (5, 3)
    assert tr.features.shape == (5, 32)


def test_mlp_accepts_window_shaped_input():
    mlp = build_mlp(6, 3, seed=0)
    rng = np.random.default_rng(2)
    flat = rng.normal(size=(5, 6))
    tr_flat = forward(mlp, flat, "eval")
    tr_win = forward(mlp, flat.reshape(5, 1, 6), "eval")
    assert np.array_equal(tr_flat.logits, tr_win.logits)


def bn_bytes(model):
    return {k: v.tobytes() for k, v in model.bn.items()}


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_is_pure(mode):
    model = small_cnn()
    rng = np.random.default_rng(4)
    model.bn = forward(model, rng.normal(size=(8, 2, 28)), "train").stats
    x = rng.normal(size=(8, 2, 28)) * 3 + 1
    params, stats = model.params.copy(), bn_bytes(model)
    tr = forward(model, x, mode)
    assert tr.mode == mode
    assert np.array_equal(forward(model, x, mode).logits, tr.logits)
    # the parameters and the statistics are bitwise unchanged
    assert params_equal(model.params, params)
    assert bn_bytes(model) == stats
    assert forward(build_mlp(6, 3, seed=0), np.zeros((2, 6)), mode).stats == {}
    if mode == "eval":
        assert tr.stats is model.bn
        # and they are the statistics it normalizes with
        assert not np.array_equal(tr.logits, forward(small_cnn(), x, "eval").logits)
        return
    # each statistic moves a tenth of the way to its batch value; the
    # conv outputs are rebuilt from the trace's im2col patches
    assert list(tr.stats) == list(model.bn)
    for blk in ("1", "2"):
        w, b = model.params.get(f"conv{blk}.w"), model.params.get(f"conv{blk}.b")
        conv_out = tr.caches[f"conv{blk}"] @ w.reshape(w.shape[0], -1).T + b
        for stat, batch in (("mean", conv_out.mean(axis=(0, 1))),
                            ("var", conv_out.var(axis=(0, 1)))):
            old = model.bn[f"bn{blk}.running_{stat}"]
            want = 0.9 * old + 0.1 * batch
            got = tr.stats[f"bn{blk}.running_{stat}"]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (blk, stat)
            assert not np.array_equal(got, old)


def test_forward_rejects_wrong_channel_count():
    model = small_cnn()
    with pytest.raises(ValueError, match="expected input"):
        forward(model, np.zeros((2, 3, 28)), "eval")
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 2, 28)), "predict")


# ---------------------------------------------------------------- backward

def scalar_objective(model, x, wl, wf, mode, bn_snapshot):
    """sum(wl * logits) + sum(wf * features) with frozen batch-norm state."""
    for k, v in bn_snapshot.items():
        model.bn[k] = v.copy()
    tr = forward(model, x, mode)
    return float((wl * tr.logits).sum() + (wf * tr.features).sum())


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_backward_matches_finite_differences(arch, mode):
    rng = np.random.default_rng(5)
    if arch == "mlp":
        model = build_mlp(6, 3, seed=9)
        x = rng.normal(size=(4, 6))
    else:
        model = small_cnn(seed=9)
        x = rng.normal(size=(4, 2, 28))
    wl = rng.normal(size=(4, 3))
    wf = rng.normal(size=(4, model.params.meta["feature_dim"]))
    snapshot = {k: v.copy() for k, v in model.bn.items()}

    tr = forward(model, x, mode)
    grads = backward(model.params, tr, wl, wf)
    assert grads.names() == model.params.names()

    flat = model.params.flatten()
    probes = rng.choice(flat.size, size=12, replace=False)
    for i in probes:
        def f(theta, i=i):
            v = flat.copy()
            v[i] = theta[0]
            probe = model.copy()
            probe.params = model.params.unflatten(v)
            return scalar_objective(probe, x, wl, wf, mode, snapshot)
        fd = finite_diff_grad(f, np.array([flat[i]]))[0]
        assert rel_err(grads.flatten()[i], fd).max() < 1e-4


def naive_conv1d_backward(x, w, dout):
    """Loop reference for the (dx, dw, db) of naive_conv1d under dout."""
    bsz, _, lout = dout.shape
    f, _, k = w.shape
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros(f)
    for n in range(bsz):
        for ff in range(f):
            for i in range(lout):
                dw[ff] += dout[n, ff, i] * x[n, :, i:i + k]
                dx[n, :, i:i + k] += dout[n, ff, i] * w[ff]
                db[ff] += dout[n, ff, i]
    return dx, dw, db


# the inputs of conv1 and conv2 in the 9x128 HAR network, at an odd batch
@pytest.mark.parametrize("in_shape, filters", [((7, 9, 128), 32), ((7, 32, 60), 64)],
                         ids=["conv1", "conv2"])
def test_conv1d_backward_matches_naive_loops(in_shape, filters):
    rng = np.random.default_rng(6)
    x = rng.normal(size=in_shape)
    w = rng.normal(size=(filters, in_shape[1], CONV_KERNEL))
    _, cols = _conv1d(x, w, np.zeros(filters))
    dout = rng.normal(size=(in_shape[0], filters, in_shape[2] - CONV_KERNEL + 1))
    got = _conv1d_backward(dout, cols, w)
    for g, ref in zip(got, naive_conv1d_backward(x, w, dout)):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
    no_dx = _conv1d_backward(dout, cols, w, input_grad=False)
    assert no_dx[0] is None
    assert np.array_equal(no_dx[1], got[1]) and np.array_equal(no_dx[2], got[2])


# prints a digest of the bytes of the logits and of every gradient of the
# HAR CNN, per batch size and mode; then one line for the logits of
# evaluate's chunks, over a set of two whole chunks and a short one
_CNN_KERNEL_DIGESTS = """
import hashlib
import numpy as np
from fedkdx import federation
from fedkdx.nn import backward, build_cnn_har, forward, widest_row_bytes
for bsz in (1, 7, 13, 32):
    for mode in ("train", "eval"):
        rng = np.random.default_rng(bsz)
        model = build_cnn_har(9, 128, 6, seed=0)
        tr = forward(model, rng.normal(size=(bsz, 9, 128)), mode)
        grads = backward(model.params, tr, rng.normal(size=(bsz, 6)),
                         rng.normal(size=(bsz, 128)))
        for name, a in [("logits", tr.logits)] + [(l.name, l.values) for l in grads.layers]:
            print(bsz, mode, name, hashlib.sha256(a.tobytes()).hexdigest())
chunks = []
def keep(model, x, mode):
    tr = forward(model, x, mode)
    chunks.append(tr.logits)
    return tr
federation.forward = keep
model = build_cnn_har(9, 128, 6, seed=0)
n = 2 * (federation.EVAL_BYTES // widest_row_bytes(model.params)) + 11
x = np.random.default_rng(0).normal(size=(n, 9, 128))
model.bn = forward(model, x[:32], "train").stats  # statistics off their init values
federation.evaluate(model, x, np.arange(n) % 6)
print("evaluate", [len(c) for c in chunks],
      hashlib.sha256(np.concatenate(chunks).tobytes()).hexdigest())
"""


def test_blas_thread_count_does_not_change_cnn_kernels():
    outs, evals = [], []
    for blas in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _CNN_KERNEL_DIGESTS],
                              env=package_env(OPENBLAS_NUM_THREADS=blas), check=True, timeout=300, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        evals.append([line for line in lines if line.startswith("evaluate")])
        outs.append([line for line in lines if not line.startswith("evaluate")])
    assert outs[0] == outs[1]
    assert len(outs[0]) == 4 * 2 * 15  # batch sizes x modes x (logits + 14 grads)
    assert evals[0] == evals[1]
    assert len(evals[0]) == 1 and "[32, 32, 17]" in evals[0][0]


# the same digests for a float32 model, whose evaluation chunks hold twice
# the rows
_CNN_F32_KERNEL_DIGESTS = _CNN_KERNEL_DIGESTS.replace(
    "build_cnn_har(9, 128, 6, seed=0)", "build_cnn_har(9, 128, 6, seed=0, dtype=np.float32)")


def test_blas_thread_count_does_not_change_float32_cnn_kernels():
    assert _CNN_F32_KERNEL_DIGESTS.count("dtype=np.float32") == 2
    outs = [subprocess.run([sys.executable, "-c", _CNN_F32_KERNEL_DIGESTS],
                           env=package_env(OPENBLAS_NUM_THREADS=blas), check=True,
                           timeout=300, capture_output=True, text=True).stdout.splitlines()
            for blas in ("1", "2")]
    assert outs[0] == outs[1]
    assert len(outs[0]) == 4 * 2 * 15 + 1
    assert outs[0][-1].startswith("evaluate [64, 64, 23]")


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_float32_gradients_agree_with_float64_at_har_shapes(mode):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(16, 9, 128))
    wl, wf = rng.normal(size=(16, 6)), rng.normal(size=(16, 128))
    out = {}
    for dtype in (np.float32, np.float64):
        model = build_cnn_har(9, 128, 6, seed=3, dtype=dtype)
        tr = forward(model, x, mode)
        grads = backward(model.params, tr, wl, wf)
        assert tr.logits.dtype == dtype and tr.features.dtype == dtype
        assert {l.values.dtype for l in grads.layers} == {np.dtype(dtype)}
        assert {v.dtype for v in tr.stats.values()} == {np.dtype(dtype)}
        out[dtype] = tr.logits, grads, tr.stats
    (logits32, g32, bn32), (logits64, g64, bn64) = out[np.float32], out[np.float64]
    assert np.abs(logits32 - logits64).max() <= 1e-5 * np.abs(logits64).max()
    # about a hundred float32 roundings of the largest entry of the gradient;
    # the conv biases' gradients in train mode are zero up to rounding
    scale = np.abs(g64.flatten()).max()
    for a, b in zip(g32.layers, g64.layers):
        assert np.abs(a.values - b.values).max() <= 1e-5 * scale, a.name
    for k in bn64:
        assert np.abs(bn32[k] - bn64[k]).max() <= 1e-5 * np.abs(bn64[k]).max(), k


def test_backward_rejects_mismatched_trace():
    model = build_mlp(6, 3, seed=0)
    other = build_mlp(7, 3, seed=0)
    tr = forward(model, np.zeros((2, 6)), "eval")
    with pytest.raises(ValueError):
        backward(other.params, tr, np.zeros((2, 3)))


def param_bytes(p):
    return [(l.name, l.values.dtype, l.values.tobytes()) for l in p.layers]


def handover_case(arch, mode):
    """A model, its trace of a random batch and upstream gradients."""
    rng = np.random.default_rng(21)
    if arch == "cnn":
        model = build_cnn_har(9, 128, 6, seed=4, dtype=np.float32)
        x = rng.normal(size=(8, 9, 128))
    else:
        model = build_mlp(6, 3, seed=4)
        x = rng.normal(size=(8, 6))
    tr = forward(model, x, mode)
    return (model, tr, rng.normal(size=tr.logits.shape).astype(model.params.dtype),
            rng.normal(size=tr.features.shape).astype(model.params.dtype))


@pytest.mark.parametrize("arch, mode", [("cnn", "train"), ("cnn", "eval"), ("mlp", "train")])
def test_backward_hands_each_layer_over_once_in_reverse_layout_order(arch, mode):
    model, tr, gl, gf = handover_case(arch, mode)
    want = backward(model.params, tr, gl, gf)
    handed = []
    assert backward(model.params, tr, gl, gf,
                    take=lambda name, g: handed.append((name, g))) is None
    assert [name for name, _ in handed] == model.params.names()[::-1]
    for name, g in handed:
        assert g.dtype == want.get(name).dtype, name
        assert g.tobytes() == want.get(name).tobytes(), name

    # a consumer that steps each layer in place as it is handed over lands
    # where a step by the whole collected gradient does
    stepped = model.params.copy()

    def step(name, g):
        w = stepped.get(name)
        w += -0.1 * g

    backward(stepped, tr, gl, gf, take=step)
    whole = model.params.copy()
    params_iadd_scaled(whole, want, -0.1)
    assert param_bytes(stepped) == param_bytes(whole)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_reads_another_traces_conv1_patches_bit_for_bit(mode):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(8, 9, 128)).astype(np.float32)
    teacher = build_cnn_har(9, 128, 6, seed=5, dtype=np.float32)
    student = build_cnn_har(9, 128, 6, seed=6, dtype=np.float32)
    patches = forward(teacher, x, "train").caches["conv1"]
    own = forward(student, x, mode)
    shared = forward(student, x, mode, patches)
    assert shared.caches["conv1"] is patches
    assert shared.logits.tobytes() == own.logits.tobytes()
    assert shared.features.tobytes() == own.features.tobytes()
    gl, gf = rng.normal(size=own.logits.shape), rng.normal(size=own.features.shape)
    assert param_bytes(backward(student.params, shared, gl, gf)) \
        == param_bytes(backward(student.params, own, gl, gf))


def test_forward_refuses_conv1_patches_that_do_not_fit():
    x = np.random.default_rng(23).normal(size=(8, 9, 128)).astype(np.float32)
    model = build_cnn_har(9, 128, 6, seed=5, dtype=np.float32)
    patches = forward(model, x, "eval").caches["conv1"]
    for bad in (patches[:7], patches[:, :-1], patches[:, :, :-1], patches.astype(np.float64)):
        with pytest.raises(ValueError, match="conv1 patches"):
            forward(model, x, "eval", bad)
    with pytest.raises(ValueError, match="no conv1"):
        forward(build_mlp(6, 3, seed=0), np.zeros((8, 6)), "eval", patches)


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = small_cnn(seed=6)
    # make the running stats non-trivial before saving
    model.bn = forward(model, np.random.default_rng(0).normal(size=(8, 2, 28)), "train").stats
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.params.arch == model.params.arch
    assert loaded.params.meta == model.params.meta
    assert params_equal(loaded.params, model.params)
    assert sorted(loaded.bn) == sorted(model.bn)
    for k in model.bn:
        assert np.array_equal(loaded.bn[k], model.bn[k])


def _split_checkpoint(blob: bytes) -> tuple[bytes, bytes]:
    """A checkpoint's bytes as (header, tensor packet): magic 8, arch u16 +
    tag and meta u32 + block make the header."""
    meta_at = 10 + struct.unpack("<H", blob[8:10])[0]
    (meta_len,) = struct.unpack("<I", blob[meta_at:meta_at + 4])
    at = meta_at + 4 + meta_len
    return blob[:at], blob[at:]


def test_float32_checkpoint_reloads_in_float32_bitwise(tmp_path):
    model = build_cnn_har(2, 28, 3, seed=6, dtype=np.float32)
    model.bn = forward(model, np.random.default_rng(0).normal(size=(8, 2, 28)), "train").stats
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.params.meta == model.params.meta  # the meta block names no dtype
    assert loaded.params.dtype == np.float32
    assert params_equal(loaded.params, model.params)
    for k in model.bn:
        assert loaded.bn[k].dtype == np.float32
        assert loaded.bn[k].tobytes() == model.bn[k].tobytes()


@pytest.mark.parametrize("dtype, precision", [(np.float64, "f64"), (np.float32, "f32")])
def test_a_checkpoint_is_a_header_and_one_raw_packet(tmp_path, dtype, precision):
    model = build_cnn_har(2, 28, 3, seed=6, dtype=dtype)
    model.bn = forward(model, np.random.default_rng(0).normal(size=(8, 2, 28)), "train").stats
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    header, packet = _split_checkpoint(open(path, "rb").read())
    meta = b'{"feature_dim":128,"in_channels":2,"in_length":28,"num_classes":3}'
    assert header == (b"FKDX0002" + struct.pack("<H", 7) + b"cnn_har"
                      + struct.pack("<I", len(meta)) + meta)
    # the parameters, then the statistics, raw at the compute dtype's width
    stats = ["bn1.running_mean", "bn1.running_var", "bn2.running_mean", "bn2.running_var"]
    tensors = [(l.name, l.values) for l in model.params.layers] \
        + [(name, model.bn[name]) for name in stats]
    assert packet == encode_packet(GradientPacket(
        [raw_entry(name, values, precision) for name, values in tensors]))


def test_checkpoint_rejects_corruption(tmp_path):
    model = build_mlp(4, 3, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()
    header, packet = _split_checkpoint(raw)
    entries = decode_packet(packet).entries

    def load(blob, match=None):
        bad = str(tmp_path / "bad.ckpt")
        open(bad, "wb").write(blob)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(bad)

    load(b"XXXX0000" + raw[8:], "bad magic")
    load(raw[:len(raw) // 2], "truncated")
    load(raw + b"\x00", "trailing")
    # layer names are length-prefixed ascii; corrupt one in place
    load(raw.replace(b"fc1.w", b"fc9.w", 1), "do not match the checkpoint meta")

    # a running statistic with the right name and the wrong length
    cnn = small_cnn()
    cnn.bn["bn1.running_mean"] = np.zeros(5)
    save_checkpoint(cnn, path)
    load(open(path, "rb").read(), "do not match the checkpoint meta")

    # the last running statistic stored twice
    save_checkpoint(small_cnn(), path)
    cnn_header, cnn_packet = _split_checkpoint(open(path, "rb").read())
    twice = decode_packet(cnn_packet)
    twice.entries.append(twice.entries[-1])
    load(cnn_header + encode_packet(twice), "do not match the checkpoint meta")

    # a factored entry of the right shape
    rng = np.random.default_rng(0)
    factored, _ = compress_layer("fc1.w", np.outer(rng.normal(size=4), rng.normal(size=64)),
                                 0.9, "f64")
    assert factored.mode != MODE_RAW
    load(header + encode_packet(GradientPacket([factored] + entries[1:])), "raw entries")

    # one entry at another precision than the rest
    mixed = [raw_entry(e.name, e.raw, "f32" if i == 1 else "f64")
             for i, e in enumerate(entries)]
    load(header + encode_packet(GradientPacket(mixed)), "one precision")

    # a non-finite value, now refused by the packet decoder
    model.params.layers[0].values[0, 0] = np.nan
    save_checkpoint(model, path)
    load(open(path, "rb").read(), "non-finite")

    # the previous format: float64 records, each behind a kind byte and a u8 dim count
    meta_b = json.dumps(build_mlp(4, 3, seed=0).params.meta).encode()
    tensors = [(0, e.name, e.raw) for e in entries]
    old = [b"FKDX0001", struct.pack("<H", 3), b"mlp", struct.pack("<I", len(meta_b)), meta_b,
           struct.pack("<I", len(tensors))]
    for kind, name, values in tensors:
        old += [struct.pack("<BH", kind, len(name)), name.encode(),
                struct.pack(f"<B{values.ndim}I", values.ndim, *values.shape),
                values.astype("<f8").tobytes()]
    load(b"".join(old), "bad magic")


def test_checkpoint_rejects_oversize_dims_and_malformed_text(tmp_path):
    model = build_mlp(4, 3, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()
    header, packet = _split_checkpoint(raw)
    meta_at = 10 + struct.unpack("<H", raw[8:10])[0]

    def with_meta(meta):
        meta_b = json.dumps(meta).encode()
        return raw[:meta_at] + struct.pack("<I", len(meta_b)) + meta_b + packet

    def first_entry(shape):
        # an fc1.w entry that names ``shape`` and carries no values
        return header + encode_packet(GradientPacket(
            [PacketEntry("fc1.w", shape, MODE_RAW, "f64", raw=np.empty(0))]))

    cases = {
        # four dims of 65536: their element count wraps to 0 in int64
        "huge": first_entry((65536,) * 4),
        # more dims than numpy allows, with no values to read (one dim is 0)
        "ndim": first_entry((0,) + (1,) * 99),
        "duplicate": raw.replace(b"fc1.b", b"fc1.w"),
        "arch": raw[:10] + b"\xff" + raw[11:],
        "name": raw.replace(b"fc1.w", b"\xffc1.w", 1),
        # a meta block that parses but is not an object
        "meta": with_meta([]),
        # meta dims that no entry carries must not size an allocation
        "in_dim": with_meta({**model.params.meta, "in_dim": 10**12}),
    }
    for label, blob in cases.items():
        bad = str(tmp_path / f"{label}.ckpt")
        open(bad, "wb").write(blob)
        with pytest.raises(CheckpointError, match="truncated|UTF-8|meta|dims|duplicate"):
            load_checkpoint(bad)

    # rejecting a large meta dim costs about the file's size, not the dim's
    for in_dim in (200000, 10**12):
        bad = str(tmp_path / "wide.ckpt")
        open(bad, "wb").write(with_meta({**model.params.meta, "in_dim": in_dim}))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="meta"):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, in_dim
