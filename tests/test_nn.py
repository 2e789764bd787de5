import copy
import json
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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
from fedkdx.nn import _conv1d, _conv1d_backward, _maxpool2  # noqa: F401 - oracle targets
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
    from fedkdx.nn import _maxpool2_backward
    dx = _maxpool2_backward(grad, cache)
    assert dx.tolist() == [[[1.0, 0.0, 0.0, 1.0]]]


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


def test_eval_forward_is_pure():
    model = small_cnn()
    x = np.random.default_rng(3).normal(size=(4, 2, 28))
    before = {k: v.copy() for k, v in model.bn.items()}
    a = forward(model, x, "eval").logits
    b = forward(model, x, "eval").logits
    assert np.array_equal(a, b)
    for k in before:
        assert np.array_equal(model.bn[k], before[k])


def test_train_forward_blends_running_stats():
    model = small_cnn()
    x = np.random.default_rng(4).normal(size=(8, 2, 28)) * 3 + 1
    tr = forward(model, x, "train")
    conv_out, _ = _conv1d(x, model.params.get("conv1.w"),
                          model.params.get("conv1.b"))
    batch_mean = conv_out.mean(axis=(0, 2))
    # fresh stats are (0, 1); one pass moves them a tenth of the way
    assert np.abs(model.bn["bn1.running_mean"] - 0.1 * batch_mean).max() < 1e-10
    # and the next eval forward differs from a never-trained twin
    twin = small_cnn()
    assert not np.array_equal(forward(model, x, "eval").logits,
                              forward(twin, x, "eval").logits)
    assert tr.mode == "train"


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
# HAR CNN, per batch size and mode
_CNN_KERNEL_DIGESTS = """
import hashlib
import numpy as np
from fedkdx.nn import backward, build_cnn_har, forward
for bsz in (1, 7, 13, 32):
    for mode in ("train", "eval"):
        rng = np.random.default_rng(bsz)
        model = build_cnn_har(9, 128, 6, seed=0)
        tr = forward(model, rng.normal(size=(bsz, 9, 128)), mode)
        grads = backward(model.params, tr, rng.normal(size=(bsz, 6)),
                         rng.normal(size=(bsz, 128)))
        for name, a in [("logits", tr.logits)] + [(l.name, l.values) for l in grads.layers]:
            print(bsz, mode, name, hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_blas_thread_count_does_not_change_cnn_kernels():
    outs = []
    for blas in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _CNN_KERNEL_DIGESTS],
                              env=package_env(OPENBLAS_NUM_THREADS=blas), check=True, timeout=300, capture_output=True, text=True)
        outs.append(proc.stdout.splitlines())
    assert outs[0] == outs[1]
    assert len(outs[0]) == 4 * 2 * 15  # batch sizes x modes x (logits + 14 grads)


def test_backward_rejects_mismatched_trace():
    model = build_mlp(6, 3, seed=0)
    other = build_mlp(7, 3, seed=0)
    tr = forward(model, np.zeros((2, 6)), "eval")
    with pytest.raises(ValueError):
        backward(other.params, tr, np.zeros((2, 3)))


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = small_cnn(seed=6)
    # make the running stats non-trivial before saving
    forward(model, np.random.default_rng(0).normal(size=(8, 2, 28)), "train")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.params.arch == model.params.arch
    assert loaded.params.meta == model.params.meta
    assert params_equal(loaded.params, model.params)
    assert sorted(loaded.bn) == sorted(model.bn)
    for k in model.bn:
        assert np.array_equal(loaded.bn[k], model.bn[k])


def test_checkpoint_rejects_corruption(tmp_path):
    model = build_mlp(4, 3, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()

    bad_magic = str(tmp_path / "bad_magic.ckpt")
    open(bad_magic, "wb").write(b"XXXX0000" + raw[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = str(tmp_path / "short.ckpt")
    open(truncated, "wb").write(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    trailing = str(tmp_path / "long.ckpt")
    open(trailing, "wb").write(raw + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)

    renamed = str(tmp_path / "renamed.ckpt")
    # layer names are length-prefixed ascii; corrupt one in place
    open(renamed, "wb").write(raw.replace(b"fc1.w", b"fc9.w", 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(renamed)

    # a running statistic with the right name and the wrong length
    cnn = small_cnn()
    cnn.bn["bn1.running_mean"] = np.zeros(5)
    short_stats = str(tmp_path / "short_stats.ckpt")
    save_checkpoint(cnn, short_stats)
    with pytest.raises(CheckpointError, match="do not match the checkpoint meta"):
        load_checkpoint(short_stats)

    # the last running statistic stored twice, the record count raised to match
    save_checkpoint(small_cnn(), short_stats)
    blob = open(short_stats, "rb").read()
    arch_len = struct.unpack("<H", blob[8:10])[0]
    count_at = 14 + arch_len + struct.unpack("<I", blob[10 + arch_len:14 + arch_len])[0]
    (count,) = struct.unpack("<I", blob[count_at:count_at + 4])
    last = blob.rindex(b"bn2.running_var") - 3  # record kind u8, name length u16
    twice = str(tmp_path / "twice.ckpt")
    open(twice, "wb").write(blob[:count_at] + struct.pack("<I", count + 1)
                            + blob[count_at + 4:] + blob[last:])
    with pytest.raises(CheckpointError, match="do not match the checkpoint meta"):
        load_checkpoint(twice)


def test_checkpoint_rejects_oversize_dims_and_malformed_text(tmp_path):
    model = build_mlp(4, 3, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()
    # magic 8, arch u16 + tag, meta u32 + block, record count u32
    arch_len = struct.unpack("<H", raw[8:10])[0]
    meta_at = 10 + arch_len
    meta_len = struct.unpack("<I", raw[meta_at:meta_at + 4])[0]
    first_record = meta_at + 4 + meta_len + 4

    def with_in_dim(n):
        meta = json.dumps({**model.params.meta, "in_dim": n}).encode()
        return raw[:meta_at] + struct.pack("<I", len(meta)) + meta + raw[meta_at + 4 + meta_len:]

    cases = {
        # four dims of 65536: their element count wraps to 0 in int64
        "huge": raw[:first_record] + struct.pack("<BH", 0, 5) + b"fc1.w"
                + struct.pack("<B4I", 4, *(65536,) * 4),
        # more dims than numpy allows, with no values to read (one dim is 0)
        "ndim": raw[:first_record] + struct.pack("<BH", 0, 5) + b"fc1.w"
                + struct.pack("<B100I", 100, 0, *(1,) * 99),
        "duplicate": raw.replace(b"fc1.b", b"fc1.w"),
        "arch": raw[:10] + b"\xff" + raw[11:],
        "name": raw.replace(b"fc1.w", b"\xffc1.w", 1),
        # a meta block that parses but is not an object
        "meta": raw[:meta_at] + struct.pack("<I", 2) + b"[]" + raw[meta_at + 4 + meta_len:],
        # meta dims that no record carries must not size an allocation
        "in_dim": with_in_dim(10**12),
    }
    for label, blob in cases.items():
        bad = str(tmp_path / f"{label}.ckpt")
        open(bad, "wb").write(blob)
        with pytest.raises(CheckpointError, match="truncated|UTF-8|meta|dims|duplicate"):
            load_checkpoint(bad)

    # rejecting a large meta dim costs about the file's size, not the dim's
    bad = str(tmp_path / "wide.ckpt")
    open(bad, "wb").write(with_in_dim(200000))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="meta"):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
