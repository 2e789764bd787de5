import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkdx import compression as cp
from fedkdx.compression import (
    MODE_LOWRANK,
    MODE_LOWRANK_T,
    MODE_RAW,
    CodecError,
    CompressionPolicy,
    compress_gradient,
    compress_layer,
    decode_packet,
    decompress,
    dynamic_threshold,
    encode_packet,
    packet_size_bytes,
    raw_packet,
    select_rank,
)
from fedkdx.linalg import thin_svd
from fedkdx.nn import LayerParam, ModelParams

from helpers import package_env


def grads_of(arrays, arch="mlp"):
    layers = [LayerParam(f"layer{i}.w", np.asarray(a, dtype=np.float64))
              for i, a in enumerate(arrays)]
    return ModelParams(arch, layers)


# ---------------------------------------------------------------- schedule

def test_threshold_endpoints_and_midpoint():
    pol = CompressionPolicy(eps_start=0.5, eps_end=0.9)
    assert dynamic_threshold(0.0, pol) == 0.5
    assert dynamic_threshold(1.0, pol) == 0.9
    assert abs(dynamic_threshold(0.25, pol) - 0.6) < 1e-15
    assert abs(dynamic_threshold(0.5, pol) - 0.7) < 1e-15


def test_threshold_domain_checked():
    pol = CompressionPolicy()
    with pytest.raises(ValueError):
        dynamic_threshold(-0.1, pol)
    with pytest.raises(ValueError):
        dynamic_threshold(1.1, pol)


def test_policy_validation():
    CompressionPolicy(eps_start=1.0, eps_end=0.5)  # eps == 1 keeps everything
    with pytest.raises(ValueError):
        CompressionPolicy(eps_start=0.0)
    with pytest.raises(ValueError):
        CompressionPolicy(eps_end=1.5)
    with pytest.raises(ValueError):
        CompressionPolicy(wire_precision="f16")


def test_select_rank_pinned():
    sigma = np.array([3.0, 2.0, 1.0])  # squared energies 9, 4, 1 of 14
    assert select_rank(sigma, 0.5) == 1    # 9/14 > 0.5
    assert select_rank(sigma, 0.9) == 2    # 13/14 > 0.9
    assert select_rank(sigma, 0.95) == 3
    assert select_rank(sigma, 1.0) == 3    # nothing strictly exceeds 1
    assert select_rank(np.zeros(4), 0.9) == 0


def test_select_rank_validation():
    with pytest.raises(ValueError):
        select_rank(np.array([1.0, 2.0]), 0.5)  # increasing
    with pytest.raises(ValueError):
        select_rank(np.array([1.0, -0.5]), 0.5)
    with pytest.raises(ValueError):
        select_rank(np.array([]), 0.5)
    for with_nan in ([np.nan], [1.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            select_rank(np.array(with_nan), 0.5)


# ------------------------------------------------------------ layer codec

def test_vectors_always_travel_raw():
    entry, failed = compress_layer("b", np.arange(5.0), 0.5, "f64")
    assert entry.mode == MODE_RAW and not failed
    assert np.array_equal(np.asarray(entry.raw, dtype=np.float64), np.arange(5.0))


def test_tall_rank_one_matrix_goes_lowrank():
    u = np.linspace(1, 2, 40)[:, None]
    v = np.linspace(-1, 1, 8)[None, :]
    entry, failed = compress_layer("w", u @ v, 0.9, "f64")
    assert entry.mode == MODE_LOWRANK and not failed
    assert entry.rank == 1
    assert entry.u.shape == (40, 1) and entry.vt.shape == (1, 8)


def test_wide_matrix_transposes_before_factorizing():
    u = np.linspace(1, 2, 8)[:, None]
    v = np.linspace(-1, 1, 40)[None, :]
    entry, failed = compress_layer("w", u @ v, 0.9, "f64")
    assert entry.mode == MODE_LOWRANK_T and not failed
    # factors describe the transposed working matrix
    assert entry.u.shape == (40, 1) and entry.vt.shape == (1, 8)


def test_small_full_rank_matrix_fails_the_size_gate():
    g = np.diag([4.0, 3.0, 2.0, 1.0])
    # keeping 99% of energy needs every component; factors exceed the raw size
    entry, failed = compress_layer("w", g, 0.99, "f64")
    assert entry.mode == MODE_RAW and not failed


def test_zero_matrix_goes_raw():
    entry, _ = compress_layer("w", np.zeros((10, 4)), 0.9, "f64")
    assert entry.mode == MODE_RAW


def test_conv_kernel_reshapes_filters_by_taps():
    rng = np.random.default_rng(0)
    # rank-1 as an (8, 15) working matrix, shipped as (8, 3, 5)
    kernel = (rng.normal(size=(8, 1)) @ rng.normal(size=(1, 15))).reshape(8, 3, 5)
    grads = grads_of([kernel])
    pkt, _ = compress_gradient(grads, 0.9, CompressionPolicy(wire_precision="f64"))
    assert sum(e.mode != MODE_RAW for e in pkt.entries) == 1
    out = decompress(pkt, grads.zeros_like())
    assert out.get("layer0.w").shape == (8, 3, 5)
    assert np.abs(out.get("layer0.w") - kernel).max() < 1e-10


def test_energy_bound_holds_per_entry():
    rng = np.random.default_rng(1)
    policy = CompressionPolicy(wire_precision="f64")
    checked = 0
    for _ in range(100):
        p, q = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        r = int(rng.integers(1, min(p, q) + 1))
        g = rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
        eps = float(rng.uniform(0.5, 0.99))
        pkt, _ = compress_gradient(grads_of([g]), eps, policy)
        entry = pkt.entries[0]
        if entry.mode == MODE_RAW:
            continue
        checked += 1
        recon = decompress(pkt, grads_of([np.zeros_like(g)]).zeros_like())
        err = np.linalg.norm(g - recon.get("layer0.w")) ** 2
        tot = np.linalg.norm(g) ** 2
        assert err / tot <= (1.0 - eps) + 1e-12
        # factor sizes beat the raw matrix, on the factorized orientation
        pp, qq = entry.u.shape[0], entry.vt.shape[1]
        rr = entry.rank
        assert pp * rr + rr * rr + rr * qq < pp * qq
    assert checked >= 30  # the generator must actually exercise the lowrank path


def test_svd_failure_falls_back_to_raw(monkeypatch):
    asked = []

    def explode(*args, **kwargs):
        asked.append(args[0].shape)
        raise np.linalg.LinAlgError("SVD did not converge")
    # gesdd fails, so thin_svd raises SvdNonConvergence and the layer goes raw
    monkeypatch.setattr(np.linalg, "svd", explode)
    g = np.random.default_rng(2).normal(size=(20, 4))
    pkt, svd_fallbacks = compress_gradient(grads_of([g, np.arange(3.0)]), 0.9,
                                           CompressionPolicy(wire_precision="f64"))
    assert svd_fallbacks == 1
    assert len(asked) == 1
    assert all(e.mode == MODE_RAW for e in pkt.entries)
    out = decompress(pkt, grads_of([np.zeros_like(g), np.zeros(3)]).zeros_like())
    assert np.array_equal(out.get("layer0.w"), g)


# the working matrices of the HAR CNN (fc1, fc2, conv2, conv1), each tall
GRAM_SHAPES = [(1664, 256), (256, 128), (288, 64), (81, 32)]


def gram_probe_matrices(p, q, seed):
    rng = np.random.default_rng(seed)
    return {
        "lowrank": rng.normal(size=(p, 12)) @ rng.normal(size=(12, q))
                   + 0.05 * rng.normal(size=(p, q)),
        "graded": rng.normal(size=(p, q)) * np.logspace(0, -8, q),
        "normal": rng.normal(size=(p, q)),
    }


@pytest.mark.parametrize("p, q", GRAM_SHAPES)
def test_gram_factors_keep_the_direct_rank_and_truncation(p, q):
    for kind, g in gram_probe_matrices(p, q, seed=p).items():
        u, s, v = thin_svd(g)
        for eps in (0.5, 0.9, 0.99):
            r = select_rank(s, eps)
            gu, gs, gv = cp._truncated_factors(g, eps)
            assert gs.size == r, (kind, eps)
            direct = (u[:, :r] * s[:r]) @ v[:, :r].T
            sent = (gu * gs) @ gv.T
            assert np.linalg.norm(sent - direct) <= 1e-10 * np.linalg.norm(direct)
            assert np.sum((g - sent) ** 2) <= (1.0 - eps) * np.sum(g * g)

        # the wide orientation is transposed first and keeps the same rank;
        # a full-rank normal matrix fails the size gate
        entry, failed = compress_layer("w", g.T, 0.9, "f64")
        assert not failed
        assert entry.mode == (MODE_RAW if kind == "normal" else MODE_LOWRANK_T)
        if entry.mode != MODE_RAW:
            assert entry.rank == select_rank(s, 0.9)
            assert entry.u.shape == (p, entry.rank)


def test_gram_certificate_shortfall_factors_directly(monkeypatch):
    g = gram_probe_matrices(288, 64, seed=3)["lowrank"]
    eps = 0.9
    factored, ranks = [], []

    def recording_svd(a):
        factored.append(a.shape)
        return thin_svd(a)

    def short_first_rank(sigma, eps):
        r = select_rank(sigma, eps)
        ranks.append(r)
        # the Gram spectrum's rank one short: its kept energy misses eps
        return r - 1 if len(ranks) == 1 else r

    monkeypatch.setattr(cp, "thin_svd", recording_svd)
    monkeypatch.setattr(cp, "select_rank", short_first_rank)
    entry, failed = compress_layer("layer0.w", g, eps, "f64")
    assert not failed and entry.mode == MODE_LOWRANK
    assert factored == [(64, 64), (288, 64)]  # the Gram matrix, then G itself
    assert entry.rank == ranks[1] == select_rank(thin_svd(g)[1], eps)
    rec = decompress(cp.GradientPacket([entry]), grads_of([np.zeros_like(g)]))
    tot = np.sum(g * g)
    assert np.sum((g - rec.layers[0].values) ** 2) <= (1.0 - eps) * tot


# prints a digest of the encoded entry of fixed-seed low-rank gradients of
# each working matrix of the HAR CNN, then of a full-rank normal fc2 matrix
# whose rank-32 factors reach into the spectrum's bulk.  (The same at fc1,
# rank 88 of a 256 x 256 Gram, is not BLAS-thread invariant with either
# LAPACK build: ROADMAP.)
_COMPRESSOR_DIGESTS = """
import hashlib
import numpy as np
from fedkdx.compression import GradientPacket, compress_layer, encode_packet
def digest(g, eps, precision):
    entry, _ = compress_layer("w", g, eps, precision)
    blob = encode_packet(GradientPacket([entry]))
    print(g.shape, eps, precision, entry.mode, entry.rank, hashlib.sha256(blob).hexdigest())
for p, q in ((1664, 256), (256, 128), (288, 64), (81, 32)):
    rng = np.random.default_rng(p)
    g = rng.normal(size=(p, 12)) @ rng.normal(size=(12, q)) + 0.05 * rng.normal(size=(p, q))
    for precision in ("f32", "f64"):
        digest(g, 0.9, precision)
digest(np.random.default_rng(0).normal(size=(256, 128)), 0.5, "f64")
"""


def test_blas_thread_count_does_not_change_compressed_bytes():
    outs = []
    for blas in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _COMPRESSOR_DIGESTS],
                              env=package_env(OPENBLAS_NUM_THREADS=blas),
                              check=True, timeout=300, capture_output=True, text=True)
        outs.append(proc.stdout.splitlines())
    assert outs[0] == outs[1]
    assert len(outs[0]) == 9
    assert all(line.split()[-3] == str(MODE_LOWRANK) for line in outs[0])


def test_raw_f64_is_bitwise_f32_quantizes():
    g = np.random.default_rng(3).normal(size=(6, 3))
    grads = grads_of([g])
    out64 = decompress(raw_packet(grads, CompressionPolicy(wire_precision="f64")),
                       grads.zeros_like())
    assert np.array_equal(out64.get("layer0.w"), g)
    out32 = decompress(raw_packet(grads, CompressionPolicy(wire_precision="f32")),
                       grads.zeros_like())
    assert np.array_equal(out32.get("layer0.w"), g.astype(np.float32).astype(np.float64))


def test_decompress_validates_template():
    grads = grads_of([np.ones((4, 2))])
    pkt = raw_packet(grads, CompressionPolicy())
    with pytest.raises(ValueError):
        decompress(pkt, grads_of([np.ones((2, 4))]).zeros_like())
    renamed = ModelParams("mlp", [LayerParam("other.w", np.zeros((4, 2)))])
    with pytest.raises(ValueError):
        decompress(pkt, renamed)


# ------------------------------------------------------------- wire format

def random_packet(rng, precision):
    arrays = []
    for _ in range(int(rng.integers(1, 5))):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 12)) for _ in range(ndim))
        arrays.append(rng.normal(size=shape))
    pkt, _ = compress_gradient(grads_of(arrays), float(rng.uniform(0.5, 0.99)),
                               CompressionPolicy(wire_precision=precision))
    return pkt


def test_empty_packet_is_twelve_bytes():
    blob = encode_packet(cp.GradientPacket())
    assert len(blob) == 12
    assert decode_packet(blob).entries == []


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_codec_roundtrip_bitwise(precision):
    rng = np.random.default_rng(4)
    for _ in range(50):
        pkt = random_packet(rng, precision)
        blob = encode_packet(pkt)
        assert packet_size_bytes(pkt) == len(blob)
        back = decode_packet(blob)
        assert encode_packet(back) == blob
        for a, b in zip(pkt.entries, back.entries):
            assert (a.name, a.shape, a.mode, a.precision) == \
                   (b.name, b.shape, b.mode, b.precision)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_a_scalar_entry_round_trips(precision):
    grads = grads_of([np.arange(6.0).reshape(2, 3), np.array(2.5)])
    blob = encode_packet(raw_packet(grads, CompressionPolicy(wire_precision=precision)))
    # the scalar goes last: no dims, then its one value
    assert blob.endswith(struct.pack("<I", 0) + np.array(2.5, cp.WIRE_DTYPE[precision]).tobytes())
    out = decompress(decode_packet(blob), grads.zeros_like())
    assert out.get("layer1.w").shape == () and out.get("layer1.w") == 2.5
    assert np.array_equal(out.get("layer0.w"), grads.get("layer0.w"))


def test_decode_rejects_corruption():
    g = np.random.default_rng(5).normal(size=(12, 3))
    blob = encode_packet(raw_packet(grads_of([g]), CompressionPolicy()))

    with pytest.raises(CodecError):
        decode_packet(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CodecError):
        decode_packet(blob[:7])            # inside the magic
    with pytest.raises(CodecError):
        decode_packet(blob[:14])           # inside the first entry header
    with pytest.raises(CodecError):
        decode_packet(blob[:-1])           # payload cut short
    with pytest.raises(CodecError):
        decode_packet(blob + b"\x00")      # trailing bytes
    # non-finite values, in a raw payload and in a factor
    with pytest.raises(CodecError, match="layer 'layer0.w' has non-finite values"):
        decode_packet(blob[:-4] + struct.pack("<f", np.nan))
    lr, _ = compress_gradient(grads_of([np.outer(np.arange(1.0, 31.0), np.ones(6))]),
                              0.9, CompressionPolicy())
    assert lr.entries[0].mode == MODE_LOWRANK
    lr.entries[0].vt[0, 0] = np.inf
    with pytest.raises(CodecError, match="non-finite"):
        decode_packet(encode_packet(lr))


def test_decode_rejects_bad_mode_and_rank():
    g = np.linspace(1, 2, 30)[:, None] @ np.ones((1, 6))
    blob = bytearray(encode_packet(
        raw_packet(grads_of([g]), CompressionPolicy())))
    # header: magic 8, count 4, name_len 2, name, then the mode byte
    name_len = struct.unpack("<H", blob[12:14])[0]
    mode_at = 14 + name_len
    blob[mode_at] = 7
    with pytest.raises(CodecError):
        decode_packet(bytes(blob))

    lr, _ = compress_gradient(grads_of([g]), 0.9,
                              CompressionPolicy(wire_precision="f64"))
    assert lr.entries[0].mode == MODE_LOWRANK
    lr_blob = bytearray(encode_packet(lr))
    rank_at = 14 + name_len + 1 + 1 + 4 + 8  # mode, precision, ndim, two dims
    lr_blob[rank_at:rank_at + 4] = struct.pack("<I", 1000)
    with pytest.raises(CodecError):
        decode_packet(bytes(lr_blob))


def test_decode_rejects_oversize_shape_and_non_utf8_name():
    def one_entry(mode, dims, tail=b""):
        return (cp.PACKET_MAGIC + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
                + struct.pack("<BB", mode, 0) + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
                + tail)

    # four dims of 65536: their element count wraps to 0 in int64
    for mode, tail in ((MODE_RAW, b""), (MODE_LOWRANK, struct.pack("<I", 1))):
        with pytest.raises(CodecError, match="truncated"):
            decode_packet(one_entry(mode, (65536,) * 4, tail))
    # more dims than numpy allows, with no values to read (one dim is 0)
    with pytest.raises(CodecError, match="dims"):
        decode_packet(one_entry(MODE_RAW, (0,) + (1,) * 99))
    # an element count too long to print in an error message
    with pytest.raises(CodecError, match="dims"):
        decode_packet(one_entry(MODE_RAW, (0xFFFFFFFF,) * 1200))

    blob = bytearray(encode_packet(raw_packet(grads_of([np.ones((2, 2))]),
                                              CompressionPolicy())))
    blob[14] = 0xFF  # first byte of the layer name
    with pytest.raises(CodecError, match="UTF-8"):
        decode_packet(bytes(blob))


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**31),
       st.sampled_from(["f32", "f64"]))
def test_codec_roundtrip_property(seed, precision):
    pkt = random_packet(np.random.default_rng(seed), precision)
    blob = encode_packet(pkt)
    assert encode_packet(decode_packet(blob)) == blob
    assert packet_size_bytes(pkt) == len(blob)
